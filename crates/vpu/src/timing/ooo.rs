//! The out-of-order scalar core: in-order dispatch, out-of-order
//! execution, in-order retirement.
//!
//! Built from the standard microarchitectural structures, following the
//! textbook organisation:
//!
//! * **register renaming** through the shared ready-time table, which
//!   tracks each architectural register's *youngest* definition — a new
//!   definition simply replaces the alias, so WAW/WAR hazards vanish by
//!   construction and only true RAW dependences reach the scheduler;
//! * **reservation stations** ([`ReservationStations`]) where scalar
//!   instructions wait for operands without blocking younger dispatch;
//! * a **reorder buffer** ([`Rob`]) enforcing in-order retirement
//!   (retire times are the running prefix-max of completions) and
//!   stalling dispatch when full;
//! * a scalar **load/store queue** ([`LoadStoreQueue`]) with
//!   conservative memory disambiguation — a load waits for the youngest
//!   older store whose byte range overlaps; stores commit in order.
//!
//! The decoupled vector engine is the one every backend shares: vector
//! instructions hand over *in program order* once their scalar operands
//! are ready, and the engine executes in order behind the decoupling
//! queue. Scalar instructions, however, are free to execute around
//! outstanding vector latency — which is what the follow-up paper
//! predicts should widen `vvi`'s lead over `vx`: `vx` pays a
//! [`V2S_COMMIT_EXTRA`]-inflated cross-domain round-trip per non-zero
//! that no amount of scalar reordering hides, while `vvi` has no scalar
//! coupling to reorder around.

use super::{is_engine, InstrTiming, Shared};
use crate::config::SimConfig;
use crate::exec::ExecEvent;
use indexmac_isa::InstrClass;
use std::collections::VecDeque;

/// Extra cycles a vector→scalar transfer (`vmv.x.s`) takes to become
/// visible to the out-of-order scheduler: cross-domain results are not
/// wired into the scalar bypass network and commit through the ROB.
const V2S_COMMIT_EXTRA: u64 = 2;

/// Reorder buffer: per-entry *retire* times in program order (the
/// prefix-max of completion times, since retirement is in order).
/// Dispatch blocks when full until the oldest entry retires.
#[derive(Debug, Clone)]
struct Rob {
    retire_times: VecDeque<u64>,
    cap: usize,
    last_retire: u64,
}

impl Rob {
    fn new(cap: usize) -> Self {
        Self {
            retire_times: VecDeque::with_capacity(cap),
            cap,
            last_retire: 0,
        }
    }

    /// Frees one slot for a dispatch at `at`, returning the (possibly
    /// later) cycle the slot is actually available.
    fn admit(&mut self, at: u64) -> u64 {
        // Entries already retired by `at` have freed their slots.
        while self.retire_times.front().is_some_and(|&r| r <= at) {
            self.retire_times.pop_front();
        }
        if self.retire_times.len() >= self.cap {
            let r = self.retire_times.pop_front().expect("rob non-empty");
            at.max(r)
        } else {
            at
        }
    }

    fn push(&mut self, completion: u64) {
        let retire = completion.max(self.last_retire);
        self.last_retire = retire;
        self.retire_times.push_back(retire);
    }
}

/// Reservation stations: a scalar instruction occupies an entry from
/// dispatch until it begins execution; a full pool stalls dispatch.
#[derive(Debug, Clone)]
struct ReservationStations {
    /// Per-entry cycle the occupying instruction starts executing.
    busy_until: Vec<u64>,
}

impl ReservationStations {
    fn new(cap: usize) -> Self {
        Self {
            busy_until: vec![0; cap.max(1)],
        }
    }

    /// Claims an entry for a dispatch at `at`: a free entry keeps the
    /// dispatch cycle; a full pool delays it to the earliest issue.
    fn acquire(&mut self, at: u64) -> (usize, u64) {
        if let Some(i) = self.busy_until.iter().position(|&b| b <= at) {
            return (i, at);
        }
        let (i, &soonest) = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|&(_, b)| b)
            .expect("reservation stations non-empty");
        (i, soonest)
    }

    fn occupy(&mut self, slot: usize, until: u64) {
        self.busy_until[slot] = until;
    }
}

/// One in-flight scalar memory operation.
#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    addr: u64,
    bytes: u64,
    complete: u64,
    is_store: bool,
}

/// Scalar load/store queue with conservative disambiguation.
#[derive(Debug, Clone)]
struct LoadStoreQueue {
    entries: VecDeque<LsqEntry>,
    cap: usize,
    /// Commit cycle of the youngest store (stores commit in order).
    last_store_commit: u64,
}

impl LoadStoreQueue {
    fn new(cap: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(cap),
            cap,
            last_store_commit: 0,
        }
    }

    /// Frees one slot for a dispatch at `at`, returning the (possibly
    /// later) cycle the slot is actually available.
    fn admit(&mut self, at: u64) -> u64 {
        while self.entries.front().is_some_and(|e| e.complete <= at) {
            self.entries.pop_front();
        }
        if self.entries.len() >= self.cap {
            let e = self.entries.pop_front().expect("lsq non-empty");
            at.max(e.complete)
        } else {
            at
        }
    }

    /// Completion cycle of the youngest older store whose byte range
    /// overlaps `[addr, addr + bytes)` — the cycle a load must wait for
    /// (no speculative disambiguation).
    fn older_store_conflict(&self, addr: u64, bytes: u64) -> u64 {
        self.entries
            .iter()
            .rev()
            .find(|e| e.is_store && e.addr < addr + bytes && addr < e.addr + e.bytes)
            .map_or(0, |e| e.complete)
    }

    fn push(&mut self, entry: LsqEntry) {
        self.entries.push_back(entry);
    }
}

/// The out-of-order core's own clocks and queues.
#[derive(Debug, Clone)]
pub(super) struct OutOfOrder {
    // In-order front end (fetch/rename/dispatch).
    dispatch_cycle: u64,
    dispatched_in_cycle: u32,
    vdispatched_in_cycle: u32,

    // Out-of-order machinery.
    rob: Rob,
    rs: ReservationStations,
    lsq: LoadStoreQueue,

    // In-order hand-over into the shared vector engine.
    last_vq_hand: u64,
}

impl OutOfOrder {
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            dispatch_cycle: 0,
            dispatched_in_cycle: 0,
            vdispatched_in_cycle: 0,
            rob: Rob::new(cfg.rob_entries),
            rs: ReservationStations::new(cfg.rs_entries),
            lsq: LoadStoreQueue::new(cfg.lsq_entries),
            last_vq_hand: 0,
        }
    }

    /// The dispatch clock.
    pub fn clock(&self) -> u64 {
        self.dispatch_cycle
    }

    /// Single cycle-advance point of the dispatch stage: the per-cycle
    /// dispatch and vector-hand-over budgets always reopen together
    /// with the clock (same discipline as the in-order issue stage).
    fn advance_dispatch(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.dispatch_cycle, "dispatch clock runs forward");
        self.dispatch_cycle = cycle;
        self.dispatched_in_cycle = 0;
        self.vdispatched_in_cycle = 0;
    }

    /// Claims a reservation station for a dispatch at `dispatch`,
    /// moving the dispatch clock when the pool is full.
    fn acquire_rs(&mut self, dispatch: &mut u64) -> usize {
        let (slot, at) = self.rs.acquire(*dispatch);
        if at > *dispatch {
            *dispatch = at;
            self.advance_dispatch(at);
        }
        slot
    }

    /// Claims a load/store-queue slot for a dispatch at `dispatch`,
    /// moving the dispatch clock when the queue is full.
    fn admit_lsq(&mut self, dispatch: &mut u64) {
        let at = self.lsq.admit(*dispatch);
        if at > *dispatch {
            *dispatch = at;
            self.advance_dispatch(at);
        }
    }

    pub fn observe(&mut self, m: &mut Shared, ev: &ExecEvent, class: InstrClass) -> InstrTiming {
        let engine_vector = is_engine(class);

        // ---- in-order dispatch: width, then a ROB slot ----
        if self.dispatched_in_cycle >= m.cfg.issue_width
            || (engine_vector && self.vdispatched_in_cycle >= m.cfg.vdispatch_per_cycle)
        {
            self.advance_dispatch(self.dispatch_cycle + 1);
        }
        let mut dispatch = self.dispatch_cycle;
        let slot_at = self.rob.admit(dispatch);
        if slot_at > dispatch {
            // Charge the stall and advance the dispatch clock on the
            // same path (the invariant the in-order backend pins).
            m.rob_stall_cycles += slot_at - dispatch;
            dispatch = slot_at;
            self.advance_dispatch(slot_at);
        }

        let ready = m.regs.ready(ev);

        // ---- execute out of order (scalar) / hand over (vector) ----
        let (start, rob_completion, result_at) = if engine_vector {
            // Vector instructions enter the decoupling queue in program
            // order, carrying their scalar operand values — the
            // hand-over waits for RAW readiness but does NOT block
            // younger scalar dispatch.
            let hand = dispatch.max(ready).max(self.last_vq_hand);
            let out = m.run_vector(ev, class, hand, V2S_COMMIT_EXTRA);
            self.last_vq_hand = out.dispatch;
            if out.dispatch > self.dispatch_cycle {
                // A full decoupling queue does block the front end.
                self.advance_dispatch(out.dispatch);
                dispatch = out.dispatch;
            }
            (out.start, out.rob_completion, out.result_at)
        } else {
            match class {
                InstrClass::ScalarAlu | InstrClass::System | InstrClass::VConfig => {
                    let slot = self.acquire_rs(&mut dispatch);
                    let start = dispatch.max(ready);
                    self.rs.occupy(slot, start);
                    let completion = m.exec_scalar(ev, class, start);
                    m.regs.define(ev, completion);
                    (start, completion, completion)
                }
                InstrClass::ScalarLoad => {
                    let slot = self.acquire_rs(&mut dispatch);
                    self.admit_lsq(&mut dispatch);
                    let op = ev.mem.expect("scalar load carries a memory op");
                    let start = dispatch
                        .max(ready)
                        .max(self.lsq.older_store_conflict(op.addr, op.bytes));
                    self.rs.occupy(slot, start);
                    let completion = m.exec_scalar(ev, class, start);
                    self.lsq.push(LsqEntry {
                        addr: op.addr,
                        bytes: op.bytes,
                        complete: completion,
                        is_store: false,
                    });
                    m.regs.define(ev, completion);
                    (start, completion, completion)
                }
                InstrClass::ScalarStore => {
                    self.admit_lsq(&mut dispatch);
                    let op = ev.mem.expect("scalar store carries a memory op");
                    // Stores commit in order, once address and data are
                    // ready.
                    let start = dispatch.max(ready).max(self.lsq.last_store_commit);
                    let commit = m.exec_scalar(ev, class, start);
                    self.lsq.last_store_commit = commit;
                    self.lsq.push(LsqEntry {
                        addr: op.addr,
                        bytes: op.bytes,
                        complete: commit,
                        is_store: true,
                    });
                    (start, commit, commit)
                }
                InstrClass::ControlFlow => {
                    let slot = self.acquire_rs(&mut dispatch);
                    let start = dispatch.max(ready);
                    self.rs.occupy(slot, start);
                    let resolve = m.exec_scalar(ev, class, start);
                    // A `jal`'s link register is ready when it resolves.
                    m.regs.define(ev, resolve);
                    if ev.branch_taken {
                        // The redirect restarts the front end after the
                        // branch resolves plus the refill penalty.
                        self.advance_dispatch(resolve + m.cfg.branch_taken_penalty);
                    }
                    (start, resolve, resolve)
                }
                _ => unreachable!("vector class routed to the scalar side"),
            }
        };

        self.dispatched_in_cycle += 1;
        if engine_vector {
            self.vdispatched_in_cycle += 1;
        }
        self.rob.push(rob_completion);
        m.note_completion(rob_completion);
        InstrTiming {
            issue_at: dispatch,
            start,
            completion: result_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{alu_ev, branch_ev, cfg, load_ev, store_ev, vmac_ev, vmv_x_s_ev};
    use super::super::Timing;
    use super::*;
    use crate::config::TimingKind;
    use indexmac_isa::{VReg, XReg};

    fn ooo(cfg: SimConfig) -> Timing {
        Timing::new(cfg.with_timing(TimingKind::OutOfOrder))
    }

    #[test]
    fn independent_work_hides_a_slow_load() {
        // A cold load plus a dependent consumer, followed by a stream of
        // independent ALU work: the OoO core runs the independent work
        // under the load's shadow, the in-order core single-files it
        // behind the dependent consumer.
        let mut out_of_order = ooo(cfg());
        let mut flat = Timing::new(cfg());
        for t in [&mut out_of_order, &mut flat] {
            t.observe(&load_ev(XReg::T0, 0x9000));
            t.observe(&alu_ev(XReg::T1, XReg::T0)); // dependent
            for i in 0..64 {
                t.observe(&alu_ev(XReg::new(10 + (i % 8)), XReg::ZERO));
            }
        }
        assert!(
            out_of_order.total_cycles() <= flat.total_cycles(),
            "ooo {} must not trail in-order {}",
            out_of_order.total_cycles(),
            flat.total_cycles()
        );
        assert_eq!(
            out_of_order.counts(),
            flat.counts(),
            "instret is backend-invariant"
        );
    }

    #[test]
    fn dependent_consumer_still_waits() {
        let mut t = ooo(cfg());
        t.observe(&load_ev(XReg::T0, 0x9000));
        let load_done = t.total_cycles();
        assert!(load_done > 10, "cold load reaches DRAM");
        let timing = t.observe(&alu_ev(XReg::T1, XReg::T0));
        assert!(timing.start >= load_done - 1, "RAW dependence enforced");
        // But the *dispatch* of the consumer happened immediately.
        assert!(timing.issue_at <= 1);
    }

    #[test]
    fn rob_full_charges_stall_equal_to_dispatch_jump() {
        let mut c = cfg();
        c.rob_entries = 2;
        let mut t = ooo(c);
        t.observe(&load_ev(XReg::T0, 0x9000)); // slow oldest entry
        let load_done = t.total_cycles();
        t.observe(&alu_ev(XReg::T1, XReg::ZERO));
        assert_eq!(t.rob_stall_cycles(), 0);
        // Window full; the oldest (slow load) gates the third dispatch.
        let timing = t.observe(&alu_ev(XReg::T2, XReg::ZERO));
        assert_eq!(
            t.rob_stall_cycles(),
            timing.issue_at,
            "stall cycles equal the dispatch-clock jump from 0"
        );
        assert!(timing.issue_at >= load_done, "dispatch jumped to retire");
    }

    #[test]
    fn loads_wait_for_overlapping_older_stores_only() {
        let mut t = ooo(cfg());
        // The store's data (t0) comes from a cold load, so it commits
        // late; a younger overlapping load must wait for that commit
        // while a disjoint one sails past.
        t.observe(&load_ev(XReg::T0, 0xBEE_F000));
        let st = t.observe(&store_ev(0x100));
        assert!(st.completion > 10, "store data arrives from DRAM");
        let conflicting = t.observe(&load_ev(XReg::T4, 0x100));
        let disjoint = t.observe(&load_ev(XReg::T5, 0x200));
        assert!(
            conflicting.start >= st.completion,
            "overlapping load must wait for the store's commit"
        );
        assert!(
            disjoint.start < conflicting.start,
            "disjoint load must not be ordered behind the store"
        );
    }

    #[test]
    fn reservation_stations_bound_waiting_instructions() {
        let mut c = cfg();
        c.rs_entries = 2;
        c.issue_width = 8;
        let mut t = ooo(c);
        // One slow producer, then many dependents camped on it: with 2
        // RS entries the third dependent cannot dispatch until a
        // station frees (when the producer's value arrives).
        t.observe(&load_ev(XReg::T0, 0xA000));
        let load_done = t.total_cycles();
        let mut last = InstrTiming {
            issue_at: 0,
            start: 0,
            completion: 0,
        };
        for _ in 0..4 {
            last = t.observe(&alu_ev(XReg::T1, XReg::T0));
        }
        assert!(
            last.issue_at >= load_done - 1,
            "RS exhaustion must throttle dispatch ({} < {load_done})",
            last.issue_at
        );
    }

    #[test]
    fn taken_branch_redirects_dispatch() {
        let mut t = ooo(cfg());
        t.observe(&branch_ev(true));
        let next = t.observe(&alu_ev(XReg::T1, XReg::ZERO));
        assert!(
            next.issue_at > cfg().branch_taken_penalty,
            "post-redirect dispatch must pay the penalty"
        );
    }

    #[test]
    fn link_register_consumer_waits_for_the_jal() {
        // The link register's previous definition is a cold load; the
        // jal redefines it, so its consumer waits for the jal alone.
        let mut t = ooo(cfg());
        t.observe(&load_ev(XReg::RA, 0x9000));
        let load_done = t.total_cycles();
        let jal = ExecEvent {
            instr: indexmac_isa::Instruction::Jal {
                rd: XReg::RA,
                offset: 1,
            },
            ..branch_ev(true)
        };
        let link = t.observe(&jal);
        let consumer = t.observe(&alu_ev(XReg::T1, XReg::RA));
        assert!(
            consumer.start >= link.completion,
            "consumer starts at {} before the jal resolves at {}",
            consumer.start,
            link.completion
        );
        assert!(
            consumer.start < load_done,
            "consumer waited for the stale load ({} >= {load_done})",
            consumer.start
        );
    }

    #[test]
    fn v2s_transfer_pays_commit_extra() {
        let mut out_of_order = ooo(cfg());
        let mut flat = Timing::new(cfg());
        let mv = vmv_x_s_ev(XReg::T0, VReg::V1);
        let consumer = alu_ev(XReg::T1, XReg::T0);
        out_of_order.observe(&mv);
        flat.observe(&mv);
        let o = out_of_order.observe(&consumer);
        let f = flat.observe(&consumer);
        assert_eq!(out_of_order.v2s_syncs(), 1);
        assert_eq!(
            o.start,
            f.start + V2S_COMMIT_EXTRA,
            "cross-domain value reaches the OoO scheduler through commit"
        );
    }

    #[test]
    fn vector_hand_over_stays_in_program_order() {
        let mut t = ooo(cfg());
        let a = t.observe(&vmac_ev(VReg::V1, VReg::V2));
        let b = t.observe(&vmac_ev(VReg::V3, VReg::V4));
        assert!(b.start >= a.start, "engine executes in order");
        assert_eq!(t.counts().vector_total(), 2);
    }
}
