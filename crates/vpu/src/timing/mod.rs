//! Cycle-approximate timing model of the decoupled vector processor.
//!
//! One [`Timing`] type times every run. It consumes the dynamic
//! instruction stream one [`ExecEvent`] at a time (O(1) state per
//! instruction, no global event queue) and owns everything the timing
//! backends share: the configuration, the memory hierarchy, the
//! decoupled vector engine ([`vector::VectorSide`]), one register
//! ready-time table, the class counts, the stall counters and the
//! [`crate::RunReport`] builder. Only the scalar core differs, selected
//! by [`crate::config::TimingKind`] in [`SimConfig::timing`]:
//!
//! * **in-order** — the original model: in-order issue at `issue_width`
//!   per cycle, a reorder-buffer window that gates issue when full, a
//!   taken-branch redirect penalty;
//! * **pipelined** — the same issue stage behind an explicit
//!   fetch/decode front end, plus one writeback stage;
//! * **out-of-order** — in-order dispatch, out-of-order execution
//!   through a ROB, reservation stations and a scalar load/store queue.
//!
//! The vector engine is the same code under every backend — the bounded
//! instruction queue, per-`VReg` ready times, lane occupancy
//! `ceil(vl/lanes)` and load/store queues directly into L2 — so dynamic
//! instruction counts and memory traffic are identical across backends
//! by construction; only scalar-side cycle accounting differs. The
//! cross-domain `vmv.x.s`/`vfmv.f.s` synchronisation cost (the coupling
//! the paper's `vx` kernel pays per non-zero) is therefore charged
//! consistently everywhere.
//!
//! Invariants every backend upholds (pinned by `tests/prop_backends.rs`):
//!
//! * each [`InstrTiming`] satisfies `completion >= start >= issue_at`;
//! * [`Timing::total_cycles`] is monotone non-decreasing across events;
//! * engine-busy cycles, and ROB-stall plus vq-stall cycles, never
//!   exceed total cycles;
//! * [`Timing::counts`] depends only on the event stream, never on the
//!   backend.

mod inorder;
mod ooo;
mod pipelined;
mod vector;

use crate::config::{SimConfig, TimingKind};
use crate::engine::Observer;
use crate::exec::ExecEvent;
use crate::report::RunReport;
use indexmac_isa::{InstrClass, Instruction};
use indexmac_mem::{MemStats, MemoryHierarchy};
use inorder::InOrder;
use ooo::OutOfOrder;
use pipelined::Pipelined;
use std::collections::VecDeque;
use vector::{VectorOutcome, VectorSide};

/// Bounded-completion-queue admission, shared by the decoupling queue
/// and the vector/scalar load-store queues: drains entries that
/// completed at or before `at`; when the queue still sits at `cap`,
/// pops the oldest entry and returns its completion time — the cycle a
/// new entry must wait for.
fn vecdeque_window(q: &mut VecDeque<u64>, cap: usize, at: u64) -> Option<u64> {
    while let Some(&c) = q.front() {
        if c <= at {
            q.pop_front();
        } else {
            break;
        }
    }
    if q.len() >= cap {
        Some(q.pop_front().expect("bounded queue non-empty at capacity"))
    } else {
        None
    }
}

/// Per-class dynamic instruction counts, indexed by
/// [`InstrClass::index`] and sized by [`InstrClass::COUNT`] — adding an
/// instruction class without extending `InstrClass::ALL` is a compile
/// error, so the table cannot silently drop a class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts([u64; InstrClass::COUNT]);

impl ClassCounts {
    /// Count of one class.
    pub fn get(&self, c: InstrClass) -> u64 {
        self.0[c.index()]
    }

    fn bump(&mut self, c: InstrClass) {
        self.0[c.index()] += 1;
    }

    /// Overwrites the count of one class (store-record decode path:
    /// persisted reports are reconstructed field by field).
    pub fn set(&mut self, c: InstrClass, count: u64) {
        self.0[c.index()] = count;
    }

    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Total vector-engine instructions.
    pub fn vector_total(&self) -> u64 {
        InstrClass::ALL
            .iter()
            .filter(|c| is_engine(**c))
            .map(|c| self.get(*c))
            .sum()
    }
}

/// Per-instruction timing record returned by [`Timing::observe`],
/// consumed by the pipeline tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTiming {
    /// Cycle the scalar core issued (or dispatched) the instruction.
    pub issue_at: u64,
    /// Cycle execution began (engine start for vector instructions; at
    /// or after `issue_at` on the scalar side).
    pub start: u64,
    /// Cycle the result became architecturally available.
    pub completion: u64,
}

/// Ready time of each scalar register's youngest definition: the
/// in-order scoreboard, and equally the out-of-order core's register
/// alias table (a new definition simply replaces the alias, so only
/// true RAW dependences stay visible).
#[derive(Debug, Clone)]
struct RegReady {
    x: [u64; 32],
    f: [u64; 32],
}

impl RegReady {
    /// Latest ready time across the event's scalar sources.
    fn ready(&self, ev: &ExecEvent) -> u64 {
        let mut ready = 0u64;
        for src in ev.instr.x_srcs().into_iter().flatten() {
            ready = ready.max(self.x[src.index() as usize]);
        }
        if let Some(fsrc) = ev.instr.f_src() {
            ready = ready.max(self.f[fsrc.index() as usize]);
        }
        ready
    }

    /// Marks the event's scalar destinations ready at `at`.
    fn define(&mut self, ev: &ExecEvent, at: u64) {
        if let Some(rd) = ev.instr.x_dst() {
            self.x[rd.index() as usize] = at;
        }
        if let Some(fd) = ev.instr.f_dst() {
            self.f[fd.index() as usize] = at;
        }
    }
}

/// Whether `class` runs on the vector engine (`vsetvli` resolves
/// scalar-side in decoupled designs).
fn is_engine(class: InstrClass) -> bool {
    class.is_vector() && class != InstrClass::VConfig
}

/// What every scalar core shares: the machine outside the core and the
/// counters a [`RunReport`] is built from.
#[derive(Debug, Clone)]
struct Shared {
    cfg: SimConfig,
    hier: MemoryHierarchy,
    vec: VectorSide,
    regs: RegReady,
    counts: ClassCounts,
    rob_stall_cycles: u64,
    last_completion: u64,
}

impl Shared {
    fn note_completion(&mut self, c: u64) {
        if c > self.last_completion {
            self.last_completion = c;
        }
    }

    /// Executes one scalar-side instruction starting at `at` and
    /// returns the cycle its result is ready. Stores commit from the
    /// store buffer off the critical path; branch redirects are the
    /// core's business.
    fn exec_scalar(&mut self, ev: &ExecEvent, class: InstrClass, at: u64) -> u64 {
        match class {
            InstrClass::ScalarAlu => {
                if matches!(ev.instr, Instruction::Mul { .. }) {
                    at + self.cfg.mul_latency
                } else {
                    at + self.cfg.alu_latency
                }
            }
            InstrClass::ScalarLoad => {
                let op = ev.mem.expect("scalar load carries a memory op");
                at + self.hier.scalar_read(op.addr, op.bytes, at)
            }
            InstrClass::ScalarStore => {
                let op = ev.mem.expect("scalar store carries a memory op");
                let _drain = self.hier.scalar_write(op.addr, op.bytes, at);
                at + 1
            }
            InstrClass::ControlFlow | InstrClass::System | InstrClass::VConfig => at + 1,
            _ => unreachable!("engine class routed to the scalar side"),
        }
    }

    /// Hands one engine instruction to the vector side at `at`. A
    /// vector-to-scalar value becomes visible to the core `v2s_extra`
    /// cycles after it leaves the engine.
    fn run_vector(
        &mut self,
        ev: &ExecEvent,
        class: InstrClass,
        at: u64,
        v2s_extra: u64,
    ) -> VectorOutcome {
        let out = self.vec.run(&mut self.hier, ev, class, at);
        if let Some(scalar_at) = out.scalar_at {
            self.regs.define(ev, scalar_at + v2s_extra);
        }
        self.note_completion(out.result_at);
        out
    }
}

/// The scalar core: each variant keeps only its own clocks and queues.
#[derive(Debug, Clone)]
enum Core {
    InOrder(InOrder),
    Pipelined(Pipelined),
    OutOfOrder(OutOfOrder),
}

/// The timing model: one scalar core of the kind [`SimConfig::timing`]
/// selects, in front of the shared vector engine and memory hierarchy.
///
/// It is an [`Observer`], so `Simulator::run` monomorphizes the engine
/// loop over it; [`Timing::report`] collects the [`RunReport`].
#[derive(Debug, Clone)]
pub struct Timing {
    shared: Shared,
    core: Core,
}

impl Timing {
    /// A cold model for `cfg`: empty caches, queues and pipelines.
    pub fn new(cfg: SimConfig) -> Self {
        let core = match cfg.timing {
            TimingKind::InOrder => Core::InOrder(InOrder::new(&cfg)),
            TimingKind::Pipelined => Core::Pipelined(Pipelined::new(&cfg)),
            TimingKind::OutOfOrder => Core::OutOfOrder(OutOfOrder::new(&cfg)),
        };
        Self {
            shared: Shared {
                cfg,
                hier: MemoryHierarchy::new(cfg.hierarchy),
                vec: VectorSide::new(cfg),
                regs: RegReady {
                    x: [0; 32],
                    f: [0; 32],
                },
                counts: ClassCounts::default(),
                rob_stall_cycles: 0,
                last_completion: 0,
            },
            core,
        }
    }

    /// Accounts one dynamic instruction, returning its timing record.
    #[inline]
    pub fn observe(&mut self, ev: &ExecEvent) -> InstrTiming {
        let class = ev.instr.class();
        let m = &mut self.shared;
        m.counts.bump(class);
        match &mut self.core {
            Core::InOrder(c) => c.observe(m, ev, class),
            Core::Pipelined(c) => c.observe(m, ev, class),
            Core::OutOfOrder(c) => c.observe(m, ev, class),
        }
    }

    /// Which scalar core is active.
    pub fn kind(&self) -> TimingKind {
        match self.core {
            Core::InOrder(_) => TimingKind::InOrder,
            Core::Pipelined(_) => TimingKind::Pipelined,
            Core::OutOfOrder(_) => TimingKind::OutOfOrder,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.shared.cfg
    }

    /// Per-class dynamic instruction counts.
    pub fn counts(&self) -> ClassCounts {
        self.shared.counts
    }

    /// Memory-traffic counters collected so far.
    pub fn mem_stats(&self) -> MemStats {
        self.shared.hier.stats()
    }

    /// Cycles the vector engine spent occupied.
    pub fn engine_busy_cycles(&self) -> u64 {
        self.shared.vec.engine_busy
    }

    /// Cycles the scalar core stalled on a full vector queue.
    pub fn vq_stall_cycles(&self) -> u64 {
        self.shared.vec.vq_stall_cycles
    }

    /// Cycles the scalar core stalled on a full ROB (in-flight window).
    pub fn rob_stall_cycles(&self) -> u64 {
        self.shared.rob_stall_cycles
    }

    /// Number of vector-to-scalar synchronisations observed.
    pub fn v2s_syncs(&self) -> u64 {
        self.shared.vec.v2s_syncs
    }

    /// Total cycles: every component drained.
    pub fn total_cycles(&self) -> u64 {
        let clock = match &self.core {
            Core::InOrder(c) => c.clock(),
            Core::Pipelined(c) => c.clock(),
            Core::OutOfOrder(c) => c.clock(),
        };
        clock
            .max(self.shared.vec.engine_free)
            .max(self.shared.last_completion)
    }

    /// The [`RunReport`] of a run that retired `instructions`.
    pub fn report(&self, instructions: u64) -> RunReport {
        let hier = &self.shared.hier;
        RunReport {
            cycles: self.total_cycles(),
            instructions,
            counts: self.counts(),
            mem: self.mem_stats(),
            l1d_hit_rate: hier.l1d().stats().hit_rate(),
            l2_hit_rate: hier.l2().stats().hit_rate(),
            engine_busy_cycles: self.engine_busy_cycles(),
            vq_stall_cycles: self.vq_stall_cycles(),
            rob_stall_cycles: self.rob_stall_cycles(),
            v2s_syncs: self.v2s_syncs(),
        }
    }
}

impl Observer for Timing {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        Timing::observe(self, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::MemOp;
    use indexmac_isa::{VReg, XReg};

    pub(super) fn cfg() -> SimConfig {
        SimConfig::table_i()
    }

    fn event(instr: Instruction, mem: Option<MemOp>) -> ExecEvent {
        ExecEvent {
            pc: 0,
            instr,
            mem,
            indirect_vreg: None,
            branch_taken: false,
            vl: 16,
            sew: indexmac_isa::Sew::E32,
        }
    }

    pub(super) fn alu_ev(rd: XReg, rs1: XReg) -> ExecEvent {
        event(Instruction::Addi { rd, rs1, imm: 1 }, None)
    }

    pub(super) fn load_ev(rd: XReg, addr: u64) -> ExecEvent {
        let mem = MemOp {
            addr,
            bytes: 4,
            write: false,
            vector: false,
        };
        let lw = Instruction::Lw {
            rd,
            rs1: XReg::A0,
            imm: 0,
        };
        event(lw, Some(mem))
    }

    pub(super) fn store_ev(addr: u64) -> ExecEvent {
        let mem = MemOp {
            addr,
            bytes: 4,
            write: true,
            vector: false,
        };
        let sw = Instruction::Sw {
            rs1: XReg::A0,
            rs2: XReg::T0,
            imm: 0,
        };
        event(sw, Some(mem))
    }

    pub(super) fn branch_ev(taken: bool) -> ExecEvent {
        let bne = Instruction::Bne {
            rs1: XReg::ZERO,
            rs2: XReg::T0,
            offset: -1,
        };
        ExecEvent {
            branch_taken: taken,
            ..event(bne, None)
        }
    }

    pub(super) fn vload_ev(vd: VReg, addr: u64) -> ExecEvent {
        let mem = MemOp {
            addr,
            bytes: 64,
            write: false,
            vector: true,
        };
        event(Instruction::Vle32 { vd, rs1: XReg::A0 }, Some(mem))
    }

    pub(super) fn vmac_ev(vd: VReg, vs2: VReg) -> ExecEvent {
        let fs1 = indexmac_isa::instr::FReg::F0;
        event(Instruction::VfmaccVf { vd, fs1, vs2 }, None)
    }

    pub(super) fn vmv_x_s_ev(rd: XReg, vs2: VReg) -> ExecEvent {
        event(Instruction::VmvXs { rd, vs2 }, None)
    }

    pub(super) fn vindexmac_ev(vd: VReg, vs2: VReg, indirect: VReg) -> ExecEvent {
        let rs = XReg::T0;
        ExecEvent {
            indirect_vreg: Some(indirect),
            ..event(Instruction::VindexmacVx { vd, vs2, rs }, None)
        }
    }

    #[test]
    fn timing_selects_core_from_config() {
        for kind in TimingKind::ALL {
            let m = Timing::new(cfg().with_timing(kind));
            assert_eq!(m.kind(), kind);
            assert_eq!(m.config().timing, kind);
        }
    }

    #[test]
    fn counts_are_backend_independent() {
        let mut models: Vec<Timing> = TimingKind::ALL
            .iter()
            .map(|&k| Timing::new(cfg().with_timing(k)))
            .collect();
        for i in 0..20 {
            let ev = alu_ev(XReg::new(1 + (i % 8)), XReg::ZERO);
            for m in &mut models {
                m.observe(&ev);
            }
        }
        for m in &models {
            assert_eq!(m.counts().total(), 20);
            assert_eq!(m.counts().get(InstrClass::ScalarAlu), 20);
        }
    }

    #[test]
    fn class_counts_table_covers_every_class() {
        let mut c = ClassCounts::default();
        for class in InstrClass::ALL {
            c.bump(class);
        }
        assert_eq!(c.total(), InstrClass::COUNT as u64);
        for class in InstrClass::ALL {
            assert_eq!(c.get(class), 1, "{class:?} lost its count");
        }
        // vsetvli resolves scalar-side; everything else vector is engine
        // work.
        assert_eq!(c.vector_total(), 8);
    }

    #[test]
    fn report_collects_every_counter() {
        let mut t = Timing::new(cfg());
        t.observe(&vload_ev(VReg::V1, 0x40));
        t.observe(&vmv_x_s_ev(XReg::T0, VReg::V1));
        let r = t.report(2);
        assert_eq!(r.cycles, t.total_cycles());
        assert_eq!(r.instructions, 2);
        assert_eq!(r.counts, t.counts());
        assert_eq!(r.mem, t.mem_stats());
        assert_eq!(r.mem.vector_loads, 1);
        assert_eq!(r.engine_busy_cycles, t.engine_busy_cycles());
        assert_eq!(r.v2s_syncs, 1);
        assert_eq!(r.vq_stall_cycles, 0);
        assert_eq!(r.rob_stall_cycles, 0);
    }
}
