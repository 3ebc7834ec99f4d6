//! The in-order issue stage — the original timing model, the backend
//! every pinned paper number is measured under, and the issue stage of
//! the pipelined backend.

use super::{is_engine, InstrTiming, Shared};
use crate::config::SimConfig;
use crate::exec::ExecEvent;
use indexmac_isa::InstrClass;
use std::collections::VecDeque;

/// In-order issue at `issue_width` per cycle in program order, behind a
/// reorder-buffer window that gates issue when full (in-order retire).
/// Taken branches redirect issue after the flat penalty.
#[derive(Debug, Clone)]
pub(super) struct InOrder {
    issue_cycle: u64,
    issued_in_cycle: u32,
    vdispatched_in_cycle: u32,
    rob: VecDeque<u64>,
}

impl InOrder {
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            issue_cycle: 0,
            issued_in_cycle: 0,
            vdispatched_in_cycle: 0,
            rob: VecDeque::with_capacity(cfg.rob_entries),
        }
    }

    /// The issue clock.
    pub fn clock(&self) -> u64 {
        self.issue_cycle
    }

    pub fn observe(&mut self, m: &mut Shared, ev: &ExecEvent, class: InstrClass) -> InstrTiming {
        let ready = m.regs.ready(ev);
        let t = self.issue(m, ev, class, ready, 0);
        if class == InstrClass::ControlFlow && ev.branch_taken {
            // Redirect: later instructions fetch after the penalty.
            self.advance(t.issue_at + m.cfg.branch_taken_penalty);
        }
        t
    }

    /// Advances the issue clock to `cycle`, opening fresh issue and
    /// vector-dispatch slots. Every path that moves the clock — width
    /// exhaustion, operand/ROB waits, branch redirect, vq back-pressure
    /// — funnels through here, so the per-cycle counters can never be
    /// left stale in a new cycle (a vector dispatch in a fresh cycle
    /// after a stall must see a full dispatch budget).
    fn advance(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.issue_cycle, "issue clock runs forward");
        self.issue_cycle = cycle;
        self.issued_in_cycle = 0;
        self.vdispatched_in_cycle = 0;
    }

    /// Issues one instruction whose operands are ready at `ready`,
    /// executes it and enters it into the ROB. Scalar results bypass to
    /// consumers when execution ends and complete `writeback` cycles
    /// later.
    pub fn issue(
        &mut self,
        m: &mut Shared,
        ev: &ExecEvent,
        class: InstrClass,
        ready: u64,
        writeback: u64,
    ) -> InstrTiming {
        // ---- ROB window (in-order retire) ----
        let mut issue_at = ready.max(self.issue_cycle);
        while self.rob.len() >= m.cfg.rob_entries {
            let oldest = self.rob.pop_front().expect("rob non-empty");
            if oldest > issue_at {
                // Charge the stall AND advance the issue clock on the
                // same path: the two must always move together, or a
                // later issue-slot check could observe a clock that
                // lags the cycles already charged as stalled.
                m.rob_stall_cycles += oldest - issue_at;
                issue_at = oldest;
                self.advance(oldest);
            }
        }

        // ---- issue-slot accounting ----
        if issue_at > self.issue_cycle {
            self.advance(issue_at);
        }
        if self.issued_in_cycle >= m.cfg.issue_width
            || (class.is_vector() && self.vdispatched_in_cycle >= m.cfg.vdispatch_per_cycle)
        {
            self.advance(self.issue_cycle + 1);
        }
        let issue_at = self.issue_cycle;
        self.issued_in_cycle += 1;
        if class.is_vector() {
            self.vdispatched_in_cycle += 1;
        }

        // ---- execute by class ----
        // `rob_completion` is when the instruction retires from the
        // scalar core's ROB (vector instructions retire early in the
        // decoupled design); `result_at` is when the *result* is
        // architecturally available, which is what the trace reports.
        let (start, rob_completion, result_at) = if is_engine(class) {
            let out = m.run_vector(ev, class, issue_at, 0);
            if out.dispatch > self.issue_cycle {
                // The scalar core was blocked handing the instruction
                // over a full decoupling queue.
                self.advance(out.dispatch);
            }
            (out.start, out.rob_completion, out.result_at)
        } else {
            let done = m.exec_scalar(ev, class, issue_at);
            m.regs.define(ev, done);
            (issue_at, done + writeback, done + writeback)
        };

        self.rob.push_back(rob_completion);
        m.note_completion(rob_completion);
        InstrTiming {
            issue_at,
            start,
            completion: result_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        alu_ev, branch_ev, cfg, load_ev, vindexmac_ev, vload_ev, vmac_ev, vmv_x_s_ev,
    };
    use super::super::Timing;
    use indexmac_isa::{InstrClass, VReg, XReg};

    #[test]
    fn independent_alu_ops_pack_into_issue_width() {
        let mut t = Timing::new(cfg());
        // 8 independent ops with distinct dest regs fit in one cycle.
        for i in 1..=8 {
            t.observe(&alu_ev(XReg::new(i), XReg::ZERO));
        }
        assert_eq!(t.total_cycles(), 1); // all issued at cycle 0, done at 1
                                         // A 9th op spills to the next cycle.
        t.observe(&alu_ev(XReg::new(9), XReg::ZERO));
        assert_eq!(t.total_cycles(), 2);
    }

    #[test]
    fn dependent_chain_serialises() {
        let mut t = Timing::new(cfg());
        for _ in 0..10 {
            t.observe(&alu_ev(XReg::T0, XReg::T0));
        }
        // Each op waits for the previous one's 1-cycle latency.
        assert!(t.total_cycles() >= 10);
    }

    #[test]
    fn scalar_load_latency_propagates_to_consumer() {
        let mut t = Timing::new(cfg());
        t.observe(&load_ev(XReg::T0, 0x1000));
        let cold = t.total_cycles();
        assert!(cold > 10, "cold load must reach DRAM (got {cold})");
        // A dependent consumer issues only after the load returns.
        t.observe(&alu_ev(XReg::T1, XReg::T0));
        assert_eq!(t.total_cycles(), cold + 1);
    }

    #[test]
    fn taken_branch_pays_redirect() {
        let mut t = Timing::new(cfg());
        t.observe(&branch_ev(true));
        t.observe(&alu_ev(XReg::T1, XReg::ZERO));
        // Next instruction issues only after the redirect penalty.
        assert!(t.total_cycles() > cfg().branch_taken_penalty);
    }

    #[test]
    fn vector_load_data_gates_dependent_mac() {
        let mut t = Timing::new(cfg());
        t.observe(&vload_ev(VReg::V1, 0x0));
        t.observe(&vmac_ev(VReg::V2, VReg::V1));
        let with_dep = t.total_cycles();

        let mut t2 = Timing::new(cfg());
        t2.observe(&vload_ev(VReg::V1, 0x0));
        t2.observe(&vmac_ev(VReg::V2, VReg::V3)); // independent
        let without_dep = t2.total_cycles();
        assert!(
            with_dep >= without_dep,
            "dependent MAC cannot finish before independent one ({with_dep} vs {without_dep})"
        );
    }

    #[test]
    fn indexmac_waits_for_indirect_source() {
        let mut t = Timing::new(cfg());
        // Load into v20, then vindexmac reading v20 indirectly.
        t.observe(&vload_ev(VReg::new(20), 0x0));
        let loaded_at = t.total_cycles();
        t.observe(&vindexmac_ev(VReg::V1, VReg::V2, VReg::new(20)));
        assert!(
            t.total_cycles() >= loaded_at,
            "vindexmac must wait for the loaded tile"
        );
        assert_eq!(t.counts().get(InstrClass::VIndexMac), 1);
    }

    #[test]
    fn v2s_move_couples_clocks() {
        let mut t = Timing::new(cfg());
        t.observe(&vmv_x_s_ev(XReg::T0, VReg::V1));
        let sync = t.total_cycles();
        assert!(sync >= cfg().v2s_latency);
        // A scalar consumer of t0 waits for the transfer.
        t.observe(&alu_ev(XReg::T1, XReg::T0));
        assert!(t.total_cycles() > sync);
        assert_eq!(t.v2s_syncs(), 1);
    }

    #[test]
    fn load_queue_caps_outstanding_loads() {
        let mut t = Timing::new(cfg());
        // Far more loads than queue entries, all to distinct cold lines.
        for i in 0..64 {
            t.observe(&vload_ev(VReg::new((i % 8) as u8), (i as u64) * 4096));
        }
        // With 16 entries and ~90-cycle DRAM, 64 cold loads cannot all
        // overlap: total must exceed a single miss by a lot.
        assert!(t.total_cycles() > 200, "got {}", t.total_cycles());
    }

    #[test]
    fn engine_in_order_even_when_independent() {
        let mut t = Timing::new(cfg());
        t.observe(&vmac_ev(VReg::V1, VReg::V2));
        let one = t.engine_busy_cycles();
        t.observe(&vmac_ev(VReg::V3, VReg::V4));
        assert_eq!(t.engine_busy_cycles(), one * 2);
    }

    #[test]
    fn eliminating_the_load_is_faster() {
        // Micro-version of the paper's claim: (load+mac) vs indexmac.
        let mut with_load = Timing::new(cfg());
        let mut without = Timing::new(cfg());
        // Warm the line so the comparison is an L2-hit comparison.
        with_load.observe(&vload_ev(VReg::V8, 0x100000));
        without.observe(&vload_ev(VReg::V8, 0x100000));
        let w0 = with_load.total_cycles();
        let n0 = without.total_cycles();
        assert_eq!(w0, n0);
        for i in 0..32 {
            with_load.observe(&vload_ev(VReg::V5, 0x100000));
            with_load.observe(&vmac_ev(VReg::new((i % 4) as u8), VReg::V5));
            without.observe(&vindexmac_ev(VReg::new((i % 4) as u8), VReg::V6, VReg::V8));
        }
        assert!(
            with_load.total_cycles() > without.total_cycles(),
            "load+mac {} should exceed indexmac {}",
            with_load.total_cycles(),
            without.total_cycles()
        );
        assert!(with_load.mem_stats().vector_loads > without.mem_stats().vector_loads);
    }

    #[test]
    fn class_counts_accumulate() {
        let mut t = Timing::new(cfg());
        t.observe(&alu_ev(XReg::T0, XReg::ZERO));
        t.observe(&vload_ev(VReg::V1, 0));
        t.observe(&vmac_ev(VReg::V2, VReg::V1));
        let c = t.counts();
        assert_eq!(c.total(), 3);
        assert_eq!(c.vector_total(), 2);
        assert_eq!(c.get(InstrClass::ScalarAlu), 1);
        assert_eq!(c.get(InstrClass::VLoad), 1);
        assert_eq!(c.get(InstrClass::VMac), 1);
    }

    /// Regression for the scattered `vdispatched_in_cycle` resets and
    /// the ROB-stall/issue-clock split: with a 2-entry window, a slow
    /// cold scalar load followed by vector work forces a ROB-full stall;
    /// the stall cycles charged must equal the issue-clock jump, and a
    /// vector dispatch landing in the *new* cycle must see a fresh
    /// dispatch budget (not be throttled by a stale per-cycle counter
    /// from before the stall).
    #[test]
    fn rob_stall_advances_clock_and_reopens_vector_dispatch_budget() {
        let mut c = cfg();
        c.rob_entries = 2;
        let mut t = Timing::new(c);

        // 1) Cold scalar load: retires only when DRAM answers.
        t.observe(&load_ev(XReg::T0, 0x4000));
        let load_done = t.total_cycles();
        assert!(load_done > 10, "cold load reaches DRAM (got {load_done})");
        assert_eq!(t.rob_stall_cycles(), 0);

        // 2) One vector op fills the window (and consumes the cycle's
        // single vector-dispatch slot at cycle 0).
        t.observe(&vmac_ev(VReg::V1, VReg::V2));
        assert_eq!(t.rob_stall_cycles(), 0);

        // 3) The next vector op finds the window full; the oldest entry
        // (the load) retires at `load_done`, so issue jumps there.
        let timing = t.observe(&vmac_ev(VReg::V4, VReg::V5));
        assert_eq!(
            t.rob_stall_cycles(),
            load_done,
            "stall cycles must equal the issue-clock jump from 0"
        );
        // The jump landed in a fresh cycle: the vector op dispatches at
        // exactly the retire cycle, not one later — a stale
        // `vdispatched_in_cycle` from cycle 0 would have throttled it.
        assert_eq!(
            timing.issue_at, load_done,
            "vector dispatch in the new cycle must not be throttled"
        );
    }
}
