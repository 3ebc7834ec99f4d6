//! An explicit in-order pipeline: fetch → decode → issue → execute →
//! writeback.
//!
//! The issue stage is the in-order backend's ([`InOrder`]); this core
//! adds only the pipeline depth around it: results appear `FRONT_DEPTH`
//! cycles after fetch, taken branches refill the whole front end
//! (resolve-in-execute plus the redirect penalty plus the fetch/decode
//! stages), and every scalar instruction spends one cycle in writeback.

use super::inorder::InOrder;
use super::{InstrTiming, Shared};
use crate::config::SimConfig;
use crate::exec::ExecEvent;
use indexmac_isa::InstrClass;

/// Pipeline stages ahead of issue (fetch + decode).
const FRONT_DEPTH: u64 = 2;
/// Writeback-stage occupancy per instruction.
const WB_STAGE: u64 = 1;

/// The five-stage in-order pipeline: an `issue_width`-wide front end in
/// front of the in-order issue stage.
#[derive(Debug, Clone)]
pub(super) struct Pipelined {
    fetch_cycle: u64,
    fetched_in_cycle: u32,
    issue: InOrder,
}

impl Pipelined {
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            fetch_cycle: 0,
            fetched_in_cycle: 0,
            issue: InOrder::new(cfg),
        }
    }

    /// The later of the fetch and issue clocks.
    pub fn clock(&self) -> u64 {
        self.fetch_cycle.max(self.issue.clock())
    }

    pub fn observe(&mut self, m: &mut Shared, ev: &ExecEvent, class: InstrClass) -> InstrTiming {
        // ---- fetch & decode (in-order, issue_width wide) ----
        if self.fetched_in_cycle >= m.cfg.issue_width {
            self.fetch_cycle += 1;
            self.fetched_in_cycle = 0;
        }
        self.fetched_in_cycle += 1;
        // Earliest possible issue: the instruction leaves decode.
        let ready = (self.fetch_cycle + FRONT_DEPTH).max(m.regs.ready(ev));

        let t = self.issue.issue(m, ev, class, ready, WB_STAGE);
        if class == InstrClass::ControlFlow && ev.branch_taken {
            // The branch resolves in execute; the redirect then refills
            // fetch *and* decode, so the next instruction issues a full
            // front end later.
            self.fetch_cycle = t.issue_at + 1 + m.cfg.branch_taken_penalty;
            self.fetched_in_cycle = 0;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{alu_ev, branch_ev, cfg, vmac_ev};
    use super::super::Timing;
    use super::*;
    use crate::config::TimingKind;
    use indexmac_isa::{VReg, XReg};

    fn pipelined() -> Timing {
        Timing::new(cfg().with_timing(TimingKind::Pipelined))
    }

    #[test]
    fn pipeline_depth_delays_first_result() {
        let mut t = pipelined();
        let timing = t.observe(&alu_ev(XReg::T0, XReg::ZERO));
        // Fetch at 0, decode, issue at FRONT_DEPTH, execute 1 cycle,
        // writeback 1 cycle.
        assert_eq!(timing.issue_at, FRONT_DEPTH);
        assert_eq!(timing.completion, FRONT_DEPTH + 1 + WB_STAGE);
        // The scoreboard finishes the same instruction sooner.
        let mut flat = Timing::new(cfg());
        assert!(flat.observe(&alu_ev(XReg::T0, XReg::ZERO)).completion < timing.completion);
    }

    #[test]
    fn taken_branch_refills_the_front_end() {
        let mut pipe = pipelined();
        let mut flat = Timing::new(cfg());
        for t in [&mut pipe, &mut flat] {
            t.observe(&branch_ev(true));
            t.observe(&alu_ev(XReg::T1, XReg::ZERO));
        }
        // The deeper machine pays resolve + penalty + refetch where the
        // scoreboard pays only the flat penalty.
        assert!(
            pipe.total_cycles() > flat.total_cycles(),
            "pipelined {} vs scoreboard {}",
            pipe.total_cycles(),
            flat.total_cycles()
        );
        // Untaken branches cost nothing extra in fetch.
        let mut quiet = pipelined();
        quiet.observe(&branch_ev(false));
        assert_eq!(
            quiet.observe(&alu_ev(XReg::T1, XReg::ZERO)).issue_at,
            FRONT_DEPTH
        );
    }

    #[test]
    fn raw_hazard_serialises_through_the_bypass() {
        let mut t = pipelined();
        // A dependent chain through one register: each op issues the
        // cycle its producer leaves execute, not after its writeback.
        let mut last = None;
        for _ in 0..8 {
            last = Some(t.observe(&alu_ev(XReg::T0, XReg::T0)));
        }
        let last = last.expect("chain observed");
        assert_eq!(last.issue_at, FRONT_DEPTH + 7);
        assert_eq!(last.completion, FRONT_DEPTH + 8 + WB_STAGE);
    }

    #[test]
    fn vector_stream_matches_scoreboard_engine_accounting() {
        // The engine model is shared: busy cycles, v2s syncs and memory
        // traffic agree with the scoreboard on a vector-only stream.
        let mut pipe = pipelined();
        let mut flat = Timing::new(cfg());
        let vmac = vmac_ev(VReg::V1, VReg::V2);
        for _ in 0..10 {
            pipe.observe(&vmac);
            flat.observe(&vmac);
        }
        assert_eq!(pipe.engine_busy_cycles(), flat.engine_busy_cycles());
        assert_eq!(pipe.counts(), flat.counts());
    }
}
