//! Cross-backend timing invariants: for random valid programs and
//! random ROB and vector-queue sizes, every scalar core of
//! [`indexmac_vpu::Timing`] (in-order scoreboard, pipelined,
//! out-of-order) must keep the model's invariants event by event, and
//! the backends must agree on everything that is *not* timing —
//! instret, per-class counts, memory traffic.
//!
//! These are the properties the `Timing` module documents:
//!
//! * per event: `completion >= start >= issue_at`;
//! * `total_cycles()` is monotone non-decreasing across events;
//! * `engine_busy_cycles() <= total_cycles()`;
//! * `rob_stall_cycles() + vq_stall_cycles() <= total_cycles()` — each
//!   stalled cycle is a cycle of the run, counted once;
//! * instret and [`indexmac_vpu::ClassCounts`] are backend-invariant;
//! * `counts().total()` equals the number of events observed.

mod common;

use common::{instr_strategy, program_from};
use indexmac_vpu::{DecodedProgram, ExecEvent, Observer, SimConfig, Simulator, Timing, TimingKind};
use proptest::prelude::*;

/// An [`Observer`] that checks the per-event invariants as the stream
/// flows through, then exposes the finished model.
struct InvariantObserver {
    model: Timing,
    events: u64,
    last_total: u64,
}

impl InvariantObserver {
    fn new(cfg: SimConfig) -> Self {
        Self {
            model: Timing::new(cfg),
            events: 0,
            last_total: 0,
        }
    }
}

impl Observer for InvariantObserver {
    fn observe(&mut self, ev: &ExecEvent) {
        let kind = self.model.kind();
        let t = self.model.observe(ev);
        assert!(
            t.start >= t.issue_at,
            "{kind}: event {}: start {} < issue_at {}",
            self.events,
            t.start,
            t.issue_at
        );
        assert!(
            t.completion >= t.start,
            "{kind}: event {}: completion {} < start {}",
            self.events,
            t.completion,
            t.start
        );
        let total = self.model.total_cycles();
        assert!(
            total >= self.last_total,
            "{kind}: event {}: total_cycles went backwards ({} -> {})",
            self.events,
            self.last_total,
            total
        );
        self.last_total = total;
        self.events += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every backend satisfies the per-event and whole-run invariants
    /// on random programs and window sizes, and the backend-invariant
    /// quantities agree bit-for-bit across all three.
    #[test]
    fn backends_satisfy_timing_invariants(
        instrs in prop::collection::vec(instr_strategy(), 1..160),
        rob_entries in 2usize..64,
        vq_depth in 1usize..8,
    ) {
        let program = DecodedProgram::decode(&program_from(&instrs));
        let mut runs = Vec::new();
        for kind in TimingKind::ALL {
            let cfg = SimConfig {
                rob_entries,
                vq_depth,
                ..SimConfig::table_i().with_timing(kind)
            };
            let mut sim = Simulator::new(cfg);
            let mut obs = InvariantObserver::new(cfg);
            let instret = sim
                .run_decoded_with(&program, &mut obs)
                .expect("generated programs are valid");
            let m = &obs.model;
            let counts = m.counts();
            prop_assert_eq!(
                counts.total(),
                obs.events,
                "{}: counts.total() != events observed",
                kind
            );
            prop_assert_eq!(counts.total(), instret, "{}: counts.total() != instret", kind);
            prop_assert!(
                m.engine_busy_cycles() <= m.total_cycles(),
                "{}: engine busy {} > total {}",
                kind,
                m.engine_busy_cycles(),
                m.total_cycles()
            );
            prop_assert!(
                m.rob_stall_cycles() + m.vq_stall_cycles() <= m.total_cycles(),
                "{}: rob stall {} + vq stall {} > total {}",
                kind,
                m.rob_stall_cycles(),
                m.vq_stall_cycles(),
                m.total_cycles()
            );
            runs.push((kind, instret, obs));
        }
        let (_, base_instret, base) = &runs[0];
        for (kind, instret, obs) in &runs {
            prop_assert_eq!(instret, base_instret, "{}: instret differs", kind);
            prop_assert_eq!(
                obs.model.counts(),
                base.model.counts(),
                "{}: class counts differ",
                kind
            );
            prop_assert_eq!(
                obs.model.mem_stats(),
                base.model.mem_stats(),
                "{}: memory traffic differs",
                kind
            );
        }
    }
}
