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
//!
//! It also holds a timed-run differential: the decoded timed run
//! ([`Simulator::run_decoded`], and `run_decoded_verified` where the
//! analyzer mints a token) must give the same
//! [`indexmac_vpu::RunReport`] — or the same fault — as
//! [`Simulator::run_stepwise_timed`] on the `step()` oracle, on every
//! backend. Its programs are counted loops thousands of instructions
//! long, with faults and instruction limits placed anywhere in them.

mod common;

use common::{instr_strategy, program_from};
use indexmac_isa::{Instruction, Program, ProgramBuilder, Sew, VReg, XReg};
use indexmac_vpu::{
    analyze, DecodedProgram, ExecEvent, Observer, SimConfig, Simulator, Timing, TimingKind,
};
use proptest::prelude::*;

/// Loop counter of [`looped_program`]; the body never writes it.
const CTR: XReg = XReg::T6;
/// Streaming pointer of [`looped_program`], bumped once per iteration;
/// the body only reads it.
const PTR: XReg = XReg::T5;
/// Holds an unaligned address for the faulting tail.
const BAD: XReg = XReg::T4;

/// How a [`looped_program`] ends.
#[derive(Debug, Clone, Copy)]
enum Tail {
    Halt,
    /// An element-misaligned vector load.
    Unaligned,
    /// A `vsetvli` to e64.
    UnsupportedSew,
    /// No `ebreak`: the fetch runs off the end.
    FellOff,
}

/// A dynamic-instruction index: early in the run or deep into the
/// loop.
fn dyn_index() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..64, 64u64..5000]
}

/// Body instructions: the valid straight-line mix plus vector and
/// scalar accesses through [`PTR`], with writes to the loop registers
/// turned into `nop`s.
fn body_instr() -> impl Strategy<Value = Instruction> {
    let vreg = (0u8..32).prop_map(VReg::new);
    let access = prop_oneof![
        vreg.clone()
            .prop_map(|vd| Instruction::Vle32 { vd, rs1: PTR }),
        vreg.prop_map(|vs3| Instruction::Vse32 { vs3, rs1: PTR }),
        (1u8..29, 0i32..16).prop_map(|(rd, k)| Instruction::Lw {
            rd: XReg::new(rd),
            rs1: PTR,
            imm: k * 4,
        }),
        (0u8..29, 0i32..16).prop_map(|(rs2, k)| Instruction::Sw {
            rs2: XReg::new(rs2),
            rs1: PTR,
            imm: k * 4,
        }),
    ];
    prop_oneof![
        instr_strategy().prop_map(|i| match i.x_dst() {
            Some(rd) if [CTR, PTR, BAD].contains(&rd) => Instruction::Nop,
            _ => i,
        }),
        access,
    ]
}

/// A counted loop around a random body, padded with `nop`s so that its
/// tail — a fault, a missing `ebreak` or the halt — is dynamic
/// instruction number `tail_at` (or the first one past it that the
/// loop shape allows, for bodies longer than `tail_at`).
fn looped_program(body: &[Instruction], tail_at: u64, tail: Tail) -> Program {
    // Prologue: the three `li`s; per iteration: body + bump + addi + bne.
    const PROLOGUE: u64 = 3;
    let per_iter = body.len() as u64 + 3;
    let span = tail_at.saturating_sub(PROLOGUE).max(per_iter);
    let (iters, pad) = (span / per_iter, span % per_iter);
    let mut b = ProgramBuilder::new();
    b.li(CTR, iters as i64);
    b.li(PTR, 0x1_0000);
    b.li(BAD, 0x2002);
    for _ in 0..pad {
        b.push(Instruction::Nop);
    }
    let top = b.bind_label();
    for &i in body {
        b.push(i);
    }
    b.addi(PTR, PTR, 64);
    b.addi(CTR, CTR, -1);
    b.bne(CTR, XReg::ZERO, top);
    match tail {
        Tail::Halt => {
            b.halt();
        }
        Tail::Unaligned => {
            b.push(Instruction::Vle32 {
                vd: VReg::V1,
                rs1: BAD,
            });
            b.halt();
        }
        Tail::UnsupportedSew => {
            b.push(Instruction::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::ZERO,
                sew: Sew::E64,
                lmul: indexmac_isa::Lmul::M1,
            });
            b.halt();
        }
        Tail::FellOff => {}
    }
    b.build()
}

/// Half the programs halt, so that half the cases compare full reports.
fn tail() -> impl Strategy<Value = Tail> {
    prop_oneof![
        Just(Tail::Halt),
        Just(Tail::Halt),
        Just(Tail::Halt),
        Just(Tail::Unaligned),
        Just(Tail::UnsupportedSew),
        Just(Tail::FellOff),
    ]
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decoded timed run and the stepwise timed run agree on the
    /// outcome — the full report, or the fault and where it struck —
    /// and on the architectural state, on every backend, with and
    /// without an instruction limit.
    #[test]
    fn decoded_timing_matches_stepwise_timing(
        body in prop::collection::vec(body_instr(), 1..24),
        tail_at in dyn_index(),
        tail in tail(),
        limit in prop_oneof![Just(u64::MAX), dyn_index()],
    ) {
        let program = looped_program(&body, tail_at, tail);
        let decoded = DecodedProgram::decode(&program);
        let token = analyze(&decoded, SimConfig::table_i().vlen_bits).verified();
        for kind in TimingKind::ALL {
            let cfg = SimConfig::table_i().with_timing(kind);
            let sim = || {
                let mut s = Simulator::new(cfg);
                s.set_max_instructions(limit);
                s
            };
            let mut stepwise = sim();
            let want = stepwise.run_stepwise_timed(&program);
            let mut decoded_run = sim();
            let got = decoded_run.run_decoded(&decoded);
            prop_assert_eq!(&got, &want, "{}: decoded vs stepwise", kind);
            prop_assert_eq!(decoded_run.state(), stepwise.state(), "{}: state", kind);
            if let Some(token) = token {
                let mut verified = sim();
                let got = verified.run_decoded_verified(&decoded, token);
                prop_assert_eq!(&got, &want, "{}: verified vs stepwise", kind);
            }
        }
    }
}
