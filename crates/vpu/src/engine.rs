//! The decode-once execution engine.
//!
//! The legacy [`crate::exec::step`] interpreter re-derives everything
//! from the [`Instruction`] enum on **every dynamic instruction**:
//! operand fields are re-unpacked, grouping support and e32-only rules
//! are re-matched, branch offsets are re-added to the PC, and a full
//! [`ExecEvent`] is materialised even when nobody consumes it
//! (`run_functional`). With sweeps spanning (pattern × dims × SEW ×
//! LMUL × kernel × model) grids, that per-step overhead *is* the
//! repository's hot path.
//!
//! [`DecodedProgram`] moves all of it to decode time, once per program:
//!
//! * operand fields are unpacked into flat µops (immediates
//!   pre-extended to the datapath width, branch targets resolved to
//!   absolute slots);
//! * per-slot static checks are resolved: whether an opcode has
//!   register-grouping semantics and whether it is e32-only is decided
//!   by the µop variant itself, so the per-step `group_aware` /
//!   `require_e32` re-matching disappears;
//! * the per-SEW constants the vector µops need — lane masks, widening
//!   factors, element sizes — live in the const [`SEW_INFO`] table,
//!   indexed rather than recomputed;
//! * the vector µops operate on whole register-group byte slices (one
//!   borrow per instruction) and page-chunked memory transfers instead
//!   of per-lane accessor calls: unit-stride loads/stores, `vfmacc.vf`,
//!   both IndexMAC generations, and the slide/move ops through which
//!   Row-Wise-SpMM and `vindexmac.vx` walk every non-zero
//!   (`vslide1down.vx`, `vmv.x.s`, `vfmv.f.s`, `vmv.s.x`, `vadd.vx`).
//!
//! Execution is observed through the [`Observer`] trait. The engine is
//! generic over it, and [`NullObserver`] advertises at compile time
//! that events are unwanted, so the functional path monomorphizes to a
//! loop that never builds an [`ExecEvent`] at all. The legacy `step()`
//! interpreter is kept verbatim as the **oracle**:
//! `crates/vpu/tests/prop_engine.rs` differentially tests the two paths
//! for identical architectural state, reports and faults. Opcodes no
//! shipped kernel emits (`vadd.vv`, `vmul.vx`, `vslidedown.vi`, …) have
//! no µop of their own and fall back to the oracle per instruction;
//! [`DecodedProgram::oracle_fallback_slots`] counts them, and it is 0 on
//! every shipped kernel.

use crate::analyze::Verified;
use crate::checks::{
    check_e32_only, check_element_width, check_group, check_grouping_supported,
    check_sew_supported, check_slot, check_vector_alignment, check_widening_dst, group_regs,
};
use crate::exec::{step, ExecEvent, MemOp};
use crate::sim::SimError;
use crate::state::{sign_extend, ArchState};
use indexmac_isa::instr::FReg;
use indexmac_isa::{Instruction, Lmul, Program, Sew, VReg, XReg};
use indexmac_mem::MainMemory;
use std::sync::OnceLock;

/// Observes the dynamic instruction stream of an engine run.
///
/// The engine is generic over the observer, so each implementation gets
/// its own monomorphized loop: the timing path ([`crate::Timing`])
/// compiles to exactly the old closure-based loop, while
/// [`NullObserver`] — with [`Observer::WANTS_EVENTS`] `false` — compiles
/// to a loop with no event construction whatsoever.
pub trait Observer {
    /// Whether the engine must materialise an [`ExecEvent`] per dynamic
    /// instruction. `false` lets the functional path skip all event
    /// bookkeeping (the compiler removes the dead branches).
    const WANTS_EVENTS: bool = true;

    /// Called once per retired dynamic instruction, in program order.
    fn observe(&mut self, ev: &ExecEvent);
}

/// Observer of the functional path: wants nothing, sees nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    const WANTS_EVENTS: bool = false;

    #[inline]
    fn observe(&mut self, _ev: &ExecEvent) {}
}

/// Every `FnMut(&ExecEvent)` closure is an observer, so ad-hoc
/// inspection (tests, one-off instrumentation) keeps the old shape.
impl<F: FnMut(&ExecEvent)> Observer for F {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        self(ev);
    }
}

/// Per-SEW constants used by the vector µops, precomputed once instead
/// of re-derived per dynamic instruction: element bytes, the modular
/// lane mask, and the widening accumulator factor (`32 / SEW`).
#[derive(Debug, Clone, Copy)]
pub struct SewInfo {
    /// Element size in bytes.
    pub bytes: usize,
    /// Mask selecting the low `SEW` bits of a lane value.
    pub lane_mask: u32,
    /// Widening factor of the integer IndexMAC accumulator.
    pub widen: usize,
}

/// [`SewInfo`] for e8/e16/e32, indexed by [`sew_index`].
pub const SEW_INFO: [SewInfo; 3] = [
    SewInfo {
        bytes: 1,
        lane_mask: 0xFF,
        widen: 4,
    },
    SewInfo {
        bytes: 2,
        lane_mask: 0xFFFF,
        widen: 2,
    },
    SewInfo {
        bytes: 4,
        lane_mask: 0xFFFF_FFFF,
        widen: 1,
    },
];

/// Index of an executable SEW in [`SEW_INFO`].
///
/// # Panics
///
/// Panics on [`Sew::E64`], which the datapath does not execute (the
/// `vsetvli` µop faults before any lane math can ask for it).
pub fn sew_index(sew: Sew) -> usize {
    match sew {
        Sew::E8 => 0,
        Sew::E16 => 1,
        Sew::E32 => 2,
        Sew::E64 => panic!("e64 lanes are outside the modelled subset"),
    }
}

/// Largest register-group byte footprint the stack scratch buffers must
/// hold: an `m4` group of 4096-bit registers.
const MAX_GROUP_BYTES: usize = 4 * 512;

/// One predecoded micro-operation. Operands are unpacked, immediates
/// pre-extended, branch targets absolute; the variant itself encodes
/// the static properties (`group_aware`, e32-only) that the legacy
/// interpreter re-derives per step. Every opcode a shipped kernel emits
/// has its own variant; the rest decode to [`Uop::Step`], which defers
/// to the oracle interpreter — bit-for-bit the legacy semantics, paid
/// only by programs outside the kernels' instruction mix.
#[derive(Debug, Clone, Copy)]
enum Uop {
    // ---- scalar ----
    Li {
        rd: XReg,
        imm: u64,
    },
    Mv {
        rd: XReg,
        rs: XReg,
    },
    Addi {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Add {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Sub {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Mul {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Slli {
        rd: XReg,
        rs1: XReg,
        shamt: u32,
    },
    Srli {
        rd: XReg,
        rs1: XReg,
        shamt: u32,
    },
    Lw {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Lwu {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Ld {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Sw {
        rs2: XReg,
        rs1: XReg,
        imm: u64,
    },
    Sd {
        rs2: XReg,
        rs1: XReg,
        imm: u64,
    },
    Flw {
        fd: FReg,
        rs1: XReg,
        imm: u64,
    },
    Beq {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Bne {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Blt {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Bge {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Jal {
        rd: XReg,
        target: i64,
    },
    Nop,
    Halt,

    // ---- hot vector ----
    Vsetvli {
        rd: XReg,
        rs1: XReg,
        sew: Sew,
        lmul: Lmul,
    },
    /// Unit-stride vector load of any element width (the width is a
    /// decode-time constant, not a per-step re-match).
    VLoad {
        vd: VReg,
        rs1: XReg,
        ew: Sew,
    },
    /// Unit-stride vector store of any element width.
    VStore {
        vs3: VReg,
        rs1: XReg,
        ew: Sew,
    },
    /// `vfmacc.vf` — the baselines' inner-loop MAC (e32-only, m1-only;
    /// both facts are this variant, not a runtime lookup).
    VfmaccVf {
        vd: VReg,
        fs1: FReg,
        vs2: VReg,
    },
    /// First-generation `vindexmac.vx`.
    VindexmacVx {
        vd: VReg,
        vs2: VReg,
        rs: XReg,
    },
    /// Second-generation `vindexmac.vvi`.
    VindexmacVvi {
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        slot: u8,
    },
    /// `vslide1down.vx` — how Row-Wise-SpMM and `vindexmac.vx` walk
    /// the non-zeros of a loaded value/index register (m1-only).
    Vslide1downVx {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
    },
    /// `vadd.vx` (m1-only).
    VaddVx {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
    },
    /// `vmv.x.s` — element 0 to a scalar register (group-aware).
    VmvXs {
        rd: XReg,
        vs2: VReg,
    },
    /// `vmv.s.x` — a scalar register into element 0 (group-aware).
    VmvSx {
        vd: VReg,
        rs1: XReg,
    },
    /// `vfmv.f.s` — element 0 to an FP register (group-aware,
    /// e32-only).
    VfmvFs {
        fd: FReg,
        vs2: VReg,
    },

    // ---- cold tail ----
    /// Any other instruction: defer to the `step()` oracle.
    Step,
}

/// Fewest repeated blocks worth replacing with a fused lane loop. Two
/// is enough: even the shortest legal run (one accumulator, two slots)
/// saves four µop dispatches plus the per-µop source-group copies, and
/// the second-generation kernels emit exactly two slots per block at
/// LMUL=2 (the 1:4 metadata packs two indices per grouped lane).
const MIN_FUSE_REPS: usize = 2;

/// Most `vindexmac.vvi` µops per block the matcher will fuse (the
/// kernels emit one per accumulator tile, far below this).
const MAX_FUSE_U: usize = 32;

/// One trace-compiled run: `reps` consecutive copies of the IndexMAC
/// steady-state block — `u` `vindexmac.vvi` µops (same destination /
/// multiplier / metadata registers per position across blocks, only the
/// metadata `slot` varies), a counter bump (`addi rd, rd, imm`) and a
/// loop-shaped `bne` whose target is the next slot either way (the
/// kernels are fully unrolled, so the "loop" branch always falls
/// through). Such a run has no memory traffic and no observable control
/// flow, which is what lets [`DecodedProgram::try_fused`] replace
/// `reps * (u + 2)` µop dispatches with `u` batched lane loops.
#[derive(Debug, Clone)]
struct FusedRun {
    start: usize,
    /// `vindexmac.vvi` µops per block.
    u: usize,
    /// Number of consecutive identical blocks.
    reps: usize,
    /// Per-position `(vd, vs2, vs1)`, identical across blocks.
    ops: Box<[(VReg, VReg, VReg)]>,
    /// All `reps * u` slot immediates in program order, extracted at
    /// trace compilation so the executor never re-fetches the µop
    /// stream.
    slots: Box<[u8]>,
    /// The counter register of the per-block `addi rd, rd, imm`.
    ctr: XReg,
    /// The per-block counter increment.
    ctr_imm: u64,
}

impl FusedRun {
    fn block_len(&self) -> usize {
        self.u + 2
    }

    fn len(&self) -> usize {
        self.reps * self.block_len()
    }
}

/// Matches one candidate block at `at`: returns `(u, ctr, imm, bne_rs1,
/// bne_rs2)` when `uops[at..]` starts with `u >= 1` `vindexmac.vvi`
/// µops, an `addi rd, rd, imm`, and a `bne` targeting its own next slot.
fn match_block(uops: &[Uop], at: usize) -> Option<(usize, XReg, u64, XReg, XReg)> {
    let mut u = 0;
    while u < MAX_FUSE_U && matches!(uops.get(at + u), Some(Uop::VindexmacVvi { .. })) {
        u += 1;
    }
    if u == 0 {
        return None;
    }
    let Some(&Uop::Addi { rd, rs1, imm }) = uops.get(at + u) else {
        return None;
    };
    if rd != rs1 {
        return None;
    }
    let bne_pc = at + u + 1;
    let Some(&Uop::Bne {
        rs1: b1,
        rs2: b2,
        target,
    }) = uops.get(bne_pc)
    else {
        return None;
    };
    if target != (bne_pc + 1) as i64 {
        return None;
    }
    Some((u, rd, imm, b1, b2))
}

/// First trace-compiler pass: scans the µop stream for runs of
/// [`MIN_FUSE_REPS`]+ identical steady-state blocks and records them,
/// plus a per-slot entry table (`0` = no run starts here, else run
/// index + 1) so the execution loop pays one array load per fetch.
fn find_fused_runs(uops: &[Uop]) -> (Box<[FusedRun]>, Box<[u32]>) {
    let mut runs: Vec<FusedRun> = Vec::new();
    let mut at_table = vec![0u32; uops.len()];
    let mut pc = 0;
    while pc < uops.len() {
        let Some((u, ctr, ctr_imm, b1, b2)) = match_block(uops, pc) else {
            pc += 1;
            continue;
        };
        let ops: Box<[(VReg, VReg, VReg)]> = (0..u)
            .map(|q| match uops[pc + q] {
                Uop::VindexmacVvi { vd, vs2, vs1, .. } => (vd, vs2, vs1),
                _ => unreachable!("match_block checked the µop kinds"),
            })
            .collect();
        let block = u + 2;
        let mut reps = 1;
        'grow: loop {
            let next = pc + reps * block;
            match match_block(uops, next) {
                Some((u2, c2, i2, x1, x2))
                    if u2 == u && c2 == ctr && i2 == ctr_imm && x1 == b1 && x2 == b2 =>
                {
                    for (q, &expect) in ops.iter().enumerate() {
                        let Uop::VindexmacVvi { vd, vs2, vs1, .. } = uops[next + q] else {
                            unreachable!("match_block checked the µop kinds");
                        };
                        if (vd, vs2, vs1) != expect {
                            break 'grow;
                        }
                    }
                    reps += 1;
                }
                _ => break,
            }
        }
        if reps >= MIN_FUSE_REPS {
            let mut slots = Vec::with_capacity(reps * u);
            for b in 0..reps {
                for q in 0..u {
                    let Uop::VindexmacVvi { slot, .. } = uops[pc + b * block + q] else {
                        unreachable!("match_block checked the µop kinds");
                    };
                    slots.push(slot);
                }
            }
            at_table[pc] = runs.len() as u32 + 1;
            runs.push(FusedRun {
                start: pc,
                u,
                reps,
                ops,
                slots: slots.into_boxed_slice(),
                ctr,
                ctr_imm,
            });
            pc += reps * block;
        } else {
            pc += 1;
        }
    }
    (runs.into(), at_table.into())
}

/// Shortest straight-line region worth compiling to a trace: below this
/// the entry-table lookup and loop setup cost as much as the dispatches
/// they replace.
const MIN_TRACE_UOPS: usize = 6;

/// Longest region one trace may cover. A bound keeps trace *starts*
/// dense in the µop stream, so an execution that leaves a trace early
/// (a fused run stopping on a data-dependent condition) falls back to
/// per-µop dispatch for at most this many µops before re-entering
/// compiled code.
const MAX_TRACE_UOPS: usize = 4096;

/// One op of a compiled [`Trace`]: a single µop with its operands
/// pre-extracted (no per-op fetch, entry-table probe, or event
/// plumbing), or a whole embedded [`FusedRun`]. Each op's architectural
/// effect is identical to the µop(s) it covers, which is what lets
/// [`DecodedProgram::run_trace`] stop between any two ops — on budget
/// exhaustion or a fused run stopping early — and hand the µop-exact
/// continuation point back to the interpreter.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    Li {
        rd: XReg,
        imm: u64,
    },
    Mv {
        rd: XReg,
        rs: XReg,
    },
    Addi {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Add {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Sub {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Mul {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Slli {
        rd: XReg,
        rs1: XReg,
        shamt: u32,
    },
    Srli {
        rd: XReg,
        rs1: XReg,
        shamt: u32,
    },
    Nop,
    Vsetvli {
        rd: XReg,
        rs1: XReg,
        sew: Sew,
        lmul: Lmul,
    },
    VLoad {
        vd: VReg,
        rs1: XReg,
        ew: Sew,
    },
    VStore {
        vs3: VReg,
        rs1: XReg,
        ew: Sew,
    },
    /// A conditional branch whose taken target is its own fall-through
    /// slot — the fully-unrolled kernels' loop bookkeeping. Whichever
    /// way the comparison goes the next slot is the same, so the op
    /// retires without reading its registers.
    BranchFall,
    /// An embedded `vindexmac.vvi` slot loop: index into
    /// [`Compiled::fused`].
    Mac {
        run: u32,
    },
    /// A coalesced run of `li` / static-address vector access µops:
    /// index into [`Trace::bursts`].
    Burst {
        idx: u32,
    },
}

/// One vector access of a [`Burst`], its address pre-resolved at
/// trace build time.
#[derive(Debug, Clone, Copy)]
struct BurstAccess {
    store: bool,
    /// Destination (load) or source (store) group base register.
    reg: VReg,
    addr: u64,
    ew: Sew,
}

/// A coalesced run of consecutive trace ops — scalar writes whose
/// values are build-time constants (`li`, or arithmetic folded over
/// `li` results) and vector loads/stores whose addresses
/// constant-propagation resolved. Executing a burst is architecturally
/// identical to dispatching the original µops one at a time: the
/// scalar writes apply in program order, the accesses apply in program
/// order, and the two streams commute with each other (accesses take
/// their addresses from the embedded constants, not the scalar file;
/// scalar ops never read vector state). What the coalescing buys is
/// batching — the shared `vl`/group-width computation happens once (no
/// `vsetvli` can appear inside a burst) and the per-op dispatch
/// disappears. All-or-nothing under a budget: a burst that does not
/// fit is skipped entirely and the interpreter retires its µops one at
/// a time instead.
#[derive(Debug, Clone)]
struct Burst {
    /// µop slots covered (one per coalesced op).
    uops: u32,
    /// Scalar constant writes, in program order.
    sets: Box<[(XReg, u64)]>,
    /// Vector accesses, in program order.
    accs: Box<[BurstAccess]>,
}

/// Executes one [`Burst`] under the current vtype. Infallible: every
/// coalesced op was classified as unable to fault under a `Verified`
/// token, and the addresses are the same constants the per-µop path
/// would compute.
fn exec_burst(burst: &Burst, state: &mut ArchState, mem: &mut MainMemory) {
    for &(rd, v) in &burst.sets {
        state.set_x(rd, v);
    }
    let vl = state.vl();
    let regs = group_regs(vl, state.vlmax());
    for a in &burst.accs {
        debug_assert_eq!(state.vtype().sew, a.ew, "verified access width drifted");
        let eb = SEW_INFO[sew_index(a.ew)].bytes;
        if a.store {
            let src = state.v_group_bytes(a.reg, regs);
            mem.write_slice(a.addr, &src[..vl * eb]);
        } else {
            let dst = state.v_group_bytes_mut(a.reg, regs);
            mem.read_slice(a.addr, &mut dst[..vl * eb]);
        }
    }
}

/// One compiled straight-line trace: `len` consecutive µops starting at
/// `start`, none of which can fault or leave the fall-through path
/// under a [`Verified`] token (the sole data-dependent fault, a fused
/// run's out-of-range indirect source, exits the trace instead of
/// raising). Executing a trace is architecturally identical to
/// dispatching its µops one at a time — it just skips the per-µop
/// fetch, entry-table probe and `pc` bookkeeping.
#[derive(Debug, Clone)]
struct Trace {
    start: usize,
    /// Total µop slots covered.
    len: usize,
    ops: Box<[TraceOp]>,
    /// Statically-known data addresses, one per page the trace's
    /// loads and stores touch, collected by [`plan_trace`]. The
    /// executor prefetches all of them once on trace entry — something
    /// the per-µop path, which discovers each address only when the
    /// `li` before the access retires, cannot do. A trace covers at
    /// most [`MAX_TRACE_UOPS`] µops (a few dozen pages), so nothing
    /// prefetched here is evicted again before its access runs.
    prefetch: Box<[u64]>,
    /// Coalesced op runs referenced by [`TraceOp::Burst`].
    bursts: Box<[Burst]>,
}

/// Fewest vector accesses that justify coalescing a run into a
/// [`Burst`]: below two, the shared `vl`/group-width setup costs as
/// much as the dispatches it saves and the run replays as plain ops.
const MIN_BURST_ACCESSES: usize = 2;

/// Third trace-compiler pass: constant-propagates the scalar register
/// file through one compiled trace and uses the resolved values two
/// ways.
///
/// **Bursts.** Maximal runs of consecutive ops whose effects are fully
/// known at build time — constant scalar writes (`li`, or arithmetic
/// whose inputs all trace back to `li`s) and vector loads/stores at
/// resolved addresses — coalesce into [`Burst`]s, replacing the run
/// with a single [`TraceOp::Burst`]. Register values at trace entry
/// are unknown (except `x0`, hardwired to zero), so only effects
/// rebuilt from constants inside the trace qualify; those are
/// identical on every execution. The kernels materialise every operand
/// address with a `li` right before the access, so in practice the
/// whole steady-state load/store traffic coalesces.
///
/// **Prefetch.** Every resolved access address is also collected into
/// the trace's page-prefetch list. Only *page transitions* are kept:
/// within a [`PAGE_BYTES`](indexmac_mem::PAGE_BYTES) page the accesses
/// stream contiguously through one allocation and the hardware
/// prefetcher keeps up on its own, but it stops at the page boundary —
/// exactly where the simulator also pays a fresh page-map lookup. One
/// early hint per new page covers that gap without paying a lookup per
/// access.
fn plan_trace(start: usize, len: usize, ops: Vec<TraceOp>, fused: &[FusedRun]) -> Trace {
    let mut vals = [None::<u64>; 32];
    // `x0` is hardwired to zero: reads see 0, writes are discarded.
    vals[0] = Some(0);
    fn set(vals: &mut [Option<u64>; 32], rd: XReg, v: Option<u64>) {
        if !rd.is_zero() {
            vals[rd.index() as usize] = v;
        }
    }
    let mut prefetch = Vec::new();
    let mut last_page = None::<u64>;
    let mut out_ops: Vec<TraceOp> = Vec::new();
    let mut bursts: Vec<Burst> = Vec::new();
    // The candidate run: original ops (replayed verbatim when the run
    // is too short to pay for itself) plus their resolved effects.
    let mut run_ops: Vec<TraceOp> = Vec::new();
    let mut run_sets: Vec<(XReg, u64)> = Vec::new();
    let mut run_accs: Vec<BurstAccess> = Vec::new();
    fn flush(
        out_ops: &mut Vec<TraceOp>,
        bursts: &mut Vec<Burst>,
        run_ops: &mut Vec<TraceOp>,
        run_sets: &mut Vec<(XReg, u64)>,
        run_accs: &mut Vec<BurstAccess>,
    ) {
        if run_accs.len() >= MIN_BURST_ACCESSES {
            out_ops.push(TraceOp::Burst {
                idx: bursts.len() as u32,
            });
            bursts.push(Burst {
                uops: run_ops.len() as u32,
                sets: std::mem::take(run_sets).into(),
                accs: std::mem::take(run_accs).into(),
            });
            run_ops.clear();
        } else {
            out_ops.append(run_ops);
            run_sets.clear();
            run_accs.clear();
        }
    }
    // A scalar op with a build-time-constant result joins the
    // candidate run as a constant write; an unresolved one ends it.
    fn fold(
        vals: &mut [Option<u64>; 32],
        run_ops: &mut Vec<TraceOp>,
        run_sets: &mut Vec<(XReg, u64)>,
        op: TraceOp,
        rd: XReg,
        v: Option<u64>,
    ) -> bool {
        set(vals, rd, v);
        match v {
            Some(v) => {
                run_ops.push(op);
                run_sets.push((rd, v));
                true
            }
            None => false,
        }
    }
    for op in ops {
        let joined = match op {
            TraceOp::Li { rd, imm } => {
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, Some(imm))
            }
            TraceOp::Mv { rd, rs } => {
                let v = vals[rs.index() as usize];
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, v)
            }
            TraceOp::Addi { rd, rs1, imm } => {
                let v = vals[rs1.index() as usize].map(|v| v.wrapping_add(imm));
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, v)
            }
            TraceOp::Add { rd, rs1, rs2 } => {
                let v = vals[rs1.index() as usize]
                    .zip(vals[rs2.index() as usize])
                    .map(|(a, b)| a.wrapping_add(b));
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, v)
            }
            TraceOp::Sub { rd, rs1, rs2 } => {
                let v = vals[rs1.index() as usize]
                    .zip(vals[rs2.index() as usize])
                    .map(|(a, b)| a.wrapping_sub(b));
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, v)
            }
            TraceOp::Mul { rd, rs1, rs2 } => {
                let v = vals[rs1.index() as usize]
                    .zip(vals[rs2.index() as usize])
                    .map(|(a, b)| a.wrapping_mul(b));
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, v)
            }
            // `shamt` was masked to `& 63` at decode, so the plain
            // shifts mirror the executor exactly.
            TraceOp::Slli { rd, rs1, shamt } => {
                let v = vals[rs1.index() as usize].map(|v| v << shamt);
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, v)
            }
            TraceOp::Srli { rd, rs1, shamt } => {
                let v = vals[rs1.index() as usize].map(|v| v >> shamt);
                fold(&mut vals, &mut run_ops, &mut run_sets, op, rd, v)
            }
            TraceOp::VLoad { vd, rs1, ew } => match vals[rs1.index() as usize] {
                Some(addr) => {
                    run_ops.push(op);
                    run_accs.push(BurstAccess {
                        store: false,
                        reg: vd,
                        addr,
                        ew,
                    });
                    note_page(&mut prefetch, &mut last_page, addr);
                    true
                }
                None => false,
            },
            TraceOp::VStore { vs3, rs1, ew } => match vals[rs1.index() as usize] {
                Some(addr) => {
                    run_ops.push(op);
                    run_accs.push(BurstAccess {
                        store: true,
                        reg: vs3,
                        addr,
                        ew,
                    });
                    note_page(&mut prefetch, &mut last_page, addr);
                    true
                }
                None => false,
            },
            // No architectural effect: rides along in the candidate
            // run (it only bumps the µop count) so one no-op between
            // two access runs does not split a burst.
            TraceOp::Nop | TraceOp::BranchFall => {
                run_ops.push(op);
                true
            }
            TraceOp::Vsetvli { rd, .. } => {
                set(&mut vals, rd, None);
                false
            }
            TraceOp::Mac { run } => {
                set(&mut vals, fused[run as usize].ctr, None);
                false
            }
            TraceOp::Burst { .. } => unreachable!("bursts are introduced by this pass"),
        };
        if !joined {
            flush(
                &mut out_ops,
                &mut bursts,
                &mut run_ops,
                &mut run_sets,
                &mut run_accs,
            );
            out_ops.push(op);
        }
    }
    flush(
        &mut out_ops,
        &mut bursts,
        &mut run_ops,
        &mut run_sets,
        &mut run_accs,
    );
    Trace {
        start,
        len,
        ops: out_ops.into(),
        prefetch: prefetch.into(),
        bursts: bursts.into(),
    }
}

/// Appends `addr` to the trace's prefetch list when it opens a new
/// [`PAGE_BYTES`](indexmac_mem::PAGE_BYTES) page (see [`plan_trace`]).
fn note_page(prefetch: &mut Vec<u64>, last_page: &mut Option<u64>, addr: u64) {
    let page = addr & !(indexmac_mem::PAGE_BYTES - 1);
    if *last_page != Some(page) {
        prefetch.push(addr);
        *last_page = Some(page);
    }
}

/// Classifies one µop for trace inclusion: its pre-extracted
/// [`TraceOp`], or `None` when the op can branch off the fall-through
/// path, fault, touch scalar memory, or needs the cold-path oracle —
/// any of those ends the trace and stays on per-µop dispatch.
fn trace_op(uop: &Uop, pc: usize) -> Option<TraceOp> {
    Some(match *uop {
        Uop::Li { rd, imm } => TraceOp::Li { rd, imm },
        Uop::Mv { rd, rs } => TraceOp::Mv { rd, rs },
        Uop::Addi { rd, rs1, imm } => TraceOp::Addi { rd, rs1, imm },
        Uop::Add { rd, rs1, rs2 } => TraceOp::Add { rd, rs1, rs2 },
        Uop::Sub { rd, rs1, rs2 } => TraceOp::Sub { rd, rs1, rs2 },
        Uop::Mul { rd, rs1, rs2 } => TraceOp::Mul { rd, rs1, rs2 },
        Uop::Slli { rd, rs1, shamt } => TraceOp::Slli { rd, rs1, shamt },
        Uop::Srli { rd, rs1, shamt } => TraceOp::Srli { rd, rs1, shamt },
        Uop::Nop => TraceOp::Nop,
        Uop::Vsetvli { rd, rs1, sew, lmul } => TraceOp::Vsetvli { rd, rs1, sew, lmul },
        Uop::VLoad { vd, rs1, ew } => TraceOp::VLoad { vd, rs1, ew },
        Uop::VStore { vs3, rs1, ew } => TraceOp::VStore { vs3, rs1, ew },
        Uop::Beq { target, .. }
        | Uop::Bne { target, .. }
        | Uop::Blt { target, .. }
        | Uop::Bge { target, .. }
            if target == (pc + 1) as i64 =>
        {
            TraceOp::BranchFall
        }
        _ => return None,
    })
}

/// Second trace-compiler pass: compiles maximal straight-line regions —
/// the whole steady-state tile body of the kernels (address `li`s,
/// unit-stride loads, `vsetvli`s, the fused MAC slot loops, stores and
/// loop bookkeeping) — into [`Trace`]s, plus a per-slot entry table
/// mirroring `fused_at`. Runs after [`find_fused_runs`] so slot loops
/// embed as single [`TraceOp::Mac`] ops.
fn find_traces(uops: &[Uop], fused: &[FusedRun], fused_at: &[u32]) -> (Box<[Trace]>, Box<[u32]>) {
    let mut traces: Vec<Trace> = Vec::new();
    let mut at_table = vec![0u32; uops.len()];
    let mut pc = 0;
    while pc < uops.len() {
        let mut ops: Vec<TraceOp> = Vec::new();
        let mut end = pc;
        while end < uops.len() && end - pc < MAX_TRACE_UOPS {
            let entry = fused_at[end];
            if entry != 0 {
                ops.push(TraceOp::Mac { run: entry - 1 });
                end += fused[entry as usize - 1].len();
                continue;
            }
            let Some(op) = trace_op(&uops[end], end) else {
                break;
            };
            ops.push(op);
            end += 1;
        }
        let len = end - pc;
        if len >= MIN_TRACE_UOPS {
            at_table[pc] = traces.len() as u32 + 1;
            traces.push(plan_trace(pc, len, ops, fused));
            pc = end;
        } else {
            pc += 1;
        }
    }
    (traces.into(), at_table.into())
}

fn decode_one(pc: usize, instr: &Instruction) -> Uop {
    use Instruction as I;
    let abs = |offset: i32| pc as i64 + offset as i64;
    match *instr {
        I::Li { rd, imm } => Uop::Li {
            rd,
            imm: imm as u64,
        },
        I::Mv { rd, rs } => Uop::Mv { rd, rs },
        I::Addi { rd, rs1, imm } => Uop::Addi {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Add { rd, rs1, rs2 } => Uop::Add { rd, rs1, rs2 },
        I::Sub { rd, rs1, rs2 } => Uop::Sub { rd, rs1, rs2 },
        I::Mul { rd, rs1, rs2 } => Uop::Mul { rd, rs1, rs2 },
        I::Slli { rd, rs1, shamt } => Uop::Slli {
            rd,
            rs1,
            shamt: (shamt & 63) as u32,
        },
        I::Srli { rd, rs1, shamt } => Uop::Srli {
            rd,
            rs1,
            shamt: (shamt & 63) as u32,
        },
        I::Lw { rd, rs1, imm } => Uop::Lw {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Lwu { rd, rs1, imm } => Uop::Lwu {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Ld { rd, rs1, imm } => Uop::Ld {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Sw { rs2, rs1, imm } => Uop::Sw {
            rs2,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Sd { rs2, rs1, imm } => Uop::Sd {
            rs2,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Flw { fd, rs1, imm } => Uop::Flw {
            fd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Beq { rs1, rs2, offset } => Uop::Beq {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Bne { rs1, rs2, offset } => Uop::Bne {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Blt { rs1, rs2, offset } => Uop::Blt {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Bge { rs1, rs2, offset } => Uop::Bge {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Jal { rd, offset } => Uop::Jal {
            rd,
            target: abs(offset),
        },
        I::Nop => Uop::Nop,
        I::Halt => Uop::Halt,
        I::Vsetvli { rd, rs1, sew, lmul } => Uop::Vsetvli { rd, rs1, sew, lmul },
        I::Vle8 { vd, rs1 } => Uop::VLoad {
            vd,
            rs1,
            ew: Sew::E8,
        },
        I::Vle16 { vd, rs1 } => Uop::VLoad {
            vd,
            rs1,
            ew: Sew::E16,
        },
        I::Vle32 { vd, rs1 } => Uop::VLoad {
            vd,
            rs1,
            ew: Sew::E32,
        },
        I::Vse8 { vs3, rs1 } => Uop::VStore {
            vs3,
            rs1,
            ew: Sew::E8,
        },
        I::Vse16 { vs3, rs1 } => Uop::VStore {
            vs3,
            rs1,
            ew: Sew::E16,
        },
        I::Vse32 { vs3, rs1 } => Uop::VStore {
            vs3,
            rs1,
            ew: Sew::E32,
        },
        I::VfmaccVf { vd, fs1, vs2 } => Uop::VfmaccVf { vd, fs1, vs2 },
        I::VindexmacVx { vd, vs2, rs } => Uop::VindexmacVx { vd, vs2, rs },
        I::VindexmacVvi { vd, vs2, vs1, slot } => Uop::VindexmacVvi { vd, vs2, vs1, slot },
        I::Vslide1downVx { vd, vs2, rs1 } => Uop::Vslide1downVx { vd, vs2, rs1 },
        I::VaddVx { vd, vs2, rs1 } => Uop::VaddVx { vd, vs2, rs1 },
        I::VmvXs { rd, vs2 } => Uop::VmvXs { rd, vs2 },
        I::VmvSx { vd, rs1 } => Uop::VmvSx { vd, rs1 },
        I::VfmvFs { fd, vs2 } => Uop::VfmvFs { fd, vs2 },
        _ => Uop::Step,
    }
}

/// A program predecoded into µops, ready to run many times.
///
/// Decoding is a single O(static-length) pass; the payoff is per
/// *dynamic* instruction, so a kernel decoded once and swept over many
/// seeds amortises to nothing (see `indexmac::experiment`'s
/// `ProgramCache`). The original instructions are kept alongside the
/// µops for event construction, tracing and the cold-path oracle.
///
/// The trace compiler's tables are built lazily, once, on the first
/// traced functional run ([`DecodedProgram::execute_verified`] under an
/// observer that wants no events) or the first coverage query
/// ([`DecodedProgram::traced_uops`] and friends). Timed runs never read
/// them, so a program that is only ever timed never pays for them.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    uops: Box<[Uop]>,
    instrs: Box<[Instruction]>,
    compiled: OnceLock<Compiled>,
}

/// The trace compiler's output for one program: the fused steady-state
/// runs and the straight-line traces, each with a per-slot entry table
/// (`0` = nothing starts at this slot, else index + 1), so the traced
/// fetch loop pays one array load per fetch.
#[derive(Debug, Clone)]
struct Compiled {
    /// Trace-compiled steady-state runs (see [`FusedRun`]).
    fused: Box<[FusedRun]>,
    fused_at: Box<[u32]>,
    /// Compiled straight-line traces (see [`Trace`]); each embeds the
    /// fused runs it spans as [`TraceOp::Mac`] ops.
    traces: Box<[Trace]>,
    trace_at: Box<[u32]>,
}

impl Compiled {
    fn new(uops: &[Uop]) -> Self {
        #[cfg(test)]
        tests::COMPILES.with(|n| n.set(n.get() + 1));
        let (fused, fused_at) = find_fused_runs(uops);
        let (traces, trace_at) = find_traces(uops, &fused, &fused_at);
        Self {
            fused,
            fused_at,
            traces,
            trace_at,
        }
    }
}

// A decoded program is plain data that callers may clone and move or
// share across threads; the lazily built trace tables keep it so.
const _: fn() = || {
    fn shareable<T: Clone + Send + Sync>() {}
    shareable::<DecodedProgram>();
};

impl From<Program> for DecodedProgram {
    /// Predecodes `program` into µops, taking over its instruction
    /// buffer. The trace tables are not built here (see
    /// [`DecodedProgram`]).
    fn from(program: Program) -> Self {
        let instrs: Box<[Instruction]> = program.into_instructions().into_boxed_slice();
        let uops: Box<[Uop]> = instrs
            .iter()
            .enumerate()
            .map(|(pc, i)| decode_one(pc, i))
            .collect();
        Self {
            uops,
            instrs,
            compiled: OnceLock::new(),
        }
    }
}

impl DecodedProgram {
    /// Predecodes a copy of `program` into µops (the `From<Program>`
    /// conversion decodes without the copy).
    pub fn decode(program: &Program) -> Self {
        Self::from(program.clone())
    }

    /// The trace tables, compiled on first use.
    fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| Compiled::new(&self.uops))
    }

    /// Whether the trace tables have been built.
    #[cfg(test)]
    pub(crate) fn is_compiled(&self) -> bool {
        self.compiled.get().is_some()
    }

    /// Number of fused steady-state runs the trace compiler found.
    pub fn fused_runs(&self) -> usize {
        self.compiled().fused.len()
    }

    /// Static µop slots covered by fused runs (the MAC slot loops
    /// alone; see [`DecodedProgram::traced_uops`] for whole-trace
    /// coverage).
    pub fn fused_uops(&self) -> usize {
        self.compiled().fused.iter().map(FusedRun::len).sum()
    }

    /// Number of compiled straight-line traces.
    pub fn trace_segments(&self) -> usize {
        self.compiled().traces.len()
    }

    /// Static µop slots covered by compiled traces — the trace
    /// compiler's coverage of the program (`traced_uops() / len()` of
    /// the hot kernels approaches 1).
    pub fn traced_uops(&self) -> usize {
        self.compiled().traces.iter().map(|t| t.len).sum()
    }

    /// Static slots whose opcode has no µop of its own and runs on the
    /// `step()` oracle. Every shipped kernel decodes to 0; a nonzero
    /// count marks a program that pays the oracle's per-lane cost.
    pub fn oracle_fallback_slots(&self) -> usize {
        self.uops.iter().filter(|u| matches!(u, Uop::Step)).count()
    }

    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// The original instruction at `pc` (µops keep their source form
    /// for events and listings).
    pub fn instruction(&self, pc: usize) -> Option<&Instruction> {
        self.instrs.get(pc)
    }

    /// The full original instruction stream — the static analyzer's
    /// input ([`crate::analyze`] walks instructions, not µops, so cold
    /// opcodes are covered too).
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Runs the program from slot 0 until `ebreak`, mutating `state`
    /// and `mem` exactly like the `step()` oracle would, reporting
    /// every dynamic instruction to `obs`.
    ///
    /// # Errors
    ///
    /// The same conditions — and the same values — as the stepwise
    /// loop: [`SimError::Exec`] on functional faults,
    /// [`SimError::FellOffEnd`] on a missing `ebreak`, and
    /// [`SimError::InstructionLimit`] once `max_instructions` retire
    /// without halting (a program whose `ebreak` *is* the limit-th
    /// instruction succeeds).
    pub fn execute<O: Observer>(
        &self,
        state: &mut ArchState,
        mem: &mut MainMemory,
        obs: &mut O,
        max_instructions: u64,
    ) -> Result<u64, SimError> {
        self.run::<O, false>(state, mem, obs, max_instructions)
    }

    /// [`DecodedProgram::execute`] with permission to enter the
    /// trace-compiled fast paths. The [`Verified`] token witnesses that
    /// [`crate::analyze`] proved every reachable slot free of static
    /// faults (element width, alignment, grouping, slot and branch
    /// ranges), which is what lets a compiled trace retire its ops —
    /// coalesced bursts in particular — without per-op checks.
    ///
    /// `token` must come from analyzing **this** program at the same
    /// VLEN (debug builds assert both).
    ///
    /// The fast paths run only when the observer wants no events (the
    /// functional [`NullObserver`] path): fused steady-state runs (see
    /// [`DecodedProgram::fused_runs`]) retire as batched lane loops and
    /// straight-line regions as compiled traces. The fused executor
    /// validates every dynamic condition the per-µop path would check
    /// just-in-time, stopping at the exact µop where one fails and
    /// handing that µop to the per-µop loop, so results — state,
    /// retired counts, faults — stay bit-identical. Under an observer
    /// that wants events the token is inert and this is
    /// [`DecodedProgram::execute`].
    ///
    /// # Errors
    ///
    /// See [`DecodedProgram::execute`].
    pub fn execute_verified<O: Observer>(
        &self,
        state: &mut ArchState,
        mem: &mut MainMemory,
        obs: &mut O,
        max_instructions: u64,
        token: Verified,
    ) -> Result<u64, SimError> {
        debug_assert_eq!(
            token.program_len(),
            self.len(),
            "Verified token minted for a different program"
        );
        debug_assert_eq!(
            token.vlen_bits(),
            state.vlen_bits(),
            "Verified token minted for a different VLEN"
        );
        self.run::<O, true>(state, mem, obs, max_instructions)
    }

    /// The fetch loop behind both entry points: runs from slot 0 for at
    /// most `limit` dynamic instructions. With `TRACED` and an observer
    /// that wants no events, compiled traces and fused runs retire in
    /// bulk; both stop µop-exactly at the limit, so the retired count
    /// and the [`SimError::InstructionLimit`] fault land on the same
    /// instruction as on the per-µop loop.
    ///
    /// Retirement semantics match the stepwise loop bit-for-bit: at
    /// least one instruction executes (even at `limit == 0`, like the
    /// oracle, which checks its limit only *after* executing), and a
    /// program that halts exactly on the limit succeeds.
    fn run<O: Observer, const TRACED: bool>(
        &self,
        state: &mut ArchState,
        mem: &mut MainMemory,
        obs: &mut O,
        limit: u64,
    ) -> Result<u64, SimError> {
        state.pc = 0;
        state.halted = false;
        // The compiled fast paths need the token's static guarantees
        // (`TRACED`) and an observer that needs no per-µop events —
        // both decided at compile time, so the checked and timed
        // monomorphizations carry no trace-compiler code at all and
        // never build the tables.
        let compiled = (TRACED && !O::WANTS_EVENTS).then(|| self.compiled());
        let mut instret: u64 = 0;
        while !state.halted {
            let pc = state.pc;
            let Some(uop) = self.uops.get(pc) else {
                return Err(SimError::FellOffEnd { pc });
            };
            if let Some(c) = compiled {
                let entry = c.trace_at[pc];
                if entry != 0 {
                    let trace = &c.traces[entry as usize - 1];
                    let n = self.run_trace(&c.fused, trace, state, mem, limit - instret)?;
                    if n > 0 {
                        instret += n;
                        if instret >= limit && !state.halted {
                            return Err(SimError::InstructionLimit { limit });
                        }
                        continue;
                    }
                }
                // No trace starts here (a trace stopped early, or a
                // branch landed inside one), but a fused slot loop might.
                let entry = c.fused_at[pc];
                if entry != 0 {
                    let run = &c.fused[entry as usize - 1];
                    let n = self.try_fused(run, state, limit - instret);
                    if n > 0 {
                        instret += n;
                        if instret >= limit && !state.halted {
                            return Err(SimError::InstructionLimit { limit });
                        }
                        continue;
                    }
                }
            }
            self.exec_uop(state, mem, obs, pc, uop)?;
            instret += 1;
            if instret >= limit && !state.halted {
                return Err(SimError::InstructionLimit { limit });
            }
        }
        Ok(instret)
    }

    /// Executes one µop, advancing `state.pc`. Split out of the fetch
    /// loop so each observer's monomorphization stays readable in
    /// profiles. Every fault the oracle raises is checked here, in the
    /// oracle's order.
    #[inline]
    fn exec_uop<O: Observer>(
        &self,
        state: &mut ArchState,
        mem: &mut MainMemory,
        obs: &mut O,
        pc: usize,
        uop: &Uop,
    ) -> Result<(), SimError> {
        // Event context, only composed when the observer wants events
        // (the stores below are dead — and removed — otherwise).
        let mut mem_op: Option<MemOp> = None;
        let mut indirect: Option<VReg> = None;
        let mut taken = false;
        let mut ev_vl = 0usize;
        let mut ev_sew = Sew::E32;
        if O::WANTS_EVENTS {
            ev_vl = state.vl();
            ev_sew = state.vtype().sew;
        }
        let mut next_pc = pc + 1;

        match *uop {
            Uop::Li { rd, imm } => state.set_x(rd, imm),
            Uop::Mv { rd, rs } => {
                let v = state.x(rs);
                state.set_x(rd, v);
            }
            Uop::Addi { rd, rs1, imm } => {
                let v = state.x(rs1).wrapping_add(imm);
                state.set_x(rd, v);
            }
            Uop::Add { rd, rs1, rs2 } => {
                let v = state.x(rs1).wrapping_add(state.x(rs2));
                state.set_x(rd, v);
            }
            Uop::Sub { rd, rs1, rs2 } => {
                let v = state.x(rs1).wrapping_sub(state.x(rs2));
                state.set_x(rd, v);
            }
            Uop::Mul { rd, rs1, rs2 } => {
                let v = state.x(rs1).wrapping_mul(state.x(rs2));
                state.set_x(rd, v);
            }
            Uop::Slli { rd, rs1, shamt } => {
                let v = state.x(rs1) << shamt;
                state.set_x(rd, v);
            }
            Uop::Srli { rd, rs1, shamt } => {
                let v = state.x(rs1) >> shamt;
                state.set_x(rd, v);
            }
            Uop::Lw { rd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                let v = mem.read_u32(addr) as i32 as i64 as u64;
                state.set_x(rd, v);
                mem_op = Some(scalar_mem(addr, 4, false));
            }
            Uop::Lwu { rd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                let v = mem.read_u32(addr) as u64;
                state.set_x(rd, v);
                mem_op = Some(scalar_mem(addr, 4, false));
            }
            Uop::Ld { rd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                let v = mem.read_u64(addr);
                state.set_x(rd, v);
                mem_op = Some(scalar_mem(addr, 8, false));
            }
            Uop::Sw { rs2, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                mem.write_u32(addr, state.x(rs2) as u32);
                mem_op = Some(scalar_mem(addr, 4, true));
            }
            Uop::Sd { rs2, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                mem.write_u64(addr, state.x(rs2));
                mem_op = Some(scalar_mem(addr, 8, true));
            }
            Uop::Flw { fd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                state.set_f_bits(fd, mem.read_u32(addr));
                mem_op = Some(scalar_mem(addr, 4, false));
            }
            Uop::Beq { rs1, rs2, target } => {
                if state.x(rs1) == state.x(rs2) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Bne { rs1, rs2, target } => {
                if state.x(rs1) != state.x(rs2) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Blt { rs1, rs2, target } => {
                if (state.x(rs1) as i64) < (state.x(rs2) as i64) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Bge { rs1, rs2, target } => {
                if (state.x(rs1) as i64) >= (state.x(rs2) as i64) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Jal { rd, target } => {
                // The link write precedes the range check, like the
                // oracle (a faulting jal leaves rd written).
                state.set_x(rd, (pc + 1) as u64);
                taken = true;
                next_pc = checked_target(target)?;
            }
            Uop::Nop => {}
            Uop::Halt => state.halted = true,
            Uop::Vsetvli { rd, rs1, sew, lmul } => {
                check_sew_supported(pc, sew)?;
                ev_vl = vsetvli_body(state, rd, rs1, sew, lmul);
                ev_sew = sew;
            }
            Uop::VLoad { vd, rs1, ew } => {
                mem_op = Some(vload_body(state, mem, pc, vd, rs1, ew)?);
            }
            Uop::VStore { vs3, rs1, ew } => {
                mem_op = Some(vstore_body(state, mem, pc, vs3, rs1, ew)?);
            }
            Uop::VfmaccVf { vd, fs1, vs2 } => {
                let vl = state.vl();
                let sew = state.vtype().sew;
                // Not group-aware: the oracle faults on grouping
                // before the element-width rule.
                check_grouping_supported(pc, vl, state.vlmax())?;
                check_e32_only(pc, sew)?;
                let s = state.f32(fs1);
                let mut buf = [0u8; MAX_GROUP_BYTES];
                buf[..vl * 4].copy_from_slice(&state.v_bytes(vs2)[..vl * 4]);
                let dst = state.v_bytes_mut(vd);
                for i in 0..vl {
                    let o = i * 4;
                    let a = f32::from_bits(le32(&buf, o));
                    let d = f32::from_bits(le32(dst, o));
                    dst[o..o + 4].copy_from_slice(&(d + s * a).to_bits().to_le_bytes());
                }
            }
            Uop::VindexmacVx { vd, vs2, rs } => {
                let sew = state.vtype().sew;
                // Unlike `.vvi`, the first-generation MAC has no
                // register-grouping semantics (the oracle's
                // `group_aware` list excludes it).
                check_grouping_supported(pc, state.vl(), state.vlmax())?;
                let src = VReg::new((state.x(rs) & 0x1F) as u8);
                let multiplier_bits = state.v_lane(vs2, 0, sew);
                indexmac_body(state, pc, vd, src, multiplier_bits, sew)?;
                indirect = Some(src);
            }
            Uop::VindexmacVvi { vd, vs2, vs1, slot } => {
                let sew = state.vtype().sew;
                check_slot(pc, slot, state.vlmax())?;
                let slot = slot as usize;
                let src = VReg::new((state.v_lane(vs1, slot, sew) & 0x1F) as u8);
                let multiplier_bits = state.v_lane(vs2, slot, sew);
                indexmac_body(state, pc, vd, src, multiplier_bits, sew)?;
                indirect = Some(src);
            }
            Uop::Vslide1downVx { vd, vs2, rs1 } => {
                let vl = state.vl();
                check_grouping_supported(pc, vl, state.vlmax())?;
                let info = SEW_INFO[sew_index(state.vtype().sew)];
                let s = state.x(rs1) as u32 & info.lane_mask;
                if vl > 0 {
                    // Lanes 1..vl move down one; the scalar fills lane
                    // vl-1. Single registers are equal or disjoint.
                    let (eb, last) = (info.bytes, (vl - 1) * info.bytes);
                    let dst = if vd == vs2 {
                        let dst = state.v_bytes_mut(vd);
                        dst.copy_within(eb..last + eb, 0);
                        dst
                    } else {
                        let (dst, src) = state.v_group_pair_mut(vd, 1, vs2, 1);
                        dst[..last].copy_from_slice(&src[eb..last + eb]);
                        dst
                    };
                    dst[last..last + eb].copy_from_slice(&s.to_le_bytes()[..eb]);
                }
            }
            Uop::VaddVx { vd, vs2, rs1 } => {
                let vl = state.vl();
                check_grouping_supported(pc, vl, state.vlmax())?;
                let sew = state.vtype().sew;
                let info = SEW_INFO[sew_index(sew)];
                let s = state.x(rs1) as u32 & info.lane_mask;
                let (eb, n) = (info.bytes, vl * info.bytes);
                // Copy the source lanes over, then add in place.
                if vd != vs2 {
                    let (dst, src) = state.v_group_pair_mut(vd, 1, vs2, 1);
                    dst[..n].copy_from_slice(&src[..n]);
                }
                let dst = state.v_bytes_mut(vd);
                for o in (0..n).step_by(eb) {
                    let v = lane_bits(dst, o, sew).wrapping_add(s);
                    dst[o..o + eb].copy_from_slice(&v.to_le_bytes()[..eb]);
                }
            }
            Uop::VmvXs { rd, vs2 } => {
                let sew = state.vtype().sew;
                let bits = lane_bits(state.v_bytes(vs2), 0, sew);
                state.set_x(rd, sign_extend(bits, sew) as i64 as u64);
            }
            Uop::VmvSx { vd, rs1 } => {
                let eb = SEW_INFO[sew_index(state.vtype().sew)].bytes;
                let s = state.x(rs1) as u32;
                state.v_bytes_mut(vd)[..eb].copy_from_slice(&s.to_le_bytes()[..eb]);
            }
            Uop::VfmvFs { fd, vs2 } => {
                check_e32_only(pc, state.vtype().sew)?;
                let bits = le32(state.v_bytes(vs2), 0);
                state.set_f_bits(fd, bits);
            }
            Uop::Step => {
                // Cold path: run the oracle interpreter for this one
                // instruction (it advances state.pc itself).
                let ev = step(state, mem, &self.instrs[pc])?;
                if O::WANTS_EVENTS {
                    obs.observe(&ev);
                }
                return Ok(());
            }
        }

        state.pc = next_pc;
        if O::WANTS_EVENTS {
            obs.observe(&ExecEvent {
                pc,
                instr: self.instrs[pc],
                mem: mem_op,
                indirect_vreg: indirect,
                branch_taken: taken,
                vl: ev_vl,
                sew: ev_sew,
            });
        }
        Ok(())
    }

    /// Executes a prefix of a [`FusedRun`] as batched lane loops and
    /// returns the µops retired (0 when the static shape check fails
    /// or the first block does not fit `budget`). `state.pc` is left
    /// at the first unexecuted slot, so the caller's per-µop loop
    /// resumes µop-exactly when the run stops early — on exhausted
    /// budget (block-granular), or on a µop whose indirect source is
    /// out of range (the one data-dependent fault the verified path
    /// retains) or aliases an accumulator group (the per-µop path
    /// handles the overlapping borrow this loop cannot express).
    ///
    /// Bit-exactness: execution is in program order, in place — block
    /// by block, accumulator by accumulator — so any retired prefix
    /// applies exactly the per-µop path's operation sequence (same f32
    /// / wrapping-integer ops, same order, no reassociation, no
    /// staging buffer). Each µop's sources are validated just-in-time
    /// *before* its lanes are touched, so a failing µop leaves state
    /// exactly as the per-µop path would find it. The run's only
    /// architectural effects are the accumulator register groups, the
    /// counter register and the PC (its branches always fall through,
    /// and it touches no memory).
    fn try_fused(&self, run: &FusedRun, state: &mut ArchState, budget: u64) -> u64 {
        let sew = state.vtype().sew;
        if sew == Sew::E64 {
            return 0;
        }
        let vl = state.vl();
        let vlmax = state.vlmax();
        let regs = group_regs(vl, vlmax);
        let info = SEW_INFO[sew_index(sew)];
        let dst_regs = if sew == Sew::E32 {
            regs
        } else {
            regs * info.widen
        };
        if vl * 4 > MAX_GROUP_BYTES {
            return 0;
        }
        // Static shape check (statically proven on the verified path;
        // re-validated because returning 0 is free) + the destination
        // bitmask: bit `r` set iff register `r` is inside some
        // accumulator group. Accumulator groups must be pairwise
        // disjoint for the mask to be meaningful, and the multiplier /
        // metadata registers outside every one of them so the batched
        // lane reads below see the same values as per-µop execution.
        let mut dst_mask: u32 = 0;
        for &(vd, ..) in &run.ops {
            let di = vd.index() as usize;
            if sew != Sew::E32 && (!di.is_multiple_of(info.widen) || dst_regs > 4) {
                return 0;
            }
            if di + dst_regs > 32 {
                return 0;
            }
            let group = ((1u32 << dst_regs) - 1) << di;
            if dst_mask & group != 0 {
                return 0;
            }
            dst_mask |= group;
        }
        for &(_, vs2, vs1) in &run.ops {
            if dst_mask & (1 << vs2.index()) != 0 || dst_mask & (1 << vs1.index()) != 0 {
                return 0;
            }
        }
        let src_mask = (1u32 << regs) - 1;

        // Execute in program order, validating each µop's indirect
        // source just-in-time against the destination mask. `done`
        // counts retired µops, which is also the PC offset into the
        // run: `u` MAC µops per block, then the counter `addi` and the
        // fall-through `bne` (no architectural effect — its target is
        // its own fall-through slot). Multiplier/metadata lanes are
        // read straight off the register file bytes: `slot < vlmax`
        // bounds the lane to one register, so the read sees exactly
        // what `v_lane` would return (and the slots that would make
        // `v_lane` panic fall back to the per-µop path, which panics
        // identically).
        let vlen_bytes = state.vlen_bits() / 8;
        let eb = info.bytes;
        let block = run.block_len();
        let mut slots = run.slots.iter();
        let mut done: usize = 0;
        'blocks: for _ in 0..run.reps {
            if (done + block) as u64 > budget {
                break;
            }
            for &(vd, vs2, vs1) in &run.ops {
                debug_assert!(matches!(
                    self.uops[run.start + done],
                    Uop::VindexmacVvi { .. }
                ));
                let slot = *slots.next().expect("decode collected reps * u slots") as usize;
                if slot >= vlmax {
                    break 'blocks;
                }
                let vrf = state.vrf_bytes();
                let m_bits = lane_bits(vrf, vs2.index() as usize * vlen_bytes + slot * eb, sew);
                let idx = lane_bits(vrf, vs1.index() as usize * vlen_bytes + slot * eb, sew);
                let src = (idx & 0x1F) as usize;
                if src + regs > 32 || (dst_mask >> src) & src_mask != 0 {
                    break 'blocks;
                }
                let src = VReg::new(src as u8);
                if sew == Sew::E32 {
                    let m = f32::from_bits(m_bits);
                    let (dst, sb) = state.v_group_pair_mut(vd, regs, src, regs);
                    let (dst, sb) = (&mut dst[..vl * 4], &sb[..vl * 4]);
                    for (ch, sc) in dst.chunks_exact_mut(4).zip(sb.chunks_exact(4)) {
                        let a = f32::from_bits(u32::from_le_bytes(sc.try_into().expect("4 bytes")));
                        let d = f32::from_bits(u32::from_le_bytes(ch.try_into().expect("4 bytes")));
                        ch.copy_from_slice(&(d + m * a).to_bits().to_le_bytes());
                    }
                } else {
                    let m = sign_extend(m_bits, sew);
                    let (dst, sb) = state.v_group_pair_mut(vd, dst_regs, src, regs);
                    let dst = &mut dst[..vl * 4];
                    if sew == Sew::E8 {
                        let sb = &sb[..vl];
                        for (ch, &raw) in dst.chunks_exact_mut(4).zip(sb.iter()) {
                            let d = i32::from_le_bytes(ch.try_into().expect("4 bytes"));
                            let v = d.wrapping_add(m.wrapping_mul(raw as i8 as i32));
                            ch.copy_from_slice(&v.to_le_bytes());
                        }
                    } else {
                        let sb = &sb[..vl * 2];
                        for (ch, sc) in dst.chunks_exact_mut(4).zip(sb.chunks_exact(2)) {
                            let a = i16::from_le_bytes(sc.try_into().expect("2 bytes")) as i32;
                            let d = i32::from_le_bytes(ch.try_into().expect("4 bytes"));
                            ch.copy_from_slice(&d.wrapping_add(m.wrapping_mul(a)).to_le_bytes());
                        }
                    }
                }
                done += 1;
            }
            // The counter `addi` plus the fall-through `bne`.
            let c = state.x(run.ctr).wrapping_add(run.ctr_imm);
            state.set_x(run.ctr, c);
            done += 2;
        }
        state.pc = run.start + done;
        done as u64
    }

    /// Executes as much of `trace` as `budget` allows, starting at its
    /// first µop (callers enter only via `trace_at[state.pc]`). Returns
    /// the µops retired; `state.pc` is left at the first unexecuted
    /// slot, so the interpreter resumes µop-exactly whether the trace
    /// ran dry of budget, hit a fused run that stopped early (the
    /// caller's per-µop loop then raises the precise fault or handles
    /// the aliasing µop), or completed.
    ///
    /// Infallible in practice: every trace op was classified as unable
    /// to fault under a `Verified` token ([`trace_op`]); the shared
    /// `*_body` helpers still run their checks, and the `Result` only
    /// propagates their type.
    fn run_trace(
        &self,
        fused: &[FusedRun],
        trace: &Trace,
        state: &mut ArchState,
        mem: &mut MainMemory,
        budget: u64,
    ) -> Result<u64, SimError> {
        // Warm every statically-known page this trace touches before
        // executing a single op. A hint only: no architectural effect,
        // and over-prefetching past an early stop just warms lines for
        // the resumed run.
        for &addr in &trace.prefetch {
            mem.prefetch(addr);
        }
        let mut pc = trace.start;
        if budget >= trace.len as u64 {
            // Fast loop: the budget covers the whole trace, so no
            // per-op budget compare or retired-count bookkeeping —
            // only `pc`, which the early-stop paths need.
            for op in &trace.ops {
                match *op {
                    TraceOp::Mac { run } => {
                        let run = &fused[run as usize];
                        let n = self.try_fused(run, state, u64::MAX);
                        pc += n as usize;
                        if n < run.len() as u64 {
                            state.pc = pc;
                            return Ok((pc - trace.start) as u64);
                        }
                    }
                    TraceOp::Burst { idx } => {
                        let burst = &trace.bursts[idx as usize];
                        exec_burst(burst, state, mem);
                        pc += burst.uops as usize;
                    }
                    _ => {
                        exec_trace_op(op, state, mem, pc)?;
                        pc += 1;
                    }
                }
            }
            state.pc = pc;
            return Ok(trace.len as u64);
        }
        let mut consumed: u64 = 0;
        'ops: for op in &trace.ops {
            if consumed >= budget {
                break;
            }
            match *op {
                TraceOp::Mac { run } => {
                    let run = &fused[run as usize];
                    let n = self.try_fused(run, state, budget - consumed);
                    consumed += n;
                    pc += n as usize;
                    if n < run.len() as u64 {
                        break 'ops;
                    }
                }
                // All-or-nothing: a burst that does not fit the
                // remaining budget is left to the per-µop
                // interpreter, which retires its µops one at a time
                // up to the exact budget boundary.
                TraceOp::Burst { idx } => {
                    let burst = &trace.bursts[idx as usize];
                    if consumed + burst.uops as u64 > budget {
                        break 'ops;
                    }
                    exec_burst(burst, state, mem);
                    consumed += burst.uops as u64;
                    pc += burst.uops as usize;
                }
                _ => {
                    exec_trace_op(op, state, mem, pc)?;
                    consumed += 1;
                    pc += 1;
                }
            }
        }
        state.pc = pc;
        Ok(consumed)
    }
}

/// Executes one non-[`TraceOp::Mac`] trace op — the shared body of
/// [`DecodedProgram::run_trace`]'s budget-free and budgeted loops.
/// Infallible in practice (see `run_trace`); the `Result` only
/// propagates the `*_body` helpers' type.
#[inline]
fn exec_trace_op(
    op: &TraceOp,
    state: &mut ArchState,
    mem: &mut MainMemory,
    pc: usize,
) -> Result<(), SimError> {
    match *op {
        TraceOp::Li { rd, imm } => state.set_x(rd, imm),
        TraceOp::Mv { rd, rs } => {
            let v = state.x(rs);
            state.set_x(rd, v);
        }
        TraceOp::Addi { rd, rs1, imm } => {
            let v = state.x(rs1).wrapping_add(imm);
            state.set_x(rd, v);
        }
        TraceOp::Add { rd, rs1, rs2 } => {
            let v = state.x(rs1).wrapping_add(state.x(rs2));
            state.set_x(rd, v);
        }
        TraceOp::Sub { rd, rs1, rs2 } => {
            let v = state.x(rs1).wrapping_sub(state.x(rs2));
            state.set_x(rd, v);
        }
        TraceOp::Mul { rd, rs1, rs2 } => {
            let v = state.x(rs1).wrapping_mul(state.x(rs2));
            state.set_x(rd, v);
        }
        TraceOp::Slli { rd, rs1, shamt } => {
            let v = state.x(rs1) << shamt;
            state.set_x(rd, v);
        }
        TraceOp::Srli { rd, rs1, shamt } => {
            let v = state.x(rs1) >> shamt;
            state.set_x(rd, v);
        }
        TraceOp::Nop | TraceOp::BranchFall => {}
        TraceOp::Vsetvli { rd, rs1, sew, lmul } => {
            debug_assert_ne!(sew, Sew::E64, "verified program selected e64");
            vsetvli_body(state, rd, rs1, sew, lmul);
        }
        TraceOp::VLoad { vd, rs1, ew } => {
            vload_body(state, mem, pc, vd, rs1, ew)?;
        }
        TraceOp::VStore { vs3, rs1, ew } => {
            vstore_body(state, mem, pc, vs3, rs1, ew)?;
        }
        TraceOp::Mac { .. } | TraceOp::Burst { .. } => {
            unreachable!("run_trace handles fused runs and bursts")
        }
    }
    Ok(())
}

/// One lane, zero-extended, read straight off register-file bytes at a
/// precomputed offset — the caller has already bounded the lane to a
/// single register, so this returns exactly what
/// [`ArchState::v_lane`](crate::ArchState::v_lane) would.
#[inline]
fn lane_bits(vrf: &[u8], off: usize, sew: Sew) -> u32 {
    match sew {
        Sew::E8 => vrf[off] as u32,
        Sew::E16 => u16::from_le_bytes(vrf[off..off + 2].try_into().expect("2 bytes")) as u32,
        _ => u32::from_le_bytes(vrf[off..off + 4].try_into().expect("4 bytes")),
    }
}

#[inline]
fn scalar_mem(addr: u64, bytes: u64, write: bool) -> MemOp {
    MemOp {
        addr,
        bytes,
        write,
        vector: false,
    }
}

/// Validates a precomputed absolute branch target, mirroring the
/// oracle's `next_pc < 0` rule (over-the-end targets surface later as
/// `FellOffEnd`, exactly like the oracle).
#[inline]
fn checked_target(target: i64) -> Result<usize, SimError> {
    crate::checks::check_branch_target(target)?;
    Ok(target as usize)
}

#[inline]
fn le32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

/// `vsetvli` semantics, shared verbatim by the per-µop interpreter and
/// the trace executor. Returns the new `vl` (for event construction).
#[inline]
fn vsetvli_body(state: &mut ArchState, rd: XReg, rs1: XReg, sew: Sew, lmul: Lmul) -> usize {
    state.set_vtype(indexmac_isa::VType { sew, lmul });
    let vlmax = state.vlmax_grouped();
    let avl = if rs1.is_zero() {
        if rd.is_zero() {
            state.vl()
        } else {
            vlmax
        }
    } else {
        state.x(rs1) as usize
    };
    let vl = avl.min(vlmax);
    state.set_vl(vl);
    state.set_x(rd, vl as u64);
    vl
}

/// Unit-stride vector load semantics, shared verbatim by the per-µop
/// interpreter and the trace executor.
#[inline]
fn vload_body(
    state: &mut ArchState,
    mem: &mut MainMemory,
    pc: usize,
    vd: VReg,
    rs1: XReg,
    ew: Sew,
) -> Result<MemOp, SimError> {
    let sew = state.vtype().sew;
    let eb = SEW_INFO[sew_index(ew)].bytes;
    let addr = state.x(rs1);
    let vl = state.vl();
    let regs = group_regs(vl, state.vlmax());
    check_element_width(pc, sew, ew)?;
    check_vector_alignment(pc, addr, eb as u64)?;
    check_group(pc, vd, regs)?;
    let dst = state.v_group_bytes_mut(vd, regs);
    mem.read_slice(addr, &mut dst[..vl * eb]);
    Ok(MemOp {
        addr,
        bytes: (vl * eb) as u64,
        write: false,
        vector: true,
    })
}

/// Unit-stride vector store semantics, shared verbatim by the per-µop
/// interpreter and the trace executor.
#[inline]
fn vstore_body(
    state: &mut ArchState,
    mem: &mut MainMemory,
    pc: usize,
    vs3: VReg,
    rs1: XReg,
    ew: Sew,
) -> Result<MemOp, SimError> {
    let sew = state.vtype().sew;
    let eb = SEW_INFO[sew_index(ew)].bytes;
    let addr = state.x(rs1);
    let vl = state.vl();
    let regs = group_regs(vl, state.vlmax());
    check_element_width(pc, sew, ew)?;
    check_vector_alignment(pc, addr, eb as u64)?;
    check_group(pc, vs3, regs)?;
    let src = state.v_group_bytes(vs3, regs);
    mem.write_slice(addr, &src[..vl * eb]);
    Ok(MemOp {
        addr,
        bytes: (vl * eb) as u64,
        write: true,
        vector: true,
    })
}

/// The shared MAC body of both IndexMAC µops — bit-for-bit the oracle's
/// `exec_indexmac_body`, restructured to borrow each register group's
/// bytes once instead of per lane.
fn indexmac_body(
    state: &mut ArchState,
    pc: usize,
    vd: VReg,
    src: VReg,
    multiplier_bits: u32,
    sew: Sew,
) -> Result<(), SimError> {
    let vl = state.vl();
    let regs = group_regs(vl, state.vlmax());
    check_group(pc, src, regs)?;
    let info = SEW_INFO[sew_index(sew)];
    let mut buf = [0u8; MAX_GROUP_BYTES];
    buf[..vl * info.bytes].copy_from_slice(&state.v_group_bytes(src, regs)[..vl * info.bytes]);
    if sew == Sew::E32 {
        check_group(pc, vd, regs)?;
        let m = f32::from_bits(multiplier_bits);
        let dst = state.v_group_bytes_mut(vd, regs);
        for i in 0..vl {
            let o = i * 4;
            let a = f32::from_bits(le32(&buf, o));
            let d = f32::from_bits(le32(dst, o));
            dst[o..o + 4].copy_from_slice(&(d + m * a).to_bits().to_le_bytes());
        }
    } else {
        // Widening integer MAC: i8/i16 operands, i32 accumulation, the
        // destination group `widen`× the source EMUL.
        let dst_regs = check_widening_dst(pc, sew, vd, regs)?;
        check_group(pc, vd, dst_regs)?;
        let m = sign_extend(multiplier_bits, sew);
        let dst = state.v_group_bytes_mut(vd, dst_regs);
        if sew == Sew::E8 {
            for (i, &raw) in buf.iter().enumerate().take(vl) {
                let a = raw as i8 as i32;
                let o = i * 4;
                let d = le32(dst, o) as i32;
                let v = d.wrapping_add(m.wrapping_mul(a));
                dst[o..o + 4].copy_from_slice(&v.to_le_bytes());
            }
        } else {
            for i in 0..vl {
                let a = i16::from_le_bytes([buf[i * 2], buf[i * 2 + 1]]) as i32;
                let o = i * 4;
                let d = le32(dst, o) as i32;
                let v = d.wrapping_add(m.wrapping_mul(a));
                dst[o..o + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use indexmac_isa::{ProgramBuilder, VType};
    use std::cell::Cell;

    thread_local! {
        /// Trace compilations on this thread (each test has its own).
        pub(crate) static COMPILES: Cell<usize> = const { Cell::new(0) };
    }

    fn fixture(build: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.build()
    }

    /// Runs `program` through both the decoded engine and the stepwise
    /// oracle on identical initial state, asserting identical results
    /// and final architectural state.
    fn assert_parity(program: &Program, setup: impl Fn(&mut ArchState, &mut MainMemory)) {
        let mut s_engine = ArchState::new(512);
        let mut m_engine = MainMemory::new();
        setup(&mut s_engine, &mut m_engine);
        let mut s_oracle = s_engine.clone();
        let mut m_oracle = m_engine.clone();

        let decoded = DecodedProgram::decode(program);
        let got = decoded.execute(&mut s_engine, &mut m_engine, &mut NullObserver, 100_000);

        // Oracle loop: fetch + step until halt.
        let want = (|| -> Result<u64, SimError> {
            s_oracle.pc = 0;
            s_oracle.halted = false;
            let mut n = 0u64;
            while !s_oracle.halted {
                let pc = s_oracle.pc;
                let instr = *program.fetch(pc).ok_or(SimError::FellOffEnd { pc })?;
                step(&mut s_oracle, &mut m_oracle, &instr)?;
                n += 1;
                if n >= 100_000 && !s_oracle.halted {
                    return Err(SimError::InstructionLimit { limit: 100_000 });
                }
            }
            Ok(n)
        })();

        assert_eq!(got, want, "run outcome diverged");
        for r in 0..32 {
            assert_eq!(
                s_engine.x(XReg::new(r)),
                s_oracle.x(XReg::new(r)),
                "x{r} diverged"
            );
            let f = FReg::new(r);
            assert_eq!(s_engine.f_bits(f), s_oracle.f_bits(f), "f{r} diverged");
            let v = VReg::new(r);
            assert_eq!(s_engine.v_bytes(v), s_oracle.v_bytes(v), "v{r} diverged");
        }
        assert_eq!(s_engine.vl(), s_oracle.vl());
        assert_eq!(s_engine.vtype(), s_oracle.vtype());
        assert_eq!(s_engine.pc, s_oracle.pc);
    }

    #[test]
    fn decode_unpacks_and_preserves_length() {
        let p = fixture(|b| {
            b.li(XReg::T0, 5);
            let top = b.bind_label();
            b.addi(XReg::T0, XReg::T0, -1);
            b.bne(XReg::T0, XReg::ZERO, top);
            b.halt();
        });
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.instruction(3), Some(&Instruction::Halt));
        assert_eq!(d.instruction(4), None);
        // The backward branch's target is absolute after decode.
        assert!(matches!(d.uops[2], Uop::Bne { target: 1, .. }));
    }

    #[test]
    fn scalar_loop_parity() {
        let p = fixture(|b| {
            b.li(XReg::T0, 10);
            let top = b.bind_label();
            b.addi(XReg::T1, XReg::T1, 7);
            b.addi(XReg::T0, XReg::T0, -1);
            b.bne(XReg::T0, XReg::ZERO, top);
            b.halt();
        });
        assert_parity(&p, |_, _| {});
    }

    #[test]
    fn vector_roundtrip_parity_at_each_sew() {
        for (sew, lmul) in [
            (Sew::E8, Lmul::M1),
            (Sew::E16, Lmul::M2),
            (Sew::E32, Lmul::M1),
            (Sew::E32, Lmul::M2),
        ] {
            let p = fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew,
                    lmul,
                });
                b.li(XReg::A0, 0x1000);
                b.li(XReg::A1, 0x2000);
                b.push(match sew {
                    Sew::E8 => Instruction::Vle8 {
                        vd: VReg::V4,
                        rs1: XReg::A0,
                    },
                    Sew::E16 => Instruction::Vle16 {
                        vd: VReg::V4,
                        rs1: XReg::A0,
                    },
                    _ => Instruction::Vle32 {
                        vd: VReg::V4,
                        rs1: XReg::A0,
                    },
                });
                b.push(match sew {
                    Sew::E8 => Instruction::Vse8 {
                        vs3: VReg::V4,
                        rs1: XReg::A1,
                    },
                    Sew::E16 => Instruction::Vse16 {
                        vs3: VReg::V4,
                        rs1: XReg::A1,
                    },
                    _ => Instruction::Vse32 {
                        vs3: VReg::V4,
                        rs1: XReg::A1,
                    },
                });
                b.halt();
            });
            assert_parity(&p, |_, m| {
                for i in 0..256u64 {
                    m.write_u8(0x1000 + i, (i as u8).wrapping_mul(31).wrapping_add(7));
                }
            });
        }
    }

    #[test]
    fn indexmac_vvi_parity_including_widening() {
        for sew in [Sew::E8, Sew::E16, Sew::E32] {
            let p = fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew,
                    lmul: Lmul::M1,
                });
                b.push(Instruction::VindexmacVvi {
                    vd: VReg::V0,
                    vs2: VReg::V8,
                    vs1: VReg::new(9),
                    slot: 2,
                });
                b.halt();
            });
            assert_parity(&p, |s, _| {
                s.set_vtype(VType {
                    sew,
                    lmul: Lmul::M1,
                });
                for i in 0..s.lanes(sew) {
                    s.set_v_lane(VReg::new(20), i, sew, (i as u32).wrapping_mul(0x83));
                    s.set_v_lane(
                        VReg::V8,
                        i,
                        sew,
                        (i as u32).wrapping_mul(0x2B).wrapping_add(1),
                    );
                }
                s.set_v_lane(VReg::new(9), 2, sew, 20);
            });
        }
    }

    #[test]
    fn fault_parity_on_bad_programs() {
        // Missing halt.
        assert_parity(
            &fixture(|b| {
                b.li(XReg::T0, 1);
            }),
            |_, _| {},
        );
        // Unaligned vector load.
        assert_parity(
            &fixture(|b| {
                b.li(XReg::A0, 0x1001);
                b.push(Instruction::Vle32 {
                    vd: VReg::V1,
                    rs1: XReg::A0,
                });
                b.halt();
            }),
            |_, _| {},
        );
        // e64 vsetvli.
        assert_parity(
            &fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew: Sew::E64,
                    lmul: Lmul::M1,
                });
                b.halt();
            }),
            |_, _| {},
        );
        // Backward branch past slot 0.
        assert_parity(
            &fixture(|b| {
                b.push(Instruction::Beq {
                    rs1: XReg::ZERO,
                    rs2: XReg::ZERO,
                    offset: -5,
                });
                b.halt();
            }),
            |_, _| {},
        );
        // Widening destination misaligned at e8.
        assert_parity(
            &fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew: Sew::E8,
                    lmul: Lmul::M1,
                });
                b.li(XReg::T1, 20);
                b.push(Instruction::VindexmacVx {
                    vd: VReg::V1,
                    vs2: VReg::V8,
                    rs: XReg::T1,
                });
                b.halt();
            }),
            |_, _| {},
        );
    }

    #[test]
    fn cold_uops_fall_back_to_the_oracle() {
        // vmv.v.x / vadd.vv have no µop of their own: they decode to
        // Uop::Step and still execute, interleaved with hot µops.
        let p = fixture(|b| {
            b.li(XReg::T0, 3);
            b.push(Instruction::VmvVx {
                vd: VReg::V1,
                rs1: XReg::T0,
            });
            b.push(Instruction::VaddVv {
                vd: VReg::V2,
                vs2: VReg::V1,
                vs1: VReg::V1,
            });
            b.push(Instruction::Vslide1downVx {
                vd: VReg::V2,
                vs2: VReg::V2,
                rs1: XReg::ZERO,
            });
            b.push(Instruction::VmvXs {
                rd: XReg::T1,
                vs2: VReg::V2,
            });
            b.halt();
        });
        let d = DecodedProgram::decode(&p);
        assert!(matches!(d.uops[1], Uop::Step));
        assert!(matches!(d.uops[2], Uop::Step));
        assert!(matches!(d.uops[3], Uop::Vslide1downVx { .. }));
        assert_eq!(d.oracle_fallback_slots(), 2);
        assert_parity(&p, |_, _| {});
    }

    /// The slide/move µops at every SEW, with `vd` aliasing the source
    /// and not, at full and at zero `vl`.
    #[test]
    fn slide_and_move_uops_match_the_oracle() {
        for sew in [Sew::E8, Sew::E16, Sew::E32] {
            for avl in [0i64, 5, 1 << 10] {
                let p = fixture(|b| {
                    b.li(XReg::A0, avl);
                    b.li(XReg::T0, -3);
                    b.push(Instruction::Vsetvli {
                        rd: XReg::T1,
                        rs1: XReg::A0,
                        sew,
                        lmul: Lmul::M1,
                    });
                    for (vd, vs2) in [(VReg::V2, VReg::V2), (VReg::V3, VReg::V4)] {
                        b.push(Instruction::Vslide1downVx {
                            vd,
                            vs2,
                            rs1: XReg::T0,
                        });
                        b.push(Instruction::VaddVx {
                            vd,
                            vs2,
                            rs1: XReg::T0,
                        });
                    }
                    b.push(Instruction::VmvXs {
                        rd: XReg::T2,
                        vs2: VReg::V3,
                    });
                    b.push(Instruction::VmvSx {
                        vd: VReg::V5,
                        rs1: XReg::T0,
                    });
                    if sew == Sew::E32 {
                        b.push(Instruction::VfmvFs {
                            fd: FReg::F1,
                            vs2: VReg::V2,
                        });
                    }
                    b.halt();
                });
                let d = DecodedProgram::decode(&p);
                assert_eq!(d.oracle_fallback_slots(), 0);
                assert_parity(&p, |s, _| {
                    for r in 2..6u8 {
                        for i in 0..s.lanes(Sew::E32) {
                            let v = (r as u32 * 0x0111_0000) ^ (i as u32).wrapping_mul(0x9E37_79B9);
                            s.set_v_lane(VReg::new(r), i, Sew::E32, v);
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn slide_and_move_uops_fault_like_the_oracle() {
        let grouped = |b: &mut ProgramBuilder| {
            b.push(Instruction::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::ZERO,
                sew: Sew::E32,
                lmul: Lmul::M2,
            });
        };
        // Not group-aware: faults under m2.
        for op in [
            Instruction::Vslide1downVx {
                vd: VReg::V2,
                vs2: VReg::V4,
                rs1: XReg::T0,
            },
            Instruction::VaddVx {
                vd: VReg::V2,
                vs2: VReg::V4,
                rs1: XReg::T0,
            },
        ] {
            assert_parity(
                &fixture(|b| {
                    grouped(b);
                    b.push(op);
                    b.halt();
                }),
                |_, _| {},
            );
        }
        // Group-aware element-0 moves run under m2.
        assert_parity(
            &fixture(|b| {
                grouped(b);
                b.push(Instruction::VmvSx {
                    vd: VReg::V2,
                    rs1: XReg::T0,
                });
                b.push(Instruction::VmvXs {
                    rd: XReg::T1,
                    vs2: VReg::V2,
                });
                b.push(Instruction::VfmvFs {
                    fd: FReg::F0,
                    vs2: VReg::V2,
                });
                b.halt();
            }),
            |s, _| s.set_x(XReg::T0, 0xDEAD_BEEF),
        );
        // vfmv.f.s is e32-only.
        assert_parity(
            &fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew: Sew::E16,
                    lmul: Lmul::M1,
                });
                b.push(Instruction::VfmvFs {
                    fd: FReg::F0,
                    vs2: VReg::V2,
                });
                b.halt();
            }),
            |_, _| {},
        );
    }

    #[test]
    fn null_observer_and_event_observer_agree_on_state() {
        let p = fixture(|b| {
            b.li(XReg::A0, 0x3000);
            b.push(Instruction::Vle32 {
                vd: VReg::V2,
                rs1: XReg::A0,
            });
            b.push(Instruction::VfmaccVf {
                vd: VReg::V3,
                fs1: FReg::F0,
                vs2: VReg::V2,
            });
            b.halt();
        });
        let d = DecodedProgram::decode(&p);
        let mut s1 = ArchState::new(512);
        let mut m1 = MainMemory::new();
        m1.write_f32_slice(0x3000, &[1.5; 16]);
        let mut s2 = s1.clone();
        let mut m2 = m1.clone();
        let n1 = d
            .execute(&mut s1, &mut m1, &mut NullObserver, u64::MAX)
            .unwrap();
        let mut events = Vec::new();
        let n2 = d
            .execute(
                &mut s2,
                &mut m2,
                &mut |ev: &ExecEvent| events.push(*ev),
                u64::MAX,
            )
            .unwrap();
        assert_eq!(n1, n2);
        assert_eq!(events.len() as u64, n2);
        assert_eq!(s1.v_bytes(VReg::V3), s2.v_bytes(VReg::V3));
        // The event stream carries the memory op and program order.
        assert!(events[1].mem.unwrap().vector);
        assert_eq!(events[1].pc, 1);
    }

    #[test]
    fn sew_info_matches_the_derived_constants() {
        for sew in [Sew::E8, Sew::E16, Sew::E32] {
            let info = SEW_INFO[sew_index(sew)];
            assert_eq!(info.bytes, sew.bytes());
            assert_eq!(info.lane_mask as u64, (1u64 << sew.bits()) - 1);
            assert_eq!(info.widen, crate::exec::widen_factor(sew));
        }
    }

    // ------------------------------------------------------------------
    // Trace compiler
    // ------------------------------------------------------------------

    /// Emits the unrolled IndexMAC steady-state shape the trace compiler
    /// targets: `reps` blocks of one `vindexmac.vvi` per dst, a counter
    /// decrement and a fall-through loop branch — exactly what the
    /// kernel builders produce per dynamic iteration.
    fn fused_kernel(reps: usize, sew: Sew, dsts: &[VReg], mult: VReg, meta: VReg) -> Program {
        let vl = 512 / sew.bits();
        let mut b = ProgramBuilder::new();
        b.li(XReg::A0, vl as i64);
        b.push(Instruction::Vsetvli {
            rd: XReg::T0,
            rs1: XReg::A0,
            sew,
            lmul: Lmul::M1,
        });
        b.li(XReg::T2, 100);
        for r in 0..reps {
            for &vd in dsts {
                b.push(Instruction::VindexmacVvi {
                    vd,
                    vs2: mult,
                    vs1: meta,
                    slot: (r % vl) as u8,
                });
            }
            b.addi(XReg::T2, XReg::T2, -1);
            let next = b.new_label();
            b.bne(XReg::T2, XReg::ZERO, next);
            b.bind(next);
        }
        b.halt();
        b.build()
    }

    /// Seeds the VRF so every metadata slot selects a valid indirect
    /// source: metadata lanes alternate between v20 and v21, both filled
    /// with per-lane data, multipliers in `mult`.
    fn seed_vrf(s: &mut ArchState, sew: Sew, mult: VReg, meta: VReg, src_base: u32) {
        let vl = 512 / sew.bits();
        for i in 0..vl {
            let (m_bits, a_bits, b_bits) = match sew {
                Sew::E32 => (
                    (0.5f32 + 0.125 * i as f32).to_bits(),
                    (1.5f32 + i as f32).to_bits(),
                    (0.25f32 * i as f32 - 2.0).to_bits(),
                ),
                // Integer element widths: small signed values.
                _ => (
                    (i as i32 - 3) as u32,
                    (2 * i as i32 - 7) as u32,
                    (5 - i as i32) as u32,
                ),
            };
            s.set_v_lane(mult, i, sew, m_bits);
            s.set_v_lane(meta, i, sew, src_base + (i as u32 % 2));
            s.set_v_lane(VReg::new(src_base as u8), i, sew, a_bits);
            s.set_v_lane(VReg::new(src_base as u8 + 1), i, sew, b_bits);
        }
    }

    /// Runs `program` through the trace-compiled loop and the per-µop
    /// loop on identical initial state, asserting identical outcomes
    /// and bit-identical architectural state (the per-µop loop is
    /// itself oracle-verified by [`assert_parity`]).
    fn assert_fused_parity(
        program: &Program,
        setup: impl Fn(&mut ArchState, &mut MainMemory),
    ) -> ArchState {
        let decoded = DecodedProgram::decode(program);
        let mut s_fused = ArchState::new(512);
        let mut m_fused = MainMemory::new();
        setup(&mut s_fused, &mut m_fused);
        let mut s_checked = s_fused.clone();
        let mut m_checked = m_fused.clone();
        let got = decoded.run::<_, true>(&mut s_fused, &mut m_fused, &mut NullObserver, 100_000);
        let want = decoded.execute(&mut s_checked, &mut m_checked, &mut NullObserver, 100_000);
        assert_eq!(got, want, "run outcome diverged");
        assert_eq!(s_fused, s_checked, "architectural state diverged");
        s_fused
    }

    #[test]
    fn trace_compiler_finds_the_steady_state_shape() {
        let p = fused_kernel(6, Sew::E32, &[VReg::V0, VReg::V4], VReg::V8, VReg::new(10));
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.fused_runs(), 1);
        // u = 2 per block, block = u + 2, 6 blocks.
        assert_eq!(d.fused_uops(), 6 * 4);
        // Entry table: the run starts right after the 3 setup slots.
        assert_eq!(d.compiled().fused_at[3], 1);
        assert!(d.compiled().fused_at[4..].iter().all(|&e| e == 0));
        let run = &d.compiled().fused[0];
        assert_eq!((run.start, run.u, run.reps), (3, 2, 6));
        assert_eq!(run.ctr, XReg::T2);
        assert_eq!(run.ctr_imm, (-1i64) as u64);
    }

    #[test]
    fn trace_compiler_respects_the_rep_threshold() {
        let below = fused_kernel(
            MIN_FUSE_REPS - 1,
            Sew::E32,
            &[VReg::V0],
            VReg::V8,
            VReg::new(10),
        );
        assert_eq!(DecodedProgram::decode(&below).fused_runs(), 0);
        let at = fused_kernel(
            MIN_FUSE_REPS,
            Sew::E32,
            &[VReg::V0],
            VReg::V8,
            VReg::new(10),
        );
        let d = DecodedProgram::decode(&at);
        assert_eq!(d.fused_runs(), 1);
        assert_eq!(d.compiled().fused[0].reps, MIN_FUSE_REPS);
    }

    #[test]
    fn trace_compiler_ignores_non_matching_blocks() {
        // A counter bump whose rd != rs1 breaks the shape.
        let p = fixture(|b| {
            b.li(XReg::T2, 100);
            for _ in 0..8 {
                b.push(Instruction::VindexmacVvi {
                    vd: VReg::V0,
                    vs2: VReg::V8,
                    vs1: VReg::new(10),
                    slot: 0,
                });
                b.addi(XReg::T3, XReg::T2, -1);
                let next = b.new_label();
                b.bne(XReg::T2, XReg::ZERO, next);
                b.bind(next);
            }
            b.halt();
        });
        assert_eq!(DecodedProgram::decode(&p).fused_runs(), 0);
        // A taken branch target (real loop, not unrolled) breaks it too.
        let p = fixture(|b| {
            b.li(XReg::T2, 8);
            let top = b.bind_label();
            b.push(Instruction::VindexmacVvi {
                vd: VReg::V0,
                vs2: VReg::V8,
                vs1: VReg::new(10),
                slot: 0,
            });
            b.addi(XReg::T2, XReg::T2, -1);
            b.bne(XReg::T2, XReg::ZERO, top);
            b.halt();
        });
        assert_eq!(DecodedProgram::decode(&p).fused_runs(), 0);
    }

    #[test]
    fn fused_path_matches_checked_engine_at_each_sew() {
        for sew in [Sew::E8, Sew::E16, Sew::E32] {
            let p = fused_kernel(6, sew, &[VReg::V0, VReg::V4], VReg::V8, VReg::new(10));
            assert_eq!(DecodedProgram::decode(&p).fused_runs(), 1, "{sew:?}");
            let end = assert_fused_parity(&p, |s, _| seed_vrf(s, sew, VReg::V8, VReg::new(10), 20));
            // The counter folded to its final value: 100 - reps.
            assert_eq!(end.x(XReg::T2), 94, "{sew:?}");
        }
    }

    #[test]
    fn fused_path_falls_back_on_aliasing() {
        // Every variant here defeats a different precheck; all must
        // still match the checked engine bit-for-bit via the per-µop
        // fallback.
        let cases: &[(&str, &[VReg], VReg, VReg, u32)] = &[
            // Metadata lane selects a register inside a dst group.
            (
                "src aliases dst",
                &[VReg::V0, VReg::V4],
                VReg::V8,
                VReg::new(10),
                0,
            ),
            // The multiplier register is itself a destination.
            (
                "vs2 aliases dst",
                &[VReg::V8, VReg::V4],
                VReg::V8,
                VReg::new(10),
                20,
            ),
            // The metadata register is itself a destination.
            (
                "vs1 aliases dst",
                &[VReg::new(10), VReg::V4],
                VReg::V8,
                VReg::new(10),
                20,
            ),
        ];
        for &(what, dsts, mult, meta, src_base) in cases {
            let p = fused_kernel(6, Sew::E32, dsts, mult, meta);
            assert_eq!(DecodedProgram::decode(&p).fused_runs(), 1, "{what}");
            assert_fused_parity(&p, |s, _| {
                seed_vrf(s, Sew::E32, mult, meta, 20);
                if src_base != 20 {
                    for i in 0..16 {
                        s.set_v_lane(meta, i, Sew::E32, src_base);
                    }
                }
            });
        }
        // The same accumulator twice per block: the destination mask
        // is only meaningful for pairwise-disjoint groups, so the
        // static check must reject this shape and fall back.
        let p = fused_kernel(6, Sew::E32, &[VReg::V0, VReg::V0], VReg::V8, VReg::new(10));
        assert_eq!(DecodedProgram::decode(&p).fused_runs(), 1);
        assert_fused_parity(&p, |s, _| {
            seed_vrf(s, Sew::E32, VReg::V8, VReg::new(10), 20);
        });
    }

    #[test]
    fn traced_run_range_matches_checked_at_every_budget() {
        // Limits that land mid-fused-run stop the batched path at a
        // block boundary and hand the tail to the per-µop loop; every
        // limit must retire the same count, fail the same way and
        // leave identical state as the per-µop loop — this is what
        // keeps `InstructionLimit` µop-exact on the traced path.
        let p = fused_kernel(6, Sew::E32, &[VReg::V0, VReg::V4], VReg::V8, VReg::new(10));
        let decoded = DecodedProgram::decode(&p);
        assert_eq!(decoded.fused_runs(), 1);
        let total = 3 + 6 * 4 + 1; // setup + blocks + halt
        for budget in 0..=(total + 2) as u64 {
            let mut s_t = ArchState::new(512);
            let mut m_t = MainMemory::new();
            seed_vrf(&mut s_t, Sew::E32, VReg::V8, VReg::new(10), 20);
            let mut s_c = s_t.clone();
            let mut m_c = m_t.clone();
            let got = decoded.run::<_, true>(&mut s_t, &mut m_t, &mut NullObserver, budget);
            let want = decoded.run::<_, false>(&mut s_c, &mut m_c, &mut NullObserver, budget);
            assert_eq!(got, want, "budget {budget}");
            assert_eq!(s_t, s_c, "budget {budget}");
            if budget >= total as u64 {
                assert_eq!(got, Ok(total as u64), "budget {budget}");
            }
        }
    }

    /// The kernel idiom the burst planner targets: every operand
    /// address is materialised by a `li` (or arithmetic folded over
    /// one) right before its access.
    fn bursty_fixture() -> Program {
        fixture(|b| {
            b.push(Instruction::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::ZERO,
                sew: Sew::E32,
                lmul: Lmul::M1,
            });
            b.li(XReg::T1, 0x1000);
            b.push(Instruction::Vle32 {
                vd: VReg::new(1),
                rs1: XReg::T1,
            });
            b.li(XReg::T2, 0x2000);
            b.push(Instruction::Vle32 {
                vd: VReg::new(2),
                rs1: XReg::T2,
            });
            b.addi(XReg::T3, XReg::T1, 0x100);
            b.push(Instruction::Vse32 {
                vs3: VReg::new(1),
                rs1: XReg::T3,
            });
            // This load's address comes from an entry register the
            // planner cannot see: it must end the run, staying a
            // plain per-op dispatch.
            b.push(Instruction::Vle32 {
                vd: VReg::new(3),
                rs1: XReg::A0,
            });
            b.halt();
        })
    }

    #[test]
    fn trace_planner_coalesces_static_access_runs_into_bursts() {
        let d = DecodedProgram::decode(&bursty_fixture());
        assert_eq!(d.compiled().traces.len(), 1);
        let t = &d.compiled().traces[0];
        // vsetvli + 6-µop burst + the unresolved load; `halt` ends
        // the trace.
        assert_eq!(t.len, 8);
        assert!(matches!(
            &t.ops[..],
            [
                TraceOp::Vsetvli { .. },
                TraceOp::Burst { idx: 0 },
                TraceOp::VLoad { .. }
            ]
        ));
        assert_eq!(t.bursts.len(), 1);
        let burst = &t.bursts[0];
        assert_eq!(burst.uops, 6);
        // Constant propagation resolved all three scalar writes,
        // including the `addi` folded over the first `li`.
        assert_eq!(
            &burst.sets[..],
            &[(XReg::T1, 0x1000), (XReg::T2, 0x2000), (XReg::T3, 0x1100)]
        );
        let accs: Vec<(bool, u64)> = burst.accs.iter().map(|a| (a.store, a.addr)).collect();
        assert_eq!(accs, [(false, 0x1000), (false, 0x2000), (true, 0x1100)]);
        // Page-transition prefetch: first page, second page, and back.
        assert_eq!(&t.prefetch[..], &[0x1000, 0x2000, 0x1100]);
    }

    #[test]
    fn burst_budget_stops_are_uop_exact() {
        // A limit landing inside a burst must leave the whole burst to
        // the per-µop interpreter: state AND memory identical to the
        // per-µop loop at every limit, for the store inside the burst
        // too.
        let p = bursty_fixture();
        let decoded = DecodedProgram::decode(&p);
        let total = 9u64; // 8 traced slots + halt
        for budget in 0..=total + 2 {
            let mut s_t = ArchState::new(512);
            let mut m_t = MainMemory::new();
            let pattern: Vec<u8> = (0..64u32).map(|i| (i * 7 + 3) as u8).collect();
            m_t.write_slice(0x1000, &pattern);
            m_t.write_slice(0x2000, &pattern[32..]);
            m_t.write_slice(0x2000 + 32, &pattern[..32]);
            let mut s_c = s_t.clone();
            let mut m_c = m_t.clone();
            let got = decoded.run::<_, true>(&mut s_t, &mut m_t, &mut NullObserver, budget);
            let want = decoded.run::<_, false>(&mut s_c, &mut m_c, &mut NullObserver, budget);
            assert_eq!(got, want, "budget {budget}");
            assert_eq!(s_t, s_c, "budget {budget}");
            let (mut seen_t, mut seen_c) = ([0u8; 64], [0u8; 64]);
            m_t.read_slice(0x1100, &mut seen_t);
            m_c.read_slice(0x1100, &mut seen_c);
            assert_eq!(seen_t, seen_c, "budget {budget} store bytes");
            if budget >= total {
                assert_eq!(got, Ok(total), "budget {budget}");
            }
        }
    }
}
