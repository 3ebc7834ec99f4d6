//! Throughput of the decode-once execution engine vs the legacy
//! interpret-per-step loop, and of the timed run every result comes
//! from.
//!
//! Two measurements, both emitted to `BENCH_engine.json`:
//!
//! * **instructions/sec** — per kernel row: `run_functional` through
//!   the legacy stepwise oracle, the decoded engine's per-µop loop, and
//!   the trace-compiled path (the static analyzer proves the kernel
//!   fault-free against the layout contract and mints a [`Verified`]
//!   token; the fused steady-state blocks then run as native batched
//!   lane loops), plus the **timed** run (`run_decoded` under the
//!   `Timing` model, which times each event as it retires) — the path
//!   `gemm`, `model`, `sweep` and `serve` take. The rows are the pinned
//!   BERT-FFN `vindexmac.vvi` kernel (`3072x768x128`, the heaviest
//!   transformer shape; the e8 quantized row and the f32 `m2` row of
//!   the transformer campaign) and the f32 Row-Wise-SpMM /
//!   `vindexmac.vx` pair of the ResNet50 Fig. 4a campaign on
//!   `layer2.0.conv2` at the campaign's eval caps. The acceptance bar:
//!   a ≥2× wall-clock win for the decoded engine over the stepwise loop
//!   on the e8 row. The trace speedup is reported over the per-µop
//!   loop. Each row also counts the static slots that fall back to the
//!   oracle (0 on every shipped kernel).
//! * **cells/sec** — a warm sweep: the same grid swept twice through
//!   `indexmac::sweep::run_cells` inside a one-thread pool, so both
//!   passes run on the bench thread, the second entirely against its
//!   decode-once `ProgramCache` and reused simulator, and the
//!   decode-cache counters read afterwards are the ones the cells used.
//!
//! Each row also splits the one-time front-end cost: `decode_ms` is
//! the µop pass alone and `trace_compile_ms` the trace compiler, which
//! runs lazily (forced here through `traced_uops()`; timed runs never
//! build the traces).
//!
//! `INDEXMAC_PROFILE=smoke` caps the GEMMs (CI); `default`/`full` run
//! the uncapped pinned BERT-FFN shape and the eval-capped ResNet50
//! layer.

use indexmac::experiment::{decode_cache_stats, reset_decode_cache, ExperimentConfig, Precision};
use indexmac::isa::Program;
use indexmac::kernels::indexmac as indexmac_vx;
use indexmac::kernels::{indexmac2, rowwise, verify, GemmDims, GemmLayout, KernelParams};
use indexmac::models::{resnet50, GemmCaps};
use indexmac::sparse::{prune, quant, DenseMatrix, NmPattern, StructuredSparseMatrix};
use indexmac::sweep::{run_cells, SweepGrid};
use indexmac::vpu::{DecodedProgram, NullObserver, SimConfig, Simulator};
use indexmac_bench::{banner, Profile};
use serde::{Serialize, Value};
use std::time::Instant;

/// The BERT-base FFN-up GEMM (d_ff x d_model x seq_len), as pinned in
/// `tests/paper_claims.rs`.
const BERT_FFN: GemmDims = GemmDims {
    rows: 3072,
    inner: 768,
    cols: 128,
};

struct Row {
    label: &'static str,
    sew_bits: usize,
    lmul: usize,
    dims: GemmDims,
    instructions: u64,
    decode_ms: f64,
    trace_compile_ms: f64,
    analyze_ms: f64,
    legacy_ns: f64,
    decoded_ns: f64,
    traced_ns: f64,
    timed_ns: f64,
    oracle_fallback_slots: usize,
    fused_runs: usize,
    fused_uops: usize,
    traces: usize,
    traced_uops: usize,
    static_uops: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.legacy_ns / self.decoded_ns
    }

    /// Trace-compiled path vs the per-µop loop it falls back to.
    fn trace_speedup(&self) -> f64 {
        self.decoded_ns / self.traced_ns
    }

    fn fused_coverage(&self) -> f64 {
        self.fused_uops as f64 / self.static_uops as f64
    }

    /// Fraction of static µops covered by a compiled trace (a superset
    /// of the fused runs, which traces embed).
    fn trace_coverage(&self) -> f64 {
        self.traced_uops as f64 / self.static_uops as f64
    }

    fn ips(&self, ns: f64) -> f64 {
        self.instructions as f64 / (ns * 1e-9)
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("label", self.label.to_value()),
            ("sew", self.sew_bits.to_value()),
            ("lmul", self.lmul.to_value()),
            (
                "dims",
                format!("{}x{}x{}", self.dims.rows, self.dims.inner, self.dims.cols).to_value(),
            ),
            ("dynamic_instructions", self.instructions.to_value()),
            ("decode_ms", self.decode_ms.to_value()),
            ("trace_compile_ms", self.trace_compile_ms.to_value()),
            ("analyze_ms", self.analyze_ms.to_value()),
            ("legacy_run_ns", self.legacy_ns.to_value()),
            ("decoded_run_ns", self.decoded_ns.to_value()),
            ("traced_run_ns", self.traced_ns.to_value()),
            ("timed_run_ns", self.timed_ns.to_value()),
            (
                "oracle_fallback_slots",
                self.oracle_fallback_slots.to_value(),
            ),
            ("fused_runs", self.fused_runs.to_value()),
            ("fused_uops", self.fused_uops.to_value()),
            ("fused_coverage", self.fused_coverage().to_value()),
            ("traces", self.traces.to_value()),
            ("traced_uops", self.traced_uops.to_value()),
            ("trace_coverage", self.trace_coverage().to_value()),
            (
                "legacy_instructions_per_sec",
                self.ips(self.legacy_ns).to_value(),
            ),
            (
                "decoded_instructions_per_sec",
                self.ips(self.decoded_ns).to_value(),
            ),
            (
                "traced_instructions_per_sec",
                self.ips(self.traced_ns).to_value(),
            ),
            (
                "timed_instructions_per_sec",
                self.ips(self.timed_ns).to_value(),
            ),
            ("speedup", self.speedup().to_value()),
            (
                "trace_speedup_over_decoded",
                self.trace_speedup().to_value(),
            ),
        ])
    }
}

/// One kernel to measure: the program, its planned layout and the
/// operands it runs on.
struct Kernel {
    label: &'static str,
    precision: Precision,
    dims: GemmDims,
    layout: GemmLayout,
    program: Program,
    a: StructuredSparseMatrix,
    b: DenseMatrix,
}

/// The pinned-shape `vindexmac.vvi` kernel at one precision.
fn vvi_kernel(
    label: &'static str,
    precision: Precision,
    requested_lmul: usize,
    caps_dims: GemmDims,
) -> Kernel {
    let sim_cfg = SimConfig::table_i();
    let pattern = NmPattern::P1_4;
    let seed = 0xE16E_2026u64;
    let (a, b): (StructuredSparseMatrix, DenseMatrix) = if precision.is_int() {
        (
            quant::random_structured_int(caps_dims.rows, caps_dims.inner, pattern, seed, precision),
            quant::random_dense_int(caps_dims.inner, caps_dims.cols, seed + 1, precision),
        )
    } else {
        (
            prune::random_structured(caps_dims.rows, caps_dims.inner, pattern, seed),
            DenseMatrix::random(caps_dims.inner, caps_dims.cols, seed + 1),
        )
    };
    // The e8 widening accumulator caps grouping at m1 (lmul*32/SEW <= 4)
    // — the same clamp `compare_model` applies to quantized presets.
    let lmul = requested_lmul.min(4 / precision.widen()).max(1);
    let tile_rows = GemmLayout::fit_tile_rows(16, lmul, pattern);
    let layout = GemmLayout::plan_elem(&a, caps_dims.cols, &sim_cfg, tile_rows, lmul, precision)
        .expect("pinned layout plans");
    let params = KernelParams {
        unroll: 4usize.min(indexmac2::max_unroll(&layout)),
        ..KernelParams::default()
    };
    let program = indexmac2::build(&layout, &params).expect("pinned kernel builds");
    Kernel {
        label,
        precision,
        dims: caps_dims,
        layout,
        program,
        a,
        b,
    }
}

/// One side of the ResNet50 Fig. 4a campaign's f32 pair, Row-Wise-SpMM
/// (`vx == false`) or `vindexmac.vx`, on `layer2.0.conv2` under `caps`,
/// planned and seeded as `compare_gemm` plans the cell.
fn campaign_kernel(label: &'static str, vx: bool, caps: GemmCaps) -> Kernel {
    let cfg = ExperimentConfig::paper();
    let layer = resnet50();
    let dims = caps.apply(
        layer
            .layer("layer2.0.conv2")
            .expect("ResNet50 has layer2.0.conv2")
            .gemm,
    );
    let a = prune::random_structured(dims.rows, dims.inner, NmPattern::P1_4, cfg.seed);
    let b = DenseMatrix::random(dims.inner, dims.cols, cfg.seed.wrapping_add(1));
    let layout = GemmLayout::plan_elem(&a, dims.cols, &cfg.sim, cfg.tile_rows, 1, cfg.precision)
        .expect("campaign layout plans");
    let program = if vx {
        let params = KernelParams {
            unroll: cfg.params.unroll.min(indexmac_vx::max_unroll(&layout)),
            ..cfg.params
        };
        indexmac_vx::build(&layout, &params)
    } else {
        rowwise::build(&layout, &cfg.params)
    }
    .expect("campaign kernel builds");
    Kernel {
        label,
        precision: cfg.precision,
        dims,
        layout,
        program,
        a,
        b,
    }
}

/// Measures one kernel through each execution path.
fn measure_row(kernel: Kernel, iters: u32) -> Row {
    let Kernel {
        label,
        precision,
        dims,
        layout,
        program,
        a,
        b,
    } = kernel;
    let sim_cfg = SimConfig::table_i();
    let t0 = Instant::now();
    let decoded = DecodedProgram::decode(&program);
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let traced_uops = decoded.traced_uops();
    let trace_compile_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Static analysis is a one-time cost like decoding: prove the
    // kernel fault-free against the layout contract, mint the token.
    let t0 = Instant::now();
    let token = verify::analyze_kernel(&decoded, &layout, &sim_cfg)
        .verified()
        .expect("kernel analyzes clean");
    let analyze_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut sim = Simulator::new(sim_cfg);
    layout.write_operands(&a, &b, sim.memory_mut());

    // Warm-up + instruction count (identical across paths by the
    // differential suite).
    let instructions = sim
        .run_functional_decoded(&decoded)
        .expect("kernel executes");

    // The four paths are interleaved within each iteration (rather
    // than measured in back-to-back blocks) so slow drift of the
    // host — CPU frequency, steal time — lands on all of them equally.
    // Each path reports its *minimum* over the iterations: on a shared
    // host a steal-time spike only ever adds time, so the minimum is
    // the estimate closest to the undisturbed cost (a mean lets one
    // spike in one path skew every ratio).
    let mut legacy_s = f64::INFINITY;
    let mut decoded_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut timed_s = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        sim.run_stepwise(&program, &mut NullObserver)
            .expect("legacy loop executes");
        legacy_s = legacy_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        sim.run_functional_decoded(&decoded)
            .expect("decoded engine executes");
        decoded_s = decoded_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        sim.run_functional_verified(&decoded, token)
            .expect("traced engine executes");
        traced_s = traced_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        sim.run_decoded(&decoded).expect("timed run executes");
        timed_s = timed_s.min(t.elapsed().as_secs_f64());
    }

    Row {
        label,
        sew_bits: precision.bits(),
        lmul: layout.lmul,
        dims,
        instructions,
        decode_ms,
        trace_compile_ms,
        analyze_ms,
        legacy_ns: legacy_s * 1e9,
        decoded_ns: decoded_s * 1e9,
        traced_ns: traced_s * 1e9,
        timed_ns: timed_s * 1e9,
        oracle_fallback_slots: decoded.oracle_fallback_slots(),
        fused_runs: decoded.fused_runs(),
        fused_uops: decoded.fused_uops(),
        traces: decoded.trace_segments(),
        traced_uops,
        static_uops: decoded.len(),
    }
}

/// Sweeps one grid twice on this thread and reports cold/warm cell
/// throughput plus the decode-cache counters. The one-thread pool keeps
/// `run_cells` on this thread, whose cache the counters describe.
fn measure_sweep(cfg: &ExperimentConfig) -> Value {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool builds");
    pool.install(|| sweep_twice(cfg))
}

fn sweep_twice(cfg: &ExperimentConfig) -> Value {
    reset_decode_cache();
    let grid = SweepGrid::new(
        NmPattern::EVALUATED.to_vec(),
        vec![
            GemmDims {
                rows: 16,
                inner: 128,
                cols: 32,
            },
            GemmDims {
                rows: 32,
                inner: 128,
                cols: 64,
            },
        ],
    );
    let cells = grid.cells();
    let n_cells = cells.len();
    let n = n_cells as f64;
    let t = Instant::now();
    run_cells(cells.clone(), cfg).expect("cold sweep runs");
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    run_cells(cells, cfg).expect("warm sweep runs");
    let warm_s = t.elapsed().as_secs_f64();
    let stats = decode_cache_stats();
    println!(
        "warm sweep: {:.1} cells/sec cold -> {:.1} cells/sec warm ({n_cells} cells; decode cache: {stats})",
        n / cold_s,
        n / warm_s,
    );
    Value::object([
        ("cells", n_cells.to_value()),
        ("cold_cells_per_sec", (n / cold_s).to_value()),
        ("warm_cells_per_sec", (n / warm_s).to_value()),
        ("decode_cache_hits", stats.hits.to_value()),
        ("decode_cache_misses", stats.misses.to_value()),
    ])
}

fn main() {
    let profile = Profile::from_env();
    let base_cfg = profile.config();
    banner(
        "engine_throughput: decode-once engine vs interpret-per-step",
        &base_cfg,
    );
    let dims = profile.caps().apply(BERT_FFN);
    let iters = if dims == BERT_FFN { 5 } else { 10 };
    // The ResNet50 pair runs at the campaign's eval caps (smoke caps
    // under the smoke profile).
    let cnn_caps = match profile {
        Profile::Smoke => GemmCaps::smoke(),
        _ => GemmCaps::default_eval(),
    };
    println!(
        "pinned shape {}x{}x{} (BERT-FFN{}), vindexmac.vvi kernel; ResNet50 layer2.0.conv2 \
         under {cnn_caps}, Row-Wise-SpMM and vindexmac.vx; runs x{iters}\n",
        dims.rows,
        dims.inner,
        dims.cols,
        if dims == BERT_FFN { "" } else { ", capped" },
    );

    let rows = vec![
        measure_row(vvi_kernel("bert-ffn-e8", Precision::I8, 2, dims), iters),
        measure_row(
            vvi_kernel("bert-ffn-f32-m2", Precision::F32, 2, dims),
            iters,
        ),
        measure_row(campaign_kernel("resnet50-rowwise", false, cnn_caps), iters),
        measure_row(campaign_kernel("resnet50-vx", true, cnn_caps), iters),
    ];
    println!(
        "{:<18} {:>4} {:>4} {:>12} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8} {:>8} {:>12} {:>11} {:>6}",
        "row",
        "sew",
        "lmul",
        "dyn instrs",
        "legacy ms",
        "decoded ms",
        "traced ms",
        "timed ms",
        "speedup",
        "trace",
        "coverage",
        "traced Mi/s",
        "timed Mi/s",
        "oracle"
    );
    for r in &rows {
        println!(
            "{:<18} {:>4} {:>4} {:>12} {:>11.2} {:>11.2} {:>11.2} {:>11.2} {:>7.2}x {:>7.2}x {:>7.1}% {:>12.1} {:>11.1} {:>6}",
            r.label,
            format!("e{}", r.sew_bits),
            format!("m{}", r.lmul),
            r.instructions,
            r.legacy_ns / 1e6,
            r.decoded_ns / 1e6,
            r.traced_ns / 1e6,
            r.timed_ns / 1e6,
            r.speedup(),
            r.trace_speedup(),
            r.trace_coverage() * 100.0,
            r.ips(r.traced_ns) / 1e6,
            r.ips(r.timed_ns) / 1e6,
            r.oracle_fallback_slots,
        );
    }
    for r in &rows {
        println!(
            "{:<18} one-time: decode {:.1} ms, trace compile {:.1} ms, analyze {:.1} ms",
            r.label, r.decode_ms, r.trace_compile_ms, r.analyze_ms
        );
    }

    println!();
    let sweep = measure_sweep(&base_cfg);

    let json = Value::object([
        ("bench", "engine_throughput".to_value()),
        ("profile", format!("{}", base_cfg.caps).to_value()),
        (
            "rows",
            Value::Array(rows.iter().map(Row::to_value).collect()),
        ),
        ("warm_sweep", sweep),
    ]);
    // Anchor at the workspace root regardless of the invocation cwd
    // (cargo runs bench binaries from the package directory).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, serde_json::to_string_pretty(&json).expect("total"))
        .expect("write BENCH_engine.json");
    println!("\nwrote {path}");
    println!(
        "expected: the decoded engine runs the functional BERT-FFN kernel >= 2x faster than \
         the stepwise loop (events never materialise under NullObserver, per-step re-decode \
         and re-validation are gone, vector ops run on whole register-group slices); the \
         trace-compiled path (analyzer-minted token, fused steady-state blocks executed as \
         native batched lane loops) is faster again than the per-µop loop; the timed run \
         pays for the timing model on top of the per-µop loop; no row falls back to the oracle"
    );
}
