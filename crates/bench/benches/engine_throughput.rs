//! Throughput of the decode-once execution engine vs the legacy
//! interpret-per-step loop — the perf trajectory's first data points.
//!
//! Two measurements, both emitted to `BENCH_engine.json`:
//!
//! * **instructions/sec** — `run_functional` of the pinned BERT-FFN
//!   kernel (`3072x768x128`, the heaviest transformer shape; the e8
//!   quantized row and the f32 `m2` row of the transformer campaign),
//!   through the legacy stepwise oracle, the decoded engine's per-µop
//!   loop, and the trace-compiled path (the static analyzer proves the
//!   kernel fault-free against the layout contract and mints a
//!   [`Verified`] token; the fused steady-state blocks then run as
//!   native batched lane loops). The acceptance bar: a ≥2× wall-clock
//!   win for the decoded engine over the stepwise loop on the e8 row.
//!   The trace speedup is reported over the per-µop loop.
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
//! `INDEXMAC_PROFILE=smoke` caps the GEMM (CI); `default`/`full` run
//! the uncapped pinned shape.

use indexmac::experiment::{decode_cache_stats, reset_decode_cache, ExperimentConfig, Precision};
use indexmac::kernels::{indexmac2, GemmDims, GemmLayout, KernelParams};
use indexmac::sparse::{prune, quant, DenseMatrix, NmPattern, StructuredSparseMatrix};
use indexmac::sweep::{run_cells, SweepGrid};
use indexmac::vpu::{analyze_with_contract, DecodedProgram, NullObserver, SimConfig, Simulator};
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
            ("speedup", self.speedup().to_value()),
            (
                "trace_speedup_over_decoded",
                self.trace_speedup().to_value(),
            ),
        ])
    }
}

/// Builds the pinned-shape `vindexmac.vvi` kernel at one precision and
/// measures `run_functional` through each execution path.
fn measure_row(
    label: &'static str,
    precision: Precision,
    requested_lmul: usize,
    caps_dims: GemmDims,
    iters: u32,
) -> Row {
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

    let t0 = Instant::now();
    let decoded = DecodedProgram::decode(&program);
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let traced_uops = decoded.traced_uops();
    let trace_compile_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Static analysis is a one-time cost like decoding: prove the
    // kernel fault-free against the layout contract, mint the token.
    let t0 = Instant::now();
    let vlen_bits = layout.vl * layout.elem.bits();
    let token = analyze_with_contract(&decoded, vlen_bits, Some(&layout.analysis_contract()))
        .verified()
        .expect("pinned kernel analyzes clean");
    let analyze_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut sim = Simulator::new(sim_cfg);
    layout.write_operands(&a, &b, sim.memory_mut());

    // Warm-up + instruction count (identical across paths by the
    // differential suite).
    let instructions = sim
        .run_functional_decoded(&decoded)
        .expect("pinned kernel executes");

    // The three paths are interleaved within each iteration (rather
    // than measured in back-to-back blocks) so slow drift of the
    // host — CPU frequency, steal time — lands on all of them equally.
    // Each path reports its *minimum* over the iterations: on a shared
    // host a steal-time spike only ever adds time, so the minimum is
    // the estimate closest to the undisturbed cost (a mean lets one
    // spike in one path skew every ratio).
    let mut legacy_s = f64::INFINITY;
    let mut decoded_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
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
    }
    let legacy_ns = legacy_s * 1e9;
    let decoded_ns = decoded_s * 1e9;
    let traced_ns = traced_s * 1e9;

    Row {
        label,
        sew_bits: precision.bits(),
        lmul,
        dims: caps_dims,
        instructions,
        decode_ms,
        trace_compile_ms,
        analyze_ms,
        legacy_ns,
        decoded_ns,
        traced_ns,
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
    println!(
        "pinned shape {}x{}x{} (BERT-FFN{}), vindexmac.vvi kernel, functional runs x{iters}\n",
        dims.rows,
        dims.inner,
        dims.cols,
        if dims == BERT_FFN { "" } else { ", capped" },
    );

    let rows = vec![
        measure_row("bert-ffn-e8", Precision::I8, 2, dims, iters),
        measure_row("bert-ffn-f32-m2", Precision::F32, 2, dims, iters),
    ];
    println!(
        "{:<18} {:>4} {:>4} {:>12} {:>11} {:>11} {:>11} {:>8} {:>8} {:>8} {:>12}",
        "row",
        "sew",
        "lmul",
        "dyn instrs",
        "legacy ms",
        "decoded ms",
        "traced ms",
        "speedup",
        "trace",
        "coverage",
        "traced Mi/s"
    );
    for r in &rows {
        println!(
            "{:<18} {:>4} {:>4} {:>12} {:>11.2} {:>11.2} {:>11.2} {:>7.2}x {:>7.2}x {:>7.1}% {:>12.1}",
            r.label,
            format!("e{}", r.sew_bits),
            format!("m{}", r.lmul),
            r.instructions,
            r.legacy_ns / 1e6,
            r.decoded_ns / 1e6,
            r.traced_ns / 1e6,
            r.speedup(),
            r.trace_speedup(),
            r.trace_coverage() * 100.0,
            r.ips(r.traced_ns) / 1e6,
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
         native batched lane loops) is faster again than the per-µop loop"
    );
}
