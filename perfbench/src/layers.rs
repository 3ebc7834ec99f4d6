//! The traced run's shared half: rebuilt cells refereed against the
//! library, the store (and, for `cnn-resnet50`, serve) phase,
//! and the per-layer metrics derived from the spans.

use crate::cell::Rebuilder;
use crate::report::Metrics;
use crate::service::{self, ServeCounters};
use crate::trace::Tracer;
use indexmac::experiment::{DecodeCacheStats, ExperimentConfig, GemmComparison};
use indexmac::sweep::{CellResult, SweepCell};
use indexmac_kernels::KernelParams;
use std::path::Path;
use std::time::Instant;

pub struct Layers {
    pub tr: Tracer,
    root: usize,
    rebuilder: Rebuilder,
    /// Untraced library seconds for the cells the run rebuilds.
    pub referee_s: f64,
    /// Traced seconds of the same rebuilds, without the extra
    /// functional runs.
    rebuild_s: f64,
    cells: Vec<CellResult>,
    speedups: Vec<f64>,
    pub failures: Vec<String>,
    /// Checks made: rebuilt cells, stored and served results.
    attempted: u64,
    /// Id of the cell whose spans are being recorded.
    cell: usize,
    /// Decode-cache counters of the untraced library run.
    pub decode: DecodeCacheStats,
    pub serve: ServeCounters,
}

impl Layers {
    /// Starts the traced timeline (the root span `bench`).
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let mut tr = Tracer::new();
        let root = tr.enter("bench");
        Self {
            tr,
            root,
            rebuilder: Rebuilder::new(cfg),
            referee_s: 0.0,
            rebuild_s: 0.0,
            cells: Vec::new(),
            speedups: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            cell: 0,
            decode: DecodeCacheStats::default(),
            serve: ServeCounters::default(),
        }
    }

    /// Stamps the spans opened from now on with a new cell id.
    pub fn begin_cell(&mut self) {
        self.cell += 1;
        self.tr.set_cell(self.cell);
    }

    /// Rebuilds `cell` (as `run_cell(cell, cfg)` would run it) from the
    /// layers' public functions and referees it against `want`, the
    /// library's result for the same cell: reports must be bit-identical.
    pub fn rebuild(&mut self, cell: SweepCell, cfg: &ExperimentConfig, want: &GemmComparison) {
        let cell_cfg = ExperimentConfig {
            seed: cell.seed,
            params: KernelParams {
                dataflow: cell.dataflow,
                ..cfg.params
            },
            ..*cfg
        };
        self.attempted += 1;
        self.begin_cell();
        let functional = |r: &Rebuilder| r.totals.functional_s.iter().sum::<f64>();
        let before = functional(&self.rebuilder);
        let t = Instant::now();
        let rebuilt = self
            .rebuilder
            .rebuild_cell(&mut self.tr, cell.dims, cell.pattern, &cell_cfg);
        self.rebuild_s += t.elapsed().as_secs_f64() - (functional(&self.rebuilder) - before);
        match rebuilt {
            Ok(c) if c == *want => {
                self.speedups.push(c.speedup());
                self.cells.push(CellResult {
                    cell,
                    capped: cfg.caps.apply(cell.dims),
                    comparison: c,
                });
            }
            Ok(_) => self.failures.push(format!(
                "rebuilt cell {:?} differs from the library's",
                cell.dims
            )),
            Err(e) => self.failures.push(e),
        }
    }

    /// Stores every rebuilt cell (and `extra` results) through the
    /// record codec and the result store; with `serve_seed`, also serves
    /// them from a one-worker daemon and simulates one new cell there
    /// (seeded by it).
    pub fn store_and_serve(
        &mut self,
        dir: &Path,
        cfg: &ExperimentConfig,
        extra: &[CellResult],
        serve_seed: Option<u64>,
    ) -> Result<(), String> {
        let mut results = self.cells.clone();
        results.extend_from_slice(extra);
        let (store, digests) =
            service::store_phase(&mut self.tr, dir, &results, cfg, &mut self.failures)?;
        self.attempted += results.len() as u64;
        if let Some(seed) = serve_seed {
            self.serve = service::serve_phase(
                &mut self.tr,
                store,
                &results,
                &digests,
                cfg,
                seed,
                &mut self.failures,
            )?;
            self.attempted += results.len() as u64 + 1;
        }
        Ok(())
    }

    /// Closes the timeline, writes the spans under `root` and derives
    /// every per-layer metric. Returns the metrics, the failed checks and
    /// the number of checks made.
    pub fn finish(mut self, root: &Path) -> (Metrics, Vec<String>, u64) {
        self.tr.exit(self.root);
        crate::write_spans(root, &self.tr);
        let t = &self.rebuilder.totals;
        if t.engine_mismatches > 0 {
            self.failures.push(format!(
                "{} timed runs disagreed with their functional rerun",
                t.engine_mismatches
            ));
        }
        let tr = &self.tr;
        let wall = tr.spans()[self.root].duration_ns() as f64 * 1e-9;
        let layers = tr.layer_self_s();
        // A ratio over an empty base is undefined; it is reported as 0.
        let nonzero = |s: f64| if s > 0.0 { s } else { f64::NAN };
        let run_s = t.run_s.iter().sum::<f64>();
        let functional_s = t.functional_s.iter().sum::<f64>();
        let us = |name| tr.mean_s(name) * 1e6;

        println!("traced run: {wall:.3} s; layer self time and share:");
        for (layer, s) in &layers {
            println!("  {layer:<16} {s:>10.4} s  {:>6.2}%", 100.0 * s / wall);
        }
        for (side, name) in ["baseline", "proposed"].iter().enumerate() {
            println!(
                "  {name}: timed run {:.3} s, functional {:.3} s, timing model {:.1}%",
                t.run_s[side],
                t.functional_s[side],
                100.0 * (1.0 - t.functional_s[side] / nonzero(t.run_s[side]))
            );
        }
        match t.l1d_hit_rate() {
            Some(rate) => println!(
                "  mem.l1d_hit_rate {rate:.4} over {} accesses",
                t.l1d_accesses
            ),
            None => println!("  mem.l1d_hit_rate n/a (0 L1D accesses)"),
        }

        let mut m = Metrics::default();
        m.put("sparse.operands_s", tr.total_s("sparse.operands"), "s");
        m.put(
            "kernels.build_s",
            tr.total_s("kernels.plan") + tr.total_s("kernels.build"),
            "s",
        );
        m.put("kernels.static_uops", t.static_uops as f64, "count");
        m.put("kernels.verify_s", tr.total_s("kernels.verify"), "s");
        m.put("vpu.decode_s", tr.total_s("vpu.decode"), "s");
        m.put("vpu.analyze_s", tr.total_s("vpu.analyze"), "s");
        m.put(
            "vpu.trace_coverage",
            t.traced_uops as f64 / nonzero(t.static_uops as f64),
            "frac",
        );
        m.put("vpu.run_s", run_s, "s");
        m.put("vpu.functional_s", functional_s, "s");
        m.put(
            "vpu.timing_model_share",
            1.0 - functional_s / nonzero(run_s),
            "frac",
        );
        m.put(
            "vpu.timing_model_share.baseline",
            1.0 - t.functional_s[0] / nonzero(t.run_s[0]),
            "frac",
        );
        m.put(
            "vpu.timing_model_share.proposed",
            1.0 - t.functional_s[1] / nonzero(t.run_s[1]),
            "frac",
        );
        m.put(
            "vpu.timed_minstr_per_s",
            (t.instret[0] + t.instret[1]) as f64 / nonzero(run_s) / 1e6,
            "Minstr/s",
        );
        let d = self.decode;
        m.put("core.decode_cache.hits", d.hits as f64, "count");
        m.put("core.decode_cache.misses", d.misses as f64, "count");
        m.put("core.decode_cache.evictions", d.evictions as f64, "count");
        m.put(
            "core.decode_cache.hit_ratio",
            d.hits as f64 / nonzero((d.hits + d.misses) as f64),
            "frac",
        );
        m.put("core.record.encode_us", us("core.record.encode"), "us");
        m.put("core.record.decode_us", us("core.record.decode"), "us");
        m.put("core.digest_us", us("core.digest"), "us");
        m.put(
            "service.store.get_lru_us",
            us("service.store.get_lru"),
            "us",
        );
        m.put(
            "service.store.get_disk_us",
            us("service.store.get_disk"),
            "us",
        );
        m.put("service.store.put_us", us("service.store.put"), "us");
        m.put(
            "service.store.lru_hits",
            self.serve.lru_hits as f64,
            "count",
        );
        m.put(
            "service.store.disk_hits",
            self.serve.disk_hits as f64,
            "count",
        );
        m.put("service.store.open_s", tr.mean_s("service.store.open"), "s");
        m.put("service.daemon.hit_us", us("service.daemon.hit"), "us");
        m.put(
            "service.daemon.miss_ms",
            tr.mean_s("service.daemon.miss") * 1e3,
            "ms",
        );
        m.put(
            "service.daemon.computed",
            self.serve.computed as f64,
            "count",
        );
        m.put(
            "service.daemon.coalesced",
            self.serve.coalesced as f64,
            "count",
        );
        m.put(
            "service.http.overhead_ms",
            (tr.mean_s("service.http.hit") - tr.mean_s("service.daemon.hit")) * 1e3,
            "ms",
        );
        m.put("sim.cycles.baseline", t.cycles[0] as f64, "count");
        m.put("sim.cycles.proposed", t.cycles[1] as f64, "count");
        m.put("sim.instret.baseline", t.instret[0] as f64, "count");
        m.put("sim.instret.proposed", t.instret[1] as f64, "count");
        m.put(
            "sim.speedup",
            t.cycles[0] as f64 / nonzero(t.cycles[1] as f64),
            "x",
        );
        let (lo, hi) = self
            .speedups
            .iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        m.put("sim.speedup_min", lo, "x");
        m.put("sim.speedup_max", hi, "x");
        m.put("mem.l1d_hit_rate", t.l1d_hit_rate().unwrap_or(0.0), "frac");
        m.put("mem.l1d_accesses", t.l1d_accesses as f64, "count");
        m.put("mem.l2_hit_rate", t.l2_hit_rate(), "frac");
        m.put("mem.dram_lines", t.dram_lines as f64, "count");
        m.put(
            "trace.overhead_frac",
            self.rebuild_s / nonzero(self.referee_s) - 1.0,
            "frac",
        );
        m.put(
            "trace.coverage_frac",
            1.0 - layers.get("bench").copied().unwrap_or(0.0) / wall,
            "frac",
        );
        (m, self.failures, self.attempted)
    }
}
