//! The traced rebuild of a timed cell from the layers' public functions.
//!
//! `rebuild_cell` re-derives what `indexmac::experiment::compare_gemm`
//! computes, one public call at a time, each inside a span:
//!
//! 1. `prune::random_structured` / `DenseMatrix::random` (operands)
//! 2. `GemmLayout::plan_elem` and `{rowwise,indexmac,indexmac2}::build`
//! 3. `DecodedProgram::decode`
//! 4. `verify::analyze_kernel`
//! 5. `verify::run_decoded_kernel_verified` (the timed run)
//! 6. `verify::check_against_reference`
//!
//! and runs each decoded program a second time under
//! `Simulator::run_functional_verified` (`NullObserver`), so the cost of
//! the functional engine is separated from the cost of the timing
//! model. Built programs are kept in a FIFO with the same µop budget as
//! the library's per-thread decode cache, so the rebuild builds exactly
//! the programs the untraced run builds.

use crate::trace::Tracer;
use ::indexmac::experiment::{Algorithm, ExperimentConfig, GemmComparison, LayerResult};
use indexmac_kernels::{indexmac, indexmac2, rowwise, verify, GemmDims, GemmLayout, KernelParams};
use indexmac_sparse::{prune, DenseMatrix, NmPattern};
use indexmac_vpu::{DecodedProgram, RunReport, Simulator, Verified};
use std::collections::VecDeque;
use std::rc::Rc;

/// Mirror of the library's per-thread decode-cache budget, in µops.
const CACHE_MAX_UOPS: usize = 2 << 20;

struct Cached {
    algorithm: Algorithm,
    layout: GemmLayout,
    params: KernelParams,
    program: Rc<DecodedProgram>,
    token: Option<Verified>,
}

/// Counters accumulated over every side the rebuild runs.
#[derive(Default)]
pub struct RebuildTotals {
    /// Static µops of every program built.
    pub static_uops: u64,
    /// Static µops of built programs that the trace compiler covers.
    pub traced_uops: u64,
    /// Dynamic instructions of the timed runs, per side.
    pub instret: [u64; 2],
    /// Simulated cycles of the timed runs, per side.
    pub cycles: [u64; 2],
    /// Seconds in the timed and the functional runs, per side.
    pub run_s: [f64; 2],
    pub functional_s: [f64; 2],
    /// Access-weighted cache statistics over the timed runs.
    pub l1d_hits: f64,
    pub l1d_accesses: u64,
    pub l2_weighted: f64,
    pub l2_weight: u64,
    pub dram_lines: u64,
    /// Sides whose timed and functional products or instruction counts
    /// differed.
    pub engine_mismatches: u64,
}

impl RebuildTotals {
    fn add_report(&mut self, side: usize, r: &RunReport) {
        self.instret[side] += r.instructions;
        self.cycles[side] += r.cycles;
        let l1d = r.mem.scalar_loads + r.mem.scalar_stores;
        if l1d > 0 {
            self.l1d_hits += r.l1d_hit_rate * l1d as f64;
            self.l1d_accesses += l1d;
        }
        let all = r.mem.total_accesses();
        self.l2_weighted += r.l2_hit_rate * all as f64;
        self.l2_weight += all;
        self.dram_lines += r.mem.dram_lines();
    }

    /// L1D hit rate over the runs that accessed the L1D at all, or
    /// `None` when none did (the library reports 1.0 for an untouched
    /// cache, which would read as a perfect hit rate).
    pub fn l1d_hit_rate(&self) -> Option<f64> {
        (self.l1d_accesses > 0).then(|| self.l1d_hits / self.l1d_accesses as f64)
    }

    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_weight == 0 {
            0.0
        } else {
            self.l2_weighted / self.l2_weight as f64
        }
    }
}

/// Rebuilds cells through the layers' public functions on one reusable
/// simulator.
pub struct Rebuilder {
    sim: Simulator,
    cache: VecDeque<Cached>,
    resident_uops: usize,
    pub totals: RebuildTotals,
}

impl Rebuilder {
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let mut sim = Simulator::new(cfg.sim);
        sim.set_max_instructions(cfg.max_instructions);
        Self {
            sim,
            cache: VecDeque::new(),
            resident_uops: 0,
            totals: RebuildTotals::default(),
        }
    }

    /// Both sides of one cell, as `compare_gemm(dims, pattern, cfg)`
    /// computes them.
    pub fn rebuild_cell(
        &mut self,
        tr: &mut Tracer,
        dims: GemmDims,
        pattern: NmPattern,
        cfg: &ExperimentConfig,
    ) -> Result<GemmComparison, String> {
        let span = tr.enter("bench.cell");
        let sides = (|| {
            Ok(GemmComparison {
                baseline: self.rebuild_side(tr, dims, pattern, cfg.baseline, 0, cfg)?,
                proposed: self.rebuild_side(tr, dims, pattern, cfg.proposed, 1, cfg)?,
            })
        })();
        tr.exit(span);
        sides
    }

    fn rebuild_side(
        &mut self,
        tr: &mut Tracer,
        dims: GemmDims,
        pattern: NmPattern,
        algorithm: Algorithm,
        side: usize,
        cfg: &ExperimentConfig,
    ) -> Result<LayerResult, String> {
        if cfg.precision.is_int() {
            return Err("the traced rebuild covers f32 campaigns only".into());
        }
        let capped = cfg.caps.apply(dims);
        let (a, b) = tr.span("sparse.operands", || {
            (
                prune::random_structured(capped.rows, capped.inner, pattern, cfg.seed),
                DenseMatrix::random(capped.inner, capped.cols, cfg.seed.wrapping_add(1)),
            )
        });
        let (layout, params) = tr.span("kernels.plan", || plan(algorithm, &a, capped.cols, cfg))?;
        let (program, token) = self.program(tr, algorithm, &layout, &params, cfg)?;

        let sim = &mut self.sim;
        let (run, run_s) = tr.timed("vpu.run", || match token {
            Some(token) => {
                verify::run_decoded_kernel_verified(sim, &program, token, &a, &b, &layout)
            }
            None => verify::run_decoded_kernel(sim, &program, &a, &b, &layout),
        });
        let run = run.map_err(|e| format!("{algorithm} timed run: {e}"))?;
        self.totals.run_s[side] += run_s;

        if cfg.verify && algorithm != Algorithm::Dense {
            tr.span("kernels.verify", || {
                verify::check_against_reference(
                    &run,
                    &a,
                    &b,
                    verify::default_tolerance(layout.dims.inner),
                )
            })
            .map_err(|e| format!("{algorithm} verification: {e}"))?;
        }

        // The same decoded program once more, functionally only.
        let sim = &mut self.sim;
        let ((instret, c), functional_s) = tr.timed("vpu.functional", || {
            sim.reset();
            layout.write_operands(&a, &b, sim.memory_mut());
            let instret = match token {
                Some(token) => sim.run_functional_verified(&program, token),
                None => sim.run_functional_decoded(&program),
            };
            (instret, layout.read_c(sim.memory()))
        });
        self.totals.functional_s[side] += functional_s;
        let instret = instret.map_err(|e| format!("{algorithm} functional run: {e}"))?;
        if instret != run.report.instructions || c.as_slice() != run.c.as_slice() {
            self.totals.engine_mismatches += 1;
        }

        self.totals.add_report(side, &run.report);
        Ok(LayerResult {
            algorithm,
            pattern,
            gemm: capped,
            full_gemm: dims,
            report: run.report,
        })
    }

    /// The decoded program for `(algorithm, layout, params)`: from the
    /// FIFO when present, else built, decoded and analyzed in spans.
    fn program(
        &mut self,
        tr: &mut Tracer,
        algorithm: Algorithm,
        layout: &GemmLayout,
        params: &KernelParams,
        cfg: &ExperimentConfig,
    ) -> Result<(Rc<DecodedProgram>, Option<Verified>), String> {
        if let Some(c) = self
            .cache
            .iter()
            .find(|c| c.algorithm == algorithm && c.layout == *layout && c.params == *params)
        {
            return Ok((Rc::clone(&c.program), c.token));
        }
        let program = tr
            .span("kernels.build", || match algorithm {
                Algorithm::RowWiseSpmm => rowwise::build(layout, params).map_err(|e| e.to_string()),
                Algorithm::IndexMac => indexmac::build(layout, params).map_err(|e| e.to_string()),
                Algorithm::IndexMac2 => indexmac2::build(layout, params).map_err(|e| e.to_string()),
                _ => Err("this kernel is not covered by the rebuild".to_string()),
            })
            .map_err(|e| format!("{algorithm} build: {e}"))?;
        let decoded = Rc::new(tr.span("vpu.decode", || DecodedProgram::decode(&program)));
        drop(program);
        let token = tr.span("vpu.analyze", || {
            verify::analyze_kernel(&decoded, layout, &cfg.sim).verified()
        });
        self.totals.static_uops += decoded.len() as u64;
        self.totals.traced_uops += decoded.traced_uops() as u64;

        self.resident_uops += decoded.len();
        self.cache.push_back(Cached {
            algorithm,
            layout: layout.clone(),
            params: *params,
            program: Rc::clone(&decoded),
            token,
        });
        let (cache, resident) = (&mut self.cache, &mut self.resident_uops);
        tr.span("core.experiment.evict", || {
            while *resident > CACHE_MAX_UOPS && cache.len() > 1 {
                let evicted = cache.pop_front().expect("len > 1");
                *resident -= evicted.program.len();
            }
        });
        Ok((decoded, token))
    }
}

/// The layout and effective kernel parameters `run_gemm` plans for one
/// side: the grouped second-generation layout refits `L` to the grouped
/// register budget, and both `vindexmac` kernels clamp the unroll.
fn plan(
    algorithm: Algorithm,
    a: &indexmac_sparse::StructuredSparseMatrix,
    cols: usize,
    cfg: &ExperimentConfig,
) -> Result<(GemmLayout, KernelParams), String> {
    let err = |e: indexmac_kernels::KernelError| format!("{algorithm} plan: {e}");
    if algorithm == Algorithm::IndexMac2 {
        let tile_rows = GemmLayout::fit_tile_rows(cfg.tile_rows, cfg.lmul, a.pattern());
        let layout = GemmLayout::plan_elem(a, cols, &cfg.sim, tile_rows, cfg.lmul, cfg.precision)
            .map_err(err)?;
        let params = KernelParams {
            unroll: cfg.params.unroll.min(indexmac2::max_unroll(&layout)),
            ..cfg.params
        };
        Ok((layout, params))
    } else {
        let layout = GemmLayout::plan_elem(a, cols, &cfg.sim, cfg.tile_rows, 1, cfg.precision)
            .map_err(err)?;
        let params = if algorithm == Algorithm::IndexMac {
            KernelParams {
                unroll: cfg.params.unroll.min(indexmac::max_unroll(&layout)),
                ..cfg.params
            }
        } else {
            cfg.params
        };
        Ok((layout, params))
    }
}
