//! The simulation workload `cnn-resnet50`: the paper's Fig. 4a
//! campaign, `compare_model(resnet50(), 1:4, paper())` at the default
//! eval caps.
//!
//! A *campaign* runs the model's distinct layer shapes (its *cells*) in
//! network order, each one `compare_gemm`, which is what `compare_model`
//! does for an f32 model; every cell is timed on its own. A unit of
//! work is a *pair* of campaigns on a fresh worker thread, whose decode
//! cache is therefore empty: the cold campaign at the pair's seed, then
//! the warm one at the next seed. The simulated caches start empty in
//! every cell.
//!
//! The host's speed is probed around every cell (`crate::speed`), and
//! the run reports each cell's median over its pairs at the reference
//! speed.

use crate::layers::Layers;
use crate::report::{median, quantile, Metrics};
use crate::speed::{Probe, REFERENCE_S};
use crate::Outcome;
use crate::Size;
use indexmac::experiment::{
    compare_gemm, compare_model, decode_cache_stats, DecodeCacheStats, ExperimentConfig,
    LayerComparison, ModelComparison,
};
use indexmac::sweep::SweepCell;
use indexmac_kernels::GemmDims;
use indexmac_models::{GemmCaps, Model};
use indexmac_sparse::NmPattern;
use std::path::Path;
use std::time::Instant;

/// How many times a run measures the set-up, for its median.
const SETUPS: usize = 101;

const PATTERN: NmPattern = NmPattern::P1_4;

/// What one campaign simulates.
pub struct Spec {
    pub cfg: ExperimentConfig,
    model: Model,
    /// The model's distinct layer shapes, in network order.
    cells: Vec<GemmDims>,
}

/// Lowers the workload's model and builds its campaign configuration —
/// the work a CLI invocation does before its first cell.
pub fn spec(size: Size) -> Spec {
    let (model, caps) = match size {
        Size::Full => (indexmac_models::resnet50(), GemmCaps::default_eval()),
        Size::Tiny => (indexmac_models::resnet50().head(3), GemmCaps::smoke()),
    };
    let cfg = ExperimentConfig {
        caps,
        precision: model.precision,
        ..ExperimentConfig::paper()
    };
    let mut cells: Vec<GemmDims> = Vec::new();
    for l in &model.layers {
        if !cells.contains(&l.gemm) {
            cells.push(l.gemm);
        }
    }
    Spec { cfg, model, cells }
}

/// One campaign: the model comparison and each cell's seconds.
struct Campaign {
    cfg: ExperimentConfig,
    model: ModelComparison,
    /// Host seconds per cell.
    cell_s: Vec<f64>,
    /// The same at the reference speed.
    scaled_s: Vec<f64>,
    /// Every speed-probe time, in seconds.
    probe_s: Vec<f64>,
}

impl Campaign {
    /// `(cell, library result)` for every distinct GEMM the campaign
    /// simulated.
    fn cells(&self) -> Vec<(SweepCell, &LayerComparison)> {
        let mut out: Vec<(SweepCell, &LayerComparison)> = Vec::new();
        for l in &self.model.layers {
            let dims = l.comparison.baseline.full_gemm;
            if !out.iter().any(|(c, _)| c.dims == dims) {
                let cell = SweepCell {
                    dims,
                    pattern: PATTERN,
                    dataflow: self.cfg.params.dataflow,
                    seed: self.cfg.seed,
                };
                out.push((cell, l));
            }
        }
        out
    }

    /// Dynamic instructions simulated (each distinct GEMM once, both
    /// kernels).
    fn instret(&self) -> u64 {
        self.cells()
            .iter()
            .map(|(_, l)| {
                l.comparison.baseline.report.instructions
                    + l.comparison.proposed.report.instructions
            })
            .sum()
    }

    fn host_s(&self) -> f64 {
        self.cell_s.iter().sum()
    }

    fn scaled_s(&self) -> f64 {
        self.scaled_s.iter().sum()
    }
}

/// Runs the campaign at `seed` cell by cell, timing each between two
/// runs of the speed probe, and assembles the per-layer comparison as
/// `compare_model` does.
fn campaign(spec: &Spec, seed: u64, probe: &mut Probe) -> Result<Campaign, String> {
    let cfg = ExperimentConfig { seed, ..spec.cfg };
    let mut done = Vec::with_capacity(spec.cells.len());
    let mut cell_s = Vec::with_capacity(spec.cells.len());
    let mut scaled_s = Vec::with_capacity(spec.cells.len());
    let mut before = probe.time();
    let mut probe_s = vec![before];
    for &dims in &spec.cells {
        let t = Instant::now();
        let c = compare_gemm(dims, PATTERN, &cfg).map_err(|e| e.to_string())?;
        let s = t.elapsed().as_secs_f64();
        let after = probe.time();
        probe_s.push(after);
        cell_s.push(s);
        scaled_s.push(s * REFERENCE_S / ((before + after) / 2.0));
        before = after;
        done.push((dims, c));
    }
    let layers = spec
        .model
        .layers
        .iter()
        .map(|l| LayerComparison {
            name: l.name.clone(),
            comparison: done
                .iter()
                .find(|(d, _)| *d == l.gemm)
                .expect("every layer shape was run")
                .1
                .clone(),
        })
        .collect();
    Ok(Campaign {
        cfg,
        model: ModelComparison {
            model: spec.model.name.clone(),
            pattern: PATTERN,
            precision: cfg.precision,
            layers,
        },
        cell_s,
        scaled_s,
        probe_s,
    })
}

struct Pair {
    cold: Campaign,
    warm: Campaign,
    decode: DecodeCacheStats,
}

/// A cold and a warm campaign on a fresh worker thread.
fn pair(spec: &Spec, seed: u64) -> Result<Pair, String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut probe = Probe::new();
            let cold = campaign(spec, seed, &mut probe)?;
            let warm = campaign(spec, seed.wrapping_add(1), &mut probe)?;
            Ok(Pair {
                cold,
                warm,
                decode: decode_cache_stats(),
            })
        })
        .join()
        .map_err(|_| "worker thread panicked".to_string())?
    })
}

/// Wall times of `n` starts of this benchmark as a fresh process that
/// only performs the workload's set-up (`--setup-probe`).
fn setup_s(workload: &str, size: Size, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["--setup-probe", workload, "--size", size.name()])
            .status()
            .map_err(|e| format!("set-up probe: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up probe exited with {status}"));
        }
    }
    Ok(times)
}

fn print_pair(p: &Pair) {
    let m = &p.cold.model;
    let (lo, hi) = m.speedup_range();
    println!(
        "pair: cold {:.3} s ({:.3} s at the reference speed), warm {:.3} s ({:.3} s), \
         decode cache {}; ResNet50 1:4 speedup {:.3}x total, per layer {lo:.2}x-{hi:.2}x \
         (paper Fig. 4a: 1.60x-2.15x)",
        p.cold.host_s(),
        p.cold.scaled_s(),
        p.warm.host_s(),
        p.warm.scaled_s(),
        p.decode,
        m.total_speedup()
    );
}

/// Each cell's median time over `campaigns`, at the reference speed.
fn cell_medians(campaigns: &[&Campaign]) -> Vec<f64> {
    (0..campaigns[0].scaled_s.len())
        .map(|i| median(&campaigns.iter().map(|c| c.scaled_s[i]).collect::<Vec<_>>()))
        .collect()
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    root: &Path,
) -> Result<Outcome, String> {
    let spec = spec(size);
    if trace {
        return traced(&spec, seed, root);
    }
    // Set-up samples straddle the measured pairs, so host speed changes
    // during the run reach both halves.
    let mut setup = setup_s(workload, size, SETUPS / 2)?;
    let start = Instant::now();
    let mut pairs = Vec::new();
    // A pair cannot be split, so the run measures the whole number of
    // pairs (at least one) whose total is nearest to `seconds`, judged
    // by the first pair's length.
    let mut target = 1;
    while pairs.len() < target {
        let p = pair(&spec, seed.wrapping_add(2 * pairs.len() as u64))?;
        print_pair(&p);
        pairs.push(p);
        if pairs.len() == 1 {
            target = (seconds / start.elapsed().as_secs_f64()).round().max(1.0) as usize;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    setup.extend(setup_s(workload, size, SETUPS - SETUPS / 2)?);

    let cold = cell_medians(&pairs.iter().map(|p| &p.cold).collect::<Vec<_>>());
    let warm = cell_medians(&pairs.iter().map(|p| &p.warm).collect::<Vec<_>>());
    let n = cold.len() as f64;
    let (cold_s, warm_s) = (cold.iter().sum::<f64>(), warm.iter().sum::<f64>());
    let wall = cold_s + warm_s;
    let instret = pairs
        .iter()
        .map(|p| (p.cold.instret() + p.warm.instret()) as f64)
        .sum::<f64>()
        / pairs.len() as f64;

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    m.put("wall_s", wall, "s");
    m.put("sim_minstr_per_s", instret / wall / 1e6, "Minstr/s");
    m.put("cold_cell_s", cold_s / n, "s");
    m.put("warm_cell_s", warm_s / n, "s");
    m.put("hit_p50_ms", quantile(&warm, 0.5) * 1e3, "ms");
    m.put("hit_p99_ms", quantile(&warm, 0.99) * 1e3, "ms");
    m.put("miss_p50_ms", quantile(&cold, 0.5) * 1e3, "ms");
    m.put("miss_p90_ms", quantile(&cold, 0.90) * 1e3, "ms");
    m.put("requests_per_s", 2.0 * n / wall, "1/s");
    let probes: Vec<f64> = pairs
        .iter()
        .flat_map(|p| p.cold.probe_s.iter().chain(&p.warm.probe_s))
        .copied()
        .collect();
    println!(
        "{} pairs of {} cells in {elapsed:.2} s; speed probe median {:.3} ms (reference {:.3} ms); \
         campaign of cell medians at the reference speed: cold {cold_s:.3} s, warm {warm_s:.3} s",
        pairs.len(),
        cold.len(),
        median(&probes) * 1e3,
        REFERENCE_S * 1e3
    );
    Ok(Outcome {
        attempted: 2 * (n as u64) * pairs.len() as u64,
        failures: Vec::new(),
        metrics: m,
    })
}

/// The traced run: one untraced pair (the decode-cache counters), a
/// `compare_model` call at the cold campaign's seed that the cold
/// campaign must match, then the cold campaign rebuilt cell by cell
/// from the layers on a fresh thread like the pair's, then the store and
/// serve phases.
fn traced(spec: &Spec, seed: u64, root: &Path) -> Result<Outcome, String> {
    let p = pair(spec, seed)?;
    print_pair(&p);
    let cold = &p.cold;
    let mut failures = Vec::new();
    let library = std::thread::scope(|s| {
        s.spawn(|| compare_model(&spec.model, PATTERN, &cold.cfg).map_err(|e| e.to_string()))
            .join()
            .map_err(|_| "compare_model thread panicked".to_string())?
    })?;
    let same = library.layers.len() == cold.model.layers.len()
        && library
            .layers
            .iter()
            .zip(&cold.model.layers)
            .all(|(a, b)| a.name == b.name && a.comparison == b.comparison);
    if !same {
        failures.push("the cell-by-cell campaign differs from compare_model".to_string());
    }
    let (metrics, rebuilt_failures, checked) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut layers = Layers::new(&cold.cfg);
            layers.referee_s = cold.host_s();
            layers.decode = p.decode;
            for (cell, want) in cold.cells() {
                layers.rebuild(cell, &cold.cfg, &want.comparison);
            }
            let dir = crate::service::work_dir(root, "store");
            let served = layers.store_and_serve(&dir, &cold.cfg, &[], Some(seed));
            let _ = std::fs::remove_dir_all(&dir);
            served.map(|()| layers.finish(root))
        })
        .join()
        .map_err(|_| "traced thread panicked".to_string())?
    })?;
    failures.extend(rebuilt_failures);
    Ok(Outcome {
        attempted: 3 + checked,
        failures,
        metrics,
    })
}
