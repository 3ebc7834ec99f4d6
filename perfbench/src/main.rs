//! Timed-cell benchmark of the IndexMAC reproduction.
//!
//! ```text
//! perfbench --workload <cnn-resnet50|service-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Each workload runs in its own process from empty caches. With
//! `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics from a
//! separate traced run that calls each layer's public functions. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits non-zero when any correctness check failed.
//! `--size tiny` shrinks every workload for the self-test.

mod cell;
mod layers;
mod report;
mod service;
mod sim;
mod speed;
mod trace;

use report::Metrics;
use std::path::{Path, PathBuf};

/// Workload size: the benchmark's own, or a tiny one for self-tests.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// SplitMix64: every input the benchmark generates derives from the
/// workload seed through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Outcome of one workload run: attempted and failed counts plus the
/// metrics of the requested kind.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

/// Writes the traced run's spans as JSON lines under `root`.
pub fn write_spans(root: &Path, tr: &trace::Tracer) {
    let path = root.join(format!("spans-{}.jsonl", std::process::id()));
    match std::fs::write(&path, tr.to_json_lines()) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--setup-probe <workload> --size <s>`: the set-up a CLI invocation
    // does before its first cell, timed from outside by the parent.
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        let size = if argv.get(3).map(String::as_str) == Some("tiny") {
            Size::Tiny
        } else {
            Size::Full
        };
        assert_eq!(
            argv.get(1).map(String::as_str),
            Some("cnn-resnet50"),
            "probe needs the simulation workload"
        );
        let spec = sim::spec(size);
        drop(indexmac_vpu::Simulator::new(spec.cfg.sim));
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root: PathBuf = std::env::current_dir()
        .expect("working directory")
        .join(".perfbench-work");
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("perfbench: cannot create {}: {e}", root.display());
        std::process::exit(2);
    }
    let seed = Rng::new(args.seed).next_u64();
    let outcome = match args.workload.as_str() {
        "cnn-resnet50" => sim::run(
            &args.workload,
            seed,
            args.seconds,
            args.trace,
            args.size,
            &root,
        ),
        "service-mixed" => service::run(seed, args.seconds, args.trace, args.size, &root),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let failed = outcome.failures.len() as u64;
    let attempted = outcome.attempted.max(1);
    println!(
        "failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    let correct = failed == 0;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
