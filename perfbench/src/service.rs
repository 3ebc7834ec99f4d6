//! The `service-mixed` workload and the service-side phases the traced
//! run shares with `cnn-resnet50`.
//!
//! An in-process `SweepService` (2 workers, transformer campaign,
//! default caps) serves `service::http::serve` on loopback. Two
//! closed-loop clients post single-cell `POST /sweep` requests, one
//! connection each: 9 in 10 repeat a cell of the hot set the store was
//! filled with (hits), 1 in 10 asks for a new seed of the BERT-FFN shape
//! (misses, simulated by a worker and appended to the store).
//!
//! Every time but the hit median is reported at the reference speed of
//! `crate::speed`: the load runs in segments with the speed probe
//! between them, and each cold miss between two probe runs. The hit
//! median is the HTTP accept loop's 5 ms poll sleep, a wall-clock wait
//! that a slower host does not lengthen, so it stays in host time.

use crate::layers::Layers;
use crate::report::{mean, median, quantile, Metrics};
use crate::speed::{Probe, REFERENCE_S};
use crate::trace::Tracer;
use crate::{Outcome, Rng, Size};
use indexmac::digest::{config_digest, Digest};
use indexmac::experiment::{decode_cache_stats, ExperimentConfig};
use indexmac::record::{decode_cell_result, encode_cell_result};
use indexmac::sweep::{run_cell, run_cells, CellResult, SweepCell, SweepGrid};
use indexmac_kernels::{Dataflow, GemmDims};
use indexmac_service::{http, CellStatus, ResultStore, SweepService};
use indexmac_sparse::NmPattern;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many times a run starts the service, for the set-up median.
const SETUPS: usize = 21;
/// Seconds of load between two runs of the speed probe.
const SEGMENT_S: f64 = 5.0;
/// Requests per `wall_s` unit.
const WALL_UNIT_REQUESTS: usize = 100;
/// One request in `MISS_EVERY` is a miss, drawn independently per
/// request so that the two clients' misses overlap at a steady rate
/// rather than in lock-step.
const MISS_EVERY: usize = 10;

const PATTERN: NmPattern = NmPattern::P1_4;

/// A minimal HTTP/1.1 client: one connection per request, reads to EOF.
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A service serving HTTP on an ephemeral loopback port.
struct Running {
    service: Arc<SweepService>,
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Opens the store in `dir`, starts `threads` workers and the HTTP
    /// server, and returns once `GET /healthz` answers.
    fn start(dir: &Path, cfg: ExperimentConfig, threads: usize) -> Result<Self, String> {
        let store = ResultStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        Self::start_with(store, cfg, threads)
    }

    /// [`Running::start`] over an already-open store.
    fn start_with(
        store: ResultStore,
        cfg: ExperimentConfig,
        threads: usize,
    ) -> Result<Self, String> {
        let service = SweepService::start(cfg, store, threads);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || http::serve(&svc, listener));
        let running = Self {
            service,
            addr,
            server,
        };
        match http_request(addr, "GET", "/healthz", "") {
            Ok((200, _)) => Ok(running),
            other => {
                running.stop();
                Err(format!("healthz failed: {other:?}"))
            }
        }
    }

    /// `POST /shutdown`, then waits for the server to drain and stop.
    fn stop(self) {
        let _ = http_request(self.addr, "POST", "/shutdown", "");
        let _ = self.server.join();
    }
}

/// One single-cell grid: what a client posts, and the cell it maps to.
#[derive(Clone, Copy)]
struct Request {
    dims: GemmDims,
    base_seed: u64,
}

impl Request {
    /// The one cell of this request's grid.
    fn cell(self) -> SweepCell {
        let grid = SweepGrid {
            patterns: vec![PATTERN],
            dims: vec![self.dims],
            dataflows: vec![Dataflow::BStationary],
            base_seed: self.base_seed,
        };
        grid.cells()[0]
    }

    fn body(self) -> String {
        let d = self.dims;
        format!(
            "{{\"dims\": [\"{}x{}x{}\"], \"patterns\": [\"{PATTERN}\"], \"base_seed\": {}}}",
            d.rows, d.inner, d.cols, self.base_seed
        )
    }

    /// Posts the request and returns the served status and result.
    fn post(self, addr: SocketAddr) -> Result<(String, CellResult), String> {
        let (code, body) = http_request(addr, "POST", "/sweep", &self.body())?;
        if code != 200 {
            return Err(format!("POST /sweep answered {code}: {body}"));
        }
        let v = serde_json::from_str(&body).map_err(|e| format!("response JSON: {e}"))?;
        let cell = v
            .get("cells")
            .and_then(|c| c.as_array())
            .and_then(|c| c.first())
            .ok_or("response has no cell")?;
        let status = cell
            .get("status")
            .and_then(|s| s.as_str())
            .ok_or("cell has no status")?
            .to_string();
        let result = decode_cell_result(cell.get("result").ok_or("cell has no result")?)?;
        if result.cell != self.cell() {
            return Err("served a different cell".into());
        }
        Ok((status, result))
    }
}

/// Workload sizes: the hot set, its shapes, and the miss shape.
struct Shape {
    hot: usize,
    hot_dims: Vec<GemmDims>,
    miss_dims: GemmDims,
}

fn shape(size: Size) -> Shape {
    let d = |rows, inner, cols| GemmDims { rows, inner, cols };
    match size {
        // About twice the store's 1024-entry LRU front.
        Size::Full => Shape {
            hot: 2048,
            hot_dims: vec![d(8, 64, 32), d(16, 64, 32), d(8, 128, 32), d(16, 128, 32)],
            miss_dims: d(3072, 768, 128),
        },
        Size::Tiny => Shape {
            hot: 32,
            hot_dims: vec![d(8, 64, 32)],
            miss_dims: d(16, 64, 32),
        },
    }
}

/// The seeded hot set, simulated and appended to a fresh store in `dir`.
fn fill(
    dir: &Path,
    rng: &mut Rng,
    shape: &Shape,
    cfg: &ExperimentConfig,
) -> Result<Vec<(Request, CellResult)>, String> {
    let requests: Vec<Request> = (0..shape.hot)
        .map(|i| Request {
            dims: shape.hot_dims[i % shape.hot_dims.len()],
            base_seed: rng.next_u64(),
        })
        .collect();
    let results =
        run_cells(requests.iter().map(|r| r.cell()).collect(), cfg).map_err(|e| e.to_string())?;
    let mut store = ResultStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    for (r, result) in requests.iter().zip(&results) {
        store
            .put(config_digest(&r.cell(), cfg), result)
            .map_err(|e| format!("put: {e}"))?;
    }
    store.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(requests.into_iter().zip(results).collect())
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    Miss,
}

struct Sample {
    kind: Kind,
    latency_s: f64,
    /// Completion time since the loop started (at the reference speed,
    /// once the segment is done).
    done_s: f64,
    instret: u64,
    /// `REFERENCE_S / probe seconds` around the sample's load segment.
    scale: f64,
}

/// Everything a load loop observed.
#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    failures: Vec<String>,
    /// Miss requests kept for re-verification after the loop.
    misses: Vec<(Request, CellResult)>,
}

/// A client's request stream: one request in `MISS_EVERY`, at random,
/// is a new seed of the miss shape, the rest repeat random hot-set cells.
struct Client<'a> {
    rng: Rng,
    hot: &'a [(Request, CellResult)],
    miss_dims: GemmDims,
}

impl<'a> Client<'a> {
    /// The kind of the next request: a miss with chance 1 in `MISS_EVERY`.
    fn next_kind(&mut self) -> Kind {
        if self.rng.below(MISS_EVERY) == 0 {
            Kind::Miss
        } else {
            Kind::Hit
        }
    }

    /// A request of `kind`, with the stored result a hit must return.
    fn request(&mut self, kind: Kind) -> (Request, Option<&'a CellResult>) {
        match kind {
            Kind::Miss => {
                let r = Request {
                    dims: self.miss_dims,
                    base_seed: self.rng.next_u64(),
                };
                (r, None)
            }
            Kind::Hit => {
                let (r, expected) = &self.hot[self.rng.below(self.hot.len())];
                (*r, Some(expected))
            }
        }
    }
}

fn check(
    kind: Kind,
    status: &str,
    got: &CellResult,
    expected: Option<&CellResult>,
) -> Result<(), String> {
    let want = match kind {
        Kind::Hit => "hit",
        Kind::Miss => "computed",
    };
    if status != want {
        return Err(format!("expected a {want}, served as {status}"));
    }
    if expected.is_some_and(|e| e != got) {
        return Err("hit differs from the stored result".into());
    }
    Ok(())
}

fn instret(r: &CellResult) -> u64 {
    r.comparison.baseline.report.instructions + r.comparison.proposed.report.instructions
}

/// Two closed-loop clients against `addr` until `deadline`.
fn closed_loop(
    addr: SocketAddr,
    hot: &[(Request, CellResult)],
    miss_dims: GemmDims,
    seed: u64,
    deadline: Instant,
) -> Load {
    let start = Instant::now();
    let per_client: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|id| {
                s.spawn(move || {
                    let mut client = Client {
                        rng: Rng::new(seed ^ (0xC1 + id)),
                        hot,
                        miss_dims,
                    };
                    let mut load = Load::default();
                    while Instant::now() < deadline {
                        let kind = client.next_kind();
                        let (request, expected) = client.request(kind);
                        let t = Instant::now();
                        let served = request.post(addr);
                        let latency_s = t.elapsed().as_secs_f64();
                        match served.and_then(|(status, got)| {
                            check(kind, &status, &got, expected).map(|()| got)
                        }) {
                            Ok(got) => {
                                if kind == Kind::Miss && load.misses.len() < 2 {
                                    load.misses.push((request, got.clone()));
                                }
                                load.samples.push(Sample {
                                    kind,
                                    latency_s,
                                    done_s: start.elapsed().as_secs_f64(),
                                    instret: if kind == Kind::Miss { instret(&got) } else { 0 },
                                    scale: 1.0,
                                });
                            }
                            Err(e) => load.failures.push(e),
                        }
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Load::default();
    for mut l in per_client {
        all.samples.append(&mut l.samples);
        all.failures.append(&mut l.failures);
        all.misses.append(&mut l.misses);
    }
    all.samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    all
}

/// A fresh, empty work directory under `root` for this process.
pub fn work_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Set-up and cold-cell samples, one of each per fresh service start.
#[derive(Default)]
struct Starts {
    setup_s: Vec<f64>,
    /// Host seconds of each cold miss.
    cold_s: Vec<f64>,
    /// The same at the reference speed.
    cold_scaled_s: Vec<f64>,
    probe: Probe,
    failures: Vec<String>,
}

impl Starts {
    /// Starts a service over the store in `dir` (timed: the set-up) and
    /// posts one miss to its empty-cache workers (timed: the cold cell).
    fn start(
        &mut self,
        dir: &Path,
        cfg: ExperimentConfig,
        miss_dims: GemmDims,
        rng: &mut Rng,
    ) -> Result<Running, String> {
        let t = Instant::now();
        let running = Running::start(dir, cfg, 2)?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        let request = Request {
            dims: miss_dims,
            base_seed: rng.next_u64(),
        };
        let before = self.probe.time();
        let t = Instant::now();
        match request
            .post(running.addr)
            .and_then(|(status, got)| check(Kind::Miss, &status, &got, None))
        {
            Ok(()) => {
                let s = t.elapsed().as_secs_f64();
                let after = self.probe.time();
                self.cold_s.push(s);
                self.cold_scaled_s
                    .push(s * REFERENCE_S / ((before + after) / 2.0));
            }
            Err(e) => self.failures.push(e),
        }
        Ok(running)
    }

    /// `n` start-and-stop cycles.
    fn cycle(
        &mut self,
        n: usize,
        dir: &Path,
        cfg: ExperimentConfig,
        miss_dims: GemmDims,
        rng: &mut Rng,
    ) -> Result<(), String> {
        for _ in 0..n {
            self.start(dir, cfg, miss_dims, rng)?.stop();
        }
        Ok(())
    }
}

/// The `service-mixed` workload.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    root: &Path,
) -> Result<Outcome, String> {
    let cfg = ExperimentConfig::transformer();
    let shape = shape(size);
    let mut rng = Rng::new(seed);
    let dir = work_dir(root, "service");

    let fill_t = Instant::now();
    let hot = fill(&dir, &mut rng, &shape, &cfg)?;
    println!(
        "service: filled {} hot cells in {:.3} s",
        hot.len(),
        fill_t.elapsed().as_secs_f64()
    );

    let mut starts = Starts::default();
    let out = if trace {
        let running = starts.start(&dir, cfg, shape.miss_dims, &mut rng)?;
        let out = traced(&running, &hot, &shape, &cfg, &mut rng, seconds, root);
        running.stop();
        out
    } else {
        // Set-up and cold-cell samples straddle the load loop, so host
        // speed changes during the run reach both halves.
        let before = SETUPS / 2;
        starts.cycle(before, &dir, cfg, shape.miss_dims, &mut rng)?;
        let running = starts.start(&dir, cfg, shape.miss_dims, &mut rng)?;
        let load = closed_loop_run(&running, &hot, &shape, &cfg, seed, seconds);
        running.stop();
        starts.cycle(SETUPS - before - 1, &dir, cfg, shape.miss_dims, &mut rng)?;
        load.and_then(|(load, loop_s, scaled_s)| untraced(load, loop_s, scaled_s, &starts))
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = out?;
    out.attempted += starts.setup_s.len() as u64;
    out.failures.append(&mut starts.failures);
    Ok(out)
}

/// The closed loop, run in segments of `SEGMENT_S` with the speed probe
/// between them (no load runs while it does), then a re-verification of
/// a few served misses. Returns the load, its host seconds and the same
/// at the reference speed.
fn closed_loop_run(
    running: &Running,
    hot: &[(Request, CellResult)],
    shape: &Shape,
    cfg: &ExperimentConfig,
    seed: u64,
    seconds: f64,
) -> Result<(Load, f64, f64), String> {
    let mut probe = Probe::new();
    let mut seeds = Rng::new(seed);
    let mut load = Load::default();
    let (mut loop_s, mut scaled_s) = (0.0, 0.0);
    let mut before = probe.time();
    while loop_s < seconds {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(SEGMENT_S.min(seconds - loop_s));
        let mut part = closed_loop(running.addr, hot, shape.miss_dims, seeds.next_u64(), deadline);
        let part_s = start.elapsed().as_secs_f64();
        let after = probe.time();
        let scale = REFERENCE_S / ((before + after) / 2.0);
        before = after;
        for s in &mut part.samples {
            // One timeline of load, without the pauses for the probe.
            s.done_s = scaled_s + s.done_s * scale;
            s.scale = scale;
        }
        load.samples.append(&mut part.samples);
        load.failures.append(&mut part.failures);
        let keep = 4usize.saturating_sub(load.misses.len());
        load.misses.extend(part.misses.into_iter().take(keep));
        loop_s += part_s;
        scaled_s += part_s * scale;
    }

    // Re-verify a few served misses against an in-process run.
    for (request, served) in &load.misses {
        match run_cell(request.cell(), cfg) {
            Ok(local) if local == *served => {}
            Ok(_) => load
                .failures
                .push("served miss differs from run_cell".into()),
            Err(e) => load.failures.push(e.to_string()),
        }
    }

    Ok((load, loop_s, scaled_s))
}

/// End-to-end metrics of the untraced run; `scaled_s` is the loop's
/// `loop_s` host seconds at the reference speed.
fn untraced(load: Load, loop_s: f64, scaled_s: f64, starts: &Starts) -> Result<Outcome, String> {
    let lat = |kind: Kind, scaled: bool| -> Vec<f64> {
        load.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| if scaled { s.latency_s * s.scale } else { s.latency_s })
            .collect()
    };
    let (hits, misses) = (lat(Kind::Hit, false), lat(Kind::Miss, false));
    let (scaled_hits, scaled_misses) = (lat(Kind::Hit, true), lat(Kind::Miss, true));
    if hits.is_empty() || misses.is_empty() || starts.cold_s.is_empty() {
        return Err(format!(
            "the run completed {} hits, {} misses and {} cold misses; all are needed",
            hits.len(),
            misses.len(),
            starts.cold_s.len()
        ));
    }
    // wall_s: seconds (at the reference speed) per WALL_UNIT_REQUESTS
    // consecutive completions.
    let marks: Vec<f64> = std::iter::once(0.0)
        .chain(load.samples.iter().map(|s| s.done_s))
        .step_by(WALL_UNIT_REQUESTS)
        .collect();
    let units: Vec<f64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
    let wall = if units.is_empty() {
        scaled_s
    } else {
        median(&units)
    };
    let simulated: u64 = load.samples.iter().map(|s| s.instret).sum();

    println!(
        "service: {} requests in {loop_s:.2} s ({} hits, {} misses), hit p50 {:.3} ms, miss p50 {:.1} ms",
        load.samples.len(),
        hits.len(),
        misses.len(),
        median(&hits) * 1e3,
        median(&misses) * 1e3
    );
    println!(
        "service: {} starts, set-up median {:.4} s; cold misses (s): {:?}",
        starts.setup_s.len(),
        median(&starts.setup_s),
        starts.cold_s
    );
    println!(
        "service: at the reference speed, the loop's {loop_s:.2} s are {scaled_s:.2} s, \
         miss p50 {:.1} ms, cold miss mean {:.1} ms",
        median(&scaled_misses) * 1e3,
        mean(&starts.cold_scaled_s) * 1e3
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&starts.setup_s), "s");
    m.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    m.put("wall_s", wall, "s");
    m.put(
        "sim_minstr_per_s",
        simulated as f64 / scaled_s / 1e6,
        "Minstr/s",
    );
    // Cell times are means: the samples are bimodal on the host this was
    // tuned on, and a median flips between the modes from run to run.
    m.put("cold_cell_s", mean(&starts.cold_scaled_s), "s");
    m.put("warm_cell_s", mean(&scaled_misses), "s");
    m.put("hit_p50_ms", median(&hits) * 1e3, "ms");
    m.put("hit_p99_ms", quantile(&scaled_hits, 0.99) * 1e3, "ms");
    m.put("miss_p50_ms", median(&scaled_misses) * 1e3, "ms");
    m.put("miss_p90_ms", quantile(&scaled_misses, 0.90) * 1e3, "ms");
    m.put("requests_per_s", load.samples.len() as f64 / scaled_s, "1/s");
    println!(
        "service: sample counts hit {} miss {}",
        hits.len(),
        misses.len()
    );
    Ok(Outcome {
        attempted: (load.samples.len() + load.failures.len()) as u64,
        failures: load.failures,
        metrics: m,
    })
}

/// Digests, encodes, decodes and stores `results`, reads them back from
/// the LRU front, reopens the store with the front disabled and reads
/// them from the log — every call in a span; a result that does not
/// come back intact is a failed check. Returns the reopened store
/// (default LRU) for serving, and each result's digest.
pub fn store_phase(
    tr: &mut Tracer,
    dir: &Path,
    results: &[CellResult],
    cfg: &ExperimentConfig,
    failures: &mut Vec<String>,
) -> Result<(ResultStore, Vec<Digest>), String> {
    let mut store = tr
        .span("service.store.open", || ResultStore::open(dir))
        .map_err(|e| format!("open store: {e}"))?;
    let mut digests = Vec::with_capacity(results.len());
    for r in results {
        let digest = tr.span("core.digest", || config_digest(&r.cell, cfg));
        let text = tr.span("core.record.encode", || {
            serde_json::to_string(&encode_cell_result(r)).expect("shim serialization is total")
        });
        let back = tr.span("core.record.decode", || {
            serde_json::from_str(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| decode_cell_result(&v))
        });
        if back.as_ref() != Ok(r) {
            failures.push("record codec did not round-trip".into());
        }
        tr.span("service.store.put", || store.put(digest, r))
            .map_err(|e| format!("put: {e}"))?;
        digests.push(digest);
    }
    for (d, r) in digests.iter().zip(results) {
        if tr.span("service.store.get_lru", || store.get(*d)).as_ref() != Some(r) {
            failures.push("LRU get differs from the stored result".into());
        }
    }
    store.flush().map_err(|e| format!("flush: {e}"))?;
    drop(store);
    let mut cold = tr
        .span("service.store.open", || ResultStore::open_with_lru(dir, 0))
        .map_err(|e| format!("reopen store: {e}"))?;
    for (d, r) in digests.iter().zip(results) {
        if tr.span("service.store.get_disk", || cold.get(*d)).as_ref() != Some(r) {
            failures.push("log get differs from the stored result".into());
        }
    }
    drop(cold);
    let store = tr
        .span("service.store.open", || ResultStore::open(dir))
        .map_err(|e| format!("reopen store: {e}"))?;
    Ok((store, digests))
}

/// Serve phase of `cnn-resnet50`'s traced run: a one-worker
/// service over the store of rebuilt cells answers each cell as an
/// in-process hit and over `GET /cell/<digest>`, then simulates one
/// small new cell as a miss. Returns the service's counters.
pub fn serve_phase(
    tr: &mut Tracer,
    store: ResultStore,
    results: &[CellResult],
    digests: &[Digest],
    cfg: &ExperimentConfig,
    seed: u64,
    failures: &mut Vec<String>,
) -> Result<ServeCounters, String> {
    let running = tr.span("service.daemon.start", || {
        Running::start_with(store, *cfg, 1)
    })?;
    for (r, d) in results.iter().zip(digests) {
        let got = tr.span("service.daemon.hit", || {
            let p = running.service.submit(r.cell);
            (p.status, p.wait())
        });
        if got.0 != CellStatus::Hit || got.1.as_ref() != Ok(r) {
            failures.push("daemon hit differs from the stored result".into());
        }
        let served = tr.span("service.http.hit", || {
            http_request(running.addr, "GET", &format!("/cell/{d}"), "")
        });
        let ok = served
            .ok()
            .filter(|(code, _)| *code == 200)
            .and_then(|(_, body)| {
                let v = serde_json::from_str(&body).ok()?;
                decode_cell_result(v.get("result")?).ok()
            });
        if ok.as_ref() != Some(r) {
            failures.push("GET /cell differs from the stored result".into());
        }
    }
    let miss = SweepCell {
        dims: GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        },
        pattern: PATTERN,
        dataflow: cfg.params.dataflow,
        seed: seed ^ 0x5EED,
    };
    let got = tr.span("service.daemon.miss", || {
        let p = running.service.submit(miss);
        (p.status, p.wait())
    });
    if got.0 != CellStatus::Miss || got.1.is_err() {
        failures.push("daemon miss failed".into());
    }
    let counters = ServeCounters::of(&running.service);
    tr.span("service.daemon.stop", || running.stop());
    Ok(counters)
}

/// Service counters the traced run reports.
#[derive(Default, Clone, Copy)]
pub struct ServeCounters {
    pub computed: u64,
    pub coalesced: u64,
    pub lru_hits: u64,
    pub disk_hits: u64,
}

impl ServeCounters {
    fn of(service: &SweepService) -> Self {
        let stats = service.stats();
        Self {
            computed: stats.computed,
            coalesced: stats.coalesced,
            lru_hits: stats.store.lru_hits,
            disk_hits: stats.store.disk_hits,
        }
    }
}

/// The traced run of `service-mixed`: one client whose requests
/// alternate between `submit().wait()` in process and an HTTP request of
/// the same kind, then the first served misses refereed against
/// `run_cell` and rebuilt from the layers, then the store phase.
fn traced(
    running: &Running,
    hot: &[(Request, CellResult)],
    shape: &Shape,
    cfg: &ExperimentConfig,
    rng: &mut Rng,
    seconds: f64,
    root: &Path,
) -> Result<Outcome, String> {
    let mut layers = Layers::new(cfg);
    let mut client = Client {
        rng: Rng::new(rng.next_u64()),
        hot,
        miss_dims: shape.miss_dims,
    };
    let mut misses: Vec<(Request, CellResult)> = Vec::new();
    let mut requests = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.7);
    while Instant::now() < deadline {
        // Each pair of requests has one kind: in process, then over HTTP.
        let kind = client.next_kind();
        for in_process in [true, false] {
            requests += 1;
            layers.begin_cell();
            let (request, expected) = client.request(kind);
            let name = match (in_process, kind) {
                (true, Kind::Hit) => "service.daemon.hit",
                (true, Kind::Miss) => "service.daemon.miss",
                (false, Kind::Hit) => "service.http.hit",
                (false, Kind::Miss) => "service.http.miss",
            };
            let served = layers.tr.span(name, || {
                if in_process {
                    let p = running.service.submit(request.cell());
                    let status = p.status.name().to_string();
                    p.wait().map(|r| (status, r))
                } else {
                    request.post(running.addr)
                }
            });
            match served
                .and_then(|(status, got)| check(kind, &status, &got, expected).map(|()| got))
            {
                Ok(got) if kind == Kind::Miss && misses.len() < 3 => misses.push((request, got)),
                Ok(_) => {}
                Err(e) => layers.failures.push(e),
            }
        }
    }
    layers.serve = ServeCounters::of(&running.service);

    // Referee: each served miss must equal `run_cell` on this thread and
    // the layer-by-layer rebuild, bit for bit.
    for (request, served) in &misses {
        let cell = request.cell();
        let (local, s) = layers
            .tr
            .timed("core.experiment.run_cell", || run_cell(cell, cfg));
        layers.referee_s += s;
        match local {
            Ok(local) if local == *served => layers.rebuild(cell, cfg, &local.comparison),
            Ok(_) => layers
                .failures
                .push("served miss differs from run_cell".into()),
            Err(e) => layers.failures.push(e.to_string()),
        }
    }
    layers.decode = decode_cache_stats();

    let dir = work_dir(root, "store");
    let extra: Vec<CellResult> = hot.iter().take(64).map(|(_, r)| r.clone()).collect();
    let stored = layers.store_and_serve(&dir, cfg, &extra, None);
    let _ = std::fs::remove_dir_all(&dir);
    stored?;
    let (metrics, failures, checked) = layers.finish(root);
    Ok(Outcome {
        attempted: requests + checked,
        failures,
        metrics,
    })
}
