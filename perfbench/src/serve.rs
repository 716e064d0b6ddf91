//! `serve`: an in-process `serve::Server` (2 workers, a fresh `--cache`
//! directory, an empty memory layer) driven by a closed loop of 2
//! client connections. Each client waits for a result before sending
//! its next submission. The seeded script covers cheap quick-scale
//! cells with ML and non-ML triples:
//!
//! * a cold part, where every distinct cell is asked for once — some by
//!   both clients at the same instant, so one waits on the other's
//!   simulation (coalesced);
//! * a warm part, where each client asks again for every cell
//!   it saw (memory hits).
//!
//! The daemon then restarts on the same directory with an empty memory
//! layer and the script replays (disk hits, then memory hits).
//!
//! A round trip also holds the socket's own delays: the client and the
//! daemon each write a frame and its newline separately, with Nagle's
//! algorithm on, so most round trips wait on a delayed ACK. Cache hit
//! latencies are therefore timed in process: after the script, the
//! benchmark asks the `SimCache` for every cell again, once from memory
//! and once from disk.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use predictsim_experiments::triple::{CorrectionKind, PredictionTechnique, Variant};
use predictsim_experiments::{CellSource, HeuristicTriple, LoadedWorkload, SimCache, QUICK_SCALE};
use predictsim_serve::protocol::{ack_frame, result_frame};
use predictsim_serve::{
    batch_result_json, build_workload, Client, Frame, ServeConfig, Server, Submission,
    WorkloadRequest,
};

use crate::cells::{Op, Tally, Unit};
use crate::trace::Recorder;
use crate::Config;

const PRESETS: [&str; 3] = ["KTH", "SDSC-SP2", "CTC"];
const CLIENTS: usize = 2;
/// Cells both clients submit at once.
const PAIRS: usize = 8;
/// Cells each client submits alone.
const SOLOS: usize = 8;
/// How often each client re-asks for every cell it saw.
const REPEATS: usize = 1;

/// One step of a client's script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Both clients submit cell `0` after meeting at a barrier.
    Pair(usize),
    /// Client `k` submits cell `.0[k]`.
    Solo([usize; CLIENTS]),
}

/// What one submission looked like from the client.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Submit to result, seconds.
    pub rtt_s: f64,
    /// Submit to ack, seconds.
    pub ack_s: f64,
    /// Which layer answered.
    pub source: CellSource,
    /// Frames received.
    pub frames: u64,
    /// Bytes sent and received, newlines included.
    pub bytes: u64,
}

/// The script's random choices: the run's derived seeds, in turn.
struct Draws {
    seed: u64,
    k: u64,
}

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.k += 1;
        (crate::sub_seed(self.seed, self.k) % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Prepared inputs: the distinct submissions, their batch results, and
/// the script.
pub struct Serve {
    submissions: Vec<Submission>,
    /// Each submission's workload (an index into `workloads`) and
    /// triple, for the in-process cache probes.
    cells: Vec<(usize, HeuristicTriple)>,
    workloads: Vec<LoadedWorkload>,
    /// `batch_result_json` of each submission: what its result frame
    /// must reproduce byte for byte.
    expected: Vec<String>,
    jobs: Vec<u64>,
    steps: Vec<Step>,
    cache_dir: PathBuf,
}

/// A `(predictor, correction, scheduler)` choice; ML draws are the slow
/// cells, which pairs use so that the second submission lands while the
/// first is still simulating.
fn draw_triple(rng: &mut Draws, ml: bool) -> (String, Option<&'static str>, &'static str) {
    const CORRECTIONS: [&str; 3] = ["req-time", "incremental", "rec-doubling"];
    let scheduler = ["easy", "easy-sjbf"][rng.below(2)];
    if ml {
        let grid = predictsim_core::predictor::ml_grid();
        let config = grid[rng.below(grid.len())];
        return (config.name(), Some(CORRECTIONS[rng.below(3)]), scheduler);
    }
    match rng.below(3) {
        0 => ("requested".into(), None, scheduler),
        1 => ("clairvoyant".into(), None, scheduler),
        _ => ("ave2".into(), Some(CORRECTIONS[rng.below(3)]), scheduler),
    }
}

impl Serve {
    /// Draws the script for `cfg.seed` and computes every expected
    /// result in batch mode.
    pub fn setup(cfg: &Config, rec: &Recorder) -> Result<Self, String> {
        let scale = if cfg.tiny { 0.01 } else { QUICK_SCALE };
        let mut rng = Draws {
            seed: cfg.seed,
            k: 0,
        };
        let mut submissions: Vec<Submission> = Vec::new();
        let mut cells = Vec::new();
        let mut jobs = Vec::new();
        let workloads = PRESETS
            .iter()
            .map(|log| {
                let request = WorkloadRequest::Preset {
                    log: log.to_string(),
                    scale,
                    seed: cfg.seed,
                };
                rec.time("workload.generate", log.to_string(), None, || {
                    build_workload(&request)
                })
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        while submissions.len() < PAIRS + CLIENTS * SOLOS {
            let ml = submissions.len() < PAIRS || rng.below(2) == 0;
            // Pairs use the two larger presets.
            let preset = if submissions.len() < PAIRS {
                1 + rng.below(2)
            } else {
                rng.below(3)
            };
            let (predictor, correction, scheduler) = draw_triple(&mut rng, ml);
            let mut s = Submission::new(WorkloadRequest::Preset {
                log: PRESETS[preset].to_string(),
                scale,
                seed: cfg.seed,
            });
            s.predictor = Some(predictor.clone());
            s.correction = correction.map(str::to_string);
            s.scheduler = Some(scheduler.to_string());
            if !submissions.contains(&s) {
                let name = |e: predictsim_experiments::RegistryError| e.to_string();
                let triple = HeuristicTriple {
                    prediction: predictor.parse::<PredictionTechnique>().map_err(name)?,
                    correction: correction
                        .map(str::parse::<CorrectionKind>)
                        .transpose()
                        .map_err(name)?,
                    variant: scheduler.parse::<Variant>().map_err(name)?,
                };
                submissions.push(s);
                cells.push((preset, triple));
                jobs.push(workloads[preset].jobs.len() as u64);
            }
        }
        let expected = submissions
            .iter()
            .map(|s| {
                rec.time("serve.batch_result", String::new(), None, || {
                    batch_result_json(s)
                })
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Cold part: pairs interleaved with solos, then the warm part.
        let mut steps = Vec::new();
        for i in 0..PAIRS.max(SOLOS) {
            if i < PAIRS {
                steps.push(Step::Pair(i));
            }
            if i < SOLOS {
                steps.push(Step::Solo([PAIRS + i, PAIRS + SOLOS + i]));
            }
        }
        let mut warm: Vec<Step> = Vec::new();
        for _ in 0..REPEATS {
            let mut again = steps.clone();
            rng.shuffle(&mut again);
            // Warm steps need no barrier: every cell is already cached.
            warm.extend(again.into_iter().map(|s| match s {
                Step::Pair(c) => Step::Solo([c, c]),
                solo => solo,
            }));
        }
        steps.extend(warm);
        Ok(Self {
            submissions,
            cells,
            workloads,
            expected,
            jobs,
            steps,
            cache_dir: cfg.work_dir.join("serve-cache"),
        })
    }

    /// One script pass against a cold daemon, a restart on the same
    /// cache directory, and a second pass; then the cache probes.
    pub fn unit(&mut self, rec: &Recorder, _traced: bool) -> Unit {
        let cache = SimCache::global();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let mut unit = Unit::default();
        if let Err(e) = std::fs::create_dir_all(&self.cache_dir) {
            unit.failures
                .push(format!("{}: {e}", self.cache_dir.display()));
            return unit;
        }
        let before = cache.stats();
        let t0 = Instant::now();
        for (phase, allowed) in [
            (
                "cold",
                [
                    CellSource::Simulated,
                    CellSource::Memory,
                    CellSource::Coalesced,
                ],
            ),
            (
                "restarted",
                [CellSource::Disk, CellSource::Memory, CellSource::Coalesced],
            ),
        ] {
            // A daemon start: empty memory layer, the directory attached.
            cache.clear_memory();
            cache.set_persist_dir(Some(self.cache_dir.clone()));
            let phase_before = cache.stats();
            let ops_before = unit.ops.len();
            self.phase(rec, phase, &mut unit);
            let delta = cache.stats().since(phase_before);
            let ops = &unit.ops[ops_before..];
            let tally = Tally::of(ops);
            if let Err(e) = tally.check(&delta, phase) {
                unit.failures.push(e);
            }
            if let Some(bad) = ops.iter().find(|op| !allowed.contains(&op.source)) {
                unit.failures
                    .push(format!("{phase} daemon answered from {:?}", bad.source));
            }
            let first_answers = tally.simulated + tally.disk;
            if first_answers != self.submissions.len() as u64 {
                unit.failures.push(format!(
                    "{phase} daemon simulated or loaded {first_answers} cells, not {}",
                    self.submissions.len()
                ));
            }
            if phase == "cold" {
                unit.extra
                    .push(("cache.persist_bytes", dir_bytes(&self.cache_dir) as f64));
            }
        }
        unit.wall_s = t0.elapsed().as_secs_f64();
        unit.cache = cache.stats().since(before);
        // The restarted daemon left every cell in memory and on disk.
        self.probe(CellSource::Memory, &mut unit);
        cache.clear_memory();
        self.probe(CellSource::Disk, &mut unit);
        cache.set_persist_dir(None);
        cache.clear_memory();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        for (i, expected) in self.expected.iter().enumerate() {
            unit.outputs
                .push((format!("submission {i}"), expected.clone()));
        }
        unit
    }

    /// Asks the `SimCache` for every cell in process, timing each call,
    /// and checks that `expect` answered each one.
    fn probe(&self, expect: CellSource, unit: &mut Unit) {
        let cache = SimCache::global();
        let before = cache.stats();
        let mut tally = Tally::default();
        for (w, triple) in &self.cells {
            let w = &self.workloads[*w];
            let t0 = Instant::now();
            let outcome = cache.run_cell_traced(&w.jobs, w.sim_config().cluster, triple);
            let secs = t0.elapsed().as_secs_f64();
            let source = match outcome {
                Ok((_, source)) => source,
                Err(e) => {
                    unit.failures.push(format!("{expect:?} probe: {e}"));
                    continue;
                }
            };
            tally.add(source);
            if source == expect {
                unit.hits.push((source, secs));
            } else {
                unit.failures.push(format!(
                    "{expect:?} probe: {} answered from {source:?}",
                    triple.name()
                ));
            }
        }
        if let Err(e) = tally.check(&cache.stats().since(before), "cache probe") {
            unit.failures.push(e);
        }
    }

    /// Starts a daemon, runs the script on both clients, and shuts the
    /// daemon down (which flushes the cache index).
    fn phase(&self, rec: &Recorder, phase: &str, unit: &mut Unit) {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let server = match Server::start(config) {
            Ok(s) => s,
            Err(e) => {
                unit.failures
                    .push(format!("{phase} daemon failed to start: {e}"));
                return;
            }
        };
        let addr = server.addr();
        let barrier = Barrier::new(CLIENTS);
        let span = rec.open("serve.phase", phase.to_string(), None);
        let parent = Some(span.id);
        let outs: Vec<(Vec<Request>, Vec<u64>, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|me| {
                    let barrier = &barrier;
                    scope.spawn(move || self.client(rec, parent, addr, me, barrier, phase))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        rec.close(span);
        server.shutdown();
        for (requests, cells, failures) in outs {
            for (r, cell) in requests.iter().zip(cells) {
                unit.ops.push(Op {
                    secs: r.rtt_s,
                    source: r.source,
                    jobs: self.jobs[cell as usize],
                });
            }
            unit.requests.extend(requests);
            unit.failures.extend(failures);
        }
    }

    /// One client connection working through the script in a closed
    /// loop. Returns its requests, the cell of each, and failures.
    fn client(
        &self,
        rec: &Recorder,
        parent: Option<u64>,
        addr: std::net::SocketAddr,
        me: usize,
        barrier: &Barrier,
        phase: &str,
    ) -> (Vec<Request>, Vec<u64>, Vec<String>) {
        let mut requests = Vec::new();
        let mut cells = Vec::new();
        let mut failures = Vec::new();
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                // Keep the other client from waiting forever at a pair.
                for step in &self.steps {
                    if matches!(step, Step::Pair(_)) {
                        barrier.wait();
                    }
                }
                return (
                    requests,
                    cells,
                    vec![format!("{phase} client {me}: connect: {e}")],
                );
            }
        };
        for (n, step) in self.steps.iter().enumerate() {
            let cell = match *step {
                Step::Pair(c) => {
                    barrier.wait();
                    c
                }
                Step::Solo(cs) => cs[me],
            };
            let key = format!("{phase}/{me}/{n}");
            match self.submit(rec, parent, &key, &mut client, cell) {
                Ok(r) => {
                    requests.push(r);
                    cells.push(cell as u64);
                }
                Err(e) => failures.push(format!("{key}: {e}")),
            }
        }
        (requests, cells, failures)
    }

    /// Submits cell `cell` and reads its frames through the result.
    fn submit(
        &self,
        rec: &Recorder,
        parent: Option<u64>,
        key: &str,
        client: &mut Client,
        cell: usize,
    ) -> Result<Request, String> {
        let submission = &self.submissions[cell];
        let line = serde_json::to_string(&submission.to_value()).map_err(|e| e.0)?;
        let span = rec.open("serve.request", key.to_string(), parent);
        let ack_span = rec.open("serve.ack", key.to_string(), Some(span.id));
        let t0 = Instant::now();
        client.send_line(&line).map_err(|e| e.to_string())?;
        let mut ack_span = Some(ack_span);
        let mut request = Request {
            rtt_s: 0.0,
            ack_s: 0.0,
            source: CellSource::Simulated,
            frames: 0,
            bytes: line.len() as u64 + 1,
        };
        loop {
            let frame = match client.next_frame().map_err(|e| e.to_string())? {
                None => return Err("daemon closed the connection".into()),
                Some(frame) => frame.map_err(|e| e.to_string())?,
            };
            request.frames += 1;
            let frame_bytes =
                |v: &serde::Value| serde_json::to_string(v).map_or(0, |s| s.len() as u64 + 1);
            match frame {
                Frame::Ack {
                    job,
                    triple,
                    workload,
                } => {
                    request.ack_s = t0.elapsed().as_secs_f64();
                    if let Some(s) = ack_span.take() {
                        rec.close(s);
                    }
                    request.bytes += frame_bytes(&ack_frame(job, &triple, &workload));
                }
                Frame::Metrics { raw, .. } => request.bytes += frame_bytes(&raw),
                Frame::Result {
                    job,
                    source,
                    result,
                } => {
                    request.rtt_s = t0.elapsed().as_secs_f64();
                    rec.close(span);
                    request.bytes += frame_bytes(&result_frame(job, &source, result.clone()));
                    request.source = match source.as_str() {
                        "simulated" => CellSource::Simulated,
                        "memory" => CellSource::Memory,
                        "disk" => CellSource::Disk,
                        "coalesced" => CellSource::Coalesced,
                        other => return Err(format!("unknown result source `{other}`")),
                    };
                    let served = serde_json::to_string_pretty(&result).map_err(|e| e.0)?;
                    if served != self.expected[cell] {
                        return Err("result frame differs from batch_result_json".into());
                    }
                    return Ok(request);
                }
                Frame::Error { code, message, .. } => {
                    return Err(format!("error frame {code}: {message}"));
                }
                Frame::Pong | Frame::Stats(_) => {}
            }
        }
    }
}

/// Bytes of the cell files in a cache directory.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("cell-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
