//! The repository benchmark: four workloads, each timed end to end with
//! tracing off and then once more layer by layer with tracing on.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 20150101 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! A run sets the workload up three times or more (`setup_s` is the
//! median), repeats untraced units of work for `--seconds` (the
//! end-to-end metrics), then runs one traced unit (the per-layer
//! metrics). A workload's units cycle through a fixed list of inputs,
//! and a run ends only at the end of a cycle, so every run measures
//! every input equally often, however fast the program is. Units on the
//! same input must produce the same bytes, the traced unit included.
//! The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`); a failed check sets `correct` to false and the exit
//! code to 1. See `perfbench/README.md` for the metric definitions.

mod campaign;
mod cells;
mod conservative;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use predictsim_experiments::CellSource;

use crate::cells::Unit;
use crate::stats::{median, quantile, ratio};
use crate::trace::{Recorder, SCHED_KINDS};

/// Pool width, serve workers and client connections are sized for two
/// cores.
const WIDTH: usize = 2;
/// Set-ups per run: at least the first, and more while they add up to
/// less than [`SETUP_BUDGET_S`]; `setup_s` is their median.
const SETUP_REPEATS: (usize, usize) = (3, 15);
const SETUP_BUDGET_S: f64 = 1.0;

/// The workloads, in the order `--selftest` runs them.
const WORKLOADS: [&str; 4] = ["campaign", "conservative", "replay", "serve"];

/// Run options.
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of untraced units.
    pub seconds: f64,
    /// Shrink every input (the self-test).
    pub tiny: bool,
    /// Scratch directory for this run's files.
    pub work_dir: PathBuf,
}

enum Bench {
    Campaign(campaign::Campaign),
    Conservative(conservative::Conservative),
    Replay(replay::Replay),
    Serve(serve::Serve),
}

impl Bench {
    fn setup(name: &str, cfg: &Config, rec: &Recorder) -> Result<Bench, String> {
        Ok(match name {
            "campaign" => Bench::Campaign(campaign::Campaign::setup(cfg, rec)?),
            "conservative" => Bench::Conservative(conservative::Conservative::setup(cfg, rec)?),
            "replay" => Bench::Replay(replay::Replay::setup(cfg, rec)?),
            "serve" => Bench::Serve(serve::Serve::setup(cfg, rec)?),
            other => return Err(format!("unknown workload `{other}`")),
        })
    }

    /// How many inputs the units cycle through.
    fn cycle(&self) -> usize {
        match self {
            Bench::Campaign(b) => b.draws(),
            Bench::Conservative(_) | Bench::Replay(_) | Bench::Serve(_) => 1,
        }
    }

    /// Unit `index` of the run, on input `index % cycle` (the traced
    /// unit repeats unit 0).
    fn unit(&mut self, index: usize, traced: bool) -> Unit {
        let input = index % self.cycle();
        let rec = Recorder::default();
        let mut unit = match self {
            Bench::Campaign(b) => b.unit(&rec, input, traced),
            Bench::Conservative(b) => b.unit(&rec, traced),
            Bench::Replay(b) => b.unit(&rec, traced),
            Bench::Serve(b) => b.unit(&rec, traced),
        };
        unit.input = input;
        unit.spans = rec.spans();
        unit
    }
}

/// What one run measured.
struct Run {
    setup_s: Vec<f64>,
    setup_generate_s: Vec<f64>,
    units: Vec<Unit>,
    traced: Unit,
    peak_rss_mb: f64,
    attempted: u64,
    failures: Vec<String>,
}

fn run(name: &str, cfg: &Config) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut setup_generate_s = Vec::new();
    let mut bench = None;
    while setup_s.len() < SETUP_REPEATS.0
        || (setup_s.len() < SETUP_REPEATS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Free the previous set-up's inputs before building the next.
        drop(bench.take());
        let rec = Recorder::default();
        let t0 = Instant::now();
        bench = Some(Bench::setup(name, cfg, &rec)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_generate_s.push(rec.total("workload.generate"));
    }
    let mut bench = bench.expect("at least one set-up");
    let cycle = bench.cycle();
    let t0 = Instant::now();
    let mut units = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        units.push(bench.unit(units.len(), false));
        // Later units add only the allocator's fragmentation, which
        // moved the peak by ±10 % between runs on the same seed.
        if units.len() == 1 {
            peak_rss_mb = stats::peak_rss_mb();
        }
        if units.len() % cycle == 0 && t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let traced = bench.unit(0, true);

    // Units on the same input must produce the same bytes, the traced
    // unit included.
    let mut failures: Vec<String> = Vec::new();
    for (i, u) in units.iter().chain([&traced]).enumerate() {
        failures.extend(u.failures.iter().cloned());
        let j = u.input;
        if let Some(key) = first_difference(&units[j].outputs, &u.outputs) {
            let which = if i == units.len() {
                "the traced unit".to_string()
            } else {
                format!("unit {i}")
            };
            failures.push(format!("{which} output `{key}` differs from unit {j}'s"));
        }
    }
    let attempted = units
        .iter()
        .chain([&traced])
        .map(|u| u.ops.len() as u64)
        .sum();
    Ok(Run {
        setup_s,
        setup_generate_s,
        units,
        traced,
        peak_rss_mb,
        attempted,
        failures,
    })
}

/// The `k`th seed derived from the run's `seed` (SplitMix64); the 0th
/// is `seed` itself.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key of the first output that differs between two units.
fn first_difference(a: &[(String, String)], b: &[(String, String)]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} outputs vs {}", b.len(), a.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|(x, _)| x.0.clone())
}

/// A metric: name, value, unit, and the samples it rests on.
type Metric = (&'static str, f64, &'static str, usize);

/// The end-to-end metrics. Each timing is the median over the run's
/// units of a per-unit figure, so one slow draw among many does not
/// move it.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let per_unit =
        |f: &dyn Fn(&Unit) -> f64| -> f64 { median(&run.units.iter().map(f).collect::<Vec<_>>()) };
    let jobs_per_s = |u: &Unit| {
        let jobs: u64 = u
            .ops
            .iter()
            .filter(|op| op.source == CellSource::Simulated)
            .map(|op| op.jobs)
            .sum();
        ratio(jobs as f64, u.wall_s)
    };
    let mean_ms = |u: &Unit| {
        ratio(
            u.ops.iter().map(|op| op.secs * 1e3).sum(),
            u.ops.len() as f64,
        )
    };
    let n = run.units.len();
    vec![
        ("setup_s", median(&run.setup_s), "s", run.setup_s.len()),
        ("wall_s", per_unit(&|u| u.wall_s), "s", n),
        ("peak_rss_mb", run.peak_rss_mb, "MB", 1),
        ("sim_jobs_per_s", per_unit(&jobs_per_s), "1/s", n),
        ("cell_ms.mean", per_unit(&mean_ms), "ms", n),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let t = &run.traced;
    let l = &t.layers;
    let first = &run.units[0];
    let extra = |u: &Unit, name: &str| -> f64 {
        u.extra
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .sum()
    };
    let total = |name: &str| -> f64 {
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .sum()
    };
    let mut m: Vec<Metric> = Vec::new();

    let generate = total("workload.generate");
    let generate = if generate > 0.0 {
        generate
    } else {
        median(&run.setup_generate_s)
    };
    m.push(("workload.generate_s", generate, "s", 1));

    let swf_s = total("swf.load");
    m.push(("swf.load_s", swf_s, "s", 1));
    m.push((
        "swf.jobs_per_s",
        ratio(extra(t, "swf.jobs"), swf_s),
        "1/s",
        1,
    ));
    m.push((
        "swf.mb_per_s",
        ratio(extra(t, "swf.bytes") / 1e6, swf_s),
        "MB/s",
        1,
    ));

    // Layer times are estimated from the sampled calls, net of the
    // clock reads that time them.
    let cost = trace::clock_cost();
    for (calls, secs, timer) in [
        ("core.predict_calls", "core.predict_s", &l.predict),
        ("core.observe_calls", "core.observe_s", &l.observe),
        ("core.correct_calls", "core.correct_s", &l.correct),
    ] {
        m.push((calls, timer.calls as f64, "count", 1));
        m.push((secs, timer.secs(&cost), "s", timer.sampled as usize));
    }

    const SCHED_METRICS: [[&str; 4]; 3] = [
        [
            "sim.scheduler.easy.passes",
            "sim.scheduler.easy.pass_s",
            "sim.scheduler.easy.useful_ratio",
            "sim.scheduler.easy.pass_us.p99",
        ],
        [
            "sim.scheduler.easy-sjbf.passes",
            "sim.scheduler.easy-sjbf.pass_s",
            "sim.scheduler.easy-sjbf.useful_ratio",
            "sim.scheduler.easy-sjbf.pass_us.p99",
        ],
        [
            "sim.scheduler.conservative.passes",
            "sim.scheduler.conservative.pass_s",
            "sim.scheduler.conservative.useful_ratio",
            "sim.scheduler.conservative.pass_us.p99",
        ],
    ];
    for (k, names) in SCHED_METRICS.iter().enumerate() {
        debug_assert!(names[0].contains(SCHED_KINDS[k]));
        let s = &l.sched[k];
        let (passes, sampled) = (s.timer.calls, s.timer.sampled as usize);
        m.push((names[0], passes as f64, "count", passes as usize));
        m.push((names[1], s.timer.secs(&cost), "s", sampled));
        m.push((
            names[2],
            ratio(s.useful as f64, passes as f64),
            "ratio",
            passes as usize,
        ));
        let p99_ns = (s.hist.quantile_ns(0.99) - cost.inside_ns).max(0.0);
        m.push((names[3], p99_ns / 1e3, "us", sampled));
    }
    m.push((
        "sim.scheduler.easy.slow_passes",
        l.sched[0].slow as f64,
        "count",
        1,
    ));
    m.push((
        "sim.scheduler.easy-sjbf.slow_passes",
        l.sched[1].slow as f64,
        "count",
        1,
    ));

    let engine_self = l.engine_self_s(&cost);
    m.push(("sim.engine.cells", l.cells as f64, "count", 1));
    m.push(("sim.engine.events", l.events as f64, "count", 1));
    m.push(("sim.engine.self_s", engine_self, "s", 1));
    m.push((
        "sim.engine.events_per_s",
        ratio(l.events as f64, engine_self),
        "1/s",
        1,
    ));

    // Shares of the traced work: SWF loads plus simulated cells.
    let work = swf_s + l.cell_s(&cost);
    let easy = l.sched[0].timer.secs(&cost) + l.sched[1].timer.secs(&cost);
    let conservative = l.sched[2].timer.secs(&cost);
    m.push(("share.core", ratio(l.core_s(&cost), work), "ratio", 1));
    m.push((
        "share.scheduler.conservative",
        ratio(conservative, work),
        "ratio",
        1,
    ));
    m.push((
        "share.swf_easy_engine",
        ratio(swf_s + easy + engine_self, work),
        "ratio",
        1,
    ));

    // Cache counters come from the first untraced unit, where cells go
    // through the program's cache; hit latencies from every one, timed
    // in process around `SimCache` calls.
    let c = &first.cache;
    let exclusive_memory = c.memory_hits - c.coalesced;
    m.push(("cache.lookups", c.lookups() as f64, "count", 1));
    m.push(("cache.simulated", c.simulated as f64, "count", 1));
    m.push(("cache.memory_hits", exclusive_memory as f64, "count", 1));
    m.push(("cache.disk_hits", c.disk_hits as f64, "count", 1));
    m.push(("cache.coalesced", c.coalesced as f64, "count", 1));
    m.push((
        "cache.hit_ratio",
        ratio(c.hits() as f64, c.lookups() as f64),
        "ratio",
        1,
    ));
    let hit_us = |source: CellSource| -> (f64, usize) {
        let v: Vec<f64> = run
            .units
            .iter()
            .flat_map(|u| &u.hits)
            .filter(|(s, _)| *s == source)
            .map(|(_, secs)| secs * 1e6)
            .collect();
        (median(&v), v.len())
    };
    let (memory_us, memory_n) = hit_us(CellSource::Memory);
    let (disk_us, disk_n) = hit_us(CellSource::Disk);
    m.push(("cache.memory_hit_us.p50", memory_us, "us", memory_n));
    m.push(("cache.disk_hit_us.p50", disk_us, "us", disk_n));
    m.push((
        "cache.persist_bytes",
        extra(first, "cache.persist_bytes"),
        "bytes",
        1,
    ));

    let (busy, tail) = cells::pool_metrics(&t.spans, WIDTH);
    m.push(("pool.busy_ratio", busy, "ratio", 1));
    m.push(("pool.tail_s", tail, "s", 1));
    m.push(("experiments.report_s", total("experiments.report"), "s", 1));

    let requests: Vec<&serve::Request> = run.units.iter().flat_map(|u| &u.requests).collect();
    let is_cold =
        |r: &serve::Request| matches!(r.source, CellSource::Simulated | CellSource::Coalesced);
    let cold: Vec<f64> = requests
        .iter()
        .filter(|r| is_cold(r))
        .map(|r| r.rtt_s * 1e3)
        .collect();
    let warm: Vec<&serve::Request> = requests.iter().filter(|r| !is_cold(r)).copied().collect();
    let warm_ms: Vec<f64> = warm.iter().map(|r| r.rtt_s * 1e3).collect();
    let acks: Vec<f64> = requests.iter().map(|r| r.ack_s * 1e6).collect();
    let ack_to_result: Vec<f64> = warm.iter().map(|r| (r.rtt_s - r.ack_s) * 1e6).collect();
    let nreq = requests.len();
    let per_req = |f: fn(&serve::Request) -> u64| {
        ratio(requests.iter().map(|r| f(r) as f64).sum(), nreq as f64)
    };
    let walls: f64 = run.units.iter().map(|u| u.wall_s).sum();
    let busy_frames = run
        .units
        .iter()
        .flat_map(|u| &u.failures)
        .filter(|f| f.contains("error frame busy"))
        .count();
    m.push((
        "serve.cold_rtt_ms.p50",
        quantile(&cold, 0.5),
        "ms",
        cold.len(),
    ));
    m.push((
        "serve.cold_rtt_ms.p90",
        quantile(&cold, 0.9),
        "ms",
        cold.len(),
    ));
    m.push((
        "serve.warm_rtt_ms.p50",
        quantile(&warm_ms, 0.5),
        "ms",
        warm_ms.len(),
    ));
    m.push((
        "serve.warm_rtt_ms.p99",
        quantile(&warm_ms, 0.99),
        "ms",
        warm_ms.len(),
    ));
    m.push(("serve.req_per_s", ratio(nreq as f64, walls), "1/s", nreq));
    m.push(("serve.ack_us.p50", median(&acks), "us", acks.len()));
    m.push((
        "serve.ack_to_result_us.p50",
        median(&ack_to_result),
        "us",
        ack_to_result.len(),
    ));
    m.push(("serve.frames_per_req", per_req(|r| r.frames), "count", nreq));
    m.push(("serve.bytes_per_req", per_req(|r| r.bytes), "bytes", nreq));
    m.push(("serve.busy_frames", busy_frames as f64, "count", 1));

    // Tracing overhead: the traced unit's wall time minus the median of
    // the untraced units on the same input. Serve's cells run inside the
    // daemon, where nothing is traced, so its overhead is 0.
    let overhead = if t.requests.is_empty() {
        let walls: Vec<f64> = run
            .units
            .iter()
            .filter(|u| u.input == t.input)
            .map(|u| u.wall_s)
            .collect();
        t.wall_s - median(&walls)
    } else {
        0.0
    };
    m.push(("trace.overhead_s", overhead, "s", 1));
    m.push(("trace.spans", t.spans.len() as f64, "count", 1));
    m
}

/// One JSON number: finite, with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns an empty sum's -0 into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
    line_count: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: predictsim_experiments::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        selftest: false,
        line_count: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selftest" => args.selftest = true,
            "--line-count" => args.line_count = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.selftest && !args.line_count && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs one workload and prints its metrics; returns whether every
/// check passed.
fn bench(args: &Args, work_dir: PathBuf) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        tiny: false,
        work_dir,
    };
    let run = run(&args.workload, &cfg)?;
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    if args.trace {
        let path = PathBuf::from(".bench_work/spans")
            .join(format!("{}-{}.jsonl", args.workload, args.seed));
        let spans: Vec<_> = run
            .units
            .iter()
            .chain([&run.traced])
            .flat_map(|u| u.spans.clone())
            .collect();
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    for f in &run.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{} seed {}: {} units + 1 traced, {} operations, {} failed",
        args.workload,
        args.seed,
        run.units.len(),
        run.attempted,
        run.failures.len()
    );
    let walls: Vec<String> = run
        .units
        .iter()
        .map(|u| format!("{:.3}", u.wall_s))
        .collect();
    println!("  unit wall times (s): {}", walls.join(" "));
    for (name, value, unit, samples) in &metrics {
        println!("  {name:<40} {:>16} {unit:<6} n={samples}", number(*value));
    }
    let failed = (run.failures.len() as u64).min(run.attempted);
    println!(
        "{}",
        result_line(failed == 0, run.attempted, failed, &metrics)
    );
    Ok(failed == 0)
}

/// Runs every workload at tiny size, traced and untraced, and checks
/// that the metric names match `BENCHMARK.json` exactly.
fn selftest(work_dir: PathBuf) -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {}", e.0))?;
    let names = |section: &str| -> Result<Vec<(String, String)>, String> {
        let serde::Value::Seq(items) =
            serde::get_field::<serde::Value>(&spec, section).map_err(|e| e.0)?
        else {
            return Err(format!("{section} is not a list"));
        };
        items
            .iter()
            .map(|item| {
                let name = serde::get_field::<String>(item, "name").map_err(|e| e.0)?;
                let unit = serde::get_field::<String>(item, "unit").unwrap_or_default();
                Ok((name, unit))
            })
            .collect()
    };
    let listed_workloads: Vec<String> = names("workloads")?.into_iter().map(|(n, _)| n).collect();
    if listed_workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed_workloads:?}"
        ));
    }
    let (e2e, layers) = (names("end_to_end")?, names("per_layer")?);
    for workload in WORKLOADS {
        let cfg = Config {
            seed: predictsim_experiments::DEFAULT_SEED,
            seconds: 0.0,
            tiny: true,
            work_dir: work_dir.clone(),
        };
        let run = run(workload, &cfg)?;
        if !run.failures.is_empty() {
            return Err(format!("{workload}: {}", run.failures.join("; ")));
        }
        for (section, metrics, listed) in [
            ("end_to_end", end_to_end(&run), &e2e),
            ("per_layer", per_layer(&run), &layers),
        ] {
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, _, u, _)| (n.to_string(), u.to_string()))
                .collect();
            if &printed != listed {
                return Err(format!(
                    "{workload}: printed {section} metrics {printed:?} differ from BENCHMARK.json's {listed:?}"
                ));
            }
            if section == "end_to_end" {
                if let Some((n, ..)) = metrics
                    .iter()
                    .find(|(_, v, ..)| v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
                {
                    return Err(format!("{workload}: end-to-end metric {n} is not positive"));
                }
            }
        }
        println!("selftest: {workload} ok ({} operations)", run.attempted);
    }
    println!("selftest ok");
    Ok(())
}

/// The repository's non-test Rust lines: every `.rs` file under `src/`
/// and `crates/*/src/`, each up to its first `#[cfg(test)]` line.
/// Returns (files, lines).
fn line_count() -> std::io::Result<(usize, usize)> {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let mut files = Vec::new();
    walk(&root.join("src"), &mut files)?;
    for krate in std::fs::read_dir(root.join("crates"))? {
        let src = krate?.path().join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }
    let mut lines = 0;
    for file in &files {
        let text = std::fs::read_to_string(file)?;
        lines += text
            .lines()
            .take_while(|l| l.trim() != "#[cfg(test)]")
            .count();
    }
    Ok((files.len(), lines))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.line_count {
        match line_count() {
            Ok((files, lines)) => println!("{lines} non-test lines of Rust in {files} files"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let work_dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let outcome = rayon::pool::with_num_threads(WIDTH, || {
        if args.selftest {
            selftest(work_dir.clone()).map(|()| true)
        } else {
            bench(&args, work_dir.clone())
        }
    });
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
