//! Units of work and the two ways a unit runs its simulation cells:
//! through the program's `SimCache` (untraced), or through
//! [`crate::trace::traced_cell`] with every result audited (traced).

use std::time::Instant;

use predictsim_experiments::{
    CacheStats, CellSource, HeuristicTriple, LoadedWorkload, SimCache, TripleResult,
};
use rayon::prelude::*;

use crate::stats::ratio;
use crate::trace::{traced_cell, Layers, Recorder, Span};

/// One cell or request as its caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Latency from asking to having the result, seconds.
    pub secs: f64,
    /// Which cache layer answered (traced cells count as simulated).
    pub source: CellSource,
    /// Jobs in the cell.
    pub jobs: u64,
}

/// Per-source counts the benchmark observed itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Answered by simulating.
    pub simulated: u64,
    /// Answered from the memory layer.
    pub memory: u64,
    /// Answered from the disk layer.
    pub disk: u64,
    /// Answered by waiting on another caller's simulation.
    pub coalesced: u64,
}

impl Tally {
    /// Counts one answer.
    pub fn add(&mut self, source: CellSource) {
        match source {
            CellSource::Simulated => self.simulated += 1,
            CellSource::Memory => self.memory += 1,
            CellSource::Disk => self.disk += 1,
            CellSource::Coalesced => self.coalesced += 1,
        }
    }

    /// Tallies every op.
    pub fn of(ops: &[Op]) -> Tally {
        let mut t = Tally::default();
        ops.iter().for_each(|op| t.add(op.source));
        t
    }

    /// Checks the cache's own counter deltas against these tallies:
    /// simulated + memory + disk + coalesced must equal its lookups, and
    /// each layer must match (the cache counts coalesced waits among
    /// its memory hits).
    pub fn check(&self, delta: &CacheStats, context: &str) -> Result<(), String> {
        let ok = delta.simulated == self.simulated
            && delta.memory_hits == self.memory + self.coalesced
            && delta.disk_hits == self.disk
            && delta.coalesced == self.coalesced
            && delta.lookups() == self.simulated + self.memory + self.disk + self.coalesced;
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{context}: cache counters {:?} disagree with observed sources {self:?}",
                delta
            ))
        }
    }
}

/// Everything one unit of work produced.
#[derive(Debug, Default)]
pub struct Unit {
    /// Which of the workload's inputs the unit ran: units with equal
    /// `input` must produce equal outputs.
    pub input: usize,
    /// Wall time of the unit, seconds.
    pub wall_s: f64,
    /// Every cell or request.
    pub ops: Vec<Op>,
    /// Latencies of `SimCache` calls answered from memory or disk,
    /// seconds, timed in process.
    pub hits: Vec<(CellSource, f64)>,
    /// Named output bytes, in a fixed order; equal across units.
    pub outputs: Vec<(String, String)>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// `SimCache::stats()` delta over the unit.
    pub cache: CacheStats,
    /// Layer sums of traced cells.
    pub layers: Layers,
    /// Workload-specific per-layer values.
    pub extra: Vec<(&'static str, f64)>,
    /// Serve round trips, as the clients saw them.
    pub requests: Vec<crate::serve::Request>,
    /// The unit's spans.
    pub spans: Vec<Span>,
}

/// One cell to run: a triple on a loaded workload.
pub struct CellReq<'a> {
    /// Display key, `triple @ workload`.
    pub key: String,
    /// The workload.
    pub workload: &'a LoadedWorkload,
    /// The policy triple.
    pub triple: HeuristicTriple,
}

impl<'a> CellReq<'a> {
    /// A cell of `triple` on `workload`.
    pub fn new(workload: &'a LoadedWorkload, triple: HeuristicTriple) -> Self {
        Self {
            key: format!("{} @ {}", triple.name(), workload.name),
            workload,
            triple,
        }
    }
}

/// The pretty JSON the program writes for `value`.
pub fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("results serialize")
}

/// Runs `cells` through the global `SimCache` across the pool, timing
/// every `run_cell_traced` call, and cross-checks the cache's counters
/// against the sources it returned.
fn run_cached(rec: &Recorder, cells: &[CellReq<'_>], unit: &mut Unit) -> Vec<Option<TripleResult>> {
    let cache = SimCache::global();
    let before = cache.stats();
    let fanout = rec.open("pool.fanout", format!("{} cells", cells.len()), None);
    let parent = Some(fanout.id);
    let answers: Vec<(Result<TripleResult, String>, Op)> = cells
        .par_iter()
        .map(|c| {
            let span = rec.open("cache.run_cell", c.key.clone(), parent);
            let t0 = Instant::now();
            let outcome =
                cache.run_cell_traced(&c.workload.jobs, c.workload.sim_config().cluster, &c.triple);
            let secs = t0.elapsed().as_secs_f64();
            rec.close(span);
            let jobs = c.workload.jobs.len() as u64;
            match outcome {
                Ok((cell, source)) => (Ok(cell.result), Op { secs, source, jobs }),
                Err(e) => (
                    Err(format!("{}: {e}", c.key)),
                    Op {
                        secs,
                        source: CellSource::Simulated,
                        jobs,
                    },
                ),
            }
        })
        .collect();
    rec.close(fanout);
    let delta = cache.stats().since(before);
    let ops: Vec<Op> = answers.iter().map(|(_, op)| *op).collect();
    if let Err(e) = Tally::of(&ops).check(&delta, "cell fan-out") {
        unit.failures.push(e);
    }
    unit.hits.extend(
        ops.iter()
            .filter(|op| matches!(op.source, CellSource::Memory | CellSource::Disk))
            .map(|op| (op.source, op.secs)),
    );
    unit.ops.extend(ops);
    answers
        .into_iter()
        .map(|(result, _)| result.map_err(|e| unit.failures.push(e)).ok())
        .collect()
}

/// Runs `cells` with traced policies across the pool, auditing every
/// schedule.
fn run_traced(rec: &Recorder, cells: &[CellReq<'_>], unit: &mut Unit) -> Vec<Option<TripleResult>> {
    let fanout = rec.open("pool.fanout", format!("{} cells", cells.len()), None);
    let parent = Some(fanout.id);
    let answers: Vec<(Result<TripleResult, String>, Layers, f64)> = cells
        .par_iter()
        .map(|c| {
            let mut span = rec.open("sim.cell", c.key.clone(), parent);
            let (result, layers) =
                traced_cell(&c.workload.jobs, c.workload.sim_config().cluster, &c.triple);
            span.layers = Some(layers.clone());
            let secs = rec.close(span);
            let checked = result
                .map_err(|e| format!("{}: {e}", c.key))
                .and_then(|sim| {
                    predictsim_sim::audit(&sim)
                        .map_err(|v| format!("{}: audit failed: {v}", c.key))?;
                    Ok(TripleResult::from_sim(&c.triple, &sim))
                });
            (checked, layers, secs)
        })
        .collect();
    rec.close(fanout);
    answers
        .into_iter()
        .map(|(result, layers, secs)| {
            unit.layers.merge(&layers);
            unit.ops.push(Op {
                secs,
                source: CellSource::Simulated,
                jobs: layers.jobs,
            });
            result.map_err(|e| unit.failures.push(e)).ok()
        })
        .collect()
}

/// Runs `cells` traced or through the cache, recording each result's
/// JSON under its key in `unit.outputs`. `None` marks a failed cell.
pub fn run_cells(
    rec: &Recorder,
    cells: &[CellReq<'_>],
    traced: bool,
    unit: &mut Unit,
) -> Vec<Option<TripleResult>> {
    let results = if traced {
        run_traced(rec, cells, unit)
    } else {
        run_cached(rec, cells, unit)
    };
    for (c, r) in cells.iter().zip(&results) {
        let json = r.as_ref().map(pretty).unwrap_or_default();
        unit.outputs.push((c.key.clone(), json));
    }
    results
}

/// Pool accounting over the cell fan-outs among `spans`: the busy
/// ratio (Σ cell time ÷ (fan-out wall × width)) and the tail (from the
/// first worker going idle to the fan-out's end), summed over fan-outs.
pub fn pool_metrics(spans: &[Span], width: usize) -> (f64, f64) {
    let mut busy = 0.0;
    let mut capacity = 0.0;
    let mut tail = 0.0;
    for fanout in spans.iter().filter(|s| s.name == "pool.fanout") {
        let cells: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == Some(fanout.id))
            .collect();
        busy += cells.iter().map(|s| s.secs()).sum::<f64>();
        capacity += fanout.secs() * width as f64;
        let mut last_end: Vec<(u32, u64)> = Vec::new();
        for c in &cells {
            match last_end.iter_mut().find(|(t, _)| *t == c.thread) {
                Some((_, end)) => *end = (*end).max(c.end),
                None => last_end.push((c.thread, c.end)),
            }
        }
        // A worker that ran nothing was idle from the fan-out's start.
        let first_idle = if last_end.len() < width {
            fanout.start
        } else {
            last_end
                .iter()
                .map(|(_, e)| *e)
                .min()
                .unwrap_or(fanout.start)
        };
        tail += fanout.end.saturating_sub(first_idle) as f64 / 1e9;
    }
    (ratio(busy, capacity), tail)
}
