//! `replay`: the Table 4 presets at quarter scale, written as SWF text
//! at set-up; each unit stream-loads them through `SwfSource` and
//! simulates the Table 1 baselines (EASY and EASY-SJBF with requested
//! and clairvoyant times) — the SWF loader, the EASY pass and the
//! engine loop do most of the work.
//!
//! An EASY cell's cost moves with the workload seed, and the longer the
//! trace the more: three draws of the full-scale presets cost 26 % more
//! on one run seed than on another, mostly in Curie and Metacentrum.
//! On the same two seeds, twelve draws at quarter scale, the same
//! number of jobs, differed by 4 %. So set-up writes [`DRAWS`] draws of
//! the presets at [`SCALE`], from seeds derived from the run's seed, and
//! every unit replays all of them. The SWF text stays in memory: it comes to 240 MB, and
//! writing that to the shared disk of a 2-core VM made set-up take
//! anywhere from 2 s to a minute.

use std::time::Instant;

use predictsim_experiments::triple::{PredictionTechnique, Variant};
use predictsim_experiments::{
    ExperimentSetup, HeuristicTriple, LoadedWorkload, SimCache, SwfSource, WorkloadSource,
};

use crate::cells::{run_cells, CellReq, Unit};
use crate::trace::Recorder;
use crate::Config;

fn triples() -> Vec<HeuristicTriple> {
    let mut out = Vec::new();
    for variant in [Variant::Easy, Variant::EasySjbf] {
        for prediction in [
            PredictionTechnique::RequestedTime,
            PredictionTechnique::Clairvoyant,
        ] {
            out.push(HeuristicTriple {
                prediction,
                correction: None,
                variant,
            });
        }
    }
    out
}

/// Draws of the six presets replayed per unit.
const DRAWS: u64 = 12;
/// Preset scale: quarter-length traces, whose cost varies less with the
/// seed than full-length ones.
const SCALE: f64 = 0.25;

/// One SWF log written at set-up.
struct Log {
    source: SwfSource,
    bytes: u64,
    /// Fingerprint of the generated jobs; the loaded ones must match.
    fingerprint: u64,
}

/// Prepared inputs: the SWF logs of each draw.
pub struct Replay {
    draws: Vec<Vec<Log>>,
}

impl Replay {
    /// Generates every draw of the presets and writes them as SWF.
    pub fn setup(cfg: &Config, rec: &Recorder) -> Result<Self, String> {
        let mut draws = Vec::new();
        for k in 0..DRAWS {
            let setup = ExperimentSetup {
                scale: if cfg.tiny { 0.01 } else { SCALE },
                seed: crate::sub_seed(cfg.seed, k),
            };
            let mut logs = Vec::new();
            for spec in setup.specs() {
                let generated = rec.time("workload.generate", spec.name.clone(), None, || {
                    predictsim_workload::generate(&spec, setup.seed)
                });
                let text = predictsim_swf::write_log(&generated.to_swf());
                logs.push(Log {
                    bytes: text.len() as u64,
                    source: SwfSource::from_text(
                        format!("{} seed {}", spec.name, setup.seed),
                        text,
                    ),
                    fingerprint: LoadedWorkload::from(generated).jobs.fingerprint(),
                });
            }
            draws.push(logs);
        }
        Ok(Self { draws })
    }

    /// Per draw: loads every log, then simulates every baseline on each,
    /// from a cold cache.
    pub fn unit(&mut self, rec: &Recorder, traced: bool) -> Unit {
        let cache = SimCache::global();
        cache.clear_memory();
        let before = cache.stats();
        let t0 = Instant::now();
        let mut unit = Unit::default();
        let (mut jobs, mut bytes) = (0, 0);
        for logs in &self.draws {
            let mut workloads = Vec::new();
            for log in logs {
                let name = log.source.describe();
                match rec.time("swf.load", name.clone(), None, || log.source.load()) {
                    Ok(w) if w.jobs.fingerprint() == log.fingerprint => workloads.push(w),
                    Ok(_) => unit.failures.push(format!(
                        "{name}: loaded jobs differ from the generated ones"
                    )),
                    Err(e) => unit.failures.push(format!("{name}: {e}")),
                }
                bytes += log.bytes;
            }
            let cells: Vec<CellReq<'_>> = workloads
                .iter()
                .flat_map(|w| triples().into_iter().map(|t| CellReq::new(w, t)))
                .collect();
            run_cells(rec, &cells, traced, &mut unit);
            jobs += workloads.iter().map(|w| w.jobs.len()).sum::<usize>();
        }
        unit.wall_s = t0.elapsed().as_secs_f64();
        unit.cache = cache.stats().since(before);
        unit.extra.push(("swf.jobs", jobs as f64));
        unit.extra.push(("swf.bytes", bytes as f64));
        unit
    }
}
