//! `conservative`: conservative backfilling with the non-learning
//! predictors on many short draws of KTH-SP2 — the conservative
//! `Profile` pass does nearly all the work and the learner none.
//!
//! One conservative cell's cost is heavy-tailed in the workload seed: a
//! draw whose queue builds up can cost a hundred times a typical one
//! (13 s against 0.1 s for SDSC-SP2@0.05 on a 2-core VM), and the
//! longer the trace the heavier the tail. At quick scale (0.05) even
//! 256 draws of KTH-SP2, the smallest preset, cost 15–20 % more on one
//! run seed than on another; 320 draws at scale 0.02, the same number
//! of jobs, stayed within ±3 % on one thread. So set-up generates [`DRAWS`] seeds of
//! KTH-SP2@0.02 derived from the run's seed, and every unit simulates
//! all of them.
//!
//! The pool hands each worker a chunk of an eighth of a fan-out's cells,
//! so in one fan-out over every draw the last heavy chunk could leave a
//! worker idle for an eighth of the unit, more on some seeds than
//! others. The unit therefore fans out [`PER_FANOUT`] draws at a time:
//! each fan-out's tail is at most one cell, and the tails of 128 fan-outs
//! average out.

use std::time::Instant;

use predictsim_experiments::triple::{CorrectionKind, PredictionTechnique, Variant};
use predictsim_experiments::{ExperimentSetup, HeuristicTriple, LoadedWorkload, SimCache};

use crate::cells::{run_cells, CellReq, Unit};
use crate::trace::Recorder;
use crate::Config;

const PRESETS: [&str; 1] = ["KTH"];
/// Seeds generated per preset at set-up.
const DRAWS: usize = 512;
/// Draws per cell fan-out.
const PER_FANOUT: usize = 4;
/// Preset scale: short traces, whose cost varies little with the seed.
const SCALE: f64 = 0.02;

/// The non-learning triples: requested time, AVE₂ with Tsafrir's
/// incremental correction, and clairvoyance.
fn triples() -> [HeuristicTriple; 3] {
    let triple = |prediction, correction| HeuristicTriple {
        prediction,
        correction,
        variant: Variant::Conservative,
    };
    [
        triple(PredictionTechnique::RequestedTime, None),
        triple(PredictionTechnique::Ave2, Some(CorrectionKind::Incremental)),
        triple(PredictionTechnique::Clairvoyant, None),
    ]
}

/// Prepared inputs: `draws[k]` holds every preset generated from the
/// `k`th derived seed.
pub struct Conservative {
    draws: Vec<Vec<LoadedWorkload>>,
}

impl Conservative {
    /// Generates the presets for every derived seed.
    pub fn setup(cfg: &Config, rec: &Recorder) -> Result<Self, String> {
        let scale = if cfg.tiny { 0.01 } else { SCALE };
        let draws = if cfg.tiny { 4 } else { DRAWS };
        let specs = PRESETS
            .iter()
            .map(|name| {
                ExperimentSetup { scale, seed: 0 }
                    .spec(name)
                    .ok_or_else(|| format!("no preset {name}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let draws = (0..draws as u64)
            .map(|k| {
                let seed = crate::sub_seed(cfg.seed, k);
                specs
                    .iter()
                    .map(|spec| {
                        rec.time(
                            "workload.generate",
                            format!("{} seed {seed}", spec.name),
                            None,
                            || LoadedWorkload::from(predictsim_workload::generate(spec, seed)),
                        )
                    })
                    .collect()
            })
            .collect();
        Ok(Self { draws })
    }

    /// Every cell of every draw once, from a cold cache.
    pub fn unit(&mut self, rec: &Recorder, traced: bool) -> Unit {
        let cache = SimCache::global();
        cache.clear_memory();
        let before = cache.stats();
        let t0 = Instant::now();
        let mut unit = Unit::default();
        for draws in self.draws.chunks(PER_FANOUT) {
            let cells: Vec<CellReq<'_>> = draws
                .iter()
                .flatten()
                .flat_map(|w| triples().map(|t| CellReq::new(w, t)))
                .collect();
            run_cells(rec, &cells, traced, &mut unit);
        }
        unit.wall_s = t0.elapsed().as_secs_f64();
        unit.cache = cache.stats().since(before);
        unit
    }
}
