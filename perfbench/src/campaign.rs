//! `campaign`: everything `repro all` computes at quick scale — the six
//! Table 4 presets, Table 1, the 130-cell campaign per log, Tables 6–8,
//! Figures 3–5 and the five ablations — at pool width 2, with a cold
//! in-memory `SimCache` and no disk layer.
//!
//! A campaign's cost moves by ±15 % from one workload seed to another,
//! so set-up generates [`DRAWS`] draws of the presets, from the run's
//! first derived seeds, and unit `i` runs the campaign on draw `i`: a
//! run's medians rest on all of them.

use std::time::Instant;

use predictsim_experiments::figures::{fig3, fig4_fig5, render_ecdf_series, render_fig3};
use predictsim_experiments::tables::{
    render_table1, render_table6, render_table7, render_table8, table1, table6, table7, table8,
};
use predictsim_experiments::{
    ablation, campaign_triples, reference_triples, CampaignResult, ExperimentSetup,
    HeuristicTriple, LoadedWorkload, SimCache, DEFAULT_SEED, QUICK_SCALE,
};

use crate::cells::{pretty, run_cells, CellReq, Unit};
use crate::trace::Recorder;
use crate::Config;

/// The quick-scale headline on the default seed: the mean AVEbsld
/// reduction of the cross-validated triple vs EASY (rounded, %) and the
/// global winner.
const HEADLINE_REDUCTION: &str = "33";
const HEADLINE_WINNER: &str = "ml(u=sq,o=sq,g=q/p)+req-time+easy-sjbf";

/// Draws of the presets, one campaign each.
const DRAWS: u64 = 3;

/// Prepared inputs.
pub struct Campaign {
    /// One set-up per draw.
    setups: Vec<ExperimentSetup>,
    triples: Vec<HeuristicTriple>,
    /// Fingerprints of each draw's presets, generated at set-up; every
    /// unit's regenerated presets must match them.
    fingerprints: Vec<Vec<u64>>,
}

fn generate(rec: &Recorder, setup: &ExperimentSetup) -> Vec<LoadedWorkload> {
    setup
        .specs()
        .iter()
        .map(|spec| {
            rec.time("workload.generate", spec.name.clone(), None, || {
                LoadedWorkload::from(predictsim_workload::generate(spec, setup.seed))
            })
        })
        .collect()
}

impl Campaign {
    /// Generates the presets of every draw and lists the triples.
    pub fn setup(cfg: &Config, rec: &Recorder) -> Result<Self, String> {
        let draws = if cfg.tiny { 1 } else { DRAWS };
        let setups: Vec<ExperimentSetup> = (0..draws)
            .map(|k| ExperimentSetup {
                scale: if cfg.tiny { 0.005 } else { QUICK_SCALE },
                seed: crate::sub_seed(cfg.seed, k),
            })
            .collect();
        let fingerprints = setups
            .iter()
            .map(|setup| {
                generate(rec, setup)
                    .iter()
                    .map(|w| w.jobs.fingerprint())
                    .collect()
            })
            .collect();
        let mut triples = campaign_triples();
        triples.extend(reference_triples());
        Ok(Self {
            setups,
            triples,
            fingerprints,
        })
    }

    /// How many draws the units cycle through.
    pub fn draws(&self) -> usize {
        self.setups.len()
    }

    /// One `repro all` pass on draw `draw`, from a cold cache.
    pub fn unit(&mut self, rec: &Recorder, draw: usize, traced: bool) -> Unit {
        let cache = SimCache::global();
        cache.clear_memory();
        let before = cache.stats();
        let t0 = Instant::now();
        let mut unit = Unit::default();
        let (setup, fingerprints) = (&self.setups[draw], &self.fingerprints[draw]);
        self.pass(rec, setup, fingerprints, traced, &mut unit);
        unit.wall_s = t0.elapsed().as_secs_f64();
        unit.cache = cache.stats().since(before);
        unit
    }

    fn pass(
        &self,
        rec: &Recorder,
        setup: &ExperimentSetup,
        fingerprints: &[u64],
        traced: bool,
        unit: &mut Unit,
    ) {
        let workloads = generate(rec, setup);
        let regenerated: Vec<u64> = workloads.iter().map(|w| w.jobs.fingerprint()).collect();
        if regenerated != fingerprints {
            unit.failures.push(format!(
                "seed {}: regenerated presets differ from the set-up ones",
                setup.seed
            ));
        }
        let mut report = |name: &'static str, f: &mut dyn FnMut() -> String| {
            let out = rec.time("experiments.report", name, None, &mut *f);
            unit.outputs.push((name.to_string(), out));
        };

        report("table1", &mut || {
            let rows = table1(&workloads);
            pretty(&rows) + &render_table1(&rows)
        });

        let mut campaigns = Vec::new();
        for w in &workloads {
            let cells: Vec<CellReq<'_>> = self
                .triples
                .iter()
                .map(|t| CellReq::new(w, t.clone()))
                .collect();
            let results = run_cells(rec, &cells, traced, unit);
            let Some(results) = results.into_iter().collect::<Option<Vec<_>>>() else {
                return; // the failed cells are already recorded
            };
            campaigns.push(CampaignResult {
                log: w.name.clone(),
                machine_size: w.machine_size,
                jobs: w.jobs.len(),
                results,
            });
        }

        let mut report = |name: &'static str, f: &mut dyn FnMut() -> String| {
            let out = rec.time("experiments.report", name, None, &mut *f);
            unit.outputs.push((name.to_string(), out));
        };
        report("table6", &mut || {
            let rows = table6(&campaigns);
            pretty(&rows) + &render_table6(&rows)
        });
        let mut headline = None;
        report("table7", &mut || {
            let outcome = table7(&campaigns);
            headline = Some((
                format!("{:.0}", outcome.mean_reduction_vs_easy()),
                outcome.global_winner.clone(),
            ));
            pretty(&outcome) + &render_table7(&outcome)
        });
        report("fig3", &mut || {
            let fig = fig3(&campaigns, "Metacentrum", "SDSC-BLUE");
            pretty(&fig) + &render_fig3(&fig)
        });
        let curie = workloads
            .iter()
            .find(|w| w.name.starts_with("Curie"))
            .expect("the Table 4 presets include Curie");
        report("table8", &mut || {
            let rows = table8(curie);
            pretty(&rows) + &render_table8(&rows)
        });
        report("fig4_fig5", &mut || {
            let fig = fig4_fig5(curie, 193);
            pretty(&fig)
                + &render_ecdf_series(&fig.error_series, "h")
                + &render_ecdf_series(&fig.value_series, "h")
        });
        let first = &workloads[0];
        type Ablation = fn(&LoadedWorkload) -> Vec<ablation::AblationRow>;
        let ablations: [(&'static str, Ablation); 5] = [
            ("ablation_scheduler", ablation::ablate_scheduler),
            ("ablation_correction", ablation::ablate_correction),
            ("ablation_optimizer", ablation::ablate_optimizer),
            ("ablation_basis", ablation::ablate_basis),
            ("ablation_loss", ablation::ablate_loss),
        ];
        for (name, ablate) in ablations {
            report(name, &mut || {
                let rows = ablate(first);
                pretty(&rows) + &ablation::render_ablation(name, &rows)
            });
        }

        let pinned = setup.seed == DEFAULT_SEED && setup.scale == QUICK_SCALE;
        if let (true, Some((reduction, winner))) = (pinned, headline) {
            if reduction != HEADLINE_REDUCTION || winner != HEADLINE_WINNER {
                unit.failures.push(format!(
                    "headline drifted: {reduction}% vs EASY with winner {winner} \
                     (pinned: {HEADLINE_REDUCTION}% with {HEADLINE_WINNER})"
                ));
            }
        }
    }
}
