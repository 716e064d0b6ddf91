//! Conservative backfilling end to end against the independent
//! [`ReferenceConservative`] oracle.
//!
//! The oracle plans the whole queue with its own copy of the
//! candidate-scan profile algorithms, so these whole simulations check
//! the production scheduler's one-sweep `earliest_start`, bounded
//! `reserve` and early exit on the states a real trace produces —
//! deep queues, fragmented profiles, and (under an under-predicting
//! predictor) correction events that reshape the profile mid-run.

use predictsim_sim::audit;
use predictsim_sim::cluster::{ClusterSpec, Partition};
use predictsim_sim::engine::{simulate, SimConfig};
use predictsim_sim::job::{Job, JobId};
use predictsim_sim::predict::{
    ClairvoyantPredictor, CorrectionPolicy, RequestedTimeCorrection, RequestedTimePredictor,
    RuntimePredictor,
};
use predictsim_sim::scheduler::{ConservativeScheduler, ReferenceConservative, Scheduler};
use predictsim_sim::state::SystemView;
use predictsim_sim::time::Time;
use predictsim_workload::{by_name, generate};

/// Predicts a quarter of the requested time, so most jobs outlive their
/// prediction and get corrected.
struct QuarterOfRequested;

impl RuntimePredictor for QuarterOfRequested {
    fn predict(&mut self, job: &Job, _system: &SystemView<'_>) -> f64 {
        (job.requested / 4).max(1) as f64
    }

    fn observe(&mut self, _job: &Job, _actual_run: i64, _system: &SystemView<'_>) {}

    fn name(&self) -> String {
        "quarter-of-requested".into()
    }
}

/// Every job's start and partition under `scheduler`, after auditing
/// the schedule, with the number of corrections the run applied.
fn placements(
    jobs: &[Job],
    config: SimConfig,
    scheduler: &mut dyn Scheduler,
    predictor: &mut dyn RuntimePredictor,
    correction: Option<&dyn CorrectionPolicy>,
) -> (Vec<(JobId, Time, u32)>, u64) {
    let result = simulate(jobs, config, scheduler, predictor, correction).expect("simulates");
    audit(&result).expect("schedule passes the audit");
    let placed = result
        .outcomes
        .iter()
        .map(|o| (o.id, o.start, o.partition))
        .collect();
    (placed, result.total_corrections())
}

/// Asserts that the production scheduler and the oracle place every job
/// identically; returns the corrections applied.
fn assert_same_placements(
    jobs: &[Job],
    config: SimConfig,
    label: &str,
    predictor: fn() -> Box<dyn RuntimePredictor>,
    correction: Option<&dyn CorrectionPolicy>,
) -> u64 {
    let (production, corrections) = placements(
        jobs,
        config,
        &mut ConservativeScheduler::new(),
        predictor().as_mut(),
        correction,
    );
    let (oracle, _) = placements(
        jobs,
        config,
        &mut ReferenceConservative,
        predictor().as_mut(),
        correction,
    );
    assert_eq!(production, oracle, "{label}: placements diverged");
    corrections
}

#[test]
fn production_matches_oracle_on_generated_kth_draws() {
    let spec = by_name("KTH-SP2").expect("preset").scaled(0.02);
    let mut corrections = 0;
    for seed in 1..=6 {
        let w = generate(&spec, seed);
        let config = SimConfig::single(w.machine_size);
        let label = |predictor| format!("seed {seed}, {predictor}");
        assert_same_placements(
            &w.jobs,
            config,
            &label("requested"),
            || Box::new(RequestedTimePredictor),
            None,
        );
        assert_same_placements(
            &w.jobs,
            config,
            &label("clairvoyant"),
            || Box::new(ClairvoyantPredictor),
            None,
        );
        corrections += assert_same_placements(
            &w.jobs,
            config,
            &label("quarter of requested + requested-time correction"),
            || Box::new(QuarterOfRequested),
            Some(&RequestedTimeCorrection),
        );
    }
    assert!(corrections > 0, "the correction runs must correct");
}

fn job(id: u32, submit: i64, run: i64, procs: u32) -> Job {
    Job {
        id: JobId(id),
        submit: Time(submit),
        run,
        requested: run,
        procs,
        user: 1,
        user_ix: 1,
        swf_id: id as u64 + 1,
    }
}

/// A queued job wider than a later partition must not be planned in that
/// partition's pass: it would over-reserve the partition's profile and,
/// with nothing running there, be started on processors that do not
/// exist.
#[test]
fn job_wider_than_a_partition_waits_for_one_that_fits() {
    let cluster = ClusterSpec::from_partitions(&[
        Partition {
            size: 8,
            speed: 1.0,
        },
        Partition {
            size: 4,
            speed: 1.0,
        },
    ])
    .expect("valid partitions");
    let config = SimConfig { cluster };
    let jobs = [job(0, 0, 100, 8), job(1, 1, 50, 6)];
    let expected = vec![(JobId(0), Time(0), 0), (JobId(1), Time(100), 0)];
    for scheduler in [
        &mut ConservativeScheduler::new() as &mut dyn Scheduler,
        &mut ReferenceConservative,
    ] {
        let (placed, _) = placements(&jobs, config, scheduler, &mut ClairvoyantPredictor, None);
        assert_eq!(placed, expected, "{}", scheduler.name());
    }
}
