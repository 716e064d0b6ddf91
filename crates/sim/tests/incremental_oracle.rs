//! The incremental schedulers against the rebuild-from-scratch oracles.
//!
//! `EasyScheduler` and `ConservativeScheduler` now read the engine's
//! incrementally maintained [`ReleaseSet`] instead of re-collecting and
//! re-sorting the running set each pass. These properties pin the
//! refactor's core claim — identical starts to the brute-force
//! [`ReferenceEasy`] / [`ReferenceConservative`] oracles — on random
//! queue/running states (with release-time ties made *likely*, to drive
//! EASY through its tie fallback) and on random operation sequences
//! applied through [`SimState`] (so the release set is genuinely
//! maintained, not rebuilt). Oversized head jobs exercise
//! `head_reservation`'s degrade-gracefully branch.

use proptest::prelude::*;

use predictsim_sim::job::JobId;
use predictsim_sim::scheduler::easy::{head_reservation, Reservation};
use predictsim_sim::scheduler::{
    ConservativeScheduler, EasyScheduler, ReferenceConservative, ReferenceEasy, ReleaseSet,
    Scheduler,
};
use predictsim_sim::state::{
    sorted_shortest_first, RunningJob, SchedulerContext, SimState, WaitingJob,
};
use predictsim_sim::time::Time;

const MACHINE: u32 = 16;

/// Release instants are drawn from a handful of values so that ties —
/// including ties at the reservation's crossing instant — are common.
const TIE_TIMES: [i64; 5] = [50, 50, 100, 150, 200];

fn waiting(id: u32, procs: u32, predicted: i64, submit: i64) -> WaitingJob {
    WaitingJob {
        id: JobId(id),
        procs,
        predicted,
        requested: predicted,
        submit: Time(submit),
        user: 1,
    }
}

fn running(id: u32, procs: u32, predicted_end: i64) -> RunningJob {
    RunningJob {
        id: JobId(id),
        procs,
        start: Time(0),
        predicted_end: Time(predicted_end),
        deadline: Time(predicted_end + 100_000),
        user: 1,
        corrections: 0,
        partition: 0,
    }
}

/// A random system snapshot: running jobs packed within the machine,
/// waiting jobs whose procs may exceed the machine (degrade branch).
#[derive(Debug, Clone)]
struct Snapshot {
    queue: Vec<WaitingJob>,
    running: Vec<RunningJob>,
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec((1u32..=6, 0usize..TIE_TIMES.len()), 0..8),
        prop::collection::vec((1u32..=24, 0usize..TIE_TIMES.len(), 1i64..4), 0..10),
    )
        .prop_map(|(run_specs, wait_specs)| {
            let mut running_jobs = Vec::new();
            let mut budget = MACHINE;
            for (id, (procs, t_index)) in (1000..).zip(run_specs) {
                let procs = procs.min(budget);
                if procs == 0 {
                    break;
                }
                budget -= procs;
                running_jobs.push(running(id, procs, TIE_TIMES[t_index]));
            }
            let queue = wait_specs
                .into_iter()
                .enumerate()
                .map(|(i, (procs, t_index, factor))| {
                    waiting(i as u32, procs, TIE_TIMES[t_index] * factor, i as i64)
                })
                .collect();
            Snapshot {
                queue,
                running: running_jobs,
            }
        })
}

fn ctx_of<'a>(
    snapshot: &'a Snapshot,
    releases: &'a ReleaseSet,
    shortest_first: &'a [u32],
) -> SchedulerContext<'a> {
    let used: u32 = snapshot.running.iter().map(|r| r.procs).sum();
    SchedulerContext {
        now: Time(0),
        partition: 0,
        machine_size: MACHINE,
        free: MACHINE - used,
        queue: &snapshot.queue,
        running: &snapshot.running,
        releases,
        shortest_first,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On arbitrary snapshots (tie-heavy release times, oversized jobs),
    /// every production scheduler matches its from-scratch oracle.
    #[test]
    fn production_matches_oracle_on_random_states(snapshot in arb_snapshot()) {
        let releases = ReleaseSet::from_running(&snapshot.running);
        let shortest = sorted_shortest_first(&snapshot.queue);
        let ctx = ctx_of(&snapshot, &releases, &shortest);
        prop_assert_eq!(
            EasyScheduler::new().schedule(&ctx),
            ReferenceEasy::new().schedule(&ctx),
            "EASY diverged from oracle"
        );
        prop_assert_eq!(
            EasyScheduler::sjbf().schedule(&ctx),
            ReferenceEasy::sjbf().schedule(&ctx),
            "EASY-SJBF diverged from oracle"
        );
        // Jobs wider than the machine are skipped by both.
        prop_assert_eq!(
            ConservativeScheduler::new().schedule(&ctx),
            ReferenceConservative.schedule(&ctx),
            "conservative diverged from oracle"
        );
    }

    /// Random operation sequences driven through `SimState`, so the
    /// release set is maintained incrementally across starts, finishes,
    /// and corrections — after every step the schedulers must still
    /// match the oracles, and the slot map must stay exact.
    #[test]
    fn incremental_maintenance_matches_oracle(
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..TIE_TIMES.len()), 1..40)
    ) {
        let n = 64usize;
        let mut state = SimState::new(MACHINE, n);
        let mut next_id = 0u32;
        let mut warm_easy = EasyScheduler::sjbf();
        let mut warm_conservative = ConservativeScheduler::new();
        for (op, pick, t_index) in ops {
            match op {
                // Submit a new job.
                0 | 1 => {
                    if (next_id as usize) < n {
                        let procs = 1 + (pick as u32 % 6);
                        let predicted = TIE_TIMES[t_index];
                        state.enqueue(waiting(next_id, procs, predicted, next_id as i64));
                        next_id += 1;
                    }
                }
                // Start the first waiting job that fits.
                2 => {
                    let fit = state
                        .queue()
                        .iter()
                        .position(|w| w.procs <= state.free())
                        .map(|i| state.queue()[i]);
                    if let Some(w) = fit {
                        let index = state.waiting_index(w.id).unwrap();
                        state.start(index, RunningJob {
                            id: w.id,
                            procs: w.procs,
                            start: Time(0),
                            predicted_end: Time(TIE_TIMES[t_index]),
                            deadline: Time(100_000),
                            user: w.user,
                            corrections: 0,
                            partition: 0,
                        });
                        state.compact_queue();
                    }
                }
                // Finish or correct a running job.
                _ => {
                    if state.running().is_empty() {
                        continue;
                    }
                    let index = pick % state.running().len();
                    let id = state.running()[index].id;
                    if pick % 2 == 0 {
                        state.finish(id);
                    } else {
                        let index = state.running_index(id).unwrap();
                        state.apply_correction(index, Time(TIE_TIMES[t_index] + 1));
                    }
                }
            }
            state.assert_consistent();

            // A scheduling pass over the current state must match the
            // from-scratch oracles (warm scratch, so this also shakes
            // stale-scratch bugs out).
            let snapshot = Snapshot {
                queue: state.queue().to_vec(),
                running: state.running().to_vec(),
            };
            let ctx = ctx_of(&snapshot, state.releases(), state.shortest_first());
            prop_assert_eq!(
                warm_easy.schedule(&ctx),
                ReferenceEasy::sjbf().schedule(&ctx),
                "warm EASY-SJBF diverged after incremental ops"
            );
            prop_assert_eq!(
                warm_conservative.schedule(&ctx),
                ReferenceConservative.schedule(&ctx),
                "warm conservative diverged after incremental ops"
            );
        }
    }
}

/// Deterministic pin of the degrade-gracefully branch: a head job wider
/// than the machine can never be covered, so the reservation collapses
/// to `(now, 0)` — and production still matches the oracle.
#[test]
fn oversized_head_takes_degrade_branch_identically() {
    let mut releases = vec![(Time(50), 8), (Time(100), 8)];
    let r = head_reservation(Time(7), 0, MACHINE + 8, &mut releases);
    assert_eq!(
        r,
        Reservation {
            shadow: Time(7),
            extra: 0
        }
    );

    let snapshot = Snapshot {
        queue: vec![waiting(0, MACHINE + 8, 100, 0), waiting(1, 2, 40, 1)],
        running: vec![running(1000, MACHINE, 50)],
    };
    let releases = ReleaseSet::from_running(&snapshot.running);
    let shortest = sorted_shortest_first(&snapshot.queue);
    let ctx = ctx_of(&snapshot, &releases, &shortest);
    let production = EasyScheduler::new().schedule(&ctx);
    assert_eq!(production, ReferenceEasy::new().schedule(&ctx));
    // With shadow = now and extra = 0, nothing can backfill ahead of the
    // impossible head (free is 0 here anyway).
    assert!(production.is_empty());
}

/// EASY's tie fallback really fires on *heterogeneous* tie states
/// (otherwise the oracle comparison above would only be exercising the
/// fast path).
#[test]
fn tie_fallback_engages_on_heterogeneous_crossing_ties() {
    // free=6; head needs 8; two running jobs release 8+2 at t=50, so the
    // cumulative availability crosses the head's requirement at an
    // instant with two releases of *different* widths — the fast path
    // must decline (the legacy walk's `extra` depends on which release
    // it crossed on).
    let snapshot = Snapshot {
        queue: vec![waiting(0, 8, 100, 0), waiting(1, 2, 300, 1)],
        running: vec![running(1000, 8, 50), running(1001, 2, 50)],
    };
    let releases = ReleaseSet::from_running(&snapshot.running);
    let shortest = sorted_shortest_first(&snapshot.queue);
    let ctx = ctx_of(&snapshot, &releases, &shortest);
    let mut easy = EasyScheduler::new();
    let starts = easy.schedule(&ctx);
    assert_eq!(easy.stats().slow_passes, 1, "tie must take the fallback");
    assert_eq!(starts, ReferenceEasy::new().schedule(&ctx));
}

/// A *uniform* tie — every release at the crossing instant frees the
/// same processor count — is order-free (any permutation of equal
/// releases crosses after the same number of jobs), so the fast path
/// resolves it without the sort-and-walk fallback, and the decision
/// still matches the brute-force oracle.
#[test]
fn uniform_crossing_ties_stay_on_the_fast_path() {
    // free=4; head needs 8; three running jobs release 4 each at t=50:
    // the legacy walk crosses after the *first* release regardless of
    // order (extra = 4 + 4 - 8 = 0), so the 4-proc candidate that
    // outlives the shadow must NOT backfill — a naive tie resolution
    // that added the whole group before crossing would report extra = 8
    // and wrongly admit it.
    let snapshot = Snapshot {
        queue: vec![waiting(0, 8, 100, 0), waiting(1, 4, 300, 1)],
        running: vec![
            running(1000, 4, 50),
            running(1001, 4, 50),
            running(1002, 4, 50),
        ],
    };
    let releases = ReleaseSet::from_running(&snapshot.running);
    let shortest = sorted_shortest_first(&snapshot.queue);
    let ctx = ctx_of(&snapshot, &releases, &shortest);
    let mut easy = EasyScheduler::new();
    let starts = easy.schedule(&ctx);
    assert_eq!(
        easy.stats().slow_passes,
        0,
        "uniform tie must stay on the fast path"
    );
    assert_eq!(starts, ReferenceEasy::new().schedule(&ctx));
}
