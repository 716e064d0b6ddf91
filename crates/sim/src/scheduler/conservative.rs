//! Conservative backfilling \[14\].
//!
//! Every waiting job receives a reservation when it is considered, in
//! arrival order, at the earliest instant where the availability profile
//! can host it; a job starts when its reservation time is *now*. No job
//! can delay any earlier-arrived job, which gives conservative backfilling
//! its no-starvation guarantee — at the price of less aggressive packing
//! than EASY.
//!
//! The paper (§2.1) contrasts this with EASY: "In the former, the job
//! allocation is completely recomputed at each new event (job arrival or
//! job completion) while in the second, the process is purely on-line".
//! We follow that description: each scheduling pass rebuilds the plan from
//! the current predictions. Provided as an extension beyond the paper's
//! two evaluated variants; exercised by the ablation benches.

use crate::job::JobId;
use crate::scheduler::profile::Profile;
use crate::scheduler::{Scheduler, ScratchStats};
use crate::state::SchedulerContext;

/// Conservative backfilling: plan every queued job, start those planned
/// now.
///
/// The availability profile is a reusable scratch buffer refilled from
/// the engine's incrementally maintained release set
/// ([`Profile::rebuild_from`]) — no sort and, once warm, no allocation
/// per pass. Reservations for the tentative plan are carved into the
/// scratch copy, which the next pass overwrites.
///
/// Per-pass cost: O(Q) to fill the suffix minimum of the Q queued jobs'
/// widths, then, for each job planned, one O(log P + P) sweep of
/// [`Profile::earliest_start`] and an O(P) reservation over the
/// profile's P breakpoints (P grows by at most two per planned job).
///
/// Planning stops early, at the first job `i` where fewer processors
/// are free *now* than the narrowest job in `queue[i..]` needs. The
/// exit is exact: a pass outputs only the jobs that start now,
/// [`Profile::earliest_start`] returns now only when at least `procs`
/// are free now, every valid job needs at least one processor, and
/// [`Profile::reserve`] only ever removes capacity — so no job from `i`
/// on could start in this pass.
///
/// On a multi-partition cluster, jobs wider than the partition are
/// skipped: no plan on this partition can host them.
#[derive(Debug, Default, Clone)]
pub struct ConservativeScheduler {
    profile: Profile,
    /// `suffix_min[i]`: the fewest processors any of `queue[i..]` needs.
    suffix_min: Vec<u32>,
    stats: ScratchStats,
}

impl ConservativeScheduler {
    /// A fresh scheduler (cold scratch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch-buffer accounting (test hook for the no-allocation
    /// guarantee).
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    /// Resets the scratch-buffer accounting (buffers stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = ScratchStats::default();
    }
}

impl Scheduler for ConservativeScheduler {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        self.stats.passes += 1;
        let caps_before = (
            self.profile.capacity(),
            self.suffix_min.capacity(),
            starts.capacity(),
        );
        let now = ctx.now.0;
        self.profile.rebuild_from(ctx.now, ctx.free, ctx.releases);
        self.suffix_min.resize(ctx.queue.len(), 0);
        let mut narrowest = u32::MAX;
        for (min, job) in self.suffix_min.iter_mut().zip(ctx.queue).rev() {
            narrowest = narrowest.min(job.procs);
            *min = narrowest;
        }
        for (job, &narrowest) in ctx.queue.iter().zip(&self.suffix_min) {
            if self.profile.free_at(now) < narrowest as i64 {
                break;
            }
            if job.procs > ctx.machine_size {
                continue;
            }
            let duration = job.predicted.max(1);
            let start = self.profile.earliest_start(now, job.procs, duration);
            self.profile.reserve(start, duration, job.procs);
            if start == now {
                starts.push(job.id);
            }
        }
        let caps_after = (
            self.profile.capacity(),
            self.suffix_min.capacity(),
            starts.capacity(),
        );
        if caps_after != caps_before {
            self.stats.reallocating_passes += 1;
        }
    }

    fn name(&self) -> String {
        "conservative".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{ctx, running, waiting};

    #[test]
    fn starts_everything_on_free_machine() {
        let queue = [waiting(0, 4, 100, 0), waiting(1, 4, 100, 1)];
        let c = ctx(0, 8, &queue, &[]);
        let starts = ConservativeScheduler::new().schedule(&c);
        assert_eq!(starts, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn backfills_without_delaying_any_reservation() {
        // Machine 10: 8 busy until t=100. Head needs 8 (reserved at 100).
        // Short 2-proc job (pred 90) fits now without touching the head's
        // reservation.
        let queue = [waiting(2, 8, 200, 1), waiting(3, 2, 90, 2)];
        let running = [running(1, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = ConservativeScheduler::new().schedule(&c);
        assert_eq!(starts, vec![JobId(3)]);
    }

    #[test]
    fn long_backfill_blocked_by_intermediate_reservation() {
        // Unlike EASY, conservative protects *every* queued job. Queue:
        // A (8 procs, reserved at 100), B (8 procs, reserved at 100+200),
        // C (2 procs, pred 250). EASY would check C only against A's
        // shadow... conservative must also not delay B.
        // C on 2 procs: free now=2. Interval [0,250). A reserved [100,300)
        // with 8 procs: free during [100,250) is 10-8-...
        // Profile after A,B reservations: [0,100):2, [100,300):2(10-8),
        // [300,500):2. C fits at 0 on 2 procs? free_at in [0,250) is 2 -> C
        // starts now *because the extra 2 procs happen to stay free*.
        let queue = [
            waiting(0, 8, 200, 0),
            waiting(1, 8, 200, 1),
            waiting(2, 2, 250, 2),
        ];
        let running = [running(9, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = ConservativeScheduler::new().schedule(&c);
        assert_eq!(starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_that_would_delay_second_reservation_is_refused() {
        // Machine 10: 8 busy until 100. A needs 8 -> [100,300).
        // B needs 4 -> earliest with 4 free: t=300 (during [100,300) only
        // 2 free). C needs 2, pred 400: would hold [0,400) x2 procs; free
        // during [300, 400) would be 10-4(B)-... profile: [300,...) has
        // 10-4=6 free after B, so C fits at 0: starts.
        // Make C need 4 procs instead: free now = 2 -> cannot start now.
        let queue = [
            waiting(0, 8, 200, 0),
            waiting(1, 4, 200, 1),
            waiting(2, 4, 400, 2),
        ];
        let running = [running(9, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = ConservativeScheduler::new().schedule(&c);
        assert!(starts.is_empty());
    }

    #[test]
    fn narrow_job_after_blocked_wide_ones_still_starts_now() {
        // Machine 10: 6 busy until 100, so 4 free. Both wide jobs are
        // planned at 100 or later; the narrow one fits now beside them.
        // The early exit compares the free count with the narrowest job
        // still queued, not with the job at hand, so it must not stop at
        // the first wide job.
        let queue = [
            waiting(0, 8, 200, 0),
            waiting(1, 6, 200, 1),
            waiting(2, 1, 50, 2),
        ];
        let running = [running(9, 6, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let starts = ConservativeScheduler::new().schedule(&c);
        assert_eq!(starts, vec![JobId(2)]);
    }

    #[test]
    fn planning_stops_once_no_queued_job_fits_now() {
        // 2 free: the first job takes both, and nothing after it can
        // start now, whatever the plan.
        let queue = [
            waiting(0, 2, 100, 0),
            waiting(1, 1, 10, 1),
            waiting(2, 1, 10, 2),
        ];
        let running = [running(9, 8, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        let mut sched = ConservativeScheduler::new();
        assert_eq!(sched.schedule(&c), vec![JobId(0)]);
        // Memoryless: the same context gives the same starts again.
        assert_eq!(sched.schedule(&c), vec![JobId(0)]);
    }

    #[test]
    fn empty_queue() {
        let c = ctx(0, 8, &[], &[]);
        assert!(ConservativeScheduler::new().schedule(&c).is_empty());
    }

    #[test]
    fn name() {
        assert_eq!(ConservativeScheduler::new().name(), "conservative");
    }
}
