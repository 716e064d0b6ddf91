//! Brute-force reference schedulers: rebuild-from-scratch oracles.
//!
//! These are the pre-refactor implementations of EASY and conservative
//! backfilling, kept verbatim: every pass re-collects the running jobs'
//! releases into a fresh vector, re-sorts it, and (for conservative)
//! rebuilds the availability [`Profile`] from scratch. They are
//! deliberately slow and allocation-heavy — their only job is to be
//! *obviously* equivalent to the published algorithms, so the property
//! tests can assert that the production schedulers (incremental release
//! set, reusable scratch, slot-indexed state) produce identical starts
//! on arbitrary queue/running states.
//!
//! Not registered in the experiment registry; use
//! [`crate::scheduler::EasyScheduler`] /
//! [`crate::scheduler::ConservativeScheduler`] for real runs.

use crate::cluster::ClusterSpec;
use crate::job::JobId;
use crate::scheduler::easy::{head_reservation, BackfillOrder, Reservation};
use crate::scheduler::profile::{Profile, ReleaseSet};
use crate::scheduler::Scheduler;
use crate::state::{sorted_shortest_first, RunningJob, SchedulerContext, WaitingJob};
use crate::time::Time;

/// The from-scratch EASY oracle (optionally SJBF-ordered), bit-equal to
/// the pre-refactor `EasyScheduler`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEasy {
    /// Backfill candidate ordering (§5.1).
    pub order: BackfillOrder,
}

impl ReferenceEasy {
    /// Plain EASY oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// EASY-SJBF oracle.
    pub fn sjbf() -> Self {
        Self {
            order: BackfillOrder::ShortestFirst,
        }
    }
}

impl Scheduler for ReferenceEasy {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let mut free = ctx.free;

        // Phase 1 — start the head of the queue while it fits (pure FCFS).
        let mut head_idx = 0;
        while head_idx < ctx.queue.len() && ctx.queue[head_idx].procs <= free {
            free -= ctx.queue[head_idx].procs;
            starts.push(ctx.queue[head_idx].id);
            head_idx += 1;
        }
        if head_idx >= ctx.queue.len() {
            return; // whole queue started
        }

        // Phase 2 — reservation for the blocked head, rebuilt from
        // scratch: running releases in running-vector order, then the
        // phase-1 starts, unstable-sorted by time.
        let head = &ctx.queue[head_idx];
        let mut releases: Vec<(Time, u32)> = ctx
            .running
            .iter()
            .filter(|r| r.partition == ctx.partition)
            .map(|r: &RunningJob| (r.predicted_end, r.procs))
            .chain(
                ctx.queue[..head_idx]
                    .iter()
                    .map(|w| (ctx.now.plus(w.predicted), w.procs)),
            )
            .collect();
        let Reservation { shadow, mut extra } =
            head_reservation(ctx.now, free, head.procs, &mut releases);

        // Phase 3 — backfill the rest of the queue without delaying the
        // reservation.
        let mut candidates: Vec<&WaitingJob> = ctx.queue[head_idx + 1..].iter().collect();
        if self.order == BackfillOrder::ShortestFirst {
            candidates.sort_by_key(|j| (j.predicted, j.submit, j.id));
        }
        for job in candidates {
            if job.procs > free {
                continue;
            }
            let ends_by_shadow = ctx.now.plus(job.predicted) <= shadow;
            if ends_by_shadow {
                free -= job.procs;
                starts.push(job.id);
            } else if job.procs <= extra {
                extra -= job.procs;
                free -= job.procs;
                starts.push(job.id);
            }
        }
    }

    fn name(&self) -> String {
        match self.order {
            BackfillOrder::Fcfs => "reference-easy".into(),
            BackfillOrder::ShortestFirst => "reference-easy-sjbf".into(),
        }
    }
}

/// The from-scratch conservative oracle: the pre-refactor
/// `ConservativeScheduler` algorithm.
///
/// It plans the whole queue (no early exit) on a private copy of the
/// pre-refactor profile algorithms (`ScanProfile`), so it shares no
/// planning code with the production scheduler. Like the production
/// scheduler it reads only this partition's running jobs and skips jobs
/// wider than the partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceConservative;

impl Scheduler for ReferenceConservative {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let releases: Vec<(Time, u32)> = ctx
            .running
            .iter()
            .filter(|r| r.partition == ctx.partition)
            .map(|r| (r.predicted_end, r.procs))
            .collect();
        let mut profile = ScanProfile {
            points: Profile::new(ctx.now, ctx.free, &releases).points().to_vec(),
        };
        for job in ctx.queue {
            if job.procs > ctx.machine_size {
                continue;
            }
            let duration = job.predicted.max(1);
            let start = profile.earliest_start(ctx.now.0, job.procs, duration);
            profile.reserve(start, duration, job.procs);
            if start == ctx.now.0 {
                starts.push(job.id);
            }
        }
    }

    fn name(&self) -> String {
        "reference-conservative".into()
    }
}

/// The pre-refactor availability-profile algorithms, kept verbatim:
/// every candidate start is checked by rescanning the breakpoints from
/// the first, and a reservation tests every breakpoint.
struct ScanProfile {
    points: Vec<(i64, i64)>,
}

impl ScanProfile {
    fn free_at(&self, t: i64) -> i64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    fn earliest_start(&self, from: i64, procs: u32, duration: i64) -> i64 {
        let procs = procs as i64;
        debug_assert!(duration > 0, "reservation must have positive duration");
        // Candidate starts: `from` itself, then every later breakpoint —
        // examined in place (this runs once per queued job per scheduling
        // pass, so it must not allocate).
        if self.feasible_at(from, procs, duration) {
            return from;
        }
        for i in 0..self.points.len() {
            let s = self.points[i].0;
            if s <= from {
                continue;
            }
            if self.feasible_at(s, procs, duration) {
                return s;
            }
        }
        // With procs ≤ machine size this is unreachable; degrade to the
        // profile's horizon for robustness.
        self.points
            .last()
            .map(|&(t, _)| t.max(from))
            .unwrap_or(from)
    }

    fn feasible_at(&self, s: i64, procs: i64, duration: i64) -> bool {
        if self.free_at(s) < procs {
            return false;
        }
        // Check every breakpoint inside (s, s+duration).
        for &(t, f) in &self.points {
            if t <= s {
                continue;
            }
            if t >= s + duration {
                break;
            }
            if f < procs {
                return false;
            }
        }
        true
    }

    fn reserve(&mut self, start: i64, duration: i64, procs: u32) {
        let procs = procs as i64;
        let end = start + duration;
        self.ensure_breakpoint(start);
        self.ensure_breakpoint(end);
        for (t, f) in self.points.iter_mut() {
            if *t >= start && *t < end {
                *f -= procs;
                debug_assert!(*f >= 0, "over-reserved profile at t={t}: {f}");
            }
        }
    }

    fn ensure_breakpoint(&mut self, t: i64) {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(_) => {}
            Err(0) => {
                // Before profile start: extend backwards with the same free
                // count (callers only reserve from `now` on, so this is a
                // defensive path).
                let f = self.points[0].1;
                self.points.insert(0, (t, f));
            }
            Err(i) => {
                let f = self.points[i - 1].1;
                self.points.insert(i, (t, f));
            }
        }
    }
}

/// Brute-force oracle for the engine's heterogeneous routing policy:
/// first-fit by partition order, then per-partition EASY (optionally
/// SJBF) — see [`ClusterSpec`]. Rebuilds every per-partition view from
/// scratch (filtered running vectors, fresh release sets, re-sorted
/// shortest-first), so it is *obviously* the routing loop's semantics;
/// the property tests assert the production engine produces identical
/// `(job, partition)` placements.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceHetero {
    /// Backfill candidate ordering of the per-partition EASY passes.
    pub order: BackfillOrder,
}

impl ReferenceHetero {
    /// First-fit routing over per-partition plain EASY.
    pub fn new() -> Self {
        Self::default()
    }

    /// First-fit routing over per-partition EASY-SJBF.
    pub fn sjbf() -> Self {
        Self {
            order: BackfillOrder::ShortestFirst,
        }
    }

    /// One scheduling instant: the `(job, partition)` placements the
    /// engine's routing loop makes at `now`, given the global FCFS
    /// `queue` and the cluster-wide `running` set (each running job
    /// tagged with its partition).
    pub fn schedule(
        &self,
        now: Time,
        cluster: ClusterSpec,
        queue: &[WaitingJob],
        running: &[RunningJob],
    ) -> Vec<(JobId, u32)> {
        let mut placements = Vec::new();
        let mut remaining: Vec<WaitingJob> = queue.to_vec();
        for (p, part) in cluster.partitions().iter().enumerate() {
            if remaining.is_empty() {
                break;
            }
            let local: Vec<RunningJob> = running
                .iter()
                .filter(|r| r.partition as usize == p)
                .copied()
                .collect();
            let used: u32 = local.iter().map(|r| r.procs).sum();
            let free = part.size - used;
            if free == 0 {
                continue;
            }
            let releases = ReleaseSet::from_running(&local);
            let shortest = sorted_shortest_first(&remaining);
            let ctx = SchedulerContext {
                now,
                partition: p as u32,
                machine_size: part.size,
                free,
                queue: &remaining,
                running: &local,
                releases: &releases,
                shortest_first: &shortest,
            };
            let starts = ReferenceEasy { order: self.order }.schedule(&ctx);
            placements.extend(starts.iter().map(|&id| (id, p as u32)));
            remaining.retain(|w| !starts.contains(&w.id));
        }
        placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testutil::{ctx, running, waiting};
    use crate::scheduler::{ConservativeScheduler, EasyScheduler};

    #[test]
    fn oracles_match_production_on_the_figure2_scenario() {
        let queue = [waiting(2, 8, 200, 1), waiting(3, 4, 90, 2)];
        let running = [running(1, 6, 0, 100)];
        let c = ctx(0, 10, &queue, &running);
        assert_eq!(
            ReferenceEasy::new().schedule(&c),
            EasyScheduler::new().schedule(&c)
        );
        assert_eq!(
            ReferenceConservative.schedule(&c),
            ConservativeScheduler::new().schedule(&c)
        );
    }

    #[test]
    fn conservative_oracle_plans_only_its_partition() {
        // Partition 1 (8 procs) runs a 6-proc job until 100; a job on
        // partition 0 releases 8 procs at 50, which partition 1 must not
        // count. A (8 procs) is then reserved [100,200), so B (2 procs
        // for 120) cannot start now without delaying it.
        let queue = [waiting(0, 8, 100, 0), waiting(1, 2, 120, 1)];
        let mut on_p1 = running(8, 6, 0, 100);
        on_p1.partition = 1;
        let running = [running(9, 8, 0, 50), on_p1];
        let releases = ReleaseSet::from_running(&running[1..]);
        let c = SchedulerContext {
            now: Time(0),
            partition: 1,
            machine_size: 8,
            free: 2,
            queue: &queue,
            running: &running,
            releases: &releases,
            shortest_first: &[0, 1],
        };
        assert!(ReferenceConservative.schedule(&c).is_empty());
        assert!(ConservativeScheduler::new().schedule(&c).is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(ReferenceEasy::new().name(), "reference-easy");
        assert_eq!(ReferenceEasy::sjbf().name(), "reference-easy-sjbf");
        assert_eq!(ReferenceConservative.name(), "reference-conservative");
    }
}
