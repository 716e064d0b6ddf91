//! Processor-availability profile over future time.
//!
//! Conservative backfilling \[14\] plans a tentative start time for *every*
//! waiting job, which requires reasoning about how many processors are
//! free at every future instant, given the predicted ends of running jobs
//! and the reservations already granted. [`Profile`] is that piecewise-
//! constant function, with the operations conservative backfilling needs:
//! find the earliest feasible start for a `(procs, duration)` rectangle,
//! and carve a reservation out of the capacity.
//!
//! [`ReleaseSet`] is the *incrementally maintained* substrate both
//! backfilling families read: the time-sorted aggregate of future
//! capacity releases (one entry per distinct predicted end), kept up to
//! date by the engine on every start, finish, and correction instead of
//! being rebuilt and re-sorted from the running set on every scheduling
//! pass. EASY's reservation walk consumes it directly;
//! [`Profile::rebuild_from`] materializes it into a [`Profile`] for
//! conservative backfilling without sorting or allocating.

use crate::state::RunningJob;
use crate::time::Time;

/// One aggregated future capacity release.
///
/// Equality ignores the [`ReleasePoint::uniform`] cache: it is a
/// conservative summary of the *history* of additions, so an
/// incrementally maintained point can legitimately hold 0 where a
/// freshly aggregated one knows the common size — without the sets
/// differing in any behavior-relevant way (a 0 merely routes the EASY
/// fast path to the fallback, which computes the same reservation).
#[derive(Debug, Clone, Copy, Eq)]
pub struct ReleasePoint {
    /// The instant (a predicted end of one or more running jobs).
    pub time: i64,
    /// Total processors released at this instant.
    pub procs: u32,
    /// How many running jobs release at this instant. Scheduling fast
    /// paths that are only order-independent for a *single* release at
    /// the crossing instant use this to detect ties.
    pub jobs: u32,
    /// The common per-job processor count when every job releasing here
    /// is known to release the same amount, else 0. Conservative: a
    /// point that was ever heterogeneous stays 0 even if removals make
    /// it uniform again (the aggregate cannot tell). A *uniform* tie at
    /// a reservation's crossing instant is order-free — every
    /// permutation of equal releases crosses after the same number of
    /// jobs — which lets EASY's fast path resolve most ties without the
    /// legacy sort-and-walk fallback.
    pub uniform: u32,
}

impl PartialEq for ReleasePoint {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.procs, self.jobs) == (other.time, other.procs, other.jobs)
    }
}

/// Time-sorted aggregate of the future capacity releases of the running
/// set: for every distinct predicted end, the processors freed there.
///
/// Maintained incrementally by the engine — O(log n) locate plus a
/// memmove per update, no allocation after warm-up — so a scheduling
/// pass never sorts the running set again. The invariant the engine
/// upholds (and [`crate::state::SimState`] asserts in tests): the
/// multiset of `(predicted_end, procs)` over running jobs equals this
/// set's aggregated contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReleaseSet {
    points: Vec<ReleasePoint>,
}

impl ReleaseSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the set from a running slice (tests and oracles; the
    /// engine maintains its set incrementally instead).
    pub fn from_running(running: &[RunningJob]) -> Self {
        let mut set = Self::new();
        for r in running {
            set.add(r.predicted_end.0, r.procs);
        }
        set
    }

    /// Registers one job releasing `procs` processors at `time`.
    pub fn add(&mut self, time: i64, procs: u32) {
        match self.points.binary_search_by_key(&time, |p| p.time) {
            Ok(i) => {
                let p = &mut self.points[i];
                p.procs += procs;
                p.jobs += 1;
                if p.uniform != procs {
                    p.uniform = 0;
                }
            }
            Err(i) => self.points.insert(
                i,
                ReleasePoint {
                    time,
                    procs,
                    jobs: 1,
                    uniform: procs,
                },
            ),
        }
    }

    /// Unregisters one job that would have released `procs` at `time`
    /// (it finished, or its prediction moved).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if no such release is registered — that is
    /// an engine bookkeeping bug, not a runtime condition.
    pub fn remove(&mut self, time: i64, procs: u32) {
        match self.points.binary_search_by_key(&time, |p| p.time) {
            Ok(i) => {
                let p = &mut self.points[i];
                debug_assert!(
                    p.procs >= procs && p.jobs >= 1,
                    "release underflow at t={time}: removing {procs} from {p:?}"
                );
                p.procs -= procs;
                p.jobs -= 1;
                if p.jobs == 0 {
                    debug_assert_eq!(p.procs, 0, "procs left with no jobs at t={time}");
                    self.points.remove(i);
                }
            }
            Err(_) => debug_assert!(false, "no release registered at t={time}"),
        }
    }

    /// Moves one job's release of `procs` from `from` to `to` (a
    /// correction re-predicted its end).
    pub fn shift(&mut self, from: i64, to: i64, procs: u32) {
        if from == to {
            return;
        }
        self.remove(from, procs);
        self.add(to, procs);
    }

    /// The aggregated releases, sorted by time.
    pub fn points(&self) -> &[ReleasePoint] {
        &self.points
    }

    /// Empties the set, keeping the buffer's capacity (scratch reuse
    /// across simulations).
    pub fn clear(&mut self) {
        self.points.clear();
    }

    /// Capacity of the point buffer (scratch-reuse accounting).
    pub fn capacity(&self) -> usize {
        self.points.capacity()
    }

    /// Number of distinct release instants.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no job is due to release capacity.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Piecewise-constant "free processors" function of time.
///
/// Internally a sorted list of `(time, free)` breakpoints; `free` of the
/// last breakpoint extends to infinity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    points: Vec<(i64, i64)>,
}

impl Profile {
    /// An empty profile, to be filled by [`Profile::rebuild_from`]
    /// (scratch reuse: the points buffer is retained across rebuilds).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Refills this profile from `now`, `free` idle processors, and the
    /// incrementally maintained release set — the allocation-free
    /// equivalent of [`Profile::new`] (byte-identical result for the
    /// same release multiset: both aggregate per instant, and
    /// aggregation is order-free).
    ///
    /// Releases at or before `now` fold into the immediately-free
    /// capacity, exactly as in [`Profile::new`].
    pub fn rebuild_from(&mut self, now: Time, free: u32, releases: &ReleaseSet) {
        self.points.clear();
        let pts = releases.points();
        let mut base = free as i64;
        let mut i = 0;
        while i < pts.len() && pts[i].time <= now.0 {
            base += pts[i].procs as i64;
            i += 1;
        }
        self.points.push((now.0, base));
        let mut cum = base;
        for p in &pts[i..] {
            cum += p.procs as i64;
            self.points.push((p.time, cum));
        }
    }

    /// Builds the profile as seen at `now` with `free` processors idle and
    /// each `(end, procs)` release adding capacity at its (predicted) end.
    ///
    /// Releases at or before `now` are treated as immediately free (they
    /// can occur transiently while corrections are being applied).
    pub fn new(now: Time, free: u32, releases: &[(Time, u32)]) -> Self {
        let mut deltas: Vec<(i64, i64)> = releases
            .iter()
            .map(|&(t, p)| (t.0.max(now.0), p as i64))
            .collect();
        deltas.sort_unstable();
        let mut points = Vec::with_capacity(deltas.len() + 1);
        points.push((now.0, free as i64));
        for (t, p) in deltas {
            let (last_t, last_free) = *points.last().expect("profile never empty");
            if t == last_t {
                points.last_mut().expect("non-empty").1 = last_free + p;
            } else {
                points.push((t, last_free + p));
            }
        }
        Self { points }
    }

    /// Free processors at instant `t` (clamped to the profile's start).
    pub fn free_at(&self, t: i64) -> i64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Earliest start `s ≥ from` such that at least `procs` processors are
    /// free during the whole interval `[s, s + duration)`.
    ///
    /// One forward sweep from the segment holding `from`: a candidate
    /// start is kept, moved to the next breakpoint whenever the segment
    /// under it has fewer than `procs` free, and returned as soon as the
    /// next breakpoint lies at or beyond `candidate + duration` (or none
    /// is left: the last segment extends to infinity). Each breakpoint
    /// is read at most once, so a call costs O(log P + P) for P
    /// breakpoints, and returns the earliest feasible start among `from`
    /// and the later breakpoints — no other instant can be the earliest.
    ///
    /// Feasibility is guaranteed whenever `procs` does not exceed the
    /// machine size, because capacity is non-decreasing after the last
    /// breakpoint. Otherwise the call degrades to the profile's horizon
    /// (its last breakpoint, or `from` if later).
    pub fn earliest_start(&self, from: i64, procs: u32, duration: i64) -> i64 {
        let procs = procs as i64;
        debug_assert!(duration > 0, "reservation must have positive duration");
        let horizon = || {
            self.points
                .last()
                .map(|&(t, _)| t.max(from))
                .unwrap_or(from)
        };
        // The segment holding `from` (clamped to the first one).
        let mut i = self
            .points
            .partition_point(|&(t, _)| t <= from)
            .saturating_sub(1);
        let mut candidate = from;
        while let Some(&(_, free)) = self.points.get(i) {
            let next = self.points.get(i + 1).map(|&(t, _)| t);
            if free < procs {
                match next {
                    Some(t) => candidate = t,
                    None => return horizon(),
                }
            } else if next.is_none_or(|t| t >= candidate + duration) {
                return candidate;
            }
            i += 1;
        }
        horizon()
    }

    /// Removes `procs` processors during `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the interval would drive capacity negative
    /// — callers must only reserve what [`Profile::earliest_start`]
    /// declared feasible.
    pub fn reserve(&mut self, start: i64, duration: i64, procs: u32) {
        let procs = procs as i64;
        let lo = self.ensure_breakpoint(start);
        // `end > start` inserts after `lo`, leaving it valid; an empty
        // interval reserves nothing.
        let hi = self.ensure_breakpoint(start + duration).max(lo);
        for (t, f) in &mut self.points[lo..hi] {
            *f -= procs;
            debug_assert!(*f >= 0, "over-reserved profile at t={t}: {f}");
        }
    }

    /// The index of the breakpoint at `t`, inserted (carrying the free
    /// count of the segment it splits) if absent.
    fn ensure_breakpoint(&mut self, t: i64) -> usize {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => i,
            Err(0) => {
                // Before profile start: extend backwards with the same free
                // count (callers only reserve from `now` on, so this is a
                // defensive path).
                let f = self.points[0].1;
                self.points.insert(0, (t, f));
                0
            }
            Err(i) => {
                let f = self.points[i - 1].1;
                self.points.insert(i, (t, f));
                i
            }
        }
    }

    /// The breakpoints, for inspection in tests.
    pub fn points(&self) -> &[(i64, i64)] {
        &self.points
    }

    /// Capacity of the breakpoint buffer (scratch-reuse accounting).
    pub fn capacity(&self) -> usize {
        self.points.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> Profile {
        // now=0, 2 free; +4 at t=100; +2 at t=50 -> [(0,2),(50,4),(100,8)]
        Profile::new(Time(0), 2, &[(Time(100), 4), (Time(50), 2)])
    }

    #[test]
    fn construction_accumulates_releases() {
        let p = profile();
        assert_eq!(p.points(), &[(0, 2), (50, 4), (100, 8)]);
    }

    #[test]
    fn releases_at_same_instant_merge() {
        let p = Profile::new(Time(0), 0, &[(Time(10), 1), (Time(10), 2)]);
        assert_eq!(p.points(), &[(0, 0), (10, 3)]);
    }

    #[test]
    fn past_releases_count_as_immediate() {
        let p = Profile::new(Time(100), 1, &[(Time(50), 3)]);
        assert_eq!(p.points(), &[(100, 4)]);
    }

    #[test]
    fn free_at_steps() {
        let p = profile();
        assert_eq!(p.free_at(0), 2);
        assert_eq!(p.free_at(49), 2);
        assert_eq!(p.free_at(50), 4);
        assert_eq!(p.free_at(1_000_000), 8);
        assert_eq!(p.free_at(-10), 2); // clamped
    }

    #[test]
    fn earliest_start_immediate_fit() {
        let p = profile();
        assert_eq!(p.earliest_start(0, 2, 1000), 0);
    }

    #[test]
    fn earliest_start_waits_for_capacity() {
        let p = profile();
        assert_eq!(p.earliest_start(0, 3, 10), 50);
        assert_eq!(p.earliest_start(0, 8, 10), 100);
    }

    #[test]
    fn earliest_start_respects_from() {
        let p = profile();
        assert_eq!(p.earliest_start(70, 3, 10), 70);
    }

    #[test]
    fn earliest_start_from_strictly_between_breakpoints() {
        let p = profile();
        // `from` inside [0,50) with too few free: the next breakpoint.
        assert_eq!(p.earliest_start(20, 3, 10), 50);
        // `from` inside [50,100) with too few free: the one after.
        assert_eq!(p.earliest_start(60, 5, 10), 100);
        // `from` inside a segment that fits: `from` itself.
        assert_eq!(p.earliest_start(60, 4, 30), 60);
    }

    #[test]
    fn window_ending_on_a_breakpoint_does_not_check_it() {
        // 4 free on [0,50), none on [50,100), 4 from 100 on.
        let mut p = Profile::new(Time(0), 4, &[]);
        p.reserve(50, 50, 4);
        assert_eq!(p.points(), &[(0, 4), (50, 0), (100, 4)]);
        assert_eq!(p.earliest_start(0, 4, 50), 0);
        assert_eq!(p.earliest_start(0, 4, 51), 100);
        assert_eq!(p.earliest_start(10, 4, 40), 10);
        assert_eq!(p.earliest_start(10, 4, 41), 100);
    }

    #[test]
    fn dip_mid_window_restarts_the_candidate() {
        // 4 free except a dip to 1 on [30,40).
        let mut p = Profile::new(Time(0), 4, &[]);
        p.reserve(30, 10, 3);
        assert_eq!(p.points(), &[(0, 4), (30, 1), (40, 4)]);
        assert_eq!(p.earliest_start(0, 2, 50), 40);
        assert_eq!(p.earliest_start(0, 2, 30), 0);
        // Two dips: the candidate restarts after each.
        p.reserve(60, 10, 3);
        assert_eq!(p.earliest_start(0, 2, 25), 0);
        assert_eq!(p.earliest_start(0, 2, 31), 70);
        assert_eq!(p.earliest_start(0, 2, 20), 0);
        assert_eq!(p.earliest_start(15, 2, 20), 40);
    }

    #[test]
    fn unbounded_last_segment_hosts_any_duration() {
        let p = profile();
        assert_eq!(p.earliest_start(0, 8, 1_000_000), 100);
        assert_eq!(p.earliest_start(0, 5, i64::MAX / 2), 100);
        // `from` past the last breakpoint.
        assert_eq!(p.earliest_start(250, 8, 10), 250);
    }

    #[test]
    fn horizon_fallback_when_nothing_fits() {
        // 9 procs never fit the 8-proc profile: degrade to the horizon,
        // the last breakpoint or `from` if that is later.
        let p = profile();
        assert_eq!(p.earliest_start(0, 9, 10), 100);
        assert_eq!(p.earliest_start(70, 9, 10), 100);
        assert_eq!(p.earliest_start(150, 9, 10), 150);
        // A window that fits before the horizon is still found first.
        let mut q = Profile::new(Time(0), 4, &[]);
        q.reserve(50, 50, 4);
        assert_eq!(q.earliest_start(0, 5, 10), 100);
        assert_eq!(q.earliest_start(0, 4, 50), 0);
    }

    #[test]
    fn reserve_carves_capacity() {
        let mut p = profile();
        p.reserve(0, 50, 2); // consume both free procs until t=50
        assert_eq!(p.free_at(0), 0);
        assert_eq!(p.free_at(49), 0);
        assert_eq!(p.free_at(50), 4);
        // Now a 1-proc job must wait until 50.
        assert_eq!(p.earliest_start(0, 1, 10), 50);
    }

    #[test]
    fn reserve_inserts_breakpoints() {
        let mut p = profile();
        p.reserve(10, 20, 1); // [10,30)
        assert_eq!(p.free_at(9), 2);
        assert_eq!(p.free_at(10), 1);
        assert_eq!(p.free_at(29), 1);
        assert_eq!(p.free_at(30), 2);
    }

    #[test]
    fn reservation_spanning_releases() {
        let mut p = profile();
        // 4 procs for [50, 150): uses the t=50 capacity of 4 entirely,
        // leaving 4 at t=100.
        assert_eq!(p.earliest_start(0, 4, 100), 50);
        p.reserve(50, 100, 4);
        assert_eq!(p.free_at(50), 0);
        assert_eq!(p.free_at(100), 4);
        assert_eq!(p.free_at(150), 8);
    }

    #[test]
    fn sequential_reservations_stack() {
        let mut p = Profile::new(Time(0), 4, &[]);
        let s1 = p.earliest_start(0, 3, 100);
        p.reserve(s1, 100, 3);
        let s2 = p.earliest_start(0, 3, 100);
        assert_eq!(s1, 0);
        assert_eq!(s2, 100); // must queue behind the first
    }

    #[test]
    fn release_set_aggregates_and_sorts() {
        let mut s = ReleaseSet::new();
        s.add(100, 4);
        s.add(50, 2);
        s.add(100, 3);
        assert_eq!(
            s.points(),
            &[
                ReleasePoint {
                    time: 50,
                    procs: 2,
                    jobs: 1,
                    uniform: 0
                },
                ReleasePoint {
                    time: 100,
                    procs: 7,
                    jobs: 2,
                    uniform: 0
                },
            ]
        );
        let total: u64 = s.points().iter().map(|p| p.procs as u64).sum();
        assert_eq!(total, 9);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn release_set_remove_and_shift() {
        let mut s = ReleaseSet::new();
        s.add(100, 4);
        s.add(100, 3);
        s.remove(100, 4);
        assert_eq!(
            s.points(),
            &[ReleasePoint {
                time: 100,
                procs: 3,
                jobs: 1,
                uniform: 0
            }]
        );
        s.shift(100, 250, 3);
        assert_eq!(
            s.points(),
            &[ReleasePoint {
                time: 250,
                procs: 3,
                jobs: 1,
                uniform: 0
            }]
        );
        s.remove(250, 3);
        assert!(s.is_empty());
    }

    #[test]
    fn rebuild_from_matches_from_scratch_construction() {
        let mut set = ReleaseSet::new();
        set.add(100, 4);
        set.add(50, 2);
        set.add(100, 2);
        let mut incremental = Profile::empty();
        incremental.rebuild_from(Time(0), 2, &set);
        let scratch = Profile::new(Time(0), 2, &[(Time(100), 4), (Time(50), 2), (Time(100), 2)]);
        assert_eq!(incremental, scratch);
    }

    #[test]
    fn rebuild_from_folds_past_releases_into_now() {
        let mut set = ReleaseSet::new();
        set.add(50, 3);
        set.add(200, 1);
        let mut incremental = Profile::empty();
        incremental.rebuild_from(Time(100), 1, &set);
        assert_eq!(incremental.points(), &[(100, 4), (200, 5)]);
        assert_eq!(
            incremental,
            Profile::new(Time(100), 1, &[(Time(50), 3), (Time(200), 1)])
        );
    }

    #[test]
    fn rebuild_reuses_capacity() {
        let mut set = ReleaseSet::new();
        for t in 0..32 {
            set.add(100 + t, 1);
        }
        let mut p = Profile::empty();
        p.rebuild_from(Time(0), 4, &set);
        let cap = {
            p.rebuild_from(Time(0), 4, &set);
            p.points.capacity()
        };
        for _ in 0..100 {
            p.rebuild_from(Time(1), 2, &set);
        }
        assert_eq!(p.points.capacity(), cap, "rebuild must not reallocate");
    }
}
