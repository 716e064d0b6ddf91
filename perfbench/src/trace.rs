//! Spans and the traced simulation cell.
//!
//! Every unit of work records *coarse* spans (workload generation, SWF
//! loads, cache cell requests, experiment functions, serve round trips)
//! with two clock reads each. The traced unit additionally runs its
//! cells through [`traced_cell`], which wraps the simulator's public
//! policy traits — [`Scheduler`], [`RuntimePredictor`],
//! [`CorrectionPolicy`] and [`SimObserver`] — in timers and hands them
//! to `simulate_in`. Those per-call timings are summed per cell into a
//! [`Layers`] record (millions of calls would not fit as spans); each
//! cell span carries its sums, so the engine's self time is the cell
//! span minus its children. A timed call costs two clock reads, which
//! is as much as a learner call itself; [`ClockCost`] measures that
//! cost so [`Layers::net`] can take it out again.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use predictsim_experiments::triple::{HeuristicTriple, Variant};
use predictsim_sim::scheduler::EasyScheduler;
use predictsim_sim::{
    ClusterSpec, CorrectionPolicy, Job, JobId, NullObserver, RuntimePredictor, Scheduler,
    SchedulerContext, SimArena, SimConfig, SimError, SimEvent, SimObserver, SimResult, SystemView,
};

use crate::stats::Histogram;

/// The process-wide time origin of every span.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the run's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A small dense id for the calling thread (pool workers are scoped
/// threads, so `ThreadId`s are not reused but are not numbers either).
pub fn thread_ix() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static IX: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    IX.with(|ix| *ix)
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `cache.run_cell` or `swf.load`.
    pub name: &'static str,
    /// Cell or request identity (triple @ workload, or request number).
    pub key: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Recording thread.
    pub thread: u32,
    /// Child-layer sums, for traced cells.
    pub layers: Option<Layers>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// The in-memory span log of one unit of work.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
}

impl Recorder {
    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, key: impl Into<String>, parent: Option<u64>) -> Span {
        Span {
            id: self.next.fetch_add(1, Ordering::Relaxed) + 1,
            parent,
            name,
            key: key.into(),
            start: now_ns(),
            end: 0,
            thread: thread_ix(),
            layers: None,
        }
    }

    /// Stamps the end of `span` and stores it; returns its duration in
    /// seconds.
    pub fn close(&self, mut span: Span) -> f64 {
        span.end = now_ns();
        let secs = span.secs();
        self.spans.lock().expect("span log lock").push(span);
        secs
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        key: impl Into<String>,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, key, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log lock").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Sum of the durations of spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span log lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }
}

/// Writes `spans` as JSON lines: name, start, end, parent, key, thread,
/// and for traced cells the call counts and the derived core and
/// engine self times.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let cost = clock_cost();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{},\"thread\":{}",
            s.id,
            parent,
            s.name,
            serde_json::to_string(&s.key).expect("a string serializes"),
            s.start,
            s.end,
            s.thread
        )?;
        if let Some(l) = &s.layers {
            write!(
                out,
                ",\"predict_calls\":{},\"observe_calls\":{},\"correct_calls\":{},\"passes\":{},\"events\":{},\"core_s\":{},\"engine_self_s\":{}",
                l.predict.calls,
                l.observe.calls,
                l.correct.calls,
                l.sched.iter().map(|k| k.timer.calls).sum::<u64>(),
                l.events,
                l.core_s(&cost),
                l.engine_self_s(&cost),
            )?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

/// Scheduler kinds the per-layer metrics distinguish.
pub const SCHED_KINDS: [&str; 4] = ["easy", "easy-sjbf", "conservative", "fcfs"];

/// Every how many calls a wrapper reads the clock. Timing every call
/// would cost as much as the learner's calls themselves and would
/// perturb the engine around them; the other calls run untimed and are
/// only counted.
pub const SAMPLE_EVERY: u64 = 8;

/// Calls into one layer: all of them counted, every
/// [`SAMPLE_EVERY`]th one timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Time measured over the timed calls, ns.
    pub ns: u64,
}

impl Timer {
    /// Whether the next call is one to time.
    fn due(&self) -> bool {
        self.calls.is_multiple_of(SAMPLE_EVERY)
    }

    /// Runs `f`, timing it when due; returns the measured ns if timed.
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> (R, Option<u64>) {
        let timed = self.due();
        self.calls += 1;
        if !timed {
            return (f(), None);
        }
        let t0 = Instant::now();
        let out = f();
        let ns = elapsed_ns(t0);
        self.sampled += 1;
        self.ns += ns;
        (out, Some(ns))
    }

    fn merge(&mut self, other: &Timer) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.ns += other.ns;
    }

    /// Estimated time of all calls, seconds: the timed calls' mean,
    /// less the clock read inside each interval, times the call count.
    pub fn secs(&self, cost: &ClockCost) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let mean = (self.ns as f64 / self.sampled as f64 - cost.inside_ns).max(0.0);
        mean * self.calls as f64 / 1e9
    }
}

/// One scheduler kind's pass accounting.
#[derive(Debug, Clone, Default)]
pub struct SchedTotals {
    /// Passes, and the timing of the sampled ones.
    pub timer: Timer,
    /// Passes that started at least one job.
    pub useful: u64,
    /// Durations of the timed passes.
    pub hist: Histogram,
    /// Passes that fell back to the from-scratch computation (EASY).
    pub slow: u64,
}

/// Per-layer sums over traced cells.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Cells simulated.
    pub cells: u64,
    /// Jobs in those cells.
    pub jobs: u64,
    /// Engine state changes (observer events).
    pub events: u64,
    /// `RuntimePredictor::predict`.
    pub predict: Timer,
    /// `RuntimePredictor::observe`.
    pub observe: Timer,
    /// `CorrectionPolicy::correct`.
    pub correct: Timer,
    /// Total cell time.
    pub cell_ns: u64,
    /// Per scheduler kind, indexed like [`SCHED_KINDS`].
    pub sched: [SchedTotals; 4],
}

impl Layers {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Layers) {
        self.cells += other.cells;
        self.jobs += other.jobs;
        self.events += other.events;
        self.predict.merge(&other.predict);
        self.observe.merge(&other.observe);
        self.correct.merge(&other.correct);
        self.cell_ns += other.cell_ns;
        for (mine, theirs) in self.sched.iter_mut().zip(&other.sched) {
            mine.timer.merge(&theirs.timer);
            mine.useful += theirs.useful;
            mine.slow += theirs.slow;
            mine.hist.merge(&theirs.hist);
        }
    }

    fn timers(&self) -> impl Iterator<Item = &Timer> {
        [&self.predict, &self.observe, &self.correct]
            .into_iter()
            .chain(self.sched.iter().map(|k| &k.timer))
    }

    /// Calls that were timed (each read the clock twice).
    pub fn sampled_calls(&self) -> u64 {
        self.timers().map(|t| t.sampled).sum()
    }

    /// Time in the learner and corrections (`core`), seconds.
    pub fn core_s(&self, cost: &ClockCost) -> f64 {
        self.predict.secs(cost) + self.observe.secs(cost) + self.correct.secs(cost)
    }

    /// The cells' time less the clock reads, seconds.
    pub fn cell_s(&self, cost: &ClockCost) -> f64 {
        let clock = self.sampled_calls() as f64 * (cost.inside_ns + cost.outside_ns);
        (self.cell_ns as f64 - clock).max(0.0) / 1e9
    }

    /// The engine's self time, seconds: the cells less the clock reads
    /// and every wrapped child layer.
    pub fn engine_self_s(&self, cost: &ClockCost) -> f64 {
        let children: f64 = self.timers().map(|t| t.secs(cost)).sum();
        (self.cell_s(cost) - children).max(0.0)
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// What timing one call costs: the clock-read time that lands inside
/// the measured interval, and the rest, which lands in the caller.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// Mean measured duration of an empty timed call, ns.
    pub inside_ns: f64,
    /// Mean remaining wall time per empty timed call, ns.
    pub outside_ns: f64,
}

/// Measures [`ClockCost`] once per process: the median over batches of
/// empty timed calls.
pub fn clock_cost() -> ClockCost {
    static COST: OnceLock<ClockCost> = OnceLock::new();
    *COST.get_or_init(|| {
        const CALLS: u32 = 200_000;
        let mut inside = Vec::new();
        let mut total = Vec::new();
        for _ in 0..7 {
            let mut measured = 0u64;
            let t = Instant::now();
            for i in 0..CALLS {
                let t0 = Instant::now();
                std::hint::black_box(i);
                measured += elapsed_ns(t0);
            }
            total.push(elapsed_ns(t) as f64 / CALLS as f64);
            inside.push(measured as f64 / CALLS as f64);
        }
        let inside_ns = crate::stats::median(&inside);
        ClockCost {
            inside_ns,
            outside_ns: (crate::stats::median(&total) - inside_ns).max(0.0),
        }
    })
}

/// The scheduler a variant builds, kept concrete for EASY so its public
/// pass statistics (`slow_passes`) can be read back.
enum Built {
    Easy(EasyScheduler),
    Other(Box<dyn Scheduler + Send>),
}

struct TimedScheduler {
    inner: Built,
    totals: SchedTotals,
}

impl Scheduler for TimedScheduler {
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, starts: &mut Vec<JobId>) {
        let inner = &mut self.inner;
        let ((), ns) = self.totals.timer.run(|| match inner {
            Built::Easy(s) => s.schedule_into(ctx, starts),
            Built::Other(s) => s.schedule_into(ctx, starts),
        });
        self.totals.useful += u64::from(!starts.is_empty());
        if let Some(ns) = ns {
            self.totals.hist.record(ns);
        }
    }

    fn name(&self) -> String {
        match &self.inner {
            Built::Easy(s) => s.name(),
            Built::Other(s) => s.name(),
        }
    }
}

struct TimedPredictor {
    inner: Box<dyn RuntimePredictor + Send>,
    predict: Timer,
    observe: Timer,
}

impl RuntimePredictor for TimedPredictor {
    fn predict(&mut self, job: &Job, system: &SystemView<'_>) -> f64 {
        let inner = &mut self.inner;
        self.predict.run(|| inner.predict(job, system)).0
    }

    fn observe(&mut self, job: &Job, actual_run: i64, system: &SystemView<'_>) {
        let inner = &mut self.inner;
        self.observe.run(|| inner.observe(job, actual_run, system));
    }

    fn wants_user_running_index(&self) -> bool {
        self.inner.wants_user_running_index()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

struct TimedCorrection {
    inner: Box<dyn CorrectionPolicy + Send + Sync>,
    timer: Cell<Timer>,
}

impl CorrectionPolicy for TimedCorrection {
    fn correct(&self, job: &Job, elapsed: i64, expired: i64, so_far: u32) -> f64 {
        let mut timer = self.timer.get();
        let (p, _) = timer.run(|| self.inner.correct(job, elapsed, expired, so_far));
        self.timer.set(timer);
        p
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Counts events; the null observer's time is not worth two clock
/// reads per event, so it stays in the engine's self time.
struct CountingObserver {
    inner: NullObserver,
    events: u64,
}

impl SimObserver for CountingObserver {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self.inner.on_event(event);
        self.events += 1;
    }

    fn keep_running(&self) -> bool {
        self.inner.keep_running()
    }
}

thread_local! {
    /// Each pool worker reuses one engine arena across its cells, as the
    /// program's own workers do.
    static ARENA: RefCell<SimArena> = RefCell::new(SimArena::new());
}

/// Simulates `triple` on `jobs` with every policy trait wrapped in a
/// timer, returning the result and the cell's layer sums.
pub fn traced_cell(
    jobs: &[Job],
    cluster: ClusterSpec,
    triple: &HeuristicTriple,
) -> (Result<SimResult, SimError>, Layers) {
    let built = match triple.variant {
        Variant::Easy => Built::Easy(EasyScheduler::new()),
        Variant::EasySjbf => Built::Easy(EasyScheduler::sjbf()),
        other => Built::Other(other.build()),
    };
    let kind = SCHED_KINDS
        .iter()
        .position(|k| *k == triple.variant.name())
        .expect("every variant is a known scheduler kind");
    let mut scheduler = TimedScheduler {
        inner: built,
        totals: SchedTotals::default(),
    };
    let mut predictor = TimedPredictor {
        inner: triple.prediction.build(),
        predict: Timer::default(),
        observe: Timer::default(),
    };
    let correction = triple.correction.map(|c| TimedCorrection {
        inner: c.build(),
        timer: Cell::new(Timer::default()),
    });
    let mut observer = CountingObserver {
        inner: NullObserver,
        events: 0,
    };
    let t0 = Instant::now();
    let result = ARENA.with(|arena| {
        predictsim_sim::simulate_in(
            &mut arena.borrow_mut(),
            jobs,
            SimConfig { cluster },
            &mut scheduler,
            &mut predictor,
            correction.as_ref().map(|c| c as &dyn CorrectionPolicy),
            &mut observer,
        )
    });
    let cell_ns = elapsed_ns(t0);
    let mut totals = scheduler.totals;
    if let Built::Easy(s) = &scheduler.inner {
        totals.slow = s.stats().slow_passes;
    }
    let mut layers = Layers {
        cells: 1,
        jobs: jobs.len() as u64,
        events: observer.events,
        predict: predictor.predict,
        observe: predictor.observe,
        correct: correction.map_or(Timer::default(), |c| c.timer.get()),
        cell_ns,
        ..Layers::default()
    };
    layers.sched[kind] = totals;
    (result, layers)
}
