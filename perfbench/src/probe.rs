//! Per-layer measurement from outside the program: timers around calls
//! into each layer's public functions, and delegating wrappers at its
//! trait seams (`Controller`, `WorkloadGen`, `EventSubscriber`). Nothing
//! here adds a timer inside the program.

use crate::stats::timed;
use insitu::{RunResult, Runtime};
use mdsim::workload::{StepWork, WorkloadGen, WorkloadSpec};
use seesaw::{Allocation, Controller, SyncObservation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What the layer timers and counters recorded.
#[derive(Debug, Default)]
pub struct Layers {
    /// Duration of every timed call, nanoseconds, by span name.
    pub spans: BTreeMap<&'static str, Vec<u64>>,
    /// Accumulated counts (and nanoseconds of very frequent calls).
    pub tallies: BTreeMap<&'static str, u64>,
    /// Trace events seen by the counting subscriber, by event tag.
    pub events: BTreeMap<&'static str, u64>,
    /// Time covered by top-level layer timers.
    pub attributed_ns: u64,
}

impl Layers {
    /// Record one timed call.
    pub fn span(&mut self, name: &'static str, ns: u64) {
        self.spans.entry(name).or_default().push(ns);
    }

    /// Add to a tally.
    pub fn tally(&mut self, name: &'static str, n: u64) {
        *self.tallies.entry(name).or_default() += n;
    }

    /// Samples of one span, nanoseconds (empty if never timed).
    pub fn samples(&self, name: &str) -> &[u64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    /// Value of one tally (0 if never touched).
    pub fn tallied(&self, name: &str) -> u64 {
        self.tallies.get(name).copied().unwrap_or(0)
    }
}

/// One run's recordings.
#[derive(Debug, Default)]
pub struct Recorder {
    layers: Mutex<Layers>,
    /// Time spent in wrapped children of `Runtime::step_sync` so far
    /// (a statistic: relaxed ordering publishes nothing else).
    child_ns: AtomicU64,
}

impl Recorder {
    fn child(&self, ns: u64) {
        self.child_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A shared handle on one run's [`Recorder`]; wrappers moved into the
/// program keep a clone.
pub type Probe = Arc<Recorder>;

/// Lock a probe's layers (a poisoned lock means a wrapper panicked
/// mid-record, which the run already reports as a failed operation).
pub fn lock(probe: &Probe) -> MutexGuard<'_, Layers> {
    probe.layers.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Time a top-level layer call: recorded as a span and counted as
/// attributed time.
pub fn top<T>(probe: &Probe, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (out, ns) = timed(f);
    let mut l = lock(probe);
    l.span(name, ns);
    l.attributed_ns += ns;
    out
}

/// Drive a runtime exactly as `Runtime::run` does (step, compact, repeat,
/// finish), timing each call into the insitu layer. `walk_self` is each
/// `step_sync` minus the time its wrapped children reported.
pub fn drive(mut rt: Runtime, probe: Option<&Probe>) -> RunResult {
    let Some(p) = probe else {
        return rt.run();
    };
    loop {
        let child0 = p.child_ns.load(Ordering::Relaxed);
        let (more, ns) = timed(|| rt.step_sync());
        let children = p.child_ns.load(Ordering::Relaxed) - child0;
        let mut l = lock(p);
        l.attributed_ns += ns;
        if !more {
            break;
        }
        let self_ns = ns.saturating_sub(children);
        l.span("insitu.step_sync", ns);
        l.span("insitu.walk_self", self_ns);
        drop(l);
        top(p, "insitu.compact", || rt.compact_history());
    }
    top(p, "insitu.finish", || rt.finish())
}

/// A delegating controller that times `on_sync` (the core layer).
pub struct TimedController {
    inner: Box<dyn Controller>,
    probe: Probe,
}

impl TimedController {
    /// Wrap `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn Controller>, probe: Probe) -> Self {
        TimedController { inner, probe }
    }
}

impl Controller for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        let (alloc, ns) = timed(|| self.inner.on_sync(obs));
        self.probe.child(ns);
        let mut l = lock(&self.probe);
        l.span("core.on_sync", ns);
        l.tally("core.decisions", u64::from(alloc.is_some()));
        alloc
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn budget_w(&self) -> Option<f64> {
        self.inner.budget_w()
    }

    fn set_budget_w(&mut self, budget_w: f64) {
        self.inner.set_budget_w(budget_w);
    }

    fn attach_tracer(&mut self, tracer: obs::Tracer) {
        self.inner.attach_tracer(tracer);
    }
}

/// A delegating workload generator that times `step_work` (the mdsim
/// layer when the inner generator runs the real engine).
pub struct TimedWorkload {
    inner: Box<dyn WorkloadGen>,
    probe: Probe,
}

impl TimedWorkload {
    /// Wrap `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn WorkloadGen>, probe: Probe) -> Self {
        TimedWorkload { inner, probe }
    }
}

impl WorkloadGen for TimedWorkload {
    fn spec(&self) -> &WorkloadSpec {
        self.inner.spec()
    }

    fn step_work(&mut self, step: u64) -> StepWork {
        let (work, ns) = timed(|| self.inner.step_work(step));
        self.probe.child(ns);
        lock(&self.probe).span("mdsim.step_work", ns);
        work
    }
}

/// A delegating subscriber that times the `on_event` calls of the inner
/// one (the live audit fold), accumulating nanoseconds into `spent`.
///
/// A clock read costs about as much as a tenth of a fold, so one event in
/// [`TimedSubscriber::STRIDE`], picked at random, is timed and its time
/// scaled up: an unbiased estimate at a fraction of the timer cost. The
/// cost of the timer itself, measured once on an empty call, is taken off
/// each sample. Atomics, not the probe's lock: this runs once per trace
/// event.
pub struct TimedSubscriber<S> {
    inner: S,
    spent: Arc<AtomicU64>,
    probe: Probe,
    rng: u64,
    clock_ns: u64,
}

impl<S: obs::EventSubscriber> TimedSubscriber<S> {
    /// One timed event in this many, on average.
    pub const STRIDE: u64 = 8;

    /// Wrap `inner`, accumulating its estimated time into `spent`.
    pub fn new(inner: S, spent: Arc<AtomicU64>, probe: Probe) -> Self {
        let mut empty: Vec<u64> = (0..1001).map(|_| timed(|| std::hint::black_box(())).1).collect();
        empty.sort_unstable();
        let clock_ns = empty[empty.len() / 2];
        TimedSubscriber { inner, spent, probe, rng: 0x2545_F491_4F6C_DD1D, clock_ns }
    }
}

impl<S: obs::EventSubscriber> obs::EventSubscriber for TimedSubscriber<S> {
    fn on_event(&mut self, ev: &obs::TraceEvent) {
        // xorshift64: which events are timed carries no pattern of the trace.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if !self.rng.is_multiple_of(Self::STRIDE) {
            self.inner.on_event(ev);
            return;
        }
        let ((), ns) = timed(|| self.inner.on_event(ev));
        let ns = ns.saturating_sub(self.clock_ns);
        self.spent.fetch_add(ns * Self::STRIDE, Ordering::Relaxed);
        self.probe.child(ns * Self::STRIDE);
    }
}

/// Counts every trace event by tag (exact per-layer work counts).
pub struct CountingSubscriber(pub Probe);

impl obs::EventSubscriber for CountingSubscriber {
    fn on_event(&mut self, ev: &obs::TraceEvent) {
        *lock(&self.0).events.entry(ev.ev.tag()).or_default() += 1;
    }
}
