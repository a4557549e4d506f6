//! Probes at the crowd boundary. A timing [`SharedOracle`] wraps
//! `SharedGroundTruth`, and a timing [`BackendFactory`]/[`CrowdBackend`]
//! wraps `SimFactory`/`Platform`. Each records its calls' start, end,
//! thread and batch size; these records are the benchmark's only source
//! of publish rounds, publish latency, shard skew and crowd time. Neither
//! wrapper changes an answer.

use crowdjoin::sim::{
    Platform, PlatformConfig, PlatformStats, ResolvedTask, TaskSpec, VirtualTime,
};
use crowdjoin::{
    BackendFactory, CrowdBackend, Label, Pair, ShardContext, SharedGroundTruth, SharedOracle,
    SimFactory, TimeSource,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a recorded crowd call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An oracle batch: the publish and its answer delivery in one call.
    Ask,
    /// A backend `post_hits`: a publish.
    Post,
    /// A backend `poll_completions` that returned answers: a delivery.
    Deliver,
    /// A `poll_completions` that returned nothing (traced runs only).
    Poll,
    /// Any other backend method (traced runs only).
    Query,
}

/// One crowd call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kind: Kind,
    /// Shard incarnation of a backend call; `None` for oracle calls, whose
    /// shard is found afterwards from `first`.
    pub shard: Option<usize>,
    pub thread: u32,
    pub start: Instant,
    pub end: Instant,
    /// Pairs posted, asked or delivered.
    pub size: usize,
    /// First pair of an oracle batch.
    pub first: Option<Pair>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local!(static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed));

/// A small dense id of the calling thread.
pub fn thread_index() -> u32 {
    THREAD.with(|t| *t)
}

/// Every crowd call of one job.
#[derive(Debug, Default)]
pub struct CrowdLog {
    calls: Mutex<Vec<Call>>,
}

impl CrowdLog {
    fn extend(&self, calls: impl IntoIterator<Item = Call>) {
        // Called from `Drop` too, so a poisoned lock drops the records
        // instead of panicking; the job's checks then fail on the counts.
        if let Ok(mut all) = self.calls.lock() {
            all.extend(calls);
        }
    }

    /// The calls, by start time.
    pub fn take(&self) -> Vec<Call> {
        let mut calls = std::mem::take(&mut *self.calls.lock().expect("crowd log poisoned"));
        calls.sort_by_key(|c| c.start);
        calls
    }
}

/// Timing wrapper around the perfect synchronous oracle.
pub struct TimedOracle<'a> {
    inner: SharedGroundTruth<'a>,
    log: &'a CrowdLog,
}

impl<'a> TimedOracle<'a> {
    pub fn new(inner: SharedGroundTruth<'a>, log: &'a CrowdLog) -> Self {
        Self { inner, log }
    }
}

impl SharedOracle for TimedOracle<'_> {
    fn answer_batch(&self, pairs: &[Pair]) -> Vec<Label> {
        let start = Instant::now();
        let answers = self.inner.answer_batch(pairs);
        let end = Instant::now();
        self.log.extend([Call {
            kind: Kind::Ask,
            shard: None,
            thread: thread_index(),
            start,
            end,
            size: pairs.len(),
            first: pairs.first().copied(),
        }]);
        answers
    }

    fn questions_asked(&self) -> u64 {
        self.inner.questions_asked()
    }
}

/// Timing wrapper around the simulator factory.
#[derive(Debug)]
pub struct TimedFactory {
    inner: SimFactory,
    log: Arc<CrowdLog>,
    traced: bool,
}

impl TimedFactory {
    pub fn new(log: Arc<CrowdLog>, traced: bool) -> Self {
        Self { inner: SimFactory::new(), log, traced }
    }
}

impl BackendFactory for TimedFactory {
    type Backend = TimedBackend;

    fn create(&self, cfg: &PlatformConfig, shard: &ShardContext) -> TimedBackend {
        TimedBackend {
            inner: self.inner.create(cfg, shard),
            shard: shard.report_index,
            traced: self.traced,
            calls: RefCell::new(Vec::new()),
            log: Arc::clone(&self.log),
        }
    }

    fn time_source(&self) -> &dyn TimeSource {
        self.inner.time_source()
    }

    fn deterministic_replay(&self) -> bool {
        self.inner.deterministic_replay()
    }
}

/// Timing wrapper around one shard's simulated platform. Calls collect
/// locally (a backend lives on one thread at a time) and move to the
/// shared log when the engine drops the backend.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Platform,
    shard: usize,
    traced: bool,
    calls: RefCell<Vec<Call>>,
    log: Arc<CrowdLog>,
}

impl TimedBackend {
    fn push(&self, kind: Kind, start: Instant, size: usize) {
        let end = Instant::now();
        let thread = thread_index();
        let call = Call { kind, shard: Some(self.shard), thread, start, end, size, first: None };
        self.calls.borrow_mut().push(call);
    }

    /// Runs a side-effect-free backend query, timed only when traced.
    fn query<T>(&self, f: impl FnOnce(&Platform) -> T) -> T {
        if !self.traced {
            return f(&self.inner);
        }
        let start = Instant::now();
        let out = f(&self.inner);
        self.push(Kind::Query, start, 0);
        out
    }
}

impl Drop for TimedBackend {
    fn drop(&mut self) {
        self.log.extend(self.calls.get_mut().drain(..));
    }
}

impl CrowdBackend for TimedBackend {
    fn post_hits(&mut self, tasks: Vec<TaskSpec>) {
        let start = Instant::now();
        let size = tasks.len();
        self.inner.post_hits(tasks);
        self.push(Kind::Post, start, size);
    }

    fn poll_completions(&mut self, until: VirtualTime) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        let start = Instant::now();
        let out = self.inner.poll_completions(until);
        match &out {
            Some((_, resolved)) => self.push(Kind::Deliver, start, resolved.len()),
            None if self.traced => self.push(Kind::Poll, start, 0),
            None => {}
        }
        out
    }

    fn next_event_time(&self) -> Option<VirtualTime> {
        self.query(Platform::next_event_time)
    }

    fn now(&self) -> VirtualTime {
        self.query(Platform::now)
    }

    fn num_unresolved_pairs(&self) -> usize {
        self.query(Platform::num_unresolved_pairs)
    }

    fn batch_size(&self) -> usize {
        self.query(Platform::batch_size)
    }

    fn stats(&self) -> PlatformStats {
        self.query(Platform::stats)
    }

    fn warp_to(&mut self, t: VirtualTime) {
        let start = Instant::now();
        self.inner.warp_to(t);
        if self.traced {
            self.push(Kind::Query, start, 0);
        }
    }

    fn absorb_replayed_cost(&mut self, cents: u64) {
        CrowdBackend::absorb_replayed_cost(&mut self.inner, cents);
    }
}
