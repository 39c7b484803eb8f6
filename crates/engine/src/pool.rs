//! Work-stealing worker pool fanning fit/score/stream jobs across OS threads.
//!
//! The pool owns `n` worker threads. **Batch** jobs (fit/score) go through a
//! work-stealing scheduler: submission pushes every task into a shared
//! *injector* queue, each woken worker grabs a chunk into its own deque,
//! executes from the front of that deque, and — once its deque and the
//! injector are empty — *steals* single tasks from the back of a sibling's
//! deque. A skewed batch (one huge series among many tiny ones) therefore
//! keeps every worker busy until the last task finishes, where the previous
//! round-robin dispatch idled all but the unlucky shard. Results are
//! reassembled in submission order, and since every task is a pure function
//! of its inputs, *which* worker runs it cannot change a single output bit:
//! pool output stays **identical** to a sequential run.
//!
//! Per-worker `executed`/`stolen` counters ([`WorkerPool::worker_stats`])
//! expose the scheduler's balance; the serving layer exports them through
//! `GET /metrics`.
//!
//! Streaming sessions are *pinned*: a session id hashes to one shard and all
//! its pushes execute there in order, so each per-model
//! [`StreamingScorer`] lives on exactly one thread and needs no locking.
//! Session work and batch work interleave on a worker at job granularity —
//! a worker drains the batch it was woken for before returning to its
//! channel, exactly as it previously drained its round-robin share.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use s2g_adapt::{AdaptAction, AdaptConfig, AdaptiveScorer, DriftStats};
use s2g_core::{S2gConfig, Series2Graph, StreamingScorer};
use s2g_obs::{Obs, SpanCtx};
use s2g_timeseries::TimeSeries;

use crate::error::{Error, Result};

/// The pool's late-bound observability hook: empty until the serving layer
/// (or the bench harness) attaches an [`Obs`], after which every worker
/// records queue-wait/execute histograms. A `OnceLock` keeps the
/// unattached fast path at a single atomic load.
type ObsSlot = OnceLock<Arc<Obs>>;

/// A fit request: one series plus its configuration.
pub struct FitJob {
    /// Training series.
    pub series: TimeSeries,
    /// Pipeline configuration.
    pub config: S2gConfig,
}

/// A scoring request: one series scored against one shared model.
pub struct ScoreJob {
    /// The fitted model to score against.
    pub model: Arc<Series2Graph>,
    /// The series to score.
    pub series: TimeSeries,
    /// Query (sliding window) length `ℓq`.
    pub query_length: usize,
}

/// Adaptation bookkeeping one push of an adaptive session produced, as
/// reported by the owning worker. The engine publishes the snapshot (if
/// any) to its registry and store; the rest is telemetry for the caller.
#[derive(Debug)]
pub struct AdaptReport {
    /// Registry name of the model the session adapts (publication target).
    pub model_name: String,
    /// Cumulative accepted decay updates of the session.
    pub updates: u64,
    /// Cumulative successful refits of the session.
    pub refits: u64,
    /// The last policy decision during this push.
    pub action: AdaptAction,
    /// Drift statistics after this push.
    pub drift: DriftStats,
    /// A lineage-stamped adapted snapshot due for publication.
    pub snapshot: Option<Series2Graph>,
}

/// What one stream push emitted: the scored windows plus, for adaptive
/// sessions, the adaptation report.
#[derive(Debug)]
pub struct StreamPush {
    /// Emitted `(window_start, normality)` pairs (global coordinates).
    pub emitted: Vec<(usize, f64)>,
    /// Adaptation bookkeeping; `None` for frozen sessions.
    pub adapt: Option<AdaptReport>,
}

/// How a streaming session scores: frozen against a pinned model copy, or
/// adaptively (see [`AdaptiveScorer`]).
enum WorkerSession {
    Frozen(Box<StreamingScorer>),
    Adaptive {
        scorer: Box<AdaptiveScorer>,
        model_name: String,
    },
}

impl WorkerSession {
    fn consumed(&self) -> usize {
        match self {
            WorkerSession::Frozen(scorer) => scorer.consumed(),
            WorkerSession::Adaptive { scorer, .. } => scorer.consumed(),
        }
    }
}

/// What a batch task computes.
enum Work {
    Fit(FitJob),
    Score(ScoreJob),
}

/// What a batch task produced; [`WorkerPool::fit_batch`] and
/// [`WorkerPool::score_batch`] unwrap it into their typed results.
enum Output {
    // Boxed: a fitted model dwarfs a score profile, and the box costs one
    // allocation per *fit* — noise next to the fit itself.
    Fit(Box<Series2Graph>),
    Score(Vec<f64>),
}

impl Work {
    /// Span / stage-histogram name of this task kind.
    fn kind(&self) -> &'static str {
        match self {
            Work::Fit(_) => "pool.fit",
            Work::Score(_) => "pool.score",
        }
    }

    /// Runs the computation. Pure: the result depends only on the job,
    /// never on the executing worker. The `pool.task.panic` failpoint
    /// fires here, so injected panics unwind exactly like a real compute
    /// panic.
    fn compute(self) -> Result<Output> {
        if let Some(err) = s2g_failpoints::hit("pool.task.panic") {
            // Armed as `error` instead of `panic`: fail the task cleanly.
            return Err(Error::Io(err));
        }
        match self {
            Work::Fit(job) => Series2Graph::fit(&job.series, &job.config)
                .map(|model| Output::Fit(Box::new(model))),
            Work::Score(job) => job
                .model
                .anomaly_scores(&job.series, job.query_length)
                .map(Output::Score),
        }
        .map_err(Error::from)
    }
}

/// One unit of batch work, carrying its submission index and a clone of the
/// batch's reply sender. Tasks are self-contained, so any worker can run
/// any task — the precondition for stealing.
struct BatchTask {
    idx: usize,
    work: Work,
    reply: Sender<(usize, Result<Output>)>,
}

impl BatchTask {
    /// Executes the task and sends its `(submission index, result)` reply.
    /// With an [`Obs`] attached it records queue-wait and execute
    /// histograms plus the per-kind stage histogram; when the batch is
    /// traced it opens a span naming the worker. The result bits are
    /// untouched: instrumentation only ever *times* the compute.
    fn execute(self, worker: usize, shared: &BatchShared, obs: Option<&Obs>) {
        let BatchTask { idx, work, reply } = self;
        let kind = work.kind();
        let wait = shared.enqueued.elapsed();
        if let Some(obs) = obs {
            obs.pool_queue_wait.record_duration(wait);
        }
        let span = shared.trace.as_ref().map(|ctx| {
            let mut span = ctx.child(kind);
            span.attr("worker", worker.to_string());
            span.attr("idx", idx.to_string());
            span.attr("queue_wait_ns", wait.as_nanos().to_string());
            span
        });
        let started = Instant::now();
        let result = work.compute();
        if let Some(obs) = obs {
            let execute = started.elapsed();
            obs.pool_execute.record_duration(execute);
            match kind {
                "pool.fit" => obs.fit.record_duration(execute),
                _ => obs.score.record_duration(execute),
            }
        }
        if let Some(span) = span {
            span.finish();
        }
        // The reply goes out only after every histogram and span above is
        // recorded: a caller that has collected its batch — and anything
        // sequenced after it, like a `/metrics` scrape racing right behind
        // the response — always observes the task's recordings.
        let _ = reply.send((idx, result));
    }
}

/// Shared state of one in-flight batch: the global injector plus one deque
/// per worker. Plain mutex-guarded deques keep the scheduler free of
/// `unsafe`; the tasks themselves (a fit or a full-series scoring pass) are
/// orders of magnitude heavier than a lock round-trip.
struct BatchShared {
    /// Tasks not yet claimed by any worker.
    injector: Mutex<VecDeque<BatchTask>>,
    /// Per-worker local queues; the owner pops the front, thieves pop the
    /// back (oldest-queued work first, farthest from what the owner touches
    /// next).
    deques: Vec<Mutex<VecDeque<BatchTask>>>,
    /// When the batch was submitted — every task of a batch enqueues at
    /// this instant, so `enqueued.elapsed()` at pickup is that task's
    /// queue wait.
    enqueued: Instant,
    /// Trace context of the request that submitted the batch, if any;
    /// workers open one child span per task under it.
    trace: Option<SpanCtx>,
}

/// Per-worker scheduler counters, cumulative over the pool's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Batch tasks this worker executed (claimed from the injector, its own
    /// deque, or stolen).
    pub executed: u64,
    /// Batch tasks this worker stole from a sibling's deque.
    pub stolen: u64,
}

/// Shared atomic backing of [`WorkerStats`], one slot per worker.
#[derive(Debug, Default)]
struct PoolStats {
    executed: Vec<AtomicU64>,
    stolen: Vec<AtomicU64>,
    /// Per-shard channel backlog: jobs sent but not yet picked up by the
    /// worker — the queue-depth gauge `GET /metrics` samples.
    depth: Vec<AtomicU64>,
    /// Batch tasks and stream pushes admitted but not yet claimed by a
    /// worker — the backlog the server's admission gate sheds against.
    /// Unlike `depth` (channel messages), this counts *tasks*: a 64-task
    /// batch is 64 here even though it wakes at most `workers` channel
    /// messages.
    pending: AtomicU64,
    /// Tasks whose compute panicked; the worker caught the unwind, answered
    /// the submitter with [`Error::WorkerPanicked`], and kept running.
    panics: AtomicU64,
    /// Tasks answered [`Error::DeadlineExceeded`] at pickup without
    /// executing: their deadline had already passed while they queued.
    deadline_expired: AtomicU64,
}

impl PoolStats {
    fn new(workers: usize) -> Self {
        PoolStats {
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            stolen: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            depth: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            pending: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> Vec<WorkerStats> {
        self.executed
            .iter()
            .zip(&self.stolen)
            .map(|(executed, stolen)| WorkerStats {
                executed: executed.load(Ordering::Relaxed),
                stolen: stolen.load(Ordering::Relaxed),
            })
            .collect()
    }
}

enum Job {
    /// Wake-up for an in-flight batch: the worker drains the batch (own
    /// deque → injector chunk → stealing) before returning to its channel.
    Batch(Arc<BatchShared>),
    OpenStream {
        id: String,
        model: Arc<Series2Graph>,
        query_length: usize,
        /// `Some` opens an adaptive session: the adapt configuration, the
        /// registry name publications go to, and the parent checksum
        /// stamped into snapshot lineage.
        adapt: Option<(AdaptConfig, String, u64)>,
        reply: Sender<Result<()>>,
    },
    PushStream {
        id: String,
        values: Vec<f64>,
        /// Send time, for the queue-wait histogram.
        enqueued: Instant,
        /// Trace context of the pushing request, if traced.
        span: Option<SpanCtx>,
        reply: Sender<Result<StreamPush>>,
    },
    CloseStream {
        id: String,
        reply: Sender<Result<usize>>,
    },
}

/// Fixed-size pool of worker threads with a work-stealing batch scheduler
/// and per-worker channels for pinned session work.
pub struct WorkerPool {
    shards: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
    obs: Arc<ObsSlot>,
    /// Rotates which worker a batch's wake-ups start at, so small batches
    /// (the single-series serving case) spread across workers instead of
    /// all landing on worker 0.
    next_wake: AtomicU64,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let stats = Arc::new(PoolStats::new(workers));
        let obs: Arc<ObsSlot> = Arc::new(OnceLock::new());
        let mut shards = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (tx, rx) = channel::<Job>();
            shards.push(tx);
            let stats = Arc::clone(&stats);
            let obs = Arc::clone(&obs);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("s2g-worker-{shard}"))
                    .spawn(move || worker_loop(shard, rx, &stats, &obs))
                    .expect("spawn worker thread"),
            );
        }
        WorkerPool {
            shards,
            handles,
            stats,
            obs,
            next_wake: AtomicU64::new(0),
        }
    }

    /// Attaches the observability registry: from here on, workers record
    /// queue-wait and execute time per batch task, per-kind fit/score
    /// stage histograms, and adaptation push latency. Idempotent — the
    /// first attach wins; instrumentation never changes a result bit.
    pub fn attach_obs(&self, obs: Arc<Obs>) {
        let _ = self.obs.set(obs);
    }

    /// Current channel backlog per worker shard: jobs sent (batch wake-ups
    /// and pinned session work) but not yet picked up.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.stats
            .depth
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    fn send_job(&self, shard: usize, job: Job) -> std::result::Result<(), ()> {
        // Depth is incremented before the send so a sampled gauge can
        // never miss a job the worker is about to see.
        self.stats.depth[shard].fetch_add(1, Ordering::Relaxed);
        self.shards[shard].send(job).map_err(|_| {
            self.stats.depth[shard].fetch_sub(1, Ordering::Relaxed);
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Cumulative per-worker scheduler counters: how many batch tasks each
    /// worker executed and how many of those it stole from a sibling.
    /// `stolen > 0` is the signature of a skewed batch being rebalanced.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.stats.snapshot()
    }

    /// Batch tasks and stream pushes admitted but not yet claimed by a
    /// worker — the instantaneous backlog an admission gate sheds against.
    pub fn pending_tasks(&self) -> u64 {
        self.stats.pending.load(Ordering::Relaxed)
    }

    /// Cumulative tasks whose compute panicked. Each was answered with
    /// [`Error::WorkerPanicked`]; the worker survived.
    pub fn task_panics(&self) -> u64 {
        self.stats.panics.load(Ordering::Relaxed)
    }

    /// Cumulative tasks answered [`Error::DeadlineExceeded`] at pickup
    /// without executing.
    pub fn deadline_expired(&self) -> u64 {
        self.stats.deadline_expired.load(Ordering::Relaxed)
    }

    fn shard_for_stream(&self, id: &str) -> usize {
        (crate::util::fnv1a(id.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Pushes a prepared batch into a fresh injector and wakes
    /// `min(tasks, workers)` workers — waking the whole pool for a
    /// one-task batch (the single-series serving case) would cost `n − 1`
    /// futile wake-ups per request and queue no-op messages behind pinned
    /// session work. The wake set rotates so small batches spread across
    /// workers. If no woken worker is reachable (the pool is shutting
    /// down), the tasks — and with them their reply senders — drop here,
    /// which the collector observes as `PoolClosed` slots.
    fn submit_batch(&self, tasks: VecDeque<BatchTask>, trace: Option<SpanCtx>) {
        if tasks.is_empty() {
            return;
        }
        let workers = self.workers();
        let wake = tasks.len().min(workers);
        self.stats
            .pending
            .fetch_add(tasks.len() as u64, Ordering::Relaxed);
        let shared = Arc::new(BatchShared {
            injector: Mutex::new(tasks),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            enqueued: Instant::now(),
            trace,
        });
        let start = self.next_wake.fetch_add(1, Ordering::Relaxed) as usize;
        let mut woken = 0usize;
        for offset in 0..wake {
            if self
                .send_job((start + offset) % workers, Job::Batch(Arc::clone(&shared)))
                .is_ok()
            {
                woken += 1;
            }
        }
        if woken == 0 {
            // Pool is shutting down: no worker will ever drain this batch,
            // so the pending count added above must come back out here.
            let queued = shared
                .injector
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len() as u64;
            self.stats.pending.fetch_sub(queued, Ordering::Relaxed);
        }
    }

    /// Fits one model per job, in parallel across the pool's work-stealing
    /// scheduler. Results come back in submission order; each job fails
    /// independently. Under a trace (`span` is `Some`) each task's worker
    /// opens a `pool.fit` span below it, and the span's deadline is
    /// checked at pickup; results are identical either way.
    pub fn fit_batch(
        &self,
        jobs: Vec<FitJob>,
        span: Option<&SpanCtx>,
    ) -> Vec<Result<Series2Graph>> {
        self.run_jobs(
            jobs.into_iter().map(Work::Fit),
            span,
            |output| match output {
                Output::Fit(model) => *model,
                Output::Score(_) => unreachable!("a fit task answers with a model"),
            },
        )
    }

    /// Scores one series per job against its (shared) model, in parallel
    /// across the pool's work-stealing scheduler. Results are anomaly-score
    /// profiles in submission order, identical to what a sequential loop
    /// over [`Series2Graph::anomaly_scores`] produces — stealing moves
    /// tasks between workers, never across result slots. `span` works as
    /// in [`WorkerPool::fit_batch`], with `pool.score` task spans.
    pub fn score_batch(
        &self,
        jobs: Vec<ScoreJob>,
        span: Option<&SpanCtx>,
    ) -> Vec<Result<Vec<f64>>> {
        self.run_jobs(
            jobs.into_iter().map(Work::Score),
            span,
            |output| match output {
                Output::Score(scores) => scores,
                Output::Fit(_) => unreachable!("a score task answers with scores"),
            },
        )
    }

    /// Builds one task per work item, submits them as one batch, and
    /// collects the replies in submission order, unwrapping each output
    /// with `unwrap`.
    fn run_jobs<T>(
        &self,
        work: impl Iterator<Item = Work>,
        span: Option<&SpanCtx>,
        unwrap: impl Fn(Output) -> T,
    ) -> Vec<Result<T>> {
        let (reply, inbox) = channel();
        let tasks: VecDeque<BatchTask> = work
            .enumerate()
            .map(|(idx, work)| BatchTask {
                idx,
                work,
                reply: reply.clone(),
            })
            .collect();
        drop(reply);
        let n = tasks.len();
        self.submit_batch(tasks, span.cloned());
        let mut out: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match inbox.recv() {
                Ok((idx, result)) => out[idx] = Some(result.map(&unwrap)),
                Err(_) => break, // a worker died; remaining slots become PoolClosed
            }
        }
        out.into_iter()
            .map(|slot| slot.unwrap_or(Err(Error::PoolClosed)))
            .collect()
    }

    /// Opens a frozen streaming session pinned to one shard. All subsequent
    /// pushes for `id` execute on that shard in submission order.
    ///
    /// # Errors
    /// [`Error::StreamExists`] when the id is already open, or the scorer's
    /// construction error.
    pub fn open_stream(
        &self,
        id: impl Into<String>,
        model: Arc<Series2Graph>,
        query_length: usize,
    ) -> Result<()> {
        self.open_stream_inner(id.into(), model, query_length, None)
    }

    /// Opens an *adaptive* streaming session pinned to one shard: the
    /// session's model copy tracks confirmed-normal behaviour with decayed
    /// edge updates and refits from recent history when the score
    /// distribution drifts. Published snapshots name `model_name` and
    /// carry `parent_checksum` in their lineage. Refits run on the
    /// session's pinned worker thread — on the pool, off the caller's
    /// serving thread for everything except the push that triggers them.
    ///
    /// # Errors
    /// [`Error::StreamExists`] when the id is already open; config or
    /// scorer construction errors.
    pub fn open_adaptive_stream(
        &self,
        id: impl Into<String>,
        model: Arc<Series2Graph>,
        query_length: usize,
        config: AdaptConfig,
        model_name: impl Into<String>,
        parent_checksum: u64,
    ) -> Result<()> {
        self.open_stream_inner(
            id.into(),
            model,
            query_length,
            Some((config, model_name.into(), parent_checksum)),
        )
    }

    fn open_stream_inner(
        &self,
        id: String,
        model: Arc<Series2Graph>,
        query_length: usize,
        adapt: Option<(AdaptConfig, String, u64)>,
    ) -> Result<()> {
        let shard = self.shard_for_stream(&id);
        let (reply, inbox) = channel();
        self.send_job(
            shard,
            Job::OpenStream {
                id,
                model,
                query_length,
                adapt,
                reply,
            },
        )
        .map_err(|_| Error::PoolClosed)?;
        inbox.recv().map_err(|_| Error::PoolClosed)?
    }

    /// Feeds points into an open streaming session, returning the emitted
    /// `(window_start, normality)` pairs plus, for adaptive sessions, the
    /// adaptation report. Under a trace the pinned worker opens a
    /// `pool.push` span below `span`, and the span's deadline is checked
    /// at pickup; results are identical either way.
    pub fn push_stream(
        &self,
        id: &str,
        values: &[f64],
        span: Option<&SpanCtx>,
    ) -> Result<StreamPush> {
        let shard = self.shard_for_stream(id);
        let (reply, inbox) = channel();
        self.stats.pending.fetch_add(1, Ordering::Relaxed);
        self.send_job(
            shard,
            Job::PushStream {
                id: id.to_string(),
                values: values.to_vec(),
                enqueued: Instant::now(),
                span: span.cloned(),
                reply,
            },
        )
        .map_err(|_| {
            self.stats.pending.fetch_sub(1, Ordering::Relaxed);
            Error::PoolClosed
        })?;
        inbox.recv().map_err(|_| Error::PoolClosed)?
    }

    /// Closes a streaming session, returning how many points it consumed.
    pub fn close_stream(&self, id: &str) -> Result<usize> {
        let shard = self.shard_for_stream(id);
        let (reply, inbox) = channel();
        self.send_job(
            shard,
            Job::CloseStream {
                id: id.to_string(),
                reply,
            },
        )
        .map_err(|_| Error::PoolClosed)?;
        inbox.recv().map_err(|_| Error::PoolClosed)?
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping the senders ends each worker's recv loop.
        self.shards.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// Drains one batch from the perspective of `worker`: own deque first, then
/// a chunk from the shared injector, then single-task steals from siblings.
/// Returns when no queued task of this batch remains anywhere (tasks still
/// *executing* on other workers are theirs to finish).
fn run_batch(worker: usize, shared: &BatchShared, stats: &PoolStats, obs: Option<&Obs>) {
    let workers = shared.deques.len();
    let deadline = shared.trace.as_ref().and_then(|t| t.deadline);
    loop {
        // 1. Own deque: chunks claimed from the injector land here.
        let mut task = {
            let mut own = shared.deques[worker]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            own.pop_front()
        };
        // 2. Shared injector: claim a chunk sized to leave work for the
        //    other workers; the first task runs now, the rest queue locally
        //    (and are visible to thieves).
        if task.is_none() {
            let mut injector = shared.injector.lock().unwrap_or_else(|e| e.into_inner());
            if !injector.is_empty() {
                let chunk = (injector.len() / workers).max(1);
                task = injector.pop_front();
                if chunk > 1 {
                    let mut own = shared.deques[worker]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    for _ in 1..chunk {
                        match injector.pop_front() {
                            Some(t) => own.push_back(t),
                            None => break,
                        }
                    }
                }
            }
        }
        // 3. Steal: scan siblings in a fixed ring order, taking one task
        //    from the back of the first non-empty deque.
        if task.is_none() {
            for offset in 1..workers {
                let victim = (worker + offset) % workers;
                let stolen = shared.deques[victim]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_back();
                if let Some(t) = stolen {
                    stats.stolen[worker].fetch_add(1, Ordering::Relaxed);
                    task = Some(t);
                    break;
                }
            }
        }
        match task {
            Some(task) => {
                // Claimed: out of the backlog (decremented before the reply
                // can be observed, so a caller that has collected its batch
                // always reads a fully-drained gauge).
                stats.pending.fetch_sub(1, Ordering::Relaxed);
                // Deadline check at pickup: a task whose deadline passed
                // while it queued is answered without executing — the
                // submitter has (or will) stop waiting, so computing the
                // result would only burn a worker the live requests need.
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    let _ = task.reply.send((task.idx, Err(Error::DeadlineExceeded)));
                    continue;
                }
                // Counted before the task replies: the channel send inside
                // `execute` happens-after this store, so a caller that has
                // collected every reply always reads fully-summed counters.
                stats.executed[worker].fetch_add(1, Ordering::Relaxed);
                // The reply handle outlives the catch_unwind closure: a
                // panicking compute drops the task (and its reply sender)
                // mid-unwind, and without this clone the collector would
                // see a dead channel (`PoolClosed`) instead of the typed
                // `WorkerPanicked` error.
                let (idx, reply) = (task.idx, task.reply.clone());
                let outcome = catch_unwind(AssertUnwindSafe(|| task.execute(worker, shared, obs)));
                if outcome.is_err() {
                    stats.panics.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send((idx, Err(Error::WorkerPanicked)));
                }
            }
            None => break,
        }
    }
}

fn worker_loop(worker: usize, rx: Receiver<Job>, stats: &PoolStats, obs_slot: &ObsSlot) {
    let mut sessions: HashMap<String, WorkerSession> = HashMap::new();
    while let Ok(job) = rx.recv() {
        stats.depth[worker].fetch_sub(1, Ordering::Relaxed);
        let obs = obs_slot.get().map(Arc::as_ref);
        match job {
            Job::Batch(shared) => run_batch(worker, &shared, stats, obs),
            Job::OpenStream {
                id,
                model,
                query_length,
                adapt,
                reply,
            } => {
                let result = match sessions.entry(id) {
                    std::collections::hash_map::Entry::Occupied(occupied) => {
                        Err(Error::StreamExists(occupied.key().clone()))
                    }
                    std::collections::hash_map::Entry::Vacant(vacant) => {
                        let session = match adapt {
                            None => StreamingScorer::new((*model).clone(), query_length)
                                .map(|scorer| WorkerSession::Frozen(Box::new(scorer))),
                            Some((config, model_name, parent_checksum)) => AdaptiveScorer::new(
                                (*model).clone(),
                                query_length,
                                config,
                                parent_checksum,
                            )
                            .map(|scorer| WorkerSession::Adaptive {
                                scorer: Box::new(scorer),
                                model_name,
                            }),
                        };
                        match session {
                            Ok(session) => {
                                vacant.insert(session);
                                Ok(())
                            }
                            Err(e) => Err(Error::from(e)),
                        }
                    }
                };
                let _ = reply.send(result);
            }
            Job::PushStream {
                id,
                values,
                enqueued,
                span,
                reply,
            } => {
                stats.pending.fetch_sub(1, Ordering::Relaxed);
                // Deadline check at pickup, same contract as batch tasks:
                // an expired push is answered without touching the scorer,
                // so the session's consumed-point count stays exactly what
                // the client can account for from its own successes.
                if span.as_ref().is_some_and(|ctx| ctx.deadline_expired()) {
                    stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(Err(Error::DeadlineExceeded));
                    continue;
                }
                if let Some(obs) = obs {
                    obs.pool_queue_wait.record_duration(enqueued.elapsed());
                }
                let mut push_span = span.map(|ctx| {
                    let mut span = ctx.child("pool.push");
                    span.attr("worker", worker.to_string());
                    span.attr("points", values.len().to_string());
                    span
                });
                let started = Instant::now();
                let adaptive = matches!(sessions.get(&id), Some(WorkerSession::Adaptive { .. }));
                let computed = catch_unwind(AssertUnwindSafe(|| match sessions.get_mut(&id) {
                    Some(WorkerSession::Frozen(scorer)) => scorer
                        .push_batch(&values)
                        .map(|emitted| StreamPush {
                            emitted,
                            adapt: None,
                        })
                        .map_err(Error::from),
                    Some(WorkerSession::Adaptive { scorer, model_name }) => scorer
                        .push_batch(&values)
                        .map(|outcome| StreamPush {
                            emitted: outcome.emitted,
                            adapt: Some(AdaptReport {
                                model_name: model_name.clone(),
                                updates: outcome.updates,
                                refits: outcome.refits,
                                action: outcome.action,
                                drift: outcome.drift,
                                snapshot: outcome.snapshot,
                            }),
                        })
                        .map_err(Error::from),
                    None => Err(Error::UnknownStream(id.clone())),
                }));
                let result = match computed {
                    Ok(result) => result,
                    Err(_) => {
                        // The scorer unwound mid-push: its ring buffers may
                        // be torn, so the session is closed rather than
                        // left to emit garbage on the next push.
                        stats.panics.fetch_add(1, Ordering::Relaxed);
                        sessions.remove(&id);
                        Err(Error::WorkerPanicked)
                    }
                };
                if let Some(obs) = obs {
                    let execute = started.elapsed();
                    obs.pool_execute.record_duration(execute);
                    if adaptive {
                        obs.adapt_push.record_duration(execute);
                    }
                }
                if let Some(span) = push_span.take() {
                    span.finish();
                }
                let _ = reply.send(result);
            }
            Job::CloseStream { id, reply } => {
                let result = match sessions.remove(&id) {
                    Some(session) => Ok(session.consumed()),
                    None => Err(Error::UnknownStream(id)),
                };
                let _ = reply.send(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, period: f64, phase: f64) -> TimeSeries {
        TimeSeries::from(
            (0..n)
                .map(|i| (std::f64::consts::TAU * i as f64 / period + phase).sin())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn fit_batch_returns_in_submission_order() {
        let pool = WorkerPool::new(3);
        let jobs: Vec<FitJob> = (0..5)
            .map(|i| FitJob {
                series: sine(1500 + 100 * i, 75.0, 0.0),
                config: S2gConfig::new(40),
            })
            .collect();
        let models = pool.fit_batch(jobs, None);
        assert_eq!(models.len(), 5);
        for (i, model) in models.into_iter().enumerate() {
            assert_eq!(model.unwrap().train_len(), 1500 + 100 * i);
        }
    }

    #[test]
    fn failed_jobs_do_not_poison_the_batch() {
        let pool = WorkerPool::new(2);
        let jobs = vec![
            FitJob {
                series: sine(1500, 75.0, 0.0),
                config: S2gConfig::new(40),
            },
            // Too short to fit: fails, but only this slot.
            FitJob {
                series: sine(10, 5.0, 0.0),
                config: S2gConfig::new(40),
            },
            FitJob {
                series: sine(1600, 80.0, 0.0),
                config: S2gConfig::new(40),
            },
        ];
        let results = pool.fit_batch(jobs, None);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn streams_are_pinned_and_isolated() {
        let pool = WorkerPool::new(4);
        let model =
            Arc::new(Series2Graph::fit(&sine(3000, 80.0, 0.0), &S2gConfig::new(40)).unwrap());
        pool.open_stream("left", Arc::clone(&model), 120).unwrap();
        pool.open_stream("right", Arc::clone(&model), 120).unwrap();
        assert!(matches!(
            pool.open_stream("left", Arc::clone(&model), 120),
            Err(Error::StreamExists(_))
        ));
        let chunk: Vec<f64> = sine(200, 80.0, 0.0).into_vec();
        let left = pool.push_stream("left", &chunk, None).unwrap().emitted;
        let _ = pool.push_stream("right", &chunk[..50], None).unwrap();
        assert_eq!(left.len(), 200 - 120 + 1);
        assert_eq!(pool.close_stream("left").unwrap(), 200);
        assert_eq!(pool.close_stream("right").unwrap(), 50);
        assert!(matches!(
            pool.push_stream("left", &chunk, None),
            Err(Error::UnknownStream(_))
        ));
        assert!(matches!(
            pool.close_stream("gone"),
            Err(Error::UnknownStream(_))
        ));
    }

    #[test]
    fn skewed_batch_is_stolen_and_stays_deterministic() {
        // One giant series among many tiny ones: round-robin would chain
        // every job of one shard behind the giant; stealing lets the other
        // workers drain the tail. Output must match a sequential loop
        // bit-for-bit regardless.
        let model =
            Arc::new(Series2Graph::fit(&sine(6000, 80.0, 0.0), &S2gConfig::new(40)).unwrap());
        let mut series = vec![sine(40_000, 80.0, 0.2)];
        series.extend((0..12).map(|i| sine(600 + 10 * i, 80.0, 0.1 * i as f64)));
        let sequential: Vec<Vec<f64>> = series
            .iter()
            .map(|s| model.anomaly_scores(s, 120).unwrap())
            .collect();
        for workers in [1usize, 2, 3, 4] {
            let pool = WorkerPool::new(workers);
            let jobs: Vec<ScoreJob> = series
                .iter()
                .map(|s| ScoreJob {
                    model: Arc::clone(&model),
                    series: s.clone(),
                    query_length: 120,
                })
                .collect();
            let pooled: Vec<Vec<f64>> = pool
                .score_batch(jobs, None)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(pooled, sequential, "workers={workers}");
            let stats = pool.worker_stats();
            assert_eq!(stats.len(), workers);
            let executed: u64 = stats.iter().map(|s| s.executed).sum();
            assert_eq!(executed, series.len() as u64, "workers={workers}");
            let stolen: u64 = stats.iter().map(|s| s.stolen).sum();
            assert!(
                stolen <= executed,
                "stolen {stolen} cannot exceed executed {executed}"
            );
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = WorkerPool::new(2);
        let model =
            Arc::new(Series2Graph::fit(&sine(2000, 70.0, 0.0), &S2gConfig::new(35)).unwrap());
        let _ = pool.score_batch(
            vec![ScoreJob {
                model,
                series: sine(1000, 70.0, 0.3),
                query_length: 100,
            }],
            None,
        );
        drop(pool); // must not hang or panic
    }
}
