//! The job scheduler: a fault-tolerant worker pool executing queued
//! platform jobs.
//!
//! Stands in for the paper's EKS-based compute layer (§4.10): jobs
//! (feature extraction, training, deployment builds) are queued, picked up
//! by workers, and observable by id. The fault-tolerance layer is built on
//! [`ei_faults`]:
//!
//! * per-job [`RetryPolicy`] — exponential backoff with decorrelated
//!   jitter from a seeded RNG, max-attempt and max-elapsed caps;
//! * per-attempt timeouts — a watchdog thread marks an overrunning job
//!   [`JobStatus::TimedOut`] while it runs, and the attempt is discarded
//!   and rescheduled when its closure returns (closures cannot be
//!   preempted, so a stuck attempt's eventual result is treated as stale);
//! * panic isolation — a panicking job becomes a retryable failure via
//!   `catch_unwind` instead of killing its worker thread;
//! * cooperative cancellation — [`JobScheduler::cancel`] sets a
//!   [`CancelToken`] the job closure can poll, and resolves backoff sleeps
//!   promptly;
//! * a dead-letter queue — terminally failed jobs are parked with their
//!   full [`AttemptRecord`] history (cause, duration, backoff chosen).
//!
//! All timing flows through an [`ei_faults::Clock`], so the entire layer
//! is testable with a [`ei_faults::VirtualClock`] and zero wall-clock
//! sleeps. Observers never sleep-poll either: [`JobScheduler::wait`] and
//! [`JobScheduler::wait_for_status`] park on a condvar notified at every
//! status transition, and the watchdog re-scans deadlines by waiting for
//! the injected clock to tick ([`Clock::wait_for_tick_ms`]).
//!
//! There is one execution backend: every attempt runs as a detached
//! task on an [`ei_par::ParPool`], fed two ways.
//!
//! * **Unkeyed** jobs ([`JobScheduler::submit`] / `submit_with`) go
//!   straight onto the pool: work-conserving and FIFO through the pool's
//!   injector, so a `workers`-wide scheduler runs `workers` jobs at once.
//! * **Keyed** jobs ([`JobScheduler::submit_keyed`] / `submit_keyed_with`)
//!   join FIFO lane `fnv1a(key) % lanes`. One drainer task owns a lane at
//!   a time, so one tenant's jobs run in submission order and its burst
//!   queues behind itself, while different lanes run concurrently up to
//!   the pool's width.
//!
//! [`JobScheduler::new`] and its `with_clock*` siblings build a *private*
//! pool of exactly `workers` threads (and as many lanes);
//! [`JobScheduler::with_sharded_pool`] takes a *shared* pool and a lane
//! count, so one process-wide pool can serve the scheduler, the EON Tuner
//! and DSP sweeps without oversubscribing the host.
//!
//! The scheduler is also observable through [`ei_trace`]: construct it
//! with [`JobScheduler::with_clock_and_tracer`] and every lifecycle
//! transition (`job.queued` → `job.running` → `job.backoff` /
//! `job.timed_out` → `job.finished` / `job.dead_letter` /
//! `job.cancelled`) is emitted as a typed event, with `jobs.*` counters
//! aggregated in the tracer's metrics registry. With the default
//! disabled tracer none of this costs more than an `Option` check.

use crate::{PlatformError, Result};
use ei_faults::retry::{self, RetryEvent, RetryOutcome};
use ei_faults::sync::{lock, wait_timeout};
use ei_faults::{AttemptRecord, CancelToken, Clock, FailureCause, RetryPolicy, SystemClock};
use ei_par::{ParPool, Parallelism};
use ei_shard::shard_index;
use ei_trace::{SpanGuard, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use ei_faults::retry::AttemptContext as JobContext;

/// Observable job lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// Executing (with the 1-based attempt number).
    Running(u32),
    /// Sleeping between attempts.
    Backoff {
        /// The attempt that will run after the sleep.
        next_attempt: u32,
        /// The jittered delay chosen, in logical milliseconds.
        delay_ms: u64,
    },
    /// The watchdog observed the attempt past its deadline; the attempt
    /// will be discarded and retried when its closure returns.
    TimedOut {
        /// The overrunning 1-based attempt number.
        attempt: u32,
    },
    /// Finished successfully with an output string.
    Finished(String),
    /// Failed after exhausting retries (now in the dead-letter queue).
    Failed(String),
    /// Cancelled before completing.
    Cancelled,
}

/// A terminally failed job parked with its history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The job id.
    pub id: u64,
    /// The tenant key the job was routed under (the job's own id for
    /// unkeyed submissions) — the attribution a hot-shard operator
    /// pivots on.
    pub key: u64,
    /// Description of the final failure.
    pub error: String,
    /// Every failed attempt, in order (cause, duration, backoff chosen).
    pub attempts: Vec<AttemptRecord>,
    /// The retry policy the job originally ran under — the job spec an
    /// operator inspects before deciding to requeue. `None` when the job
    /// was stranded by shutdown before its spec reached a worker.
    pub policy: Option<RetryPolicy>,
    /// `true` while the job's closure is still parked and
    /// [`JobScheduler::requeue`] can resubmit it. Cleared by a
    /// successful requeue; always `false` for shutdown-stranded jobs.
    pub requeueable: bool,
}

/// A queued work item.
type JobFn = Box<dyn FnMut(&JobContext<'_>) -> std::result::Result<String, String> + Send>;

struct QueuedJob {
    id: u64,
    /// The tenant key (the job's own id when submitted unkeyed).
    key: u64,
    policy: RetryPolicy,
    work: JobFn,
    /// The job's `"job"` span, opened at submission on the submitter's
    /// thread (adopting its ambient [`ei_trace::TraceContext`], so a job
    /// submitted from inside a traced request stitches into that
    /// request's causal tree) and closed when the job reaches a terminal
    /// state. Lifecycle events are emitted through it.
    span: SpanGuard,
    /// Declared last so the in-flight count drops only after `span` has
    /// closed.
    _slot: ActiveSlot,
}

struct JobState {
    /// Copied from [`QueuedJob::key`] so shutdown can attribute a job
    /// whose `QueuedJob` it never sees.
    key: u64,
    status: JobStatus,
    cancel: CancelToken,
    attempts: Vec<AttemptRecord>,
}

/// A watchdog entry: the attempt being timed and its absolute deadline.
struct WatchEntry {
    attempt: u32,
    deadline_ms: u64,
}

#[derive(Default)]
struct Shared {
    jobs: Mutex<HashMap<u64, JobState>>,
    /// Notified (paired with the `jobs` mutex) on every status
    /// transition, so waiters park instead of sleep-polling.
    jobs_cond: Condvar,
    dead: Mutex<Vec<DeadLetter>>,
    /// Closures of exhausted jobs, parked for [`JobScheduler::requeue`],
    /// keyed by the dead-lettered job id.
    parked: Mutex<HashMap<u64, JobFn>>,
    watch: Mutex<HashMap<u64, WatchEntry>>,
    /// Jobs whose `QueuedJob` is still alive (queued or running), so
    /// shutdown can wait them out.
    active: AtomicUsize,
    shutdown: AtomicBool,
    tracer: Tracer,
}

impl Shared {
    /// Wakes every thread blocked in [`JobScheduler::wait`] /
    /// [`JobScheduler::wait_for_status`] (and the shutdown drain) after a
    /// status transition.
    fn notify_status(&self) {
        self.jobs_cond.notify_all();
    }

    /// Records a terminal dead-letter (status already stamped by the
    /// caller) and mirrors it into the trace stream — through the job's
    /// span when the caller still holds it, so the event names its
    /// causal chain for the flight recorder. Must never take the `jobs`
    /// lock: shutdown calls this while holding it.
    fn dead_letter(&self, span: Option<&SpanGuard>, letter: DeadLetter) {
        let fields = vec![("job", letter.id.into()), ("error", letter.error.as_str().into())];
        match span {
            Some(span) => span.event("job.dead_letter", fields),
            None => self.tracer.event("job.dead_letter", fields),
        }
        self.tracer.counter("jobs.dead_lettered").inc();
        lock(&self.dead).push(letter);
    }
}

/// Upper bound (real milliseconds) between watchdog scans for expired
/// attempt deadlines. The watchdog parks in [`Clock::wait_for_tick_ms`],
/// so under a [`ei_faults::VirtualClock`] it wakes the instant logical
/// time advances (never advancing the clock itself); the tick is only the
/// fallback granularity on the real clock.
const WATCHDOG_TICK_MS: u64 = 1;

/// Real-time fallback for status waiters parked on the scheduler
/// condvar. Status transitions wake waiters immediately; the cap exists
/// so a *logical* deadline advanced by another thread is still noticed
/// promptly.
const STATUS_WAIT_CAP: Duration = Duration::from_millis(1);

/// Message shutdown stamps on jobs it refuses to run.
const SHUTDOWN_ERROR: &str = "scheduler shut down";

/// One FIFO lane of keyed submissions. `draining` is `true` while a
/// drainer task owns the queue; a submit that flips it from `false`
/// spawns a new drainer on the pool.
#[derive(Default)]
struct ShardQueue {
    queue: Mutex<VecDeque<QueuedJob>>,
    draining: AtomicBool,
}

/// Counts its job as in flight from submission until the job is dropped
/// — even if execution unwinds — and then wakes the shutdown drain, so
/// shutdown never waits forever.
struct ActiveSlot(Arc<Shared>);

impl ActiveSlot {
    fn new(shared: &Arc<Shared>) -> ActiveSlot {
        shared.active.fetch_add(1, Ordering::SeqCst);
        ActiveSlot(Arc::clone(shared))
    }
}

impl Drop for ActiveSlot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
        self.0.notify_status();
    }
}

/// A job scheduler with retry, timeout, panic-isolation, cancellation
/// and dead-letter support, running every attempt on a [`ParPool`].
///
/// Dropping the scheduler stops accepting jobs, lets running attempts
/// finish, and marks still-queued jobs [`JobStatus::Failed`].
pub struct JobScheduler {
    pool: Arc<ParPool>,
    /// The keyed-submission lanes; see the module docs.
    queues: Arc<Vec<ShardQueue>>,
    shared: Arc<Shared>,
    clock: Arc<dyn Clock>,
    watchdog: Option<JoinHandle<()>>,
    next_id: Mutex<u64>,
}

impl std::fmt::Debug for JobScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobScheduler")
            .field("pool_threads", &self.pool.threads())
            .field("shards", &self.queues.len())
            .finish_non_exhaustive()
    }
}

impl JobScheduler {
    /// Starts a scheduler with `workers` threads on the system clock.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> JobScheduler {
        JobScheduler::with_clock(workers, Arc::new(SystemClock::new()))
    }

    /// Starts a scheduler with `workers` threads on an explicit clock
    /// (pass an [`ei_faults::VirtualClock`] for deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_clock(workers: usize, clock: Arc<dyn Clock>) -> JobScheduler {
        JobScheduler::with_clock_and_tracer(workers, clock, Tracer::disabled())
    }

    /// Starts a scheduler with `workers` threads on an explicit clock,
    /// emitting job lifecycle events and `jobs.*` counters through
    /// `tracer`. The threads are a private [`ParPool`] with `workers`
    /// keyed-submission lanes.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_clock_and_tracer(
        workers: usize,
        clock: Arc<dyn Clock>,
        tracer: Tracer,
    ) -> JobScheduler {
        assert!(workers > 0, "need at least one worker");
        // a detached job has no helping caller, so a pool of `workers + 1`
        // executors is exactly `workers` job threads
        let pool = Arc::new(ParPool::new(Parallelism::new(workers + 1)));
        JobScheduler::with_sharded_pool_clock_and_tracer(pool, workers, clock, tracer)
    }

    /// Starts a scheduler on a shared `pool` (system clock) with `shards`
    /// keyed-submission lanes. Concurrency is bounded by the pool's
    /// thread budget, and the pool can be shared with other subsystems
    /// (tuner sweeps, DSP feature extraction) so the process keeps a
    /// single thread roster. Use [`JobScheduler::submit_keyed`] to route
    /// jobs by tenant key — one tenant's burst queues behind itself on
    /// its lane instead of starving the whole scheduler.
    pub fn with_sharded_pool(pool: Arc<ParPool>, shards: usize) -> JobScheduler {
        JobScheduler::with_sharded_pool_clock_and_tracer(
            pool,
            shards,
            Arc::new(SystemClock::new()),
            Tracer::disabled(),
        )
    }

    /// Starts a shared-pool scheduler on an explicit clock and tracer;
    /// see [`JobScheduler::with_sharded_pool`].
    pub fn with_sharded_pool_clock_and_tracer(
        pool: Arc<ParPool>,
        shards: usize,
        clock: Arc<dyn Clock>,
        tracer: Tracer,
    ) -> JobScheduler {
        let shared = Arc::new(Shared { tracer, ..Shared::default() });
        let watchdog = {
            let shared = Arc::clone(&shared);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || watchdog_loop(&shared, &clock))
        };
        let queues = (0..shards.max(1)).map(|_| ShardQueue::default()).collect();
        JobScheduler {
            pool,
            queues: Arc::new(queues),
            shared,
            clock,
            watchdog: Some(watchdog),
            next_id: Mutex::new(0),
        }
    }

    /// The number of keyed-submission lanes: the `shards` argument of
    /// [`JobScheduler::with_sharded_pool`], or `workers` for a
    /// private-pool scheduler.
    pub fn shard_count(&self) -> usize {
        self.queues.len()
    }

    /// Keyed jobs waiting in each lane, by lane index (unkeyed jobs queue
    /// in the pool itself).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| lock(&q.queue).len()).collect()
    }

    /// The lane jobs keyed `key` queue on.
    fn lane_of(&self, key: u64) -> usize {
        shard_index(&key, self.queues.len())
    }

    /// Dead letters whose key places them on lane `shard` — the hot-shard
    /// operator's view. The views of `0..shard_count()` partition
    /// [`JobScheduler::dead_letters`]; any other `shard` is empty.
    pub fn dead_letters_in_shard(&self, shard: usize) -> Vec<DeadLetter> {
        self.dead_letters().into_iter().filter(|l| self.lane_of(l.key) == shard).collect()
    }

    /// The clock the scheduler runs on.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Submits a job with up to `attempts` immediate executions (no
    /// backoff) — the legacy entry point; returns the job id.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SchedulerStopped`] after shutdown.
    pub fn submit<F>(&self, attempts: u32, mut work: F) -> Result<u64>
    where
        F: FnMut() -> std::result::Result<String, String> + Send + 'static,
    {
        self.submit_with(RetryPolicy::immediate(attempts), move |_| work())
    }

    /// Submits a job routed by a tenant key (a project/user raw id): it
    /// joins lane `fnv1a(key) % shard_count()` and runs FIFO with respect
    /// to every other keyed job sharing that lane. The key also
    /// attributes the job's dead letter.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SchedulerStopped`] after shutdown.
    pub fn submit_keyed<F>(&self, key: u64, attempts: u32, mut work: F) -> Result<u64>
    where
        F: FnMut() -> std::result::Result<String, String> + Send + 'static,
    {
        self.submit_keyed_with(key, RetryPolicy::immediate(attempts), move |_| work())
    }

    /// [`JobScheduler::submit_keyed`] with an explicit [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SchedulerStopped`] after shutdown.
    pub fn submit_keyed_with<F>(&self, key: u64, policy: RetryPolicy, work: F) -> Result<u64>
    where
        F: FnMut(&JobContext<'_>) -> std::result::Result<String, String> + Send + 'static,
    {
        self.submit_boxed(policy, Box::new(work), Some(key))
    }

    /// Submits a job governed by `policy`; the closure receives a
    /// [`JobContext`] with the attempt number and the job's cancel token.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SchedulerStopped`] after shutdown.
    pub fn submit_with<F>(&self, policy: RetryPolicy, work: F) -> Result<u64>
    where
        F: FnMut(&JobContext<'_>) -> std::result::Result<String, String> + Send + 'static,
    {
        self.submit_boxed(policy, Box::new(work), None)
    }

    /// The one submission path (also what [`JobScheduler::requeue`]
    /// resubmits parked closures through): allocates the id, registers
    /// state, and hands the job to the pool — through its key's lane, or
    /// directly when `key` is `None` (the job is then attributed to its
    /// own id).
    fn submit_boxed(&self, policy: RetryPolicy, work: JobFn, key: Option<u64>) -> Result<u64> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(PlatformError::SchedulerStopped);
        }
        let id = {
            let mut next = lock(&self.next_id);
            *next += 1;
            *next
        };
        let lane = key.map(|key| self.lane_of(key));
        let key = key.unwrap_or(id);
        lock(&self.shared.jobs).insert(
            id,
            JobState {
                key,
                status: JobStatus::Queued,
                cancel: CancelToken::new(),
                attempts: Vec::new(),
            },
        );
        let span = self.shared.tracer.span_with("job", vec![("job", id.into())]);
        span.event("job.queued", vec![("job", id.into())]);
        self.shared.tracer.counter("jobs.submitted").inc();
        let job = QueuedJob { id, key, policy, work, span, _slot: ActiveSlot::new(&self.shared) };
        let shared = Arc::clone(&self.shared);
        let clock = Arc::clone(&self.clock);
        match lane {
            None => self.pool.spawn_detached(move || execute_queued(job, &shared, &clock)),
            Some(lane) => {
                lock(&self.queues[lane].queue).push_back(job);
                // first submitter after idle owns spawning the drainer
                if !self.queues[lane].draining.swap(true, Ordering::SeqCst) {
                    let queues = Arc::clone(&self.queues);
                    self.pool.spawn_detached(move || drain_shard(&queues[lane], &shared, &clock));
                }
            }
        }
        Ok(id)
    }

    /// Current status of a job.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for unknown ids.
    pub fn status(&self, id: u64) -> Result<JobStatus> {
        lock(&self.shared.jobs)
            .get(&id)
            .map(|s| s.status.clone())
            .ok_or(PlatformError::NotFound { kind: "job", id })
    }

    /// The failed-attempt history recorded for a job so far.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for unknown ids.
    pub fn attempt_history(&self, id: u64) -> Result<Vec<AttemptRecord>> {
        lock(&self.shared.jobs)
            .get(&id)
            .map(|s| s.attempts.clone())
            .ok_or(PlatformError::NotFound { kind: "job", id })
    }

    /// Requests cooperative cancellation of a job.
    ///
    /// A still-queued job is cancelled immediately; a running job's
    /// closure observes the token at its next checkpoint; a job sleeping
    /// in backoff wakes promptly.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for unknown ids.
    pub fn cancel(&self, id: u64) -> Result<()> {
        let mut jobs = lock(&self.shared.jobs);
        let state = jobs.get_mut(&id).ok_or(PlatformError::NotFound { kind: "job", id })?;
        state.cancel.cancel();
        if state.status == JobStatus::Queued {
            state.status = JobStatus::Cancelled;
            self.shared.tracer.event("job.cancelled", vec![("job", id.into())]);
            self.shared.tracer.counter("jobs.cancelled").inc();
        }
        drop(jobs);
        self.shared.notify_status();
        Ok(())
    }

    /// The job's cancellation token (for passing into cooperative work).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for unknown ids.
    pub fn cancel_token(&self, id: u64) -> Result<CancelToken> {
        lock(&self.shared.jobs)
            .get(&id)
            .map(|s| s.cancel.clone())
            .ok_or(PlatformError::NotFound { kind: "job", id })
    }

    /// Terminally failed jobs with their full attempt history, sorted by
    /// `(key, id)`, so the fleet-wide view reads identically at every
    /// lane count and pool width.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        let mut out = lock(&self.shared.dead).clone();
        out.sort_by(|a, b| a.key.cmp(&b.key).then(a.id.cmp(&b.id)));
        out
    }

    /// The dead letter recorded for `id`: final failure cause, per-attempt
    /// history, and the retry policy the job ran under.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] when `id` was never
    /// dead-lettered.
    pub fn dead_letter(&self, id: u64) -> Result<DeadLetter> {
        lock(&self.shared.dead)
            .iter()
            .find(|l| l.id == id)
            .cloned()
            .ok_or(PlatformError::NotFound { kind: "dead letter", id })
    }

    /// Resubmits a dead-lettered job under its original retry policy and
    /// key (for an unkeyed job, its original id) — so a tenant's retry
    /// rejoins that tenant's lane and a second failure is attributed to
    /// the same key — and returns the **new** job id. The original letter
    /// stays in the queue for the record but is marked no longer requeueable.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] when `id` was never
    /// dead-lettered, [`PlatformError::NotRequeueable`] when its closure
    /// is no longer parked (already requeued, or stranded by shutdown),
    /// or [`PlatformError::SchedulerStopped`] after shutdown.
    pub fn requeue(&self, id: u64) -> Result<u64> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(PlatformError::SchedulerStopped);
        }
        let (policy, key) = {
            let mut dead = lock(&self.shared.dead);
            let letter = dead
                .iter_mut()
                .find(|l| l.id == id)
                .ok_or(PlatformError::NotFound { kind: "dead letter", id })?;
            match (&letter.policy, letter.requeueable) {
                (Some(policy), true) => {
                    let policy = policy.clone();
                    letter.requeueable = false;
                    (policy, letter.key)
                }
                _ => return Err(PlatformError::NotRequeueable { id }),
            }
        };
        let work =
            lock(&self.shared.parked).remove(&id).ok_or(PlatformError::NotRequeueable { id })?;
        let new_id = self.submit_boxed(policy, work, Some(key))?;
        self.shared.tracer.event("job.requeued", vec![("job", id.into()), ("as", new_id.into())]);
        self.shared.tracer.counter("jobs.requeued").inc();
        Ok(new_id)
    }

    /// Blocks until the job reaches a terminal state, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for unknown ids,
    /// [`PlatformError::JobFailed`] when the job fails, or
    /// [`PlatformError::JobCancelled`] when it was cancelled.
    pub fn wait(&self, id: u64) -> Result<String> {
        let mut jobs = lock(&self.shared.jobs);
        loop {
            let status = jobs
                .get(&id)
                .map(|s| s.status.clone())
                .ok_or(PlatformError::NotFound { kind: "job", id })?;
            match status {
                JobStatus::Finished(output) => return Ok(output),
                JobStatus::Failed(e) => return Err(PlatformError::JobFailed(e)),
                JobStatus::Cancelled => return Err(PlatformError::JobCancelled(id)),
                _ => jobs = wait_timeout(&self.shared.jobs_cond, jobs, STATUS_WAIT_CAP).0,
            }
        }
    }

    /// Blocks until the job's status satisfies `pred`, returning the
    /// first matching status.
    ///
    /// The deadline is measured on the **scheduler's clock**, so the
    /// helper is exact under a [`ei_faults::VirtualClock`]: the timeout
    /// only elapses when logical time advances, never because the host is
    /// slow. (Corollary: with a virtual clock that nothing advances, a
    /// never-matching predicate waits forever — the intended reading of
    /// "this transition happens without time passing".)
    ///
    /// This replaces ad-hoc sleep-poll loops when tests or callers need
    /// to observe a *transient* state ([`JobStatus::Backoff`],
    /// [`JobStatus::TimedOut`], …) that [`JobScheduler::wait`] would skip
    /// past.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for unknown ids and
    /// [`PlatformError::WaitTimeout`] when `timeout_ms` logical
    /// milliseconds elapse before the predicate matches.
    pub fn wait_for_status<P>(&self, id: u64, timeout_ms: u64, pred: P) -> Result<JobStatus>
    where
        P: Fn(&JobStatus) -> bool,
    {
        let deadline_ms = self.clock.now_ms().saturating_add(timeout_ms);
        let mut jobs = lock(&self.shared.jobs);
        loop {
            let status = jobs
                .get(&id)
                .map(|s| s.status.clone())
                .ok_or(PlatformError::NotFound { kind: "job", id })?;
            if pred(&status) {
                return Ok(status);
            }
            if self.clock.now_ms() >= deadline_ms {
                return Err(PlatformError::WaitTimeout { id, timeout_ms });
            }
            // park until a status transition notifies; the short real cap
            // only bounds how late a logical-deadline overrun (driven by
            // another thread advancing a virtual clock) is noticed
            jobs = wait_timeout(&self.shared.jobs_cond, jobs, STATUS_WAIT_CAP).0;
        }
    }

    /// Stops accepting new jobs, waits for running attempts to finish,
    /// and marks every still-queued job
    /// `Failed("scheduler shut down")` (dead-lettered) so no observer
    /// waits on a `Queued` status forever.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // queued tasks observe the shutdown flag when the pool (or a
            // lane drainer) reaches them and fail fast, so this drains
            // promptly; each finishing task notifies the status condvar
            let mut jobs = lock(&self.shared.jobs);
            while self.shared.active.load(Ordering::SeqCst) > 0 {
                jobs = wait_timeout(&self.shared.jobs_cond, jobs, STATUS_WAIT_CAP).0;
            }
        }
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
        // belt-and-braces: pool tasks normally stamp drained jobs themselves.
        // Letters go in before the status flips so a waiter woken by
        // `Failed` always finds its dead letter (jobs → dead lock order).
        {
            let mut jobs = lock(&self.shared.jobs);
            for (id, state) in jobs.iter_mut() {
                if state.status == JobStatus::Queued {
                    // The job's span is inside the still-queued
                    // `QueuedJob` (dropped with the pool), so the letter
                    // is recorded span-free.
                    self.shared.dead_letter(
                        None,
                        DeadLetter {
                            id: *id,
                            key: state.key,
                            error: SHUTDOWN_ERROR.to_string(),
                            attempts: Vec::new(),
                            policy: None,
                            requeueable: false,
                        },
                    );
                    state.status = JobStatus::Failed(SHUTDOWN_ERROR.to_string());
                }
            }
        }
        self.shared.notify_status();
    }
}

impl Drop for JobScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drains one lane on a pool thread: jobs run strictly in submission
/// order (per-lane FIFO). When the queue looks empty the drainer retires
/// — unless a submit raced the handoff, in which case it reclaims the
/// queue and keeps going, so no job is ever stranded without a drainer.
fn drain_shard(lane: &ShardQueue, shared: &Shared, clock: &Arc<dyn Clock>) {
    loop {
        let job = lock(&lane.queue).pop_front();
        match job {
            Some(job) => execute_queued(job, shared, clock),
            None => {
                lane.draining.store(false, Ordering::SeqCst);
                // a submit may have pushed between the empty pop and the
                // flag store and seen `draining == true` (so spawned no
                // drainer); reclaim the queue if so
                if lock(&lane.queue).is_empty() || lane.draining.swap(true, Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Runs one picked-up job: the queued-state pre-checks (cancelled while
/// waiting, scheduler shut down) followed by the retry loop.
fn execute_queued(job: QueuedJob, shared: &Shared, clock: &Arc<dyn Clock>) {
    let token = {
        let mut jobs = lock(&shared.jobs);
        let Some(state) = jobs.get_mut(&job.id) else { return };
        if state.cancel.is_cancelled() {
            state.status = JobStatus::Cancelled;
            drop(jobs);
            shared.notify_status();
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // letter first, then the waking status flip (see `run_job`);
            // jobs → dead lock order is used nowhere in reverse
            shared.dead_letter(
                Some(&job.span),
                DeadLetter {
                    id: job.id,
                    key: job.key,
                    error: SHUTDOWN_ERROR.to_string(),
                    attempts: Vec::new(),
                    policy: Some(job.policy.clone()),
                    requeueable: false,
                },
            );
            state.status = JobStatus::Failed(SHUTDOWN_ERROR.to_string());
            drop(jobs);
            shared.notify_status();
            return;
        }
        state.cancel.clone()
    };
    run_job(job, shared, clock, &token);
}

fn run_job(mut job: QueuedJob, shared: &Shared, clock: &Arc<dyn Clock>, token: &CancelToken) {
    let id = job.id;
    let span = &job.span;
    // Enter the job's context for the whole run: spans the work opens
    // (dist.train, par.scope, nested serving calls…) become descendants
    // of the `"job"` span and share its trace id.
    let _entered = span.enter();
    let set_status = |status: JobStatus| {
        if let Some(state) = lock(&shared.jobs).get_mut(&id) {
            state.status = status;
        }
        shared.notify_status();
    };
    let observer = |event: RetryEvent<'_>| match event {
        RetryEvent::AttemptStarted { attempt, deadline_ms } => {
            set_status(JobStatus::Running(attempt));
            span.event("job.running", vec![("job", id.into()), ("attempt", attempt.into())]);
            if let Some(deadline_ms) = deadline_ms {
                lock(&shared.watch).insert(id, WatchEntry { attempt, deadline_ms });
            }
        }
        RetryEvent::AttemptFinished { .. } => {
            lock(&shared.watch).remove(&id);
        }
        RetryEvent::AttemptFailed { record } => {
            if matches!(record.cause, FailureCause::TimedOut { .. }) {
                set_status(JobStatus::TimedOut { attempt: record.attempt });
                span.event(
                    "job.timed_out",
                    vec![("job", id.into()), ("attempt", record.attempt.into())],
                );
                shared.tracer.counter("jobs.timed_out").inc();
            }
            if let Some(state) = lock(&shared.jobs).get_mut(&id) {
                state.attempts.push(record.clone());
            }
        }
        RetryEvent::BackingOff { next_attempt, delay_ms } => {
            set_status(JobStatus::Backoff { next_attempt, delay_ms });
            span.event(
                "job.backoff",
                vec![
                    ("job", id.into()),
                    ("next_attempt", next_attempt.into()),
                    ("delay_ms", delay_ms.into()),
                ],
            );
        }
    };
    let result =
        retry::execute(&job.policy, clock.as_ref(), id, token, observer, |ctx| (job.work)(ctx));
    match result.outcome {
        RetryOutcome::Success { output, .. } => {
            // the event and the count before the status flip, which wakes
            // waiters: a waiter that reads the trace once `wait` returns
            // finds them
            let attempts = result.attempts.len() as u64 + 1;
            span.event("job.finished", vec![("job", id.into()), ("attempts", attempts.into())]);
            shared.tracer.counter("jobs.finished").inc();
            set_status(JobStatus::Finished(output));
        }
        RetryOutcome::Exhausted { error } => {
            // park the closure and record the letter *before* the status
            // flip: `Failed` wakes waiters, and a waiter is entitled to
            // find the dead letter the moment `wait` returns the error
            lock(&shared.parked).insert(id, job.work);
            shared.dead_letter(
                Some(span),
                DeadLetter {
                    id,
                    key: job.key,
                    error: error.clone(),
                    attempts: result.attempts,
                    policy: Some(job.policy.clone()),
                    requeueable: true,
                },
            );
            set_status(JobStatus::Failed(error));
        }
        RetryOutcome::Cancelled => {
            span.event("job.cancelled", vec![("job", id.into())]);
            shared.tracer.counter("jobs.cancelled").inc();
            set_status(JobStatus::Cancelled);
        }
    }
}

/// Scans registered attempt deadlines and flips overrunning jobs to
/// [`JobStatus::TimedOut`] so observers see the overrun while the stuck
/// closure is still executing. The retry loop performs the actual
/// discard-and-reschedule when the closure returns.
///
/// Ticks off the injected [`Clock`]: the scan re-runs whenever logical
/// time advances (immediately under a [`ei_faults::VirtualClock`], on a
/// [`WATCHDOG_TICK_MS`] cadence on the real clock) and never advances
/// time itself.
fn watchdog_loop(shared: &Shared, clock: &Arc<dyn Clock>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = clock.now_ms();
        let expired: Vec<(u64, u32)> = lock(&shared.watch)
            .iter()
            .filter(|(_, e)| now > e.deadline_ms)
            .map(|(id, e)| (*id, e.attempt))
            .collect();
        for (id, attempt) in expired {
            let mut jobs = lock(&shared.jobs);
            if let Some(state) = jobs.get_mut(&id) {
                if state.status == JobStatus::Running(attempt) {
                    state.status = JobStatus::TimedOut { attempt };
                }
            }
            drop(jobs);
            shared.notify_status();
        }
        clock.wait_for_tick_ms(now, WATCHDOG_TICK_MS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_faults::VirtualClock;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn jobs_run_and_finish() {
        let scheduler = JobScheduler::new(2);
        let id = scheduler.submit(1, || Ok("trained model v1".to_string())).unwrap();
        assert_eq!(scheduler.wait(id).unwrap(), "trained model v1");
        assert_eq!(scheduler.status(id).unwrap(), JobStatus::Finished("trained model v1".into()));
    }

    #[test]
    fn parallel_jobs_all_complete() {
        let scheduler = JobScheduler::new(4);
        let ids: Vec<u64> =
            (0..16).map(|i| scheduler.submit(1, move || Ok(format!("job {i}"))).unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(scheduler.wait(*id).unwrap(), format!("job {i}"));
        }
    }

    /// `new(n)` is `n` lanes over exactly `n` job threads, and unkeyed
    /// jobs are not hashed onto lanes: three jobs that can only finish
    /// together all finish.
    #[test]
    fn unkeyed_jobs_run_as_wide_as_the_scheduler() {
        let scheduler = JobScheduler::new(3);
        assert_eq!(scheduler.shard_count(), 3);
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                scheduler
                    .submit(1, move || {
                        barrier.wait();
                        Ok("met".into())
                    })
                    .unwrap()
            })
            .collect();
        for id in ids {
            assert_eq!(scheduler.wait(id).unwrap(), "met");
        }
    }

    #[test]
    fn retries_until_success() {
        let scheduler = JobScheduler::new(1);
        let counter = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&counter);
        let id = scheduler
            .submit(3, move || {
                if c.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".to_string())
                } else {
                    Ok("recovered".to_string())
                }
            })
            .unwrap();
        assert_eq!(scheduler.wait(id).unwrap(), "recovered");
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_retries_fail() {
        let scheduler = JobScheduler::new(1);
        let id = scheduler.submit(2, || Err("persistent".to_string())).unwrap();
        match scheduler.wait(id) {
            Err(PlatformError::JobFailed(msg)) => assert_eq!(msg, "persistent"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn unknown_job_not_found() {
        let scheduler = JobScheduler::new(1);
        assert!(matches!(
            scheduler.status(99),
            Err(PlatformError::NotFound { kind: "job", id: 99 })
        ));
    }

    #[test]
    fn shutdown_rejects_new_jobs() {
        let mut scheduler = JobScheduler::new(1);
        let id = scheduler.submit(1, || Ok("done".into())).unwrap();
        scheduler.wait(id).unwrap();
        scheduler.shutdown();
        assert!(matches!(
            scheduler.submit(1, || Ok(String::new())),
            Err(PlatformError::SchedulerStopped)
        ));
    }

    #[test]
    fn panicking_job_fails_without_killing_the_worker() {
        let scheduler = JobScheduler::new(1);
        let bad = scheduler.submit(1, || panic!("job exploded")).unwrap();
        match scheduler.wait(bad) {
            Err(PlatformError::JobFailed(msg)) => assert!(msg.contains("job exploded"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
        // the single worker survived and still runs jobs
        let ok = scheduler.submit(1, || Ok("alive".into())).unwrap();
        assert_eq!(scheduler.wait(ok).unwrap(), "alive");
        // and the panic is dead-lettered with its cause
        let dead = scheduler.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].id, bad);
        assert!(matches!(dead[0].attempts[0].cause, FailureCause::Panic(_)));
    }

    #[test]
    fn attempt_counting_is_observable_and_backoff_is_deterministic() {
        let clock = Arc::new(VirtualClock::new());
        let scheduler = JobScheduler::with_clock(1, clock.clone());
        let policy = RetryPolicy::default().with_seed(77).with_max_attempts(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_in_job = Arc::clone(&seen);
        let id = scheduler
            .submit_with(policy.clone(), move |ctx| {
                lock(&seen_in_job).push(ctx.attempt);
                if ctx.attempt < 3 {
                    Err("flaky".into())
                } else {
                    Ok("done".into())
                }
            })
            .unwrap();
        assert_eq!(scheduler.wait(id).unwrap(), "done");
        // JobStatus::Running(n) was observable in order via the context
        assert_eq!(*lock(&seen), vec![1, 2, 3]);
        // the recorded backoffs are exactly the policy's seeded schedule
        let history = scheduler.attempt_history(id).unwrap();
        let backoffs: Vec<u64> = history.iter().map(|a| a.backoff_ms.unwrap()).collect();
        assert_eq!(backoffs, policy.backoff_preview(id, 2));
        // and the virtual clock slept exactly that long in total
        assert_eq!(clock.now_ms(), backoffs.iter().sum::<u64>());
    }

    #[test]
    fn cancellation_during_backoff_resolves_promptly() {
        // real clock + a 60 s backoff: only prompt cancellation lets this
        // test finish quickly
        let scheduler = JobScheduler::new(1);
        let policy = RetryPolicy::default().with_max_attempts(3).with_backoff(60_000, 60_000);
        let id = scheduler.submit_with(policy, |_| Err("always".into())).unwrap();
        let started = std::time::Instant::now();
        scheduler
            .wait_for_status(id, 30_000, |s| matches!(s, JobStatus::Backoff { .. }))
            .expect("job never reached backoff");
        scheduler.cancel(id).unwrap();
        assert!(matches!(scheduler.wait(id), Err(PlatformError::JobCancelled(i)) if i == id));
        assert!(started.elapsed().as_secs() < 30, "cancel must not wait out the backoff");
    }

    #[test]
    fn cancelling_a_queued_job_skips_execution() {
        let scheduler = JobScheduler::new(1);
        // occupy the only worker so the next job stays queued
        let gate = Arc::new(AtomicU32::new(0));
        let g = Arc::clone(&gate);
        let blocker = scheduler
            .submit(1, move || {
                while g.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Ok("unblocked".into())
            })
            .unwrap();
        let ran = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&ran);
        let queued = scheduler
            .submit(1, move || {
                r.fetch_add(1, Ordering::SeqCst);
                Ok("should not run".into())
            })
            .unwrap();
        scheduler.cancel(queued).unwrap();
        gate.store(1, Ordering::SeqCst);
        scheduler.wait(blocker).unwrap();
        assert!(matches!(scheduler.wait(queued), Err(PlatformError::JobCancelled(_))));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "cancelled queued job must not execute");
    }

    #[test]
    fn shutdown_fails_queued_jobs_instead_of_stranding_them() {
        let mut scheduler = JobScheduler::new(1);
        // the only worker is busy until we release it
        let gate = Arc::new(AtomicU32::new(0));
        let g = Arc::clone(&gate);
        let running = scheduler
            .submit(1, move || {
                while g.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Ok("finished".into())
            })
            .unwrap();
        // make sure the worker actually holds the blocker before queueing
        // more, or shutdown could beat the pickup and fail it too
        scheduler.wait_for_status(running, 30_000, |s| *s == JobStatus::Running(1)).unwrap();
        let stranded: Vec<u64> =
            (0..3).map(|_| scheduler.submit(1, || Ok("never".into())).unwrap()).collect();
        // release the worker from another thread shortly after shutdown
        // starts joining, then shut down
        let release = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            gate.store(1, Ordering::SeqCst);
        });
        scheduler.shutdown();
        release.join().unwrap();
        // the running job completed; every queued job is Failed, not Queued
        assert_eq!(scheduler.status(running).unwrap(), JobStatus::Finished("finished".into()));
        for id in stranded {
            assert_eq!(
                scheduler.status(id).unwrap(),
                JobStatus::Failed(SHUTDOWN_ERROR.to_string()),
                "queued job {id} must be failed at shutdown"
            );
        }
        assert!(scheduler.dead_letters().len() >= 3);
    }

    #[test]
    fn watchdog_flags_overrunning_attempt_while_it_runs() {
        let scheduler = JobScheduler::new(1);
        let policy = RetryPolicy::default().with_max_attempts(2).with_timeout(5);
        let id = scheduler
            .submit_with(policy, |ctx| {
                if ctx.attempt == 1 {
                    // overrun the 5 ms deadline on the real clock
                    std::thread::sleep(std::time::Duration::from_millis(60));
                }
                Ok("eventually".into())
            })
            .unwrap();
        // while attempt 1 is stuck, the watchdog must flip the status
        let seen = scheduler
            .wait_for_status(id, 30_000, |s| {
                matches!(
                    s,
                    JobStatus::TimedOut { .. } | JobStatus::Finished(_) | JobStatus::Failed(_)
                )
            })
            .unwrap();
        assert_eq!(
            seen,
            JobStatus::TimedOut { attempt: 1 },
            "watchdog never flagged the overrunning attempt"
        );
        // the stale result is discarded and the retry succeeds
        assert_eq!(scheduler.wait(id).unwrap(), "eventually");
        let history = scheduler.attempt_history(id).unwrap();
        assert!(matches!(history[0].cause, FailureCause::TimedOut { .. }));
    }

    #[test]
    fn wait_for_status_times_out_on_the_scheduler_clock() {
        let scheduler = JobScheduler::new(1);
        // the job finishes immediately, so a wait for Backoff can never match
        let id = scheduler.submit(1, || Ok("instant".into())).unwrap();
        scheduler.wait(id).unwrap();
        match scheduler.wait_for_status(id, 50, |s| matches!(s, JobStatus::Backoff { .. })) {
            Err(PlatformError::WaitTimeout { id: i, timeout_ms: 50 }) => assert_eq!(i, id),
            other => panic!("expected WaitTimeout, got {other:?}"),
        }
        // unknown ids surface NotFound, not a timeout
        assert!(matches!(
            scheduler.wait_for_status(999, 50, |_| true),
            Err(PlatformError::NotFound { kind: "job", id: 999 })
        ));
    }

    #[test]
    fn cancellation_reaches_a_running_job() {
        let scheduler = JobScheduler::new(2);
        let id = scheduler
            .submit_with(RetryPolicy::immediate(1), |ctx| {
                while !ctx.cancel.is_cancelled() {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err("observed cancel".into())
            })
            .unwrap();
        scheduler.wait_for_status(id, 30_000, |s| matches!(s, JobStatus::Running(_))).unwrap();
        scheduler.cancel(id).unwrap();
        assert!(matches!(scheduler.wait(id), Err(PlatformError::JobCancelled(_))));
        assert!(scheduler.dead_letters().is_empty(), "cancellation is not a dead-letter");
    }

    #[test]
    fn lifecycle_events_flow_through_the_tracer() {
        let clock = Arc::new(VirtualClock::new());
        let (tracer, collector) = Tracer::collecting(clock.clone());
        let scheduler = JobScheduler::with_clock_and_tracer(1, clock, tracer.clone());
        let policy = RetryPolicy::default().with_seed(7).with_max_attempts(3);
        let id = scheduler
            .submit_with(policy, |ctx| {
                if ctx.attempt < 2 {
                    Err("flaky".into())
                } else {
                    Ok("done".into())
                }
            })
            .unwrap();
        scheduler.wait(id).unwrap();
        // one job, one failure, one retry: the event stream tells the story
        let names: Vec<String> = collector
            .records()
            .iter()
            .filter(|r| r.name().starts_with("job."))
            .map(|r| r.name().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["job.queued", "job.running", "job.backoff", "job.running", "job.finished"]
        );
        let series = tracer.registry().unwrap().snapshot().len();
        assert_eq!(series, 2, "submitted + finished counters");
        let jsonl = collector.jsonl();
        assert!(jsonl.contains(r#""name":"job.backoff""#), "{jsonl}");
        assert!(jsonl.contains(r#""delay_ms""#), "{jsonl}");
    }

    #[test]
    fn dead_letter_and_cancel_events_are_counted() {
        let clock = Arc::new(VirtualClock::new());
        let (tracer, collector) = Tracer::collecting(clock.clone());
        let scheduler = JobScheduler::with_clock_and_tracer(2, clock, tracer.clone());
        let doomed = scheduler.submit(1, || Err("bad".into())).unwrap();
        let _ = scheduler.wait(doomed);
        // cancel a job that is still queued (both workers may be free, so
        // submit a pair of blockers first)
        let gate = Arc::new(AtomicU32::new(0));
        for _ in 0..2 {
            let g = Arc::clone(&gate);
            scheduler
                .submit(1, move || {
                    while g.load(Ordering::SeqCst) == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Ok("unblocked".into())
                })
                .unwrap();
        }
        let queued = scheduler.submit(1, || Ok("never".into())).unwrap();
        scheduler.cancel(queued).unwrap();
        gate.store(1, Ordering::SeqCst);
        assert!(matches!(scheduler.wait(queued), Err(PlatformError::JobCancelled(_))));
        let records = collector.records();
        assert!(records.iter().any(|r| r.name() == "job.dead_letter"));
        assert!(records.iter().any(|r| r.name() == "job.cancelled"));
        let registry = tracer.registry().unwrap();
        assert_eq!(registry.counter("jobs.dead_lettered", ""), Some(1));
        assert_eq!(registry.counter("jobs.cancelled", ""), Some(1));
    }

    #[test]
    fn dead_letter_exposes_policy_and_requeue_reruns_the_job() {
        let clock = Arc::new(VirtualClock::new());
        let (tracer, collector) = Tracer::collecting(clock.clone());
        let scheduler = JobScheduler::with_clock_and_tracer(1, clock, tracer.clone());
        // fails on its first life, succeeds once requeued
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let id = scheduler
            .submit(1, move || {
                if t.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err("transient outage".into())
                } else {
                    Ok("recovered".into())
                }
            })
            .unwrap();
        assert!(scheduler.wait(id).is_err());
        // the letter carries the original job spec for inspection
        let letter = scheduler.dead_letter(id).unwrap();
        assert_eq!(letter.error, "transient outage");
        assert_eq!(letter.policy.as_ref().map(|p| p.max_attempts), Some(1));
        assert!(letter.requeueable);
        // requeue runs the same closure under a fresh id
        let new_id = scheduler.requeue(id).unwrap();
        assert_ne!(new_id, id);
        assert_eq!(scheduler.wait(new_id).unwrap(), "recovered");
        assert_eq!(tries.load(Ordering::SeqCst), 2);
        // the letter stays for the record but cannot be requeued twice
        assert!(!scheduler.dead_letter(id).unwrap().requeueable);
        assert!(matches!(
            scheduler.requeue(id),
            Err(PlatformError::NotRequeueable { id: stale }) if stale == id
        ));
        assert!(collector.records().iter().any(|r| r.name() == "job.requeued"));
        assert_eq!(tracer.registry().unwrap().counter("jobs.requeued", ""), Some(1));
    }

    #[test]
    fn sharded_scheduler_runs_jobs_and_reports_shards() {
        let pool = Arc::new(ParPool::new(Parallelism::new(4)));
        let scheduler = JobScheduler::with_sharded_pool(pool, 4);
        assert_eq!(scheduler.shard_count(), 4);
        assert_eq!(scheduler.queue_depths().len(), 4);
        let ids: Vec<u64> = (0..16u64)
            .map(|i| scheduler.submit_keyed(i, 1, move || Ok(format!("job {i}"))).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(scheduler.wait(*id).unwrap(), format!("job {i}"));
        }
        // unkeyed submission works too (straight onto the pool)
        let plain = scheduler.submit(1, || Ok("plain".into())).unwrap();
        assert_eq!(scheduler.wait(plain).unwrap(), "plain");
    }

    #[test]
    fn same_key_jobs_run_fifo_even_on_a_wide_pool() {
        let pool = Arc::new(ParPool::new(Parallelism::new(4)));
        let scheduler = JobScheduler::with_sharded_pool(pool, 8);
        let order = Arc::new(Mutex::new(Vec::new()));
        let ids: Vec<u64> = (0..12u32)
            .map(|i| {
                let order = Arc::clone(&order);
                scheduler
                    .submit_keyed(42, 1, move || {
                        // same tenant key -> same shard -> strict FIFO
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        lock(&order).push(i);
                        Ok(String::new())
                    })
                    .unwrap()
            })
            .collect();
        for id in ids {
            scheduler.wait(id).unwrap();
        }
        assert_eq!(*lock(&order), (0..12).collect::<Vec<u32>>());
    }

    /// Four racing submitters keep two lanes flipping between "drainer
    /// retiring" and "submit arriving" on a pool with a single job
    /// thread: no job may be stranded by the swap-reclaim handoff in
    /// `drain_shard`, and each key's jobs still run in submission order.
    #[test]
    fn racing_submitters_never_strand_a_lane() {
        const PER_KEY: u32 = 500;
        let pool = Arc::new(ParPool::new(Parallelism::new(2)));
        let mut scheduler = JobScheduler::with_sharded_pool(pool, 2);
        let ran: Vec<Arc<Mutex<Vec<u32>>>> = (0..4).map(|_| Arc::default()).collect();
        std::thread::scope(|threads| {
            for (key, ran) in ran.iter().enumerate() {
                let scheduler = &scheduler;
                threads.spawn(move || {
                    let ids: Vec<u64> = (0..PER_KEY)
                        .map(|i| {
                            let ran = Arc::clone(ran);
                            scheduler
                                .submit_keyed(key as u64, 1, move || {
                                    lock(&ran).push(i);
                                    Ok(String::new())
                                })
                                .unwrap()
                        })
                        .collect();
                    for id in ids {
                        scheduler.wait(id).unwrap();
                    }
                });
            }
        });
        for ran in &ran {
            assert_eq!(*lock(ran), (0..PER_KEY).collect::<Vec<u32>>());
        }
        assert_eq!(scheduler.queue_depths(), vec![0, 0]);
        scheduler.shutdown();
    }

    /// The per-shard views partition the global one by key placement,
    /// and nothing lives past the last lane.
    fn assert_shard_views_partition_dead_letters(scheduler: &JobScheduler) {
        let lanes = scheduler.shard_count();
        let mut reassembled = Vec::new();
        for shard in 0..lanes {
            for letter in scheduler.dead_letters_in_shard(shard) {
                assert_eq!(shard_index(&letter.key, lanes), shard);
                reassembled.push(letter);
            }
        }
        reassembled.sort_by_key(|l| (l.key, l.id));
        assert_eq!(reassembled, scheduler.dead_letters());
        assert!(scheduler.dead_letters_in_shard(lanes).is_empty());
        assert!(scheduler.dead_letters_in_shard(lanes + 7).is_empty());
    }

    /// Regression: letters carry their tenant key, and the global view is
    /// `(key, id)`-sorted, no matter which lane's drainer lost the race
    /// to record first.
    #[test]
    fn dead_letters_are_attributed_and_merge_in_key_order() {
        let pool = Arc::new(ParPool::new(Parallelism::new(2)));
        let scheduler = JobScheduler::with_sharded_pool(Arc::clone(&pool), 4);
        // failures submitted out of tenant order, across three tenants
        let submitted: Vec<(u64, u64)> = [900u64, 3, 900, 41, 3]
            .iter()
            .map(|&tenant| {
                let id = scheduler
                    .submit_keyed(tenant, 1, move || Err(format!("tenant {tenant} failed")))
                    .unwrap();
                (tenant, id)
            })
            .collect();
        for (_, id) in &submitted {
            assert!(scheduler.wait(*id).is_err());
        }
        let letters = scheduler.dead_letters();
        assert_eq!(letters.len(), submitted.len());
        // every letter is attributed to the tenant that submitted it
        let mut expected = submitted.clone();
        expected.sort_unstable();
        let got: Vec<(u64, u64)> = letters.iter().map(|l| (l.key, l.id)).collect();
        assert_eq!(got, expected, "global view must be (key, id)-sorted");
        assert_shard_views_partition_dead_letters(&scheduler);
        // unkeyed submissions attribute to their own job id, and a
        // private-pool scheduler partitions keyed and unkeyed alike
        let plain = JobScheduler::new(3);
        let unkeyed: Vec<u64> =
            (0..5).map(|_| plain.submit(1, || Err("x".into())).unwrap()).collect();
        let keyed = plain.submit_keyed(900, 1, || Err("y".into())).unwrap();
        for id in unkeyed.iter().chain([&keyed]) {
            assert!(plain.wait(*id).is_err());
        }
        for id in unkeyed {
            assert_eq!(plain.dead_letter(id).unwrap().key, id);
        }
        assert_eq!(plain.dead_letter(keyed).unwrap().key, 900);
        assert_shard_views_partition_dead_letters(&plain);
    }

    /// Regression: a requeued keyed job stays with its tenant — same
    /// lane, and a second failure is attributed to the same key.
    #[test]
    fn requeue_keeps_the_tenant_key() {
        let pool = Arc::new(ParPool::new(Parallelism::new(2)));
        let scheduler = JobScheduler::with_sharded_pool(pool, 4);
        let id = scheduler.submit_keyed(42, 1, || Err("still down".into())).unwrap();
        assert!(scheduler.wait(id).is_err());
        let new_id = scheduler.requeue(id).unwrap();
        assert!(scheduler.wait(new_id).is_err());
        assert_eq!(scheduler.dead_letter(new_id).unwrap().key, 42);
        let shard = shard_index(&42u64, 4);
        let view: Vec<u64> = scheduler.dead_letters_in_shard(shard).iter().map(|l| l.id).collect();
        assert_eq!(view, vec![id, new_id]);
    }

    #[test]
    fn sharded_scheduler_shuts_down_cleanly() {
        let pool = Arc::new(ParPool::new(Parallelism::new(2)));
        let mut scheduler = JobScheduler::with_sharded_pool(Arc::clone(&pool), 4);
        let ids: Vec<u64> = (0..8u64)
            .map(|i| scheduler.submit_keyed(i, 1, move || Ok("ok".into())).unwrap())
            .collect();
        scheduler.shutdown();
        for id in ids {
            // every job reached a terminal state: finished before the
            // drain, or failed fast by the shutdown flag — never stranded
            assert!(matches!(
                scheduler.status(id).unwrap(),
                JobStatus::Finished(_) | JobStatus::Failed(_)
            ));
        }
        assert!(matches!(
            scheduler.submit_keyed(1, 1, || Ok(String::new())),
            Err(PlatformError::SchedulerStopped)
        ));
        // the shared pool survives the scheduler
        assert_eq!(pool.par_map(&[1, 2], |x| x + 1), vec![2, 3]);
    }

    #[test]
    fn requeue_rejects_unknown_ids_and_stopped_schedulers() {
        let mut scheduler = JobScheduler::new(1);
        assert!(matches!(
            scheduler.requeue(404),
            Err(PlatformError::NotFound { kind: "dead letter", id: 404 })
        ));
        assert!(matches!(
            scheduler.dead_letter(404),
            Err(PlatformError::NotFound { kind: "dead letter", id: 404 })
        ));
        let doomed = scheduler.submit(1, || Err("gone".into())).unwrap();
        let _ = scheduler.wait(doomed);
        scheduler.shutdown();
        assert!(matches!(scheduler.requeue(doomed), Err(PlatformError::SchedulerStopped)));
    }
}
