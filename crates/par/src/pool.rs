//! The scoped work-stealing pool and its deterministic combinators.
//!
//! Architecture: every worker owns a deque (LIFO for its own pushes,
//! FIFO for thieves) and there is one global injector queue for tasks
//! submitted from outside the pool. Idle workers park on a condvar.
//! A thread waiting for a scope to finish *helps*: it pops queued tasks
//! and runs them inline, so nested `par_map` calls from inside pool
//! tasks cannot deadlock and a `threads = N` pool really does provide
//! `N` concurrent executors (`N - 1` workers plus the scoped caller).

use crate::config::Parallelism;
use ei_faults::sync::{lock, wait_timeout};
use ei_faults::CancelToken;
use ei_trace::Tracer;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A queued unit of work (lifetime-erased by the scope layer).
type Task = Box<dyn FnOnce() + Send>;

/// How long an idle worker sleeps between wakeup re-checks. Workers are
/// notified on every push; the timeout is a belt-and-braces bound, not
/// the scheduling latency.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a waiting scope sleeps when the queue is empty but tasks
/// are still running on workers. Completion notifies the scope condvar,
/// so this too is only a fallback bound.
const SCOPE_WAIT_TIMEOUT: Duration = Duration::from_millis(1);

thread_local! {
    /// `(pool id, worker index)` of the pool thread we are on, if any.
    static WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// Why a fallible parallel map did not return a full result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError<E> {
    /// The [`CancelToken`] fired before every task ran; queued tasks
    /// were drained without starting.
    Cancelled,
    /// The lowest-index task failure (identical to what the serial loop
    /// would have returned first).
    Task(E),
}

impl<E: std::fmt::Display> std::fmt::Display for ParError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Cancelled => write!(f, "parallel map cancelled"),
            ParError::Task(e) => write!(f, "parallel task failed: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for ParError<E> {}

/// What one slot of a parallel map ended as. A slot left at `None`
/// means the task was skipped by cancellation (or never spawned).
enum Slot<R, E> {
    Done(R),
    Failed(E),
    Panicked(Box<dyn Any + Send>),
}

struct PoolInner {
    id: u64,
    deques: Vec<Mutex<VecDeque<Task>>>,
    injector: Mutex<VecDeque<Task>>,
    park_lock: Mutex<()>,
    park_cond: Condvar,
    queued: AtomicUsize,
    steals: AtomicU64,
    shutdown: AtomicBool,
    tracer: Tracer,
}

impl PoolInner {
    /// The calling thread's worker index *in this pool*, if it is one.
    fn own_slot(&self) -> Option<usize> {
        WORKER.with(Cell::get).filter(|(pool_id, _)| *pool_id == self.id).map(|(_, index)| index)
    }

    /// Queues a task: onto the caller's own deque when the caller is a
    /// worker of this pool, otherwise onto the global injector.
    fn push(&self, task: Task) {
        // Count the task *before* it becomes visible in a queue, so a
        // racing `take` can never drive the counter below zero.
        let depth = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
        self.tracer.quiet_gauge("par.queue_depth").set(depth as f64);
        match self.own_slot() {
            Some(w) => lock(&self.deques[w]).push_back(task),
            None => lock(&self.injector).push_back(task),
        }
        let _guard = lock(&self.park_lock);
        self.park_cond.notify_all();
    }

    /// Takes one task: own deque LIFO first, then the injector, then
    /// FIFO-steal from the other workers.
    fn take(&self) -> Option<Task> {
        let own = self.own_slot();
        if let Some(w) = own {
            if let Some(task) = lock(&self.deques[w]).pop_back() {
                return Some(self.took(task));
            }
        }
        if let Some(task) = lock(&self.injector).pop_front() {
            return Some(self.took(task));
        }
        let n = self.deques.len();
        let start = own.map_or(0, |w| w + 1);
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(task) = lock(&self.deques[victim]).pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.tracer.quiet_counter("par.steal").inc();
                return Some(self.took(task));
            }
        }
        None
    }

    fn took(&self, task: Task) -> Task {
        let depth = self.queued.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        self.tracer.quiet_gauge("par.queue_depth").set(depth as f64);
        task
    }
}

fn worker_loop(inner: &Arc<PoolInner>, index: usize) {
    WORKER.with(|slot| slot.set(Some((inner.id, index))));
    loop {
        if let Some(task) = inner.take() {
            // Tasks catch their own panics; this is a last line of
            // defence so no unwind can ever kill a worker.
            let _ = catch_unwind(AssertUnwindSafe(task));
            continue;
        }
        let guard = lock(&inner.park_lock);
        // Drain everything before honouring shutdown so detached tasks
        // queued just before drop still run.
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if inner.queued.load(Ordering::SeqCst) > 0 {
            continue;
        }
        let _ = wait_timeout(&inner.park_cond, guard, PARK_TIMEOUT);
    }
}

/// The scoped work-stealing thread pool.
///
/// A `Parallelism::new(n)` pool provides `n` concurrent executors for
/// scoped work: `n - 1` worker threads plus the calling thread, which
/// helps run queued tasks while it waits. A serial pool (`n == 1`) runs
/// all scoped work inline on the caller — same API, bitwise-identical
/// outputs — and keeps a single worker thread for detached tasks
/// ([`ParPool::spawn_detached`], used by the job scheduler).
pub struct ParPool {
    inner: Arc<PoolInner>,
    parallelism: Parallelism,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ParPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParPool")
            .field("threads", &self.parallelism.threads())
            .field("workers", &self.workers.len())
            .finish()
    }
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

impl ParPool {
    /// A pool with the given thread budget and no tracing.
    pub fn new(parallelism: Parallelism) -> ParPool {
        ParPool::with_tracer(parallelism, Tracer::disabled())
    }

    /// A pool whose combinators emit `par.*` spans, events and counters
    /// through `tracer`.
    pub fn with_tracer(parallelism: Parallelism, tracer: Tracer) -> ParPool {
        let worker_count = parallelism.threads().saturating_sub(1).max(1);
        let inner = Arc::new(PoolInner {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            deques: (0..worker_count).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            park_lock: Mutex::new(()),
            park_cond: Condvar::new(),
            queued: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            tracer,
        });
        let workers = (0..worker_count)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ei-par-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawn pool worker")
            })
            .collect();
        ParPool { inner, parallelism, workers }
    }

    /// The process-wide shared pool, sized from [`Parallelism::from_env`]
    /// (`EI_THREADS`) on first use. Layers that want a dedicated or
    /// differently-sized pool construct their own.
    pub fn global() -> &'static ParPool {
        static GLOBAL: OnceLock<ParPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ParPool::new(Parallelism::from_env()))
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.parallelism.threads()
    }

    /// The [`Parallelism`] this pool was built with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Total tasks taken from another worker's deque since creation
    /// (scheduling-dependent; also mirrored on the quiet `par.steal`
    /// counter).
    pub fn steals(&self) -> u64 {
        self.inner.steals.load(Ordering::Relaxed)
    }

    /// Tasks currently queued and not yet started.
    pub fn queue_depth(&self) -> usize {
        self.inner.queued.load(Ordering::SeqCst)
    }

    /// Runs `op` with a [`Scope`]; returns once every spawned task has
    /// finished. A task panic is re-raised here after all tasks finish.
    pub fn scope<'s, R>(&'s self, op: impl FnOnce(&Scope<'s>) -> R) -> R {
        self.scope_inner(None, op)
    }

    /// Like [`ParPool::scope`], but every task observes `cancel`: once
    /// the token fires, queued tasks are drained without starting.
    pub fn scope_with_cancel<'s, R>(
        &'s self,
        cancel: &CancelToken,
        op: impl FnOnce(&Scope<'s>) -> R,
    ) -> R {
        self.scope_inner(Some(cancel.clone()), op)
    }

    fn scope_inner<'s, R>(
        &'s self,
        cancel: Option<CancelToken>,
        op: impl FnOnce(&Scope<'s>) -> R,
    ) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                lock: Mutex::new(()),
                cond: Condvar::new(),
                panic: Mutex::new(None),
                started: AtomicUsize::new(0),
                skipped: AtomicUsize::new(0),
            }),
            cancel,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        scope.wait_pending();
        let task_panic = lock(&scope.state.panic).take();
        match result {
            Ok(value) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                value
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Queues a free-standing `'static` task (no scope, no result). The
    /// job scheduler uses this to share the pool instead of spawning a
    /// thread per job. A panicking task is caught and dropped; the
    /// worker survives.
    ///
    /// The submitter's ambient [`ei_trace::context::TraceContext`] (if
    /// any) is captured here and entered on the worker for the task's
    /// duration, so spans the task opens stitch into the submitting
    /// request's causal tree.
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let ctx = ei_trace::context::current();
        self.inner.push(Box::new(move || {
            let _entered = ctx.map(ei_trace::context::TraceContext::enter);
            let _ = catch_unwind(AssertUnwindSafe(f));
        }));
    }

    /// Deterministic order-preserving map: `f` runs once per item (in
    /// parallel on a multi-thread pool) and results land by input index,
    /// so the output is bitwise-identical to `items.iter().map(f)`. If
    /// any task panics, the *lowest-index* panic is re-raised after all
    /// tasks finish.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.par_map_fallible::<T, R, Infallible, _>(None, items, |item| Ok(f(item))) {
            Ok(out) => out,
            Err(ParError::Cancelled) => unreachable!("no cancel token was supplied"),
        }
    }

    /// Fallible deterministic map: on failure returns the error of the
    /// *lowest-index* failing task — exactly the error a serial
    /// short-circuiting loop would have hit first.
    pub fn par_map_result<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        match self.par_map_fallible(None, items, f) {
            Ok(out) => Ok(out),
            Err(ParError::Task(e)) => Err(e),
            Err(ParError::Cancelled) => unreachable!("no cancel token was supplied"),
        }
    }

    /// [`ParPool::par_map_result`] with cooperative cancellation: tasks
    /// not yet started when `cancel` fires are skipped, and the call
    /// reports [`ParError::Cancelled`].
    ///
    /// Every task runs (or is skipped) regardless of other tasks'
    /// failures, mirroring the parallel execution on the serial path, so
    /// the trace stream is identical at any thread count.
    pub fn par_map_fallible<T, R, E, F>(
        &self,
        cancel: Option<&CancelToken>,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, ParError<E>>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        let n = items.len();
        let span = self.inner.tracer.span_with("par.scope", vec![("tasks", (n as u64).into())]);
        let slots: Vec<Mutex<Option<Slot<R, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let run_one = |item: &T, slot: &Mutex<Option<Slot<R, E>>>| {
            let outcome = match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(Ok(value)) => Slot::Done(value),
                Ok(Err(error)) => Slot::Failed(error),
                Err(payload) => Slot::Panicked(payload),
            };
            *lock(slot) = Some(outcome);
        };

        if self.parallelism.is_serial() {
            for (item, slot) in items.iter().zip(&slots) {
                if cancel.is_some_and(|c| c.is_cancelled()) {
                    break;
                }
                run_one(item, slot);
            }
        } else {
            self.scope_inner(cancel.cloned(), |scope| {
                for (item, slot) in items.iter().zip(&slots) {
                    let run_one = &run_one;
                    scope.spawn(move || run_one(item, slot));
                }
            });
        }

        let outcomes: Vec<Option<Slot<R, E>>> = slots
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner()))
            .collect();
        for (index, outcome) in outcomes.iter().enumerate() {
            let status = match outcome {
                Some(Slot::Done(_)) => "ok",
                Some(Slot::Failed(_)) => "err",
                Some(Slot::Panicked(_)) => "panic",
                None => "skipped",
            };
            span.event(
                "par.task",
                vec![("index", (index as u64).into()), ("status", status.into())],
            );
        }
        self.inner.tracer.counter("par.tasks").add(n as u64);

        let mut out = Vec::with_capacity(n);
        for outcome in outcomes {
            match outcome {
                Some(Slot::Done(value)) => out.push(value),
                Some(Slot::Failed(error)) => return Err(ParError::Task(error)),
                Some(Slot::Panicked(payload)) => resume_unwind(payload),
                None => return Err(ParError::Cancelled),
            }
        }
        Ok(out)
    }

    /// Deterministic chunked map-reduce: `map` runs once per
    /// `chunk_size`-sized slice of `items` (in parallel), and the chunk
    /// accumulators are folded left-to-right in chunk order — identical
    /// to the serial fold whenever `reduce` is associative over the
    /// chunk boundaries. Returns `None` on empty input.
    pub fn par_chunks_reduce<T, A, M, Rd>(
        &self,
        items: &[T],
        chunk_size: usize,
        map: M,
        reduce: Rd,
    ) -> Option<A>
    where
        T: Sync,
        A: Send,
        M: Fn(&[T]) -> A + Sync,
        Rd: Fn(A, A) -> A,
    {
        if items.is_empty() {
            return None;
        }
        let chunks: Vec<&[T]> = items.chunks(chunk_size.max(1)).collect();
        let accumulators = self.par_map(&chunks, |chunk| map(chunk));
        accumulators.into_iter().reduce(reduce)
    }

    fn shut_down(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = lock(&self.inner.park_lock);
            self.inner.park_cond.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ParPool {
    fn drop(&mut self) {
        self.shut_down();
    }
}

struct ScopeState {
    pending: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    started: AtomicUsize,
    skipped: AtomicUsize,
}

impl ScopeState {
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A handle for spawning tasks that may borrow from the enclosing
/// stack frame; [`ParPool::scope`] waits for all of them before it
/// returns, which is what makes the borrow sound.
pub struct Scope<'s> {
    pool: &'s ParPool,
    state: Arc<ScopeState>,
    cancel: Option<CancelToken>,
}

impl<'s> Scope<'s> {
    /// Spawns a task. On a serial pool it runs inline immediately; the
    /// semantics (cancellation skip, panic capture) are identical.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 's,
    {
        if self.pool.parallelism.is_serial() {
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                self.state.skipped.fetch_add(1, Ordering::SeqCst);
                return;
            }
            self.state.started.fetch_add(1, Ordering::SeqCst);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                self.state.record_panic(payload);
            }
            return;
        }
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let cancel = self.cancel.clone();
        let task: Box<dyn FnOnce() + Send + 's> = Box::new(move || {
            // Drop guard: `pending` is decremented (and the waiter woken)
            // even if anything below unwinds, so a scope can never hang.
            struct Complete(Arc<ScopeState>);
            impl Drop for Complete {
                fn drop(&mut self) {
                    if self.0.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                        let _guard = lock(&self.0.lock);
                        self.0.cond.notify_all();
                    }
                }
            }
            let _complete = Complete(Arc::clone(&state));
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                state.skipped.fetch_add(1, Ordering::SeqCst);
            } else {
                state.started.fetch_add(1, Ordering::SeqCst);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    state.record_panic(payload);
                }
            }
        });
        // SAFETY: the lifetime of the boxed closure is erased to 'static
        // so it can sit in the shared queues, but `scope_inner` always
        // waits for `pending == 0` before returning, so everything the
        // task borrows outlives its execution.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 's>, Box<dyn FnOnce() + Send>>(task)
        };
        self.pool.inner.push(task);
    }

    /// Tasks that actually began executing.
    pub fn started(&self) -> usize {
        self.state.started.load(Ordering::SeqCst)
    }

    /// Tasks skipped because the cancel token had fired before they
    /// started.
    pub fn skipped(&self) -> usize {
        self.state.skipped.load(Ordering::SeqCst)
    }

    /// `true` once the scope's cancel token (if any) has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Helps run queued tasks until every task of this scope finished.
    fn wait_pending(&self) {
        while self.state.pending.load(Ordering::SeqCst) > 0 {
            if let Some(task) = self.pool.inner.take() {
                task();
                continue;
            }
            let guard = lock(&self.state.lock);
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            let _ = wait_timeout(&self.state.cond, guard, SCOPE_WAIT_TIMEOUT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_faults::VirtualClock;
    use ei_trace::export::to_jsonl;
    use std::sync::atomic::AtomicU32;

    fn pool(threads: usize) -> ParPool {
        ParPool::new(Parallelism::new(threads))
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let got = pool(threads).par_map(&items, |x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_result_returns_lowest_index_error() {
        let items: Vec<u32> = (0..32).collect();
        let p = pool(4);
        let got: Result<Vec<u32>, String> =
            p.par_map_result(
                &items,
                |x| {
                    if *x % 10 == 3 {
                        Err(format!("bad {x}"))
                    } else {
                        Ok(*x)
                    }
                },
            );
        assert_eq!(got, Err("bad 3".to_string()));
    }

    #[test]
    fn lowest_index_panic_wins_and_pool_survives() {
        let p = pool(4);
        let items: Vec<u32> = (0..16).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.par_map(&items, |x| {
                if *x == 2 || *x == 11 {
                    panic!("task {x} exploded");
                }
                *x
            })
        }));
        let payload = result.expect_err("map should panic");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(message, "task 2 exploded");
        // The pool is still fully usable afterwards.
        assert_eq!(p.par_map(&[1u32, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn cancelled_token_skips_unstarted_tasks() {
        for threads in [1, 4] {
            let p = pool(threads);
            let cancel = CancelToken::new();
            cancel.cancel();
            let ran = AtomicU32::new(0);
            let items: Vec<u32> = (0..8).collect();
            let got: Result<Vec<u32>, ParError<String>> =
                p.par_map_fallible(Some(&cancel), &items, |x| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(*x)
                });
            assert_eq!(got, Err(ParError::Cancelled), "threads={threads}");
            assert_eq!(ran.load(Ordering::SeqCst), 0, "threads={threads}");
        }
    }

    #[test]
    fn cancel_mid_sweep_drains_the_queue() {
        let p = pool(2);
        let cancel = CancelToken::new();
        let started = AtomicU32::new(0);
        let items: Vec<u32> = (0..64).collect();
        let cancel_ref = &cancel;
        let started_ref = &started;
        let got: Result<Vec<u32>, ParError<String>> =
            p.par_map_fallible(Some(&cancel), &items, move |x| {
                started_ref.fetch_add(1, Ordering::SeqCst);
                if *x == 0 {
                    cancel_ref.cancel();
                }
                Ok(*x)
            });
        assert_eq!(got, Err(ParError::Cancelled));
        let started = started.load(Ordering::SeqCst);
        assert!(started < 64, "cancellation should stop new tasks, started={started}");
    }

    #[test]
    fn par_chunks_reduce_matches_serial_fold() {
        let items: Vec<u64> = (1..=1000).collect();
        let expected: u64 = items.iter().sum();
        for threads in [1, 4] {
            let got = pool(threads).par_chunks_reduce(
                &items,
                64,
                |chunk| chunk.iter().sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(got, Some(expected), "threads={threads}");
        }
        let empty: Option<u64> =
            pool(2).par_chunks_reduce(&[], 8, |c: &[u64]| c.iter().sum(), |a, b| a + b);
        assert_eq!(empty, None);
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let p = pool(2);
        let rows: Vec<u64> = (0..8).collect();
        let got = p.par_map(&rows, |row| {
            let cols: Vec<u64> = (0..8).collect();
            p.par_map(&cols, |col| row * 10 + col).iter().sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|row| (0..8).map(|c| row * 10 + c).sum()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn scope_runs_borrowing_tasks() {
        let p = pool(4);
        let mut results = vec![0u32; 16];
        p.scope(|scope| {
            for (i, slot) in results.iter_mut().enumerate() {
                scope.spawn(move || *slot = (i * 2) as u32);
            }
        });
        let expected: Vec<u32> = (0..16).map(|i| i * 2).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn detached_tasks_run_even_on_a_serial_pool() {
        for threads in [1, 4] {
            let p = pool(threads);
            let done = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&done);
            p.spawn_detached(move || flag.store(true, Ordering::SeqCst));
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !done.load(Ordering::SeqCst) {
                assert!(std::time::Instant::now() < deadline, "detached task never ran");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn detached_panic_does_not_kill_the_worker() {
        let p = pool(1);
        p.spawn_detached(|| panic!("detached boom"));
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        p.spawn_detached(move || flag.store(true, Ordering::SeqCst));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done.load(Ordering::SeqCst) {
            assert!(std::time::Instant::now() < deadline, "worker died after panic");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn trace_stream_is_identical_across_thread_counts() {
        let streams: Vec<String> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let clock = VirtualClock::shared();
                let (tracer, collector) = Tracer::collecting(clock);
                let p = ParPool::with_tracer(Parallelism::new(threads), tracer);
                let items: Vec<u64> = (0..32).collect();
                let got = p.par_map(&items, |x| x + 1);
                assert_eq!(got.len(), 32);
                to_jsonl(&collector.records())
            })
            .collect();
        assert_eq!(streams[0], streams[1], "trace stream must not depend on thread count");
    }

    #[test]
    fn quiet_series_live_in_registry_not_stream() {
        let clock = VirtualClock::shared();
        let (tracer, collector) = Tracer::collecting(clock);
        let p = ParPool::with_tracer(Parallelism::new(4), tracer.clone());
        let items: Vec<u64> = (0..64).collect();
        p.par_map(&items, |x| x * 3);
        let registry = tracer.registry().unwrap();
        assert_eq!(registry.gauge("par.queue_depth", ""), Some(0.0), "queue must be drained");
        assert_eq!(registry.counter("par.tasks", ""), Some(64));
        for record in collector.records() {
            let name = record.name();
            assert!(
                name != "par.steal" && name != "par.queue_depth",
                "scheduling-dependent series leaked into the stream: {name}"
            );
        }
    }

    /// Satellite: N producers × M maps with pseudo-random panics — every
    /// panicking map is isolated to its caller and the pool survives.
    #[test]
    fn stress_random_panics_are_isolated_and_pool_survives() {
        let p = pool(4);
        let pool_ref = &p;
        std::thread::scope(|s| {
            for producer in 0..4u64 {
                s.spawn(move || {
                    for round in 0..25u64 {
                        // xorshift-style mix: deterministic, no rand dep.
                        let mix = |i: u64| {
                            let mut v = producer
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                                .wrapping_add(i);
                            v ^= v >> 30;
                            v = v.wrapping_mul(0x94d0_49bb_1331_11eb);
                            v ^ (v >> 31)
                        };
                        let items: Vec<u64> = (0..16).map(mix).collect();
                        let should_panic = items.iter().any(|v| v % 7 == 0);
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            pool_ref.par_map(&items, |v| {
                                if v % 7 == 0 {
                                    panic!("poisoned {v}");
                                }
                                v.wrapping_mul(2)
                            })
                        }));
                        match result {
                            Ok(out) => {
                                assert!(!should_panic);
                                let expected: Vec<u64> =
                                    items.iter().map(|v| v.wrapping_mul(2)).collect();
                                assert_eq!(out, expected);
                            }
                            Err(_) => assert!(should_panic),
                        }
                    }
                });
            }
        });
        // After the storm the pool still computes correctly.
        let items: Vec<u64> = (0..32).collect();
        let expected: Vec<u64> = items.iter().map(|x| x + 7).collect();
        assert_eq!(p.par_map(&items, |x| x + 7), expected);
    }

    #[test]
    fn serial_pool_runs_scoped_work_inline() {
        let p = pool(1);
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..8).collect();
        let threads = p.par_map(&items, |_| std::thread::current().id());
        assert!(threads.iter().all(|id| *id == caller));
    }

    #[test]
    fn global_pool_is_shared_and_alive() {
        let a = ParPool::global();
        let b = ParPool::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.par_map(&[1u32, 2, 3], |x| x * 2), vec![2, 4, 6]);
    }
}
