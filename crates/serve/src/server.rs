//! The serving front-end: admission, micro-batching and dispatch.
//!
//! A [`Server`] is the single door through which tenant inference enters
//! the pipeline:
//!
//! 1. **Admission** — [`Server::submit`] checks the one bounded queue
//!    first (full ⇒ [`Rejected::Overloaded`], so memory stays bounded
//!    under overload), then the tenant's token bucket (empty ⇒
//!    [`Rejected::QuotaExceeded`]). Admitted requests get a ticket and an
//!    absolute logical-clock deadline.
//! 2. **Micro-batching** — [`Server::drain`] repeatedly takes the oldest
//!    pending request and groups up to `max_batch` queued requests that
//!    resolve to the *same* [`ArtifactKey`] into one batch, so one
//!    compiled artifact amortizes across tenants. Every batch runs on
//!    the one shared [`ParPool`].
//! 3. **Dispatch** — each batch runs as a single [`ei_faults::retry`]
//!    attempt whose per-attempt timeout is the batch's deadline slack
//!    (deadline propagation), executing every window through one
//!    [`ParPool::par_map`] call.
//!
//! Callers collect with [`Server::resolve`] (one ticket) or
//! [`Server::drain`] (everything finished so far). Any number of threads
//! may `submit` + `resolve` on one server: a dispatch pass records the
//! tickets it takes off a queue until it has completed them, and a
//! resolver whose ticket another caller's pass holds waits for it. `None`
//! from `resolve` therefore means an unknown or already-collected ticket,
//! never a request in flight.
//!
//! Model bytes travel by pointer: a request carries an `Arc` of the
//! registry's [`crate::ModelBlob`], admission reads only its stored hash,
//! and the JSON itself is read once per cache *miss*, by
//! [`CompiledArtifact::compile`].
//!
//! The server only ever *reads* the injected [`Clock`]: every
//! [`Completion::latency_ms`], `queued_ms` and deadline is a difference of
//! `now_ms()` readings and nothing here sleeps or charges service time.
//! Under [`ei_faults::SystemClock`] latency is therefore what the request
//! really took (the wall-clock numbers live in `benchmark/`); under a
//! [`ei_faults::VirtualClock`] it is whatever the test advanced between
//! `submit` and `resolve`, so a load test is byte-for-byte reproducible at
//! any `EI_THREADS` setting.

use crate::cache::{ArtifactKey, CacheStats, CompiledArtifact, CompiledArtifactCache};
use crate::error::ServeError;
use crate::request::{Completion, InferenceRequest, Outcome, Rejected};
use crate::ModelSource;
use ei_core::Classification;
use ei_device::{Board, Profiler};
use ei_faults::retry::{self, RetryOutcome};
use ei_faults::sync::{lock, wait};
use ei_faults::{CancelToken, Clock, FailureCause, RetryPolicy};
use ei_obs::{Obs, LATENCY_BOUNDS};
use ei_par::ParPool;
use ei_runtime::EngineKind;
use ei_shard::TokenBucket;
use ei_trace::{SpanGuard, Tracer};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Batch-size histogram bucket bounds.
const BATCH_BOUNDS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Pending requests admitted before submissions bounce with
    /// [`Rejected::Overloaded`] (at least 1).
    pub queue_capacity: usize,
    /// Most same-artifact requests dispatched as one batch.
    pub max_batch: usize,
    /// Deadline for requests that pass `deadline_ms: 0`.
    pub default_deadline_ms: u64,
    /// Compiled artifacts kept resident (at least 1).
    pub cache_capacity: usize,
    /// Per-tenant burst tokens.
    pub quota_capacity: u32,
    /// Per-tenant sustained request rate (tokens per second).
    pub quota_refill_per_sec: f64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_capacity: 64,
            max_batch: 8,
            default_deadline_ms: 1_000,
            cache_capacity: 8,
            quota_capacity: 64,
            quota_refill_per_sec: 64.0,
        }
    }
}

/// A device estimate served through the artifact cache.
///
/// The serving layer's view of a [`ei_device::Profiler`] report, flattened
/// so platform callers need no `ei-device` types.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Canonical board name the estimate is for.
    pub board: String,
    /// Engine the artifact was compiled for.
    pub engine: EngineKind,
    /// `true` for the int8 artifact.
    pub quantized: bool,
    /// Preprocessing latency (modeled device ms).
    pub dsp_ms: f64,
    /// Inference latency (modeled device ms).
    pub inference_ms: f64,
    /// End-to-end latency including invoke overhead.
    pub total_ms: f64,
    /// Total RAM the deployment needs.
    pub ram_bytes: usize,
    /// Total flash the deployment needs.
    pub flash_bytes: usize,
    /// `true` when the deployment fits the board.
    pub fits: bool,
    /// `true` when the compiled artifact came from the cache.
    pub cache_hit: bool,
}

/// One admitted, not-yet-dispatched request.
#[derive(Debug)]
struct Pending {
    ticket: u64,
    key: ArtifactKey,
    enqueued_ms: u64,
    deadline_at_ms: u64,
    req: InferenceRequest,
    /// The request's `serve.request` span, opened at admission and
    /// closed at completion; its trace id names the whole causal chain
    /// (batch, pool scope, outcome event) for the flight recorder.
    span: SpanGuard,
}

/// State behind the server's admission lock.
#[derive(Debug)]
struct Inner {
    /// Admitted requests in arrival order, at most
    /// `queue_capacity.max(1)` of them.
    queue: VecDeque<Pending>,
    /// Token buckets by tenant.
    buckets: HashMap<String, TokenBucket>,
    next_ticket: u64,
    /// Tickets a dispatch pass has taken off the queue and not yet
    /// completed: inserted under the lock that pops the batch, removed by
    /// `complete` (or, should the pass unwind, by its [`Dispatching`]
    /// guard). A resolver whose ticket is here waits for it instead of
    /// reporting it lost.
    dispatching: HashSet<u64>,
    completed: Vec<Completion>,
    /// Admitted-but-not-completed requests per tenant, published as the
    /// `serve.inflight` gauge; a tenant leaves when its count reaches 0.
    inflight: HashMap<String, u64>,
}

/// The tickets of one popped batch. Dropped when the batch has run; if
/// the pass unwound before completing them all, the leftovers leave
/// `Inner::dispatching` here, so their resolvers get `None` rather than
/// waiting for a completion that will never come.
struct Dispatching<'a> {
    server: &'a Server,
    tickets: Vec<u64>,
}

impl Drop for Dispatching<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut inner = lock(&self.server.inner);
            for ticket in &self.tickets {
                inner.dispatching.remove(ticket);
            }
            drop(inner);
            self.server.completion.notify_all();
        }
    }
}

/// The multi-tenant serving front-end.
pub struct Server {
    config: ServerConfig,
    clock: Arc<dyn Clock>,
    pool: Arc<ParPool>,
    tracer: Tracer,
    cache: CompiledArtifactCache,
    obs: Option<Arc<Obs>>,
    inner: Mutex<Inner>,
    /// Paired with `inner`; notified whenever a request completes.
    completion: Condvar,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("queue_depth", &self.queue_depth())
            .field("cache", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// A server over an injected clock, pool and tracer.
    ///
    /// Pass a [`ei_faults::VirtualClock`] to make every latency and
    /// timeout in a load test reproducible.
    pub fn new(
        config: ServerConfig,
        clock: Arc<dyn Clock>,
        pool: Arc<ParPool>,
        tracer: Tracer,
    ) -> Server {
        let cache = CompiledArtifactCache::new(config.cache_capacity, tracer.clone());
        Server {
            config,
            clock,
            pool,
            tracer,
            cache,
            obs: None,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                buckets: HashMap::new(),
                next_ticket: 1,
                dispatching: HashSet::new(),
                completed: Vec::new(),
                inflight: HashMap::new(),
            }),
            completion: Condvar::new(),
        }
    }

    /// Attaches a telemetry hub for SLO evaluation: every completion
    /// feeds the hub's monitors (breaches trip its flight recorder).
    /// Spans and metric series go through `tracer` either way — typically
    /// `obs.tracer().clone()`, so they land in the hub's recorder and registry.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Server {
        self.obs = Some(obs);
        self
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The serving clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The tracer requests are recorded through. Callers that open their
    /// own spans on it (e.g. a streaming session's `stream.session` span)
    /// get `serve.request` stitched in as a child via the ambient context.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Admitted-but-not-completed requests for `tenant`.
    pub fn tenant_inflight(&self, tenant: &str) -> u64 {
        lock(&self.inner).inflight.get(tenant).copied().unwrap_or(0)
    }

    /// Current artifact-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    /// Admits one request, returning its ticket.
    ///
    /// Admission is two cheap checks under one lock — the queue bound
    /// first (overload must not drain quota), then the tenant's token
    /// bucket — and never compiles or copies model bytes, so a rejection
    /// costs nothing and queue memory stays bounded at `queue_capacity`
    /// (at least 1).
    /// The ticket stays redeemable through [`Server::resolve`] whichever
    /// caller's dispatch pass ends up running the request.
    ///
    /// # Errors
    ///
    /// [`Rejected::Overloaded`] when the queue is full,
    /// [`Rejected::QuotaExceeded`] when the tenant is out of tokens.
    pub fn submit(&self, req: InferenceRequest) -> Result<u64, Rejected> {
        let now = self.clock.now_ms();
        let mut inner = lock(&self.inner);
        if inner.queue.len() >= self.config.queue_capacity.max(1) {
            self.tracer.quiet_counter("serve.rejected.overloaded").inc();
            self.tracer.quiet_counter("serve.rejected").labeled(&req.tenant).inc();
            return Err(Rejected::Overloaded { queue_depth: inner.queue.len() });
        }
        let (capacity, refill) = (self.config.quota_capacity, self.config.quota_refill_per_sec);
        let bucket = inner
            .buckets
            .entry(req.tenant.clone())
            .or_insert_with(|| TokenBucket::new(capacity.into(), refill, now));
        if !bucket.try_take(now) {
            self.tracer.quiet_counter("serve.rejected.quota").inc();
            self.tracer.quiet_counter("serve.rejected").labeled(&req.tenant).inc();
            return Err(Rejected::QuotaExceeded { tenant: req.tenant });
        }
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        let budget_ms =
            if req.deadline_ms == 0 { self.config.default_deadline_ms } else { req.deadline_ms };
        // The request's causal root. Opened *after* admission (rejects
        // stay span-free and cheap) and adopts any ambient context, so a
        // request submitted from inside a traced caller stitches in.
        let span = self.tracer.span_with(
            "serve.request",
            vec![("tenant", req.tenant.clone().into()), ("ticket", ticket.into())],
        );
        let pending = Pending {
            ticket,
            key: req.artifact_key(),
            enqueued_ms: now,
            deadline_at_ms: now.saturating_add(budget_ms),
            req,
            span,
        };
        let tenant = pending.req.tenant.clone();
        inner.queue.push_back(pending);
        let depth = inner.queue.len();
        let inflight = {
            let count = inner.inflight.entry(tenant.clone()).or_insert(0);
            *count += 1;
            *count
        };
        self.tracer.quiet_counter("serve.submitted").inc();
        self.tracer.quiet_gauge("serve.queue_depth").set(depth as f64);
        self.tracer.quiet_gauge("serve.inflight").labeled(&tenant).set(inflight as f64);
        Ok(ticket)
    }

    /// Dispatches every queued request and returns all new completions
    /// (in dispatch order).
    pub fn drain(&self) -> Vec<Completion> {
        self.process_queue();
        std::mem::take(&mut lock(&self.inner).completed)
    }

    /// Dispatches the queue, then extracts the completion for `ticket`,
    /// leaving other tenants' completions for their own callers.
    ///
    /// Safe to call from many threads at once: when another caller's
    /// dispatch pass took `ticket` off the queue first, this one waits
    /// for that pass to complete it. `None` therefore only ever means a
    /// ticket this server never issued, or one whose completion was
    /// already collected (by an earlier `resolve` or a [`Server::drain`])
    /// — never a request in flight.
    pub fn resolve(&self, ticket: u64) -> Option<Completion> {
        self.process_queue();
        let mut inner = lock(&self.inner);
        loop {
            if let Some(pos) = inner.completed.iter().position(|c| c.ticket == ticket) {
                return Some(inner.completed.remove(pos));
            }
            if !inner.dispatching.contains(&ticket) {
                return None;
            }
            inner = wait(&self.completion, inner);
        }
    }

    /// Estimates on-device cost for a model through the artifact cache
    /// (the platform's pre-deployment "how will this run on board X"
    /// call). A miss compiles and caches the artifact, just like the
    /// inference path.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownBoard`] for an unknown board,
    /// [`ServeError::Model`] when the model fails to compile.
    pub fn estimate(
        &self,
        model: &ModelSource,
        board: &str,
        engine: EngineKind,
        quantized: bool,
    ) -> Result<Estimate, ServeError> {
        let board = Board::by_name(board).map_err(|_| ServeError::UnknownBoard(board.into()))?;
        let key = ArtifactKey {
            content_hash: model.blob.content_hash(),
            board: board.name.clone(),
            engine,
            quantized,
        };
        let (artifact, hit) = self.cache.get_or_insert_with("", &key, || {
            CompiledArtifact::compile(key.clone(), model.blob.json())
        })?;
        let dsp_cost = artifact.dsp_cost()?;
        let report = Profiler::new(board).profile(Some(dsp_cost), artifact.engine());
        Ok(Estimate {
            ram_bytes: report.total_ram_bytes(),
            flash_bytes: report.total_flash_bytes(),
            fits: report.fit.fits,
            board: report.board,
            engine,
            quantized,
            dsp_ms: report.dsp_ms,
            inference_ms: report.inference_ms,
            total_ms: report.total_ms,
            cache_hit: hit,
        })
    }

    /// Dispatches queued requests batch by batch until the queue is
    /// empty, each batch the oldest request plus the next same-key ones.
    fn process_queue(&self) {
        // clamped like the queue bound: a batch of zero would take
        // nothing and leave the front request queued forever
        let max_batch = self.config.max_batch.max(1);
        loop {
            let batch = {
                let mut inner = lock(&self.inner);
                let Some(front) = inner.queue.front() else { break };
                let key = front.key.clone();
                let mut batch = Vec::new();
                let queue = &mut inner.queue;
                let mut i = 0;
                while batch.len() < max_batch {
                    match queue.get(i) {
                        Some(p) if p.key != key => i += 1,
                        Some(_) => batch.extend(queue.remove(i)),
                        None => break,
                    }
                }
                inner.dispatching.extend(batch.iter().map(|p| p.ticket));
                self.tracer.quiet_gauge("serve.queue_depth").set(inner.queue.len() as f64);
                batch
            };
            let _taken =
                Dispatching { server: self, tickets: batch.iter().map(|p| p.ticket).collect() };
            self.run_batch(batch);
        }
    }

    /// Runs one same-artifact batch: expiry sweep, cached (or cold)
    /// compile, then a single deadline-bounded retry attempt that fans the
    /// windows out over the pool.
    fn run_batch(&self, batch: Vec<Pending>) {
        let now = self.clock.now_ms();
        let (live, expired): (Vec<Pending>, Vec<Pending>) =
            batch.into_iter().partition(|p| now < p.deadline_at_ms);
        for p in expired {
            let waited_ms = now.saturating_sub(p.enqueued_ms);
            self.complete(p, Outcome::DeadlineExceeded { waited_ms }, now, now, false, 0);
        }
        if live.is_empty() {
            return;
        }
        // The batch span hangs off the oldest member's request, so at
        // least one causal chain shows the full queue → batch → pool
        // path; the pool scope below stitches in via the entered context.
        let batch_span = live[0].span.child_with(
            "serve.batch",
            vec![
                ("batch_size", (live.len() as u64).into()),
                ("artifact", live[0].key.board.clone().into()),
            ],
        );
        let key = live[0].key.clone();
        let compiled = self.cache.get_or_insert_with("", &key, || {
            CompiledArtifact::compile(key.clone(), live[0].req.model.blob.json())
        });
        let (artifact, hit) = match compiled {
            Ok(pair) => pair,
            Err(e) => {
                let finish = self.clock.now_ms();
                let batch_size = live.len();
                drop(batch_span);
                for p in live {
                    self.complete(
                        p,
                        Outcome::Failed(e.to_string()),
                        now,
                        finish,
                        false,
                        batch_size,
                    );
                }
                return;
            }
        };

        let start = self.clock.now_ms();
        // deadline propagation: the batch attempt may run at most as long
        // as its most patient member is willing to wait; items whose own
        // deadline passes are marked individually after the attempt
        let slack_ms =
            live.iter().map(|p| p.deadline_at_ms.saturating_sub(start)).max().unwrap_or(0);
        let policy = RetryPolicy::immediate(1).with_timeout(slack_ms);
        let cancel = CancelToken::new();
        let mut outputs: Option<Vec<Result<Classification, ServeError>>> = None;
        let result = {
            let _in_batch = batch_span.enter();
            retry::execute(
                &policy,
                &*self.clock,
                key.content_hash,
                &cancel,
                |_| {},
                |_| {
                    outputs = Some(self.pool.par_map(&live, |p| {
                        if p.req.precomputed {
                            artifact.classify_features(&p.req.window)
                        } else {
                            artifact.classify(&p.req.window)
                        }
                    }));
                    Ok(String::new())
                },
            )
        };

        let finish = self.clock.now_ms();
        let batch_size = live.len();
        self.tracer.histogram("serve.batch_size", &BATCH_BOUNDS).observe(batch_size as f64);
        drop(batch_span);
        match result.outcome {
            RetryOutcome::Success { .. } => {
                let outputs = outputs.take().expect("successful attempt stored its outputs");
                for (p, out) in live.into_iter().zip(outputs) {
                    let outcome = if finish > p.deadline_at_ms {
                        Outcome::DeadlineExceeded {
                            waited_ms: finish.saturating_sub(p.enqueued_ms),
                        }
                    } else {
                        match out {
                            Ok(c) => Outcome::Classified(c),
                            Err(e) => Outcome::Failed(e.to_string()),
                        }
                    };
                    self.complete(p, outcome, start, finish, hit, batch_size);
                }
            }
            RetryOutcome::Exhausted { error } => {
                let timed_out = result
                    .attempts
                    .last()
                    .is_some_and(|a| matches!(a.cause, FailureCause::TimedOut { .. }));
                for p in live {
                    let outcome = if timed_out {
                        Outcome::DeadlineExceeded {
                            waited_ms: finish.saturating_sub(p.enqueued_ms),
                        }
                    } else {
                        Outcome::Failed(error.clone())
                    };
                    self.complete(p, outcome, start, finish, hit, batch_size);
                }
            }
            RetryOutcome::Cancelled => {
                for p in live {
                    self.complete(
                        p,
                        Outcome::Failed("cancelled".into()),
                        start,
                        finish,
                        hit,
                        batch_size,
                    );
                }
            }
        }
    }

    /// Records one finished request: outcome event on (and close of) the
    /// request span, completion buffer, per-tenant latency histogram and
    /// outcome counters, and the attached [`Obs`] hub's SLOs, if any.
    fn complete(
        &self,
        p: Pending,
        outcome: Outcome,
        batch_start_ms: u64,
        finish_ms: u64,
        cache_hit: bool,
        batch_size: usize,
    ) {
        let latency_ms = finish_ms.saturating_sub(p.enqueued_ms);
        let queued_ms = batch_start_ms.saturating_sub(p.enqueued_ms);
        let event = match outcome {
            Outcome::Classified(_) => "serve.completed",
            Outcome::DeadlineExceeded { .. } => "serve.deadline_exceeded",
            Outcome::Failed(_) => "serve.failed",
        };
        self.tracer.quiet_counter(event).inc();
        // The outcome event lands *inside* the request span (then the
        // span closes), so a flight recorder triggered on it captures
        // the whole causal chain by trace id.
        p.span.event(
            event,
            vec![("tenant", p.req.tenant.clone().into()), ("latency_ms", latency_ms.into())],
        );
        let tenant = &p.req.tenant;
        let ok = matches!(outcome, Outcome::Classified(_));
        self.tracer
            .histogram("serve.latency_ms", &LATENCY_BOUNDS)
            .labeled(tenant)
            .observe(latency_ms as f64);
        self.tracer.quiet_counter(if ok { "serve.ok" } else { "serve.err" }).labeled(tenant).inc();
        if let Some(obs) = &self.obs {
            obs.record_request(tenant, latency_ms as f64, ok);
        }
        let completion = Completion {
            ticket: p.ticket,
            tenant: p.req.tenant.clone(),
            outcome,
            engine: p.req.engine,
            queued_ms,
            latency_ms,
            cache_hit,
            batch_size,
        };
        drop(p.span);
        let inflight = {
            let mut inner = lock(&self.inner);
            inner.dispatching.remove(&completion.ticket);
            inner.completed.push(completion);
            let left = inner.inflight.get_mut(tenant).map_or(0, |count| {
                *count = count.saturating_sub(1);
                *count
            });
            if left == 0 {
                inner.inflight.remove(tenant);
            }
            left
        };
        self.completion.notify_all();
        self.tracer.quiet_gauge("serve.inflight").labeled(tenant).set(inflight as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InferenceSpec;
    use ei_faults::VirtualClock;
    use ei_par::Parallelism;

    #[test]
    fn inflight_map_forgets_tenants_once_drained() {
        let config = ServerConfig { queue_capacity: 128, ..ServerConfig::default() };
        let pool = Arc::new(ParPool::new(Parallelism::serial()));
        let server = Server::new(config, VirtualClock::shared(), pool, Tracer::disabled());
        // the model never compiles, so every request completes as `Failed`
        let model = ModelSource::new("m", "{}".into());
        let spec = InferenceSpec::new("m", EngineKind::EonCompiled);
        for t in 0..100 {
            let tenant = format!("tenant-{t}");
            let req = InferenceRequest::from_spec(&spec, model.clone(), Vec::new(), &tenant);
            server.submit(req).expect("admitted");
        }
        assert_eq!(server.tenant_inflight("tenant-7"), 1);
        assert_eq!(lock(&server.inner).inflight.len(), 100);
        assert_eq!(server.drain().len(), 100);
        assert!(lock(&server.inner).inflight.is_empty(), "a drained tenant leaves the map");
        assert_eq!(server.tenant_inflight("tenant-7"), 0);
    }
}
