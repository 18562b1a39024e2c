//! The serving front-end: admission, micro-batching and dispatch.
//!
//! A [`Server`] is the single door through which tenant inference enters
//! the pipeline:
//!
//! 1. **Admission** — [`Server::submit`] routes the request to its
//!    tenant's admission shard (FNV-1a of the tenant id, the same
//!    placement function `ei-shard` uses platform-wide), checks that
//!    shard's bounded queue first (full ⇒ [`Rejected::Overloaded`], so
//!    memory stays bounded under overload), then the tenant's token
//!    bucket, which lives on the same shard (empty ⇒
//!    [`Rejected::QuotaExceeded`]). Admitted requests get a ticket and an
//!    absolute logical-clock deadline. With the default
//!    [`ServerConfig::admission_shards`] of 1 the server behaves exactly
//!    as the unsharded original.
//! 2. **Micro-batching** — [`Server::drain`] walks the admission shards
//!    in index order; within a shard it repeatedly takes the oldest
//!    pending request and groups up to `max_batch` queued requests that
//!    resolve to the *same* [`ArtifactKey`] into one batch, so one
//!    compiled artifact amortizes across tenants. All shards feed the
//!    one shared [`ParPool`].
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
use ei_shard::{shard_index, TokenBucket};
use ei_trace::{SpanGuard, Tracer};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Batch-size histogram bucket bounds.
const BATCH_BOUNDS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Pending requests admitted before submissions bounce with
    /// [`Rejected::Overloaded`].
    pub queue_capacity: usize,
    /// Most same-artifact requests dispatched as one batch.
    pub max_batch: usize,
    /// Deadline for requests that pass `deadline_ms: 0`.
    pub default_deadline_ms: u64,
    /// Compiled artifacts kept resident.
    pub cache_capacity: usize,
    /// Per-tenant burst tokens.
    pub quota_capacity: u32,
    /// Per-tenant sustained request rate (tokens per second).
    pub quota_refill_per_sec: f64,
    /// Admission shards. Tenants stripe across shards by FNV-1a of the
    /// tenant id; each shard has its own bounded sub-queue (capacity
    /// `queue_capacity / admission_shards`, rounded up) and owns its
    /// tenants' token buckets, so admission for one tenant population
    /// never contends on another's shard. `1` (the default) reproduces
    /// the unsharded server exactly.
    pub admission_shards: usize,
    /// Artifact-cache stripes. The compiled-artifact cache stripes by
    /// FNV-1a of the tenant id — the same placement function as
    /// `admission_shards` — into independent LRU lists of
    /// `cache_capacity` entries each. A compile never holds its
    /// stripe's lock, so cold compiles overlap at any setting and more
    /// stripes only spread the lookups. `1` (the default) reproduces
    /// the single-LRU original exactly.
    pub cache_shards: usize,
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
            admission_shards: 1,
            cache_shards: 1,
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
    /// One bounded sub-queue per admission shard; a tenant's requests
    /// always land on `fnv1a(tenant) % shards`.
    queues: Vec<VecDeque<Pending>>,
    /// Token buckets, held on the owning tenant's shard.
    buckets: Vec<HashMap<String, TokenBucket>>,
    next_ticket: u64,
    /// Tickets a dispatch pass has taken off a queue and not yet
    /// completed: inserted under the lock that pops the batch, removed by
    /// `complete` (or, should the pass unwind, by its [`Dispatching`]
    /// guard). A resolver whose ticket is here waits for it instead of
    /// reporting it lost.
    dispatching: HashSet<u64>,
    completed: Vec<Completion>,
    /// Admitted-but-not-completed requests per tenant, published as the
    /// `serve.inflight` gauge.
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
        let cache = CompiledArtifactCache::with_shards(
            config.cache_capacity,
            config.cache_shards,
            tracer.clone(),
        );
        let shards = config.admission_shards.max(1);
        Server {
            config,
            clock,
            pool,
            tracer,
            cache,
            obs: None,
            inner: Mutex::new(Inner {
                queues: (0..shards).map(|_| VecDeque::new()).collect(),
                buckets: (0..shards).map(|_| HashMap::new()).collect(),
                next_ticket: 1,
                dispatching: HashSet::new(),
                completed: Vec::new(),
                inflight: HashMap::new(),
            }),
            completion: Condvar::new(),
        }
    }

    /// Number of admission shards (at least 1).
    pub fn admission_shards(&self) -> usize {
        self.config.admission_shards.max(1)
    }

    /// The admission shard `tenant`'s requests (and token bucket) live
    /// on: [`shard_index`] of the tenant id over the shard count — the
    /// same placement function the platform's `ei-shard` stores use.
    pub fn admission_shard_of(&self, tenant: &str) -> usize {
        shard_index(&tenant, self.admission_shards())
    }

    /// Pending requests per admission shard, in shard-index order.
    pub fn shard_depths(&self) -> Vec<usize> {
        lock(&self.inner).queues.iter().map(VecDeque::len).collect()
    }

    /// Each shard's queue bound: the configured total capacity split
    /// evenly (rounded up), so one shard's overload cannot consume
    /// another shard's admission budget.
    fn per_shard_capacity(&self) -> usize {
        self.config.queue_capacity.div_ceil(self.admission_shards()).max(1)
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

    /// Current artifact-cache counters, merged across every stripe.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-stripe artifact-cache counters, in stripe-index order.
    pub fn cache_shard_stats(&self) -> Vec<CacheStats> {
        self.cache.shard_stats()
    }

    /// Number of artifact-cache stripes (at least 1).
    pub fn cache_shards(&self) -> usize {
        self.cache.shard_count()
    }

    /// Requests currently queued, summed across admission shards.
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner).queues.iter().map(VecDeque::len).sum()
    }

    /// Admits one request, returning its ticket.
    ///
    /// Admission is two cheap checks under one lock, both on the
    /// tenant's admission shard — shard queue bound first (overload must
    /// not drain quota), then the tenant's token bucket — and never
    /// compiles or copies model bytes, so a rejection costs nothing and
    /// queue memory stays bounded at `queue_capacity` across shards.
    /// The ticket stays redeemable through [`Server::resolve`] whichever
    /// caller's dispatch pass ends up running the request.
    ///
    /// # Errors
    ///
    /// [`Rejected::Overloaded`] when the tenant's shard queue is full,
    /// [`Rejected::QuotaExceeded`] when the tenant is out of tokens.
    pub fn submit(&self, req: InferenceRequest) -> Result<u64, Rejected> {
        let now = self.clock.now_ms();
        let shard = self.admission_shard_of(&req.tenant);
        let per_shard = self.per_shard_capacity();
        let mut inner = lock(&self.inner);
        if inner.queues[shard].len() >= per_shard {
            self.tracer.quiet_counter("serve.rejected.overloaded").inc();
            self.tracer.quiet_counter("serve.rejected").labeled(&req.tenant).inc();
            return Err(Rejected::Overloaded { queue_depth: inner.queues[shard].len() });
        }
        let (capacity, refill) = (self.config.quota_capacity, self.config.quota_refill_per_sec);
        let bucket = inner.buckets[shard]
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
        inner.queues[shard].push_back(pending);
        let depth = inner.queues.iter().map(VecDeque::len).sum::<usize>();
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
    /// call), billed to `tenant` — the lookup takes only that tenant's
    /// cache stripe. A miss compiles and caches the artifact, just like
    /// the inference path.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownBoard`] for an unknown board,
    /// [`ServeError::Model`] when the model fails to compile.
    pub fn estimate(
        &self,
        tenant: &str,
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
        let (artifact, hit) = self.cache.get_or_insert_with(tenant, &key, || {
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

    /// Dispatches queued requests batch by batch until every shard queue
    /// is empty, visiting shards in index order so dispatch order is
    /// deterministic at any shard count. Batches form within one shard
    /// (a tenant's requests never straddle shards) and all of them feed
    /// the one shared pool.
    fn process_queue(&self) {
        // clamped like the shard and stripe counts: a batch of zero would
        // take nothing and leave the front request queued forever
        let max_batch = self.config.max_batch.max(1);
        for shard in 0..self.admission_shards() {
            loop {
                let batch = {
                    let mut inner = lock(&self.inner);
                    let Some(front) = inner.queues[shard].front() else { break };
                    let key = front.key.clone();
                    let mut batch = Vec::new();
                    let queue = &mut inner.queues[shard];
                    let mut i = 0;
                    while batch.len() < max_batch {
                        match queue.get(i) {
                            Some(p) if p.key != key => i += 1,
                            Some(_) => batch.extend(queue.remove(i)),
                            None => break,
                        }
                    }
                    inner.dispatching.extend(batch.iter().map(|p| p.ticket));
                    let depth = inner.queues.iter().map(VecDeque::len).sum::<usize>();
                    self.tracer.quiet_gauge("serve.queue_depth").set(depth as f64);
                    batch
                };
                let _taken =
                    Dispatching { server: self, tickets: batch.iter().map(|p| p.ticket).collect() };
                self.run_batch(batch);
            }
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
        // batches form within one admission shard and share one artifact;
        // the lookup is billed to (and striped by) the oldest member's
        // tenant, the same request that owns the batch span
        let compiled = self.cache.get_or_insert_with(&live[0].req.tenant, &key, || {
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
            let count = inner.inflight.entry(p.req.tenant.clone()).or_insert(0);
            *count = count.saturating_sub(1);
            *count
        };
        self.completion.notify_all();
        self.tracer.quiet_gauge("serve.inflight").labeled(&p.req.tenant).set(inflight as f64);
    }
}
