#![warn(missing_docs)]

//! Multi-tenant inference serving for `edgelab`: artifact cache,
//! admission control and micro-batching.
//!
//! The paper's platform is a cloud service running ingestion-to-deployment
//! pipelines for thousands of concurrent projects (paper §3); this crate
//! is the serving layer that makes the reproduction behave like one
//! process of that service rather than a single-user CLI:
//!
//! * [`CompiledArtifactCache`] — one LRU keyed by
//!   `(model content hash, board, engine, dtype)` that memoizes the
//!   expensive half of a request (registry JSON decode, EON codegen /
//!   TFLM interpreter setup, arena memory planning), compiling each
//!   missing key once however many callers ask. Hits return
//!   byte-identical classifications and memory plans to a cold compile.
//! * [`Server`] — per-tenant token-bucket quotas, one bounded request
//!   queue with explicit backpressure ([`Rejected::Overloaded`]), deadline
//!   propagation into [`ei_faults`] per-attempt timeouts, and
//!   micro-batching that dispatches same-artifact requests through one
//!   [`ei_par::ParPool::par_map`] call.
//! * Full [`ei_trace`] instrumentation, every series recorded once
//!   through the server's tracer: the `serve.queue_depth` gauge,
//!   tenant-labeled (and therefore label-capped) `serve.latency_ms`
//!   histograms, `serve.inflight` gauges and `serve.ok` / `serve.err` /
//!   `serve.rejected` counters, the batch-size distribution and cache
//!   hit/miss/eviction/coalesced counters.
//!
//! Every timestamp is read from an injected [`ei_faults::Clock`] and the
//! server never moves it, so under a [`ei_faults::VirtualClock`] latency
//! is exactly what the test advanced and a load test is byte-for-byte
//! reproducible regardless of `EI_THREADS` or wall time.

pub mod cache;
pub mod error;
pub mod request;
pub mod server;

pub use cache::{
    content_hash, ArtifactKey, CacheStats, CompiledArtifact, CompiledArtifactCache, ModelBlob,
};
pub use ei_shard::TokenBucket;
pub use error::ServeError;
pub use request::{
    Completion, InferenceRequest, InferenceSpec, ModelName, ModelSource, Outcome, Rejected,
};
pub use server::{Estimate, Server, ServerConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
