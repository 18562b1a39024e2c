//! The five workloads. Each exists because it stresses layers the others
//! do not; `BENCHMARK.json` and the README say which.

pub mod design;
pub mod serve;
pub mod stream;

use ei_serve::CacheStats;
use ei_stream::SessionStats;

/// Exact counts a workload reads from the platform after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Inference requests admitted to the server.
    pub requests: u64,
    /// Requests refused at admission (`Overloaded` / `QuotaExceeded`).
    pub rejected: u64,
    /// Requests whose ticket `Server::resolve` could not find (see
    /// `serve::LOST_TICKET`) and that were asked again.
    pub lost_tickets: u64,
    pub cache: CacheStats,
    /// Summed over the run's stream sessions.
    pub stream: SessionStats,
    pub pool_steals: u64,
}

/// Adds `other`'s lifetime counters into `total` (occupancy fields too:
/// after `close` they count windows left undelivered).
pub fn add_stream_stats(total: &mut SessionStats, other: &SessionStats) {
    total.samples_in += other.samples_in;
    total.chunks_in += other.chunks_in;
    total.frames_computed += other.frames_computed;
    total.frames_used += other.frames_used;
    total.windows_emitted += other.windows_emitted;
    total.windows_classified += other.windows_classified;
    total.drops_backpressure += other.drops_backpressure;
    total.drops_quota += other.drops_quota;
    total.drops_deadline += other.drops_deadline;
    total.failures += other.failures;
    total.oracle_windows += other.oracle_windows;
    total.oracle_mismatches += other.oracle_mismatches;
    total.pending += other.pending;
    total.inflight += other.inflight;
}
