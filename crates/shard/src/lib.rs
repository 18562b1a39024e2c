#![warn(missing_docs)]

//! Sharded multi-tenant platform state.
//!
//! The platform's north star is "heavy traffic from millions of users",
//! but a single mutex-guarded map serializes every tenant behind one
//! lock. This crate provides the striped building blocks the platform
//! layer is rebuilt on:
//!
//! * [`ShardMap`] — a tenant-partitioned key→value store striping
//!   entries across N independently locked shards by FNV-1a of the
//!   typed key ([`shard_index`]). Snapshots lock every shard at once and
//!   merge in key order, so an export of a 16-shard store is
//!   **byte-identical** to the serial reference.
//! * [`QuotaLedger`] — per-tenant quota accounting on a [`ShardMap`]:
//!   admitted/denied unit counters per tenant, checked and charged under
//!   only that tenant's shard lock — and [`TokenBucket`], the one
//!   clock-driven token bucket behind both the ledger's burst quotas and
//!   `ei-serve`'s admission.
//!
//! Everything is `std`-only and deterministic: shard choice is a pure
//! function of the key that never changes for a store's life, so every
//! keyed operation takes exactly one lock, and merges are key-ordered.
//! No entry ever moves between shards: no workload has shown placement
//! skew worth the extra lock (and the lost-update window) that moving
//! entries would put on every operation.

pub mod map;
pub mod quota;

pub use map::{fnv1a, fnv1a_u64, shard_index, ShardKey, ShardMap, ShardObserver, SplitMix64};
pub use quota::{QuotaDecision, QuotaLedger, QuotaUsage, TokenBucket};
