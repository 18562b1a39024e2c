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
//!   typed key (the same idiom as `ei-trace`'s `Registry`). Snapshots
//!   lock every shard at once and merge in key order, so an export of a
//!   16-shard store is **byte-identical** to the serial reference.
//! * [`QuotaLedger`] — per-shard quota accounting: admitted/denied unit
//!   counters per tenant, checked and charged under only that tenant's
//!   shard lock — and [`TokenBucket`], the one clock-driven token bucket
//!   behind both the ledger's burst quotas and `ei-serve`'s admission.
//! * a seeded cross-shard **rebalance/eviction** pass
//!   ([`ShardMap::rebalance`]) for skewed tenant distributions: moves
//!   are a pure function of `(occupancy, seed)`, recorded in an
//!   override table consulted on lookup, and never change snapshot
//!   bytes.
//! * a [`RebalancePolicy`] that closes the telemetry loop: it watches
//!   the per-shard occupancy gauges and derives the rebalance seed from
//!   the observed skew history, so operators no longer hand-pick seeds.
//!
//! Everything is `std`-only and deterministic: shard choice is a pure
//! function of the key, merges are key-ordered, and the rebalance pass
//! is reproducible from its seed.

pub mod map;
pub mod policy;
pub mod quota;

pub use map::{fnv1a_u64, RebalanceReport, ShardKey, ShardMap, ShardObserver, SplitMix64};
pub use policy::{RebalancePolicy, RebalancePolicyStatus};
pub use quota::{QuotaDecision, QuotaLedger, QuotaUsage, TokenBucket};
