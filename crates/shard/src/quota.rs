//! [`QuotaLedger`]: per-shard quota accounting for tenant keys.
//!
//! Each tenant's ledger (limit, admitted units, denied attempts) is an
//! entry of a [`ShardMap`], so a `charge` only takes that tenant's
//! shard lock — admission control scales with the store it protects,
//! on the same stripes. A merged, key-ordered snapshot serves
//! billing/export.
//!
//! Tenants can additionally carry a *burst bucket*
//! ([`QuotaLedger::set_burst`]): a [`TokenBucket`] with per-tenant burst
//! capacity and clock-driven refill — the same type the serving layer's
//! admission uses. [`QuotaLedger::charge_at`] refills from
//! elapsed logical time, then admits or denies atomically under the one
//! shard lock — a denial consumes neither tokens nor cumulative units.
//! Tenants without a bucket (the default) behave exactly as the plain
//! cumulative ledger.

use std::collections::BTreeMap;

use crate::map::{ShardKey, ShardMap};

/// Outcome of [`QuotaLedger::charge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaDecision {
    /// The units were admitted; `remaining` is what's left of the limit
    /// (`u64::MAX` for unlimited tenants).
    Admitted {
        /// Units left before the tenant hits its limit.
        remaining: u64,
    },
    /// The charge would exceed the limit; nothing was admitted.
    Denied {
        /// Units already admitted for this tenant.
        used: u64,
        /// The tenant's limit.
        limit: u64,
    },
}

impl QuotaDecision {
    /// `true` when the charge was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, QuotaDecision::Admitted { .. })
    }
}

/// One tenant's quota state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaUsage {
    /// The tenant's unit limit (`u64::MAX` = unlimited).
    pub limit: u64,
    /// Units admitted so far.
    pub used: u64,
    /// Charges denied so far.
    pub denied: u64,
}

/// A token bucket over the caller's logical milliseconds: `capacity`
/// burst tokens, refilled at `refill_per_sec`.
///
/// Refill arithmetic is plain `f64`; for a fixed sequence of
/// `(now_ms, take)` calls the token trajectory is bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    updated_ms: u64,
}

impl TokenBucket {
    /// A full bucket observed at logical time `now_ms`.
    ///
    /// `capacity` is clamped to at least one token; a negative or NaN
    /// `refill_per_sec` means the bucket never refills (burst-only).
    pub fn new(capacity: u64, refill_per_sec: f64, now_ms: u64) -> TokenBucket {
        let capacity = capacity.max(1) as f64;
        TokenBucket {
            capacity,
            refill_per_sec: refill_per_sec.max(0.0),
            tokens: capacity,
            updated_ms: now_ms,
        }
    }

    /// Advances the bucket to `now_ms`, refilling `refill_per_sec`
    /// tokens per elapsed second, saturating at `capacity`, and returns
    /// the token level. Time never runs backwards: a stale `now_ms`
    /// leaves the bucket untouched.
    fn refill(&mut self, now_ms: u64) -> f64 {
        if now_ms > self.updated_ms {
            let elapsed_ms = (now_ms - self.updated_ms) as f64;
            self.tokens =
                (self.tokens + elapsed_ms * self.refill_per_sec / 1_000.0).min(self.capacity);
            self.updated_ms = now_ms;
        }
        self.tokens
    }

    /// Refills to `now_ms`, then spends `units` tokens if the bucket
    /// holds them; `false` (nothing spent) means over quota right now.
    fn try_take_units(&mut self, units: u64, now_ms: u64) -> bool {
        let admitted = self.refill(now_ms) >= units as f64;
        if admitted {
            self.tokens -= units as f64;
        }
        admitted
    }

    /// Refills to `now_ms`, then spends one token if the bucket holds it;
    /// `false` means over quota right now.
    pub fn try_take(&mut self, now_ms: u64) -> bool {
        self.try_take_units(1, now_ms)
    }

    /// Whole tokens currently available.
    pub fn available(&self) -> u32 {
        self.tokens.floor().max(0.0) as u32
    }
}

#[derive(Debug, Clone, Copy)]
struct Ledger {
    limit: u64,
    used: u64,
    denied: u64,
    burst: Option<TokenBucket>,
}

impl Ledger {
    fn usage(&self) -> QuotaUsage {
        QuotaUsage { limit: self.limit, used: self.used, denied: self.denied }
    }
}

/// A sharded per-tenant quota ledger. See the module docs.
#[derive(Debug)]
pub struct QuotaLedger<K> {
    ledgers: ShardMap<K, Ledger>,
    default_limit: u64,
}

impl<K: Ord + Clone + ShardKey> QuotaLedger<K> {
    /// A ledger striped over `shards` locks. `default_limit` applies to
    /// tenants that never got an explicit [`QuotaLedger::set_limit`]
    /// (`u64::MAX` = unlimited, the platform default — quotas are
    /// opt-in and existing flows never see a denial).
    pub fn new(shards: usize, default_limit: u64) -> QuotaLedger<K> {
        QuotaLedger { ledgers: ShardMap::new(shards), default_limit }
    }

    /// Runs `f` on `key`'s ledger under its one shard lock, opening the
    /// ledger at the default limit on first use.
    fn with_ledger<R>(&self, key: &K, f: impl FnOnce(&mut Ledger) -> R) -> R {
        let limit = self.default_limit;
        self.ledgers.with_mut_or_insert(
            key,
            || Ledger { limit, used: 0, denied: 0, burst: None },
            f,
        )
    }

    /// Sets `key`'s unit limit (does not reset usage).
    pub fn set_limit(&self, key: &K, limit: u64) {
        self.with_ledger(key, |ledger| ledger.limit = limit);
    }

    /// Gives `key` a burst bucket: at most `capacity` units of burst,
    /// refilled at `refill_per_sec` units per second of the caller's
    /// clock (negative or NaN: never), full as of `now_ms`. A `capacity`
    /// of 0 removes the bucket, degenerating the tenant back to the plain
    /// cumulative ledger.
    pub fn set_burst(&self, key: &K, capacity: u64, refill_per_sec: f64, now_ms: u64) {
        self.with_ledger(key, |ledger| {
            ledger.burst =
                (capacity > 0).then(|| TokenBucket::new(capacity, refill_per_sec, now_ms));
        });
    }

    /// Atomically admits or denies `units` against `key`'s ledger,
    /// under only that tenant's shard lock. Equivalent to
    /// [`QuotaLedger::charge_at`] with no time elapsed — a tenant with a
    /// burst bucket gets no refill.
    pub fn charge(&self, key: &K, units: u64) -> QuotaDecision {
        self.charge_at(key, units, 0)
    }

    /// Atomically admits or denies `units` against `key`'s ledger at
    /// logical time `now_ms`, under only that tenant's shard lock.
    ///
    /// When the tenant carries a burst bucket ([`QuotaLedger::set_burst`])
    /// the bucket first refills from the time elapsed since its last
    /// charge (saturating at the burst capacity), then the charge is
    /// admitted only if *both* the cumulative limit and the bucket allow
    /// it — denial consumes neither, the same admit-or-deny atomicity as
    /// the plain ledger. Tenants without a bucket ignore `now_ms`
    /// entirely, so this is byte-for-byte the PR 9 `charge` for them.
    pub fn charge_at(&self, key: &K, units: u64, now_ms: u64) -> QuotaDecision {
        self.with_ledger(key, |ledger| {
            let over_limit = ledger.used.saturating_add(units) > ledger.limit;
            let admitted = match &mut ledger.burst {
                // the bucket still advances to `now_ms`, but spends nothing
                Some(burst) if over_limit => {
                    burst.refill(now_ms);
                    false
                }
                Some(burst) => burst.try_take_units(units, now_ms),
                None => !over_limit,
            };
            if admitted {
                ledger.used += units;
                QuotaDecision::Admitted { remaining: ledger.limit.saturating_sub(ledger.used) }
            } else {
                ledger.denied += 1;
                QuotaDecision::Denied { used: ledger.used, limit: ledger.limit }
            }
        })
    }

    /// `key`'s burst tokens projected to `now_ms` (read-only: the stored
    /// bucket is not refilled). `None` when the tenant has no bucket.
    pub fn burst_tokens(&self, key: &K, now_ms: u64) -> Option<f64> {
        self.ledgers.with(key, |l| l.burst).flatten().map(|mut b| b.refill(now_ms))
    }

    /// Refunds `units` to `key` (e.g. a job that never ran).
    pub fn release(&self, key: &K, units: u64) {
        self.with_ledger(key, |ledger| ledger.used = ledger.used.saturating_sub(units));
    }

    /// `key`'s current usage, if the tenant has a ledger.
    pub fn usage(&self, key: &K) -> Option<QuotaUsage> {
        self.ledgers.with(key, Ledger::usage)
    }

    /// Units admitted per shard, by shard index.
    pub fn used_per_shard(&self) -> Vec<u64> {
        let mut used = vec![0; self.ledgers.shard_count()];
        self.ledgers.for_each(|k, l| used[self.ledgers.shard_of(k)] += l.used);
        used
    }

    /// A key-ordered merged snapshot of every tenant's ledger, locking
    /// all shards at once (index order) for a consistent cut.
    pub fn snapshot(&self) -> BTreeMap<K, QuotaUsage> {
        let mut out = BTreeMap::new();
        self.ledgers.for_each(|k, l| {
            out.insert(k.clone(), l.usage());
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_reject_then_refill() {
        let mut bucket = TokenBucket::new(2, 1_000.0, 0);
        assert!(bucket.try_take(0));
        assert!(bucket.try_take(0));
        assert!(!bucket.try_take(0), "burst capacity exhausted");
        // 1000 tokens/s -> one token per logical millisecond
        assert!(bucket.try_take(1));
        assert!(!bucket.try_take(1));
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut bucket = TokenBucket::new(3, 1_000.0, 0);
        assert!(bucket.try_take(0));
        // an hour of idle refill still leaves at most `capacity` tokens
        assert!(bucket.try_take(3_600_000));
        assert_eq!(bucket.available(), 2);
    }

    #[test]
    fn zero_refill_is_burst_only() {
        let mut bucket = TokenBucket::new(1, 0.0, 0);
        assert!(bucket.try_take(0));
        assert!(!bucket.try_take(10_000_000));
    }

    #[test]
    fn unlimited_by_default_then_limited() {
        let ledger: QuotaLedger<u64> = QuotaLedger::new(8, u64::MAX);
        assert!(ledger.charge(&1, 1_000_000).is_admitted());
        ledger.set_limit(&1, 1_000_001);
        assert!(ledger.charge(&1, 1).is_admitted());
        let denied = ledger.charge(&1, 1);
        assert_eq!(denied, QuotaDecision::Denied { used: 1_000_001, limit: 1_000_001 });
        let usage = ledger.usage(&1).unwrap();
        assert_eq!(usage.denied, 1);
        ledger.release(&1, 1);
        assert!(ledger.charge(&1, 1).is_admitted());
    }

    #[test]
    fn zero_burst_degenerates_to_plain_ledger() {
        // no bucket, and a bucket explicitly removed with capacity 0,
        // must both make the same decisions as the PR 9 cumulative
        // ledger for the same charge sequence, at any timestamps
        let plain: QuotaLedger<u64> = QuotaLedger::new(4, u64::MAX);
        let bursty: QuotaLedger<u64> = QuotaLedger::new(4, u64::MAX);
        bursty.set_burst(&7, 3, 1_000.0, 0);
        bursty.set_burst(&7, 0, 1_000.0, 0); // capacity 0 removes it
        plain.set_limit(&7, 5);
        bursty.set_limit(&7, 5);
        for (i, &units) in [2u64, 2, 2, 1, 9].iter().enumerate() {
            assert_eq!(
                plain.charge(&7, units),
                bursty.charge_at(&7, units, i as u64 * 1_000),
                "charge {i} must not depend on time without a bucket"
            );
        }
        assert_eq!(plain.usage(&7), bursty.usage(&7));
        assert_eq!(bursty.burst_tokens(&7, u64::MAX), None);
    }

    #[test]
    fn burst_refills_on_the_clock_and_saturates_at_capacity() {
        let ledger: QuotaLedger<u64> = QuotaLedger::new(4, u64::MAX);
        // 4 burst units, refilled at 2 per second
        ledger.set_burst(&1, 4, 2.0, 0);
        for _ in 0..4 {
            assert!(ledger.charge_at(&1, 1, 0).is_admitted(), "burst capacity admits");
        }
        let denied = ledger.charge_at(&1, 1, 0);
        assert_eq!(denied, QuotaDecision::Denied { used: 4, limit: u64::MAX });
        assert_eq!(ledger.usage(&1).unwrap().denied, 1);
        // 500 ms refills exactly one token
        assert!(ledger.charge_at(&1, 1, 500).is_admitted());
        assert!(!ledger.charge_at(&1, 1, 500).is_admitted(), "the one token is spent");
        // a denial never consumes tokens: the very next refilled charge admits
        assert!(ledger.charge_at(&1, 1, 1_000).is_admitted());
        // an hour refills far more than 4 tokens but the bucket saturates
        assert_eq!(ledger.burst_tokens(&1, 3_600_000 + 1_000), Some(4.0));
        for _ in 0..4 {
            assert!(ledger.charge_at(&1, 1, 3_600_000 + 1_000).is_admitted());
        }
        assert!(!ledger.charge_at(&1, 1, 3_600_000 + 1_000).is_admitted());
        // time running backwards never refills
        assert!(!ledger.charge_at(&1, 1, 0).is_admitted());
    }

    #[test]
    fn nan_or_negative_refill_rates_never_refill() {
        for rate in [f64::NAN, -1_000.0] {
            let ledger: QuotaLedger<u64> = QuotaLedger::new(4, u64::MAX);
            ledger.set_burst(&1, 2, rate, 0);
            let admitted = (0..100).filter(|i| ledger.charge_at(&1, 1, i * 1_000).is_admitted());
            assert_eq!(admitted.count(), 2, "rate {rate}: only the burst capacity admits");
            assert_eq!(ledger.burst_tokens(&1, 1_000_000), Some(0.0), "rate {rate}");
        }
    }

    #[test]
    fn burst_and_cumulative_limit_deny_atomically() {
        let ledger: QuotaLedger<u64> = QuotaLedger::new(2, u64::MAX);
        ledger.set_limit(&3, 2);
        ledger.set_burst(&3, 10, 0.0, 0);
        assert!(ledger.charge_at(&3, 1, 0).is_admitted());
        assert!(ledger.charge_at(&3, 1, 0).is_admitted());
        // cumulative limit denies even though 8 burst tokens remain...
        assert!(!ledger.charge_at(&3, 1, 0).is_admitted());
        // ...and the denial consumed no tokens
        assert_eq!(ledger.burst_tokens(&3, 0), Some(8.0));
        assert_eq!(ledger.usage(&3).unwrap(), QuotaUsage { limit: 2, used: 2, denied: 1 });
    }

    #[test]
    fn concurrent_charges_match_the_serial_ledger() {
        // 8 real threads, each hammering its own tenant key with the
        // same deterministic (units, now_ms) sequence the serial ledger
        // replays — the merged snapshots and burst levels must be equal
        const THREADS: u64 = 8;
        const CHARGES: u64 = 200;
        let concurrent: std::sync::Arc<QuotaLedger<u64>> =
            std::sync::Arc::new(QuotaLedger::new(4, u64::MAX));
        let serial: QuotaLedger<u64> = QuotaLedger::new(4, u64::MAX);
        for ledger in [&*concurrent, &serial] {
            for key in 0..THREADS {
                ledger.set_limit(&key, 150);
                ledger.set_burst(&key, 8, 100.0, 0);
            }
        }
        let schedule = |key: u64, i: u64| (1 + (key + i) % 2, i * 20); // (units, now_ms)
        std::thread::scope(|scope| {
            for key in 0..THREADS {
                let ledger = std::sync::Arc::clone(&concurrent);
                scope.spawn(move || {
                    for i in 0..CHARGES {
                        let (units, now_ms) = schedule(key, i);
                        ledger.charge_at(&key, units, now_ms);
                    }
                });
            }
        });
        for key in 0..THREADS {
            for i in 0..CHARGES {
                let (units, now_ms) = schedule(key, i);
                serial.charge_at(&key, units, now_ms);
            }
        }
        assert_eq!(concurrent.snapshot(), serial.snapshot());
        for key in 0..THREADS {
            assert_eq!(
                concurrent.burst_tokens(&key, CHARGES * 20),
                serial.burst_tokens(&key, CHARGES * 20),
                "burst level for key {key}"
            );
        }
    }

    #[test]
    fn snapshot_merges_in_key_order_across_shard_counts() {
        let fill = |l: &QuotaLedger<u64>| {
            for t in (0..50u64).rev() {
                l.charge(&t, t);
            }
        };
        let one: QuotaLedger<u64> = QuotaLedger::new(1, u64::MAX);
        let many: QuotaLedger<u64> = QuotaLedger::new(16, u64::MAX);
        fill(&one);
        fill(&many);
        let a = one.snapshot();
        let b = many.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.keys().copied().collect::<Vec<_>>(), (0..50u64).collect::<Vec<_>>());
        assert_eq!(many.used_per_shard().iter().sum::<u64>(), (0..50u64).sum::<u64>());
    }
}
