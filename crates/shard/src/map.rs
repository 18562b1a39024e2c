//! [`ShardMap`]: a striped key→value store with consistent snapshots.
//!
//! Entries stripe across N independently locked shards by FNV-1a of the
//! key, so writers for different tenants almost never contend. Two
//! properties the platform layer leans on:
//!
//! 1. **Placement is a pure function.** A key lives on
//!    [`shard_index`]`(key, shards)` for the map's whole life; nothing
//!    ever moves an entry, so every keyed operation takes exactly one
//!    lock — its shard's.
//! 2. **Snapshots are consistent and key-ordered.** [`ShardMap::snapshot`]
//!    locks every shard (in index order, the crate-wide lock order) and
//!    merges into one `BTreeMap`, so serializing a snapshot yields bytes
//!    independent of the shard count — a 64-shard export equals the
//!    serial reference byte for byte.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// FNV-1a 64-bit over raw bytes: the one stable hash behind shard
/// placement and `ei-serve`'s model content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the 8 little-endian bytes of a `u64` — the shard hash for
/// numeric tenant ids ([`ShardKey`] for `u64` and the platform id
/// newtypes route through this).
pub fn fnv1a_u64(raw: u64) -> u64 {
    fnv1a(&raw.to_le_bytes())
}

/// The stripe `key` lives on among `shards` stripes (clamped to at
/// least 1): `key.shard_hash() % shards`. Every striped structure in
/// the platform — [`ShardMap`], [`crate::QuotaLedger`], the serving
/// artifact cache and admission shards, the job lanes — places keys
/// with this one function.
pub fn shard_index(key: &impl ShardKey, shards: usize) -> usize {
    (key.shard_hash() % shards.max(1) as u64) as usize
}

/// A key that knows its shard hash. Typed id newtypes implement this by
/// hashing their raw `u64`, so `ProjectId(7)` and `UserId(7)` of the
/// platform land wherever raw `7` would — placement survives newtype
/// migrations.
pub trait ShardKey {
    /// A stable 64-bit hash of the key (FNV-1a by convention).
    fn shard_hash(&self) -> u64;
}

impl ShardKey for u64 {
    fn shard_hash(&self) -> u64 {
        fnv1a_u64(*self)
    }
}

impl ShardKey for u32 {
    fn shard_hash(&self) -> u64 {
        fnv1a_u64(*self as u64)
    }
}

impl ShardKey for usize {
    fn shard_hash(&self) -> u64 {
        fnv1a_u64(*self as u64)
    }
}

impl ShardKey for String {
    fn shard_hash(&self) -> u64 {
        fnv1a(self.as_bytes())
    }
}

impl ShardKey for &str {
    fn shard_hash(&self) -> u64 {
        fnv1a(self.as_bytes())
    }
}

/// Telemetry hooks a [`ShardMap`] calls with its lock-wait times and
/// per-shard occupancy. The platform bridges this into the `ei-obs`
/// registry (`platform.shard.lock_wait`, `platform.shard.occupancy`)
/// so flight dumps can name hot shards. With no observer attached the
/// map never reads a wall clock.
pub trait ShardObserver: Send + Sync {
    /// One lock acquisition on `shard` waited `wait_ns` nanoseconds.
    fn lock_wait(&self, shard: usize, wait_ns: u64);
    /// `shard` now holds `len` entries (called after inserts/removes).
    fn occupancy(&self, shard: usize, len: usize);
}

/// A striped, tenant-partitioned key→value store. See the module docs.
pub struct ShardMap<K, V> {
    shards: Vec<Mutex<BTreeMap<K, V>>>,
    observer: OnceLock<Arc<dyn ShardObserver>>,
}

impl<K, V> std::fmt::Debug for ShardMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap").field("shards", &self.shards.len()).finish_non_exhaustive()
    }
}

fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<K: Ord + Clone + ShardKey, V> ShardMap<K, V> {
    /// A map striped over `shards` locks (clamped to at least 1).
    pub fn new(shards: usize) -> ShardMap<K, V> {
        let shards = shards.max(1);
        ShardMap {
            shards: (0..shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            observer: OnceLock::new(),
        }
    }

    /// Attaches telemetry hooks (first caller wins; later calls are
    /// ignored so racing attachers cannot swap observers mid-flight).
    pub fn set_observer(&self, observer: Arc<dyn ShardObserver>) {
        let _ = self.observer.set(observer);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` lives on: [`shard_index`] over this map's shard
    /// count. Never changes for the life of the map.
    pub fn shard_of(&self, key: &K) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Locks shard `idx`, timing the wait when an observer is attached.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, BTreeMap<K, V>> {
        match self.observer.get() {
            None => lock_plain(&self.shards[idx]),
            Some(obs) => {
                let started = std::time::Instant::now();
                let guard = lock_plain(&self.shards[idx]);
                obs.lock_wait(idx, started.elapsed().as_nanos() as u64);
                guard
            }
        }
    }

    fn note_occupancy(&self, idx: usize, len: usize) {
        if let Some(obs) = self.observer.get() {
            obs.occupancy(idx, len);
        }
    }

    /// Inserts `key → value`, returning any previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let idx = self.shard_of(&key);
        let mut shard = self.lock_shard(idx);
        let prev = shard.insert(key, value);
        let len = shard.len();
        drop(shard);
        self.note_occupancy(idx, len);
        prev
    }

    /// Clones the value for `key`.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.lock_shard(self.shard_of(key)).get(key).cloned()
    }

    /// `true` when `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.lock_shard(self.shard_of(key)).contains_key(key)
    }

    /// Runs `f` with a shared reference to the value, under only that
    /// key's shard lock.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.lock_shard(self.shard_of(key)).get(key).map(f)
    }

    /// Runs `f` with a mutable reference to the value, under only that
    /// key's shard lock.
    pub fn with_mut<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.lock_shard(self.shard_of(key)).get_mut(key).map(f)
    }

    /// Runs `f` with a mutable reference to the value, first inserting
    /// `default()` when `key` is absent — lookup, insert and `f` all
    /// under that key's one shard lock.
    pub fn with_mut_or_insert<R>(
        &self,
        key: &K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        let idx = self.shard_of(key);
        let mut shard = self.lock_shard(idx);
        let len_before = shard.len();
        let out = f(shard.entry(key.clone()).or_insert_with(default));
        let len = shard.len();
        drop(shard);
        if len != len_before {
            self.note_occupancy(idx, len);
        }
        out
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let idx = self.shard_of(key);
        let mut shard = self.lock_shard(idx);
        let prev = shard.remove(key);
        let len = shard.len();
        drop(shard);
        self.note_occupancy(idx, len);
        prev
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_plain(s).len()).sum()
    }

    /// `true` when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock_plain(s).is_empty())
    }

    /// Entries per shard, by shard index.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| lock_plain(s).len()).collect()
    }

    /// max/mean shard occupancy: 1.0 is perfectly even, `shards` is
    /// worst-case (everything on one shard). Empty maps report 1.0.
    pub fn occupancy_skew(&self) -> f64 {
        let occ = self.occupancy();
        let total: usize = occ.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / occ.len() as f64;
        occ.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// A consistent point-in-time copy merged in key order: all shard
    /// locks are held at once (in index order), so the snapshot is a
    /// cut no concurrent writer can straddle, and the merged `BTreeMap`
    /// serializes to the same bytes at any shard count.
    pub fn snapshot(&self) -> BTreeMap<K, V>
    where
        V: Clone,
    {
        let mut out = BTreeMap::new();
        self.for_each(|k, v| {
            out.insert(k.clone(), v.clone());
        });
        out
    }

    /// Visits every entry in **key order** without cloning values: all
    /// shard locks are held at once (index order) and the per-shard
    /// `BTreeMap` iterators are k-way merged. The read-side companion
    /// to [`ShardMap::snapshot`] for scans that only need references
    /// (listings, filtered views, checksums).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let guards: Vec<_> = (0..self.shards.len()).map(|i| self.lock_shard(i)).collect();
        let mut iters: Vec<_> = guards.iter().map(|g| g.iter().peekable()).collect();
        loop {
            let mut best: Option<usize> = None;
            let mut best_key: Option<&K> = None;
            for (i, it) in iters.iter_mut().enumerate() {
                if let Some(&(k, _)) = it.peek() {
                    if best_key.is_none_or(|bk| k < bk) {
                        best_key = Some(k);
                        best = Some(i);
                    }
                }
            }
            match best {
                None => break,
                Some(i) => {
                    let (k, v) = iters[i].next().expect("peeked above");
                    f(k, v);
                }
            }
        }
    }
}

/// SplitMix64 — a seeded RNG for load harnesses (arrival processes,
/// synthetic operands). Deterministic and dependency-free.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn insert_get_remove_across_shards() {
        let map: ShardMap<u64, String> = ShardMap::new(8);
        for i in 0..100u64 {
            assert!(map.insert(i, format!("v{i}")).is_none());
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&42), Some("v42".to_string()));
        assert_eq!(map.insert(42, "new".into()), Some("v42".to_string()));
        assert_eq!(map.remove(&42), Some("new".to_string()));
        assert!(!map.contains_key(&42));
        assert_eq!(map.len(), 99);
        assert!(map.with(&7, |v| v.clone()).is_some());
        map.with_mut(&7, |v| v.push('!'));
        assert_eq!(map.get(&7), Some("v7!".to_string()));
    }

    #[test]
    fn snapshot_merge_order_is_shard_count_independent() {
        let feed = |map: &ShardMap<u64, u64>| {
            for i in (0..200u64).rev() {
                map.insert(i, i * 3);
            }
        };
        let one: ShardMap<u64, u64> = ShardMap::new(1);
        let many: ShardMap<u64, u64> = ShardMap::new(16);
        feed(&one);
        feed(&many);
        assert_eq!(one.snapshot(), many.snapshot());
        // key order, not shard order
        let keys: Vec<u64> = many.snapshot().keys().copied().collect();
        assert_eq!(keys, (0..200u64).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_in_key_order_without_cloning() {
        let map: ShardMap<u64, u64> = ShardMap::new(8);
        for i in [7u64, 1, 9, 3, 200, 42] {
            map.insert(i, i * 2);
        }
        let mut seen = Vec::new();
        map.for_each(|k, v| seen.push((*k, *v)));
        assert_eq!(seen, vec![(1, 2), (3, 6), (7, 14), (9, 18), (42, 84), (200, 400)]);
    }

    #[test]
    fn empty_shard_snapshot_exports_cleanly() {
        let map: ShardMap<u64, u64> = ShardMap::new(16);
        assert!(map.snapshot().is_empty());
        assert!(map.is_empty());
        assert_eq!(map.occupancy(), vec![0; 16]);
        assert_eq!(map.occupancy_skew(), 1.0);
        // one entry: 15 shards stay empty, snapshot still merges fine
        map.insert(5, 50);
        assert_eq!(map.snapshot().into_iter().collect::<Vec<_>>(), vec![(5, 50)]);
    }

    #[test]
    fn observer_sees_occupancy_and_lock_waits() {
        struct Counts {
            occupancy: AtomicU64,
            waits: AtomicU64,
        }
        impl ShardObserver for Counts {
            fn lock_wait(&self, _shard: usize, _wait_ns: u64) {
                self.waits.fetch_add(1, Ordering::Relaxed);
            }
            fn occupancy(&self, _shard: usize, _len: usize) {
                self.occupancy.fetch_add(1, Ordering::Relaxed);
            }
        }
        let map: ShardMap<u64, u64> = ShardMap::new(2);
        let counts = Arc::new(Counts { occupancy: AtomicU64::new(0), waits: AtomicU64::new(0) });
        map.set_observer(counts.clone());
        map.insert(1, 1);
        map.insert(2, 2);
        map.remove(&1);
        assert_eq!(counts.occupancy.load(Ordering::Relaxed), 3);
        assert!(counts.waits.load(Ordering::Relaxed) >= 3);
    }

    #[test]
    fn string_keys_shard_stably() {
        let map: ShardMap<String, u64> = ShardMap::new(8);
        map.insert("tenant-a".into(), 1);
        assert_eq!(map.shard_of(&"tenant-a".to_string()), shard_index(&"tenant-a", 8));
        assert_eq!("tenant-a".shard_hash(), "tenant-a".to_string().shard_hash());
    }

    #[test]
    fn splitmix_is_reproducible() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&f));
    }
}
