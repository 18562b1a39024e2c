//! The compiled-artifact cache: memoized EON codegen / interpreter setup.
//!
//! Compiling a served model — decoding the registry JSON, building the
//! deployment artifact, running EON codegen or interpreter setup and the
//! arena memory planner — dominates end-to-end turnaround, so the serving
//! layer memoizes the whole bundle in an LRU keyed by
//! [`ArtifactKey`]: `(model content hash, board, engine, dtype)`. Keying
//! on the *content* hash (not the model name) means re-uploading a changed
//! model under the same name can never serve stale results: the new bytes
//! hash to a new key and the old entry ages out.
//!
//! A cache hit must be indistinguishable from a cold compile except in
//! latency — [`CompiledArtifact::classify`] is deterministic, so hit and
//! miss paths return byte-identical classifications and memory plans.
//!
//! The cache stripes by *tenant* (FNV-1a, the platform-wide placement
//! function) into independent LRU shards — see
//! [`CompiledArtifactCache::with_shards`]. A miss compiles *outside* its
//! stripe's lock and is single-flight per key: callers asking for a key
//! that is being built wait for that one build, while hits and misses
//! for every other key go ahead, so cold compiles overlap instead of
//! taking turns.

use crate::error::ServeError;
use ei_core::TrainedImpulse;
use ei_dsp::{DspBlock, DspCost};
use ei_faults::sync::{lock, wait};
use ei_runtime::planner::MemoryPlan;
use ei_runtime::{EngineKind, EonProgram, InferenceEngine, Interpreter, MemoryReport};
use ei_shard::{fnv1a, shard_index};
use ei_trace::Tracer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// FNV-1a 64-bit hash of a model's registry JSON.
///
/// Stable across runs and platforms (unlike `DefaultHasher`), so cache
/// keys — and therefore hit/miss traces — are reproducible.
pub fn content_hash(json: &str) -> u64 {
    fnv1a(json.as_bytes())
}

/// A model's registry JSON together with its [`content_hash`].
///
/// The one owner of the bytes: the registry stores an `Arc<ModelBlob>` and
/// every request for the model carries a clone of that pointer.
/// [`ModelBlob::new`] is the only constructor and the only pass over the
/// bytes, so a blob's hash is always the hash of its own JSON — the
/// artifact cache is shared across tenants and keyed by it.
#[derive(Debug)]
pub struct ModelBlob {
    json: String,
    content_hash: u64,
}

impl ModelBlob {
    /// Takes ownership of `json`, hashing it once.
    pub fn new(json: String) -> ModelBlob {
        let content_hash = content_hash(&json);
        ModelBlob { json, content_hash }
    }

    /// The registry JSON.
    pub fn json(&self) -> &str {
        &self.json
    }

    /// [`content_hash`] of [`ModelBlob::json`], computed at construction.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }
}

/// Identity of one compiled artifact: what must match for a cache hit.
///
/// Two requests share an entry only when the model *bytes*, the target
/// board, the execution engine and the dtype all agree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// [`content_hash`] of the model's registry JSON.
    pub content_hash: u64,
    /// Deployment board name (estimates are board-specific).
    pub board: String,
    /// Execution engine.
    pub engine: EngineKind,
    /// `true` for the int8 artifact, `false` for float32.
    pub quantized: bool,
}

/// Everything the serving layer memoizes for one [`ArtifactKey`]: the
/// decoded impulse, its DSP block (with the block's FFT, filterbank and
/// window tables), the ready-to-run engine and its arena memory plan.
pub struct CompiledArtifact {
    key: ArtifactKey,
    impulse: TrainedImpulse,
    dsp: Box<dyn DspBlock>,
    engine: Box<dyn InferenceEngine + Send + Sync>,
    plan: MemoryPlan,
}

impl std::fmt::Debug for CompiledArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledArtifact").field("key", &self.key).finish_non_exhaustive()
    }
}

impl CompiledArtifact {
    /// Decodes `json` and compiles it for `engine`/`quantized` — the cold
    /// path a cache hit short-circuits.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] for malformed model JSON or a model
    /// the engine cannot compile.
    pub fn compile(key: ArtifactKey, json: &str) -> Result<CompiledArtifact, ServeError> {
        let impulse =
            TrainedImpulse::from_json(json).map_err(|e| ServeError::Model(e.to_string()))?;
        let dsp = impulse.design().dsp_block().map_err(|e| ServeError::Model(e.to_string()))?;
        let artifact = if key.quantized {
            impulse.int8_artifact().map_err(|e| ServeError::Model(e.to_string()))?
        } else {
            impulse.float_artifact()
        };
        let (engine, plan): (Box<dyn InferenceEngine + Send + Sync>, MemoryPlan) = match key.engine
        {
            EngineKind::EonCompiled => {
                let program =
                    EonProgram::compile(artifact).map_err(|e| ServeError::Model(e.to_string()))?;
                let plan = program.plan().clone();
                (Box::new(program), plan)
            }
            EngineKind::TflmInterpreter => {
                let interp =
                    Interpreter::new(artifact).map_err(|e| ServeError::Model(e.to_string()))?;
                let plan = interp.plan().clone();
                (Box::new(interp), plan)
            }
        };
        Ok(CompiledArtifact { key, impulse, dsp, engine, plan })
    }

    /// The identity this entry is cached under.
    pub fn key(&self) -> &ArtifactKey {
        &self.key
    }

    /// The planned activation arena — identical on hit and cold compile.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The engine's deployment memory footprint.
    pub fn memory(&self) -> MemoryReport {
        self.engine.memory()
    }

    /// The ready-to-run engine.
    pub fn engine(&self) -> &dyn InferenceEngine {
        &*self.engine
    }

    /// Class labels in output order.
    pub fn labels(&self) -> &[String] {
        self.impulse.labels()
    }

    /// The DSP footprint of one input window.
    ///
    /// # Errors
    ///
    /// Propagates DSP configuration failures as [`ServeError::Model`].
    pub fn dsp_cost(&self) -> Result<DspCost, ServeError> {
        self.dsp
            .cost(self.impulse.design().window_samples)
            .map_err(|e| ServeError::Model(e.to_string()))
    }

    /// Classifies one raw window: DSP then the compiled engine.
    ///
    /// Deterministic — repeated calls (and hit vs cold-compile entries for
    /// the same key) return byte-identical [`ei_core::Classification`]s.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] for wrongly sized windows or engine
    /// failures.
    pub fn classify(&self, raw: &[f32]) -> Result<ei_core::Classification, ServeError> {
        let features = self.dsp.process(raw).map_err(|e| ServeError::Model(e.to_string()))?;
        self.classify_features(&features)
    }

    /// Classifies an already-extracted feature window, skipping the DSP
    /// stage. This is the dispatch path for streaming sessions, whose
    /// incremental extractor computed each overlapping window's columns
    /// exactly once; [`CompiledArtifact::classify`] funnels through it, so
    /// both paths run the identical engine call and argmax.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] for wrongly sized feature vectors or
    /// engine failures.
    pub fn classify_features(
        &self,
        features: &[f32],
    ) -> Result<ei_core::Classification, ServeError> {
        let probabilities =
            self.engine.run(features).map_err(|e| ServeError::Model(e.to_string()))?;
        let label_index = ei_tensor::ops::argmax(&probabilities);
        Ok(ei_core::Classification {
            label: self.impulse.labels().get(label_index).cloned().unwrap_or_default(),
            confidence: probabilities.get(label_index).copied().unwrap_or(0.0),
            probabilities,
            label_index,
        })
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
            entries: self.entries + rhs.entries,
        }
    }
}

/// What one stripe's lock guards: its LRU list and the keys being built.
#[derive(Default)]
struct Stripe {
    /// LRU order: front = least recently used, back = most recently used.
    lru: VecDeque<Arc<CompiledArtifact>>,
    /// Builds running outside the lock right now, at most one per key.
    in_flight: Vec<Arc<Flight>>,
}

/// One key's build in progress.
struct Flight {
    key: ArtifactKey,
    /// Set once, under the stripe lock, when the build ends: the built
    /// entry, or `None` when the build failed or unwound.
    landed: OnceLock<Option<Arc<CompiledArtifact>>>,
}

/// One stripe of the cache: its own LRU list, lock and counters.
struct CacheShard {
    stripe: Mutex<Stripe>,
    /// Notified each time one of the stripe's flights lands.
    landed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheShard {
    fn new() -> CacheShard {
        CacheShard {
            stripe: Mutex::new(Stripe::default()),
            landed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        let stripe = lock(&self.stripe);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: stripe.lru.len(),
        }
    }
}

/// Ends a miss's flight when dropped — after the build returns `Ok` or
/// `Err`, or while it unwinds. Under the stripe lock it clears the flight,
/// inserts `built` (if any) and evicts past capacity, and records the
/// outcome for the waiters; then it wakes them.
struct Landing<'a> {
    cache: &'a CompiledArtifactCache,
    shard: &'a CacheShard,
    flight: Arc<Flight>,
    built: Option<Arc<CompiledArtifact>>,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        let (cache, shard) = (self.cache, self.shard);
        let mut stripe = lock(&shard.stripe);
        stripe.in_flight.retain(|f| !Arc::ptr_eq(f, &self.flight));
        if let Some(entry) = &self.built {
            stripe.lru.push_back(Arc::clone(entry));
            shard.misses.fetch_add(1, Ordering::Relaxed);
            cache.tracer.quiet_counter("serve.cache.miss").inc();
            while stripe.lru.len() > cache.capacity {
                stripe.lru.pop_front();
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                cache.tracer.quiet_counter("serve.cache.eviction").inc();
            }
        }
        // set under the lock, which a waiter holds while it checks
        let _ = self.flight.landed.set(self.built.take());
        drop(stripe);
        shard.landed.notify_all();
    }
}

/// Tenant-striped LRU cache of [`CompiledArtifact`]s with per-shard
/// hit/miss/eviction counters.
///
/// The cache stripes over `shards` independent LRU lists, each behind its
/// own lock with its own `capacity`-entry budget; a lookup takes only the
/// lock of the shard its *tenant* hashes to (FNV-1a, the platform-wide
/// placement function). A miss builds outside that lock, so no build ever
/// stalls a hit, or another key's build, even on its own stripe. With one
/// shard (the default) the cache behaves exactly as the unsharded
/// original. A hit is byte-identical to a cold compile regardless of which
/// stripe served it — [`CompiledArtifact::classify`] is deterministic and
/// striping only moves *where* an entry lives, never what it computes.
///
/// Counters are mirrored into the tracer's metrics registry as the quiet
/// series `serve.cache.{hit,miss,eviction}`, plus `serve.cache.coalesced`
/// for each time a lookup waits on another caller's build of its key
/// (registry-only: lookup order under concurrent tenants is
/// scheduling-dependent, so they stay out of the deterministic record
/// stream).
pub struct CompiledArtifactCache {
    /// Per-shard entry budget (total capacity = `capacity × shards`).
    capacity: usize,
    shards: Vec<CacheShard>,
    tracer: Tracer,
}

impl std::fmt::Debug for CompiledArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledArtifactCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl CompiledArtifactCache {
    /// An unsharded cache holding at most `capacity` compiled artifacts
    /// (clamped to at least one) — identical to
    /// [`CompiledArtifactCache::with_shards`] at one shard.
    pub fn new(capacity: usize, tracer: Tracer) -> CompiledArtifactCache {
        CompiledArtifactCache::with_shards(capacity, 1, tracer)
    }

    /// A cache striped over `shards` stripes, each holding at most
    /// `capacity` compiled artifacts (both clamped to at least one).
    pub fn with_shards(capacity: usize, shards: usize, tracer: Tracer) -> CompiledArtifactCache {
        CompiledArtifactCache {
            capacity: capacity.max(1),
            shards: (0..shards.max(1)).map(|_| CacheShard::new()).collect(),
            tracer,
        }
    }

    /// Number of cache stripes (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stripe `tenant`'s artifacts live on: [`shard_index`] of the
    /// tenant id over the stripe count.
    pub fn shard_of(&self, tenant: &str) -> usize {
        shard_index(&tenant, self.shards.len())
    }

    /// Looks up `key` on `tenant`'s stripe, building (and inserting) via
    /// `build` on a miss.
    ///
    /// Returns the entry plus `true` on a hit, `false` on a cold compile.
    /// The build runs outside the stripe's lock and is single-flight per
    /// key: a caller that finds `key` already being built waits for that
    /// build and is handed its entry as a hit, even if the LRU has evicted
    /// it since. Hits and builds of other keys go ahead meanwhile. If the
    /// build fails or unwinds, its waiters look again, and the first to
    /// find neither an entry nor a build in flight builds it itself.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; a failed build inserts nothing.
    pub fn get_or_insert_with(
        &self,
        tenant: &str,
        key: &ArtifactKey,
        build: impl FnOnce() -> Result<CompiledArtifact, ServeError>,
    ) -> Result<(Arc<CompiledArtifact>, bool), ServeError> {
        let shard = &self.shards[self.shard_of(tenant)];
        let mut stripe = lock(&shard.stripe);
        let flight = loop {
            let resident = stripe.lru.iter().position(|a| a.key() == key);
            if let Some(entry) = resident.and_then(|pos| stripe.lru.remove(pos)) {
                stripe.lru.push_back(Arc::clone(&entry));
                return Ok((self.hit(shard, entry), true));
            }
            let Some(flight) = stripe.in_flight.iter().find(|f| f.key == *key).cloned() else {
                let flight = Arc::new(Flight { key: key.clone(), landed: OnceLock::new() });
                stripe.in_flight.push(Arc::clone(&flight));
                break flight;
            };
            self.tracer.quiet_counter("serve.cache.coalesced").inc();
            while flight.landed.get().is_none() {
                stripe = wait(&shard.landed, stripe);
            }
            if let Some(Some(entry)) = flight.landed.get() {
                return Ok((self.hit(shard, Arc::clone(entry)), true));
            }
        };
        drop(stripe);
        let mut landing = Landing { cache: self, shard, flight, built: None };
        let entry = Arc::new(build()?);
        landing.built = Some(Arc::clone(&entry));
        drop(landing);
        Ok((entry, false))
    }

    /// Counts a hit on `shard` and passes `entry` through.
    fn hit(&self, shard: &CacheShard, entry: Arc<CompiledArtifact>) -> Arc<CompiledArtifact> {
        shard.hits.fetch_add(1, Ordering::Relaxed);
        self.tracer.quiet_counter("serve.cache.hit").inc();
        entry
    }

    /// `true` when `key` is resident on `tenant`'s stripe (does not touch
    /// LRU order or stats).
    pub fn contains(&self, tenant: &str, key: &ArtifactKey) -> bool {
        let shard = &self.shards[self.shard_of(tenant)];
        lock(&shard.stripe).lru.iter().any(|a| a.key() == key)
    }

    /// Merged counters across every stripe (one consistent-enough
    /// snapshot: each stripe is read atomically, stripes in index order).
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().map(CacheShard::stats).fold(CacheStats::default(), |a, b| a + b)
    }

    /// Per-stripe counters, in stripe-index order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(CacheShard::stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_faults::VirtualClock;
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let a = content_hash("{\"w\":1}");
        assert_eq!(a, content_hash("{\"w\":1}"));
        assert_ne!(a, content_hash("{\"w\":2}"));
        // FNV-1a of the empty string is the offset basis
        assert_eq!(content_hash(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1, evictions: 0, entries: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tenant_striping_is_stable_and_merges_stats() {
        let cache = CompiledArtifactCache::with_shards(4, 8, Tracer::disabled());
        assert_eq!(cache.shard_count(), 8);
        // placement is the pure FNV-1a function, so it never moves
        assert_eq!(cache.shard_of("project-1"), cache.shard_of("project-1"));
        assert_eq!(cache.shard_of("project-1"), shard_index(&"project-1", 8));
        // merged stats are the sum of per-stripe stats
        let merged = cache.stats();
        let per: CacheStats =
            cache.shard_stats().into_iter().fold(CacheStats::default(), |a, b| a + b);
        assert_eq!(merged, per);
        assert_eq!(cache.shard_stats().len(), 8);
    }

    /// A two-sample raw-DSP model with one dense layer: the cheapest
    /// model JSON that compiles.
    const TINY_MODEL: &str = r#"{"format_version":1,"design":{"name":"tiny","window_samples":2,"dsp":{"Raw":{"scale":1.0,"offset":0.0}}},"labels":["a","b"],"model":{"spec":{"input":{"h":1,"w":2,"c":1},"layers":["Flatten",{"Dense":{"units":2,"activation":"None"}},"Softmax"],"name":""},"layers":[{"spec":"Flatten","input":{"h":1,"w":2,"c":1},"output":{"h":1,"w":1,"c":2},"weights":null,"bias":null,"frozen":false},{"spec":{"Dense":{"units":2,"activation":"None"}},"input":{"h":1,"w":1,"c":2},"output":{"h":1,"w":1,"c":2},"weights":{"shape":{"dims":[2,2]},"storage":{"F32":[0.5,-1.0,0.25,2.0]}},"bias":{"shape":{"dims":[2]},"storage":{"F32":[0.0,0.0]}},"frozen":false},{"spec":"Softmax","input":{"h":1,"w":1,"c":2},"output":{"h":1,"w":1,"c":2},"weights":null,"bias":null,"frozen":false}]},"calibration":[[0.5,-0.5]]}"#;

    /// How long any single-flight test waits for another thread before it
    /// fails instead of hanging.
    const PATIENCE: Duration = Duration::from_secs(10);

    type Lookup = Result<(Arc<CompiledArtifact>, bool), ServeError>;

    fn tiny_key(n: u64) -> ArtifactKey {
        ArtifactKey {
            content_hash: n,
            board: String::new(),
            engine: EngineKind::EonCompiled,
            quantized: false,
        }
    }

    fn tiny_build(key: &ArtifactKey) -> Result<CompiledArtifact, ServeError> {
        CompiledArtifact::compile(key.clone(), TINY_MODEL)
    }

    /// A one-stripe cache whose tracer keeps a metric registry.
    fn observed_cache() -> Arc<CompiledArtifactCache> {
        let (tracer, _records) = Tracer::collecting(VirtualClock::shared());
        Arc::new(CompiledArtifactCache::new(4, tracer))
    }

    fn coalesced(cache: &CompiledArtifactCache) -> u64 {
        let registry = cache.tracer.registry().expect("tracer keeps a registry");
        registry.counter("serve.cache.coalesced", "").unwrap_or(0)
    }

    /// Spins until `n` lookups have joined another caller's flight, or
    /// `PATIENCE` runs out.
    fn await_coalesced(cache: &CompiledArtifactCache, n: u64) -> Result<(), ServeError> {
        let deadline = Instant::now() + PATIENCE;
        while coalesced(cache) < n {
            if Instant::now() > deadline {
                return Err(ServeError::Model(format!("{n} waiters never joined")));
            }
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Runs one lookup on its own thread; the caller collects it with
    /// `recv_timeout`, so a lookup that never returns fails the test.
    fn spawn_lookup(
        cache: &Arc<CompiledArtifactCache>,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<CompiledArtifact, ServeError> + Send + 'static,
    ) -> mpsc::Receiver<Lookup> {
        let (cache, (tx, rx)) = (Arc::clone(cache), mpsc::channel());
        std::thread::spawn(move || {
            let _ = tx.send(cache.get_or_insert_with("tenant", &key, build));
        });
        rx
    }

    fn collect(rx: &mpsc::Receiver<Lookup>) -> Lookup {
        rx.recv_timeout(PATIENCE).expect("the lookup returned in time")
    }

    #[test]
    fn single_flight_builds_two_keys_on_one_stripe_at_once() {
        let cache = observed_cache();
        let (a_started, a_seen) = mpsc::channel();
        let (b_started, b_seen) = mpsc::channel();
        // each build runs only once it has seen the other one start
        let build = |key: ArtifactKey, started: mpsc::Sender<()>, other: mpsc::Receiver<()>| {
            move || {
                let _ = started.send(());
                other
                    .recv_timeout(PATIENCE)
                    .map_err(|_| ServeError::Model("the other key's build never started".into()))?;
                tiny_build(&key)
            }
        };
        let a = spawn_lookup(&cache, tiny_key(1), build(tiny_key(1), a_started, b_seen));
        let b = spawn_lookup(&cache, tiny_key(2), build(tiny_key(2), b_started, a_seen));
        let (a, b) = (collect(&a).expect("a builds"), collect(&b).expect("b builds"));
        assert!(!a.1 && !b.1, "both were cold compiles");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(coalesced(&cache), 0, "different keys never wait on each other");
    }

    #[test]
    fn single_flight_builds_one_key_once_for_many_callers() {
        const CALLERS: u64 = 6;
        let cache = observed_cache();
        let builds = Arc::new(AtomicU64::new(0));
        let lookups: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (cache_in_build, builds) = (Arc::clone(&cache), Arc::clone(&builds));
                spawn_lookup(&cache, tiny_key(7), move || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // land only once every other caller is waiting on this build
                    await_coalesced(&cache_in_build, CALLERS - 1)?;
                    tiny_build(&tiny_key(7))
                })
            })
            .collect();
        let results: Vec<_> = lookups.iter().map(|rx| collect(rx).expect("built")).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "the key was built once");
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, CALLERS - 1, 1));
        assert!(results.iter().all(|(a, _)| Arc::ptr_eq(a, &results[0].0)), "one shared Arc");
    }

    #[test]
    fn single_flight_failed_build_inserts_nothing_and_wakes_its_waiters() {
        let cache = observed_cache();
        let refused = cache
            .get_or_insert_with("tenant", &tiny_key(3), || Err(ServeError::Model("bad".into())));
        assert!(refused.is_err());
        assert!(!cache.contains("tenant", &tiny_key(3)), "a failed build inserts nothing");
        assert_eq!(cache.stats(), CacheStats::default());

        // a build that fails only once a second caller is waiting on it
        let (building, started) = mpsc::channel();
        let cache_in_build = Arc::clone(&cache);
        let failing = spawn_lookup(&cache, tiny_key(3), move || {
            let _ = building.send(());
            await_coalesced(&cache_in_build, 1)?;
            Err(ServeError::Model("bad".into()))
        });
        started.recv_timeout(PATIENCE).expect("the failing build started");
        let waiter = spawn_lookup(&cache, tiny_key(3), || tiny_build(&tiny_key(3)));
        assert!(collect(&failing).is_err());
        let (_, hit) = collect(&waiter).expect("the woken waiter built the key itself");
        assert!(!hit);
        assert_eq!(coalesced(&cache), 1);
        assert_eq!((cache.stats().misses, cache.stats().entries), (1, 1));
    }

    #[test]
    fn single_flight_panicking_build_releases_its_flight() {
        let cache = observed_cache();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_insert_with("tenant", &tiny_key(4), || panic!("build panicked"))
        }));
        assert!(unwound.is_err());
        let retry = spawn_lookup(&cache, tiny_key(4), || tiny_build(&tiny_key(4)));
        let (_, hit) = collect(&retry).expect("a later call builds");
        assert!(!hit);
        assert_eq!(coalesced(&cache), 0, "nothing was left in flight to wait on");
        assert!(cache.contains("tenant", &tiny_key(4)));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = CompiledArtifactCache::with_shards(0, 0, Tracer::disabled());
        assert_eq!(cache.shard_count(), 1);
        assert_eq!(cache.shard_of("anyone"), 0);
    }
}
