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
//! [`CompiledArtifactCache::with_shards`] — so under multi-tenant
//! contention one tenant's cold compiles never serialize another
//! tenant's hits.

use crate::error::ServeError;
use ei_core::TrainedImpulse;
use ei_dsp::{DspBlock, DspCost};
use ei_faults::sync::lock;
use ei_runtime::planner::MemoryPlan;
use ei_runtime::{EngineKind, EonProgram, InferenceEngine, Interpreter, MemoryReport};
use ei_shard::{fnv1a, shard_index};
use ei_trace::Tracer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// One stripe of the cache: its own LRU list, lock and counters.
struct CacheShard {
    /// LRU order: front = least recently used, back = most recently used.
    entries: Mutex<VecDeque<Arc<CompiledArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheShard {
    fn new() -> CacheShard {
        CacheShard {
            entries: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        let entries = lock(&self.entries);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: entries.len(),
        }
    }
}

/// Tenant-striped LRU cache of [`CompiledArtifact`]s with per-shard
/// hit/miss/eviction counters.
///
/// The cache stripes over `shards` independent LRU lists, each behind its
/// own lock with its own `capacity`-entry budget; a lookup takes only the
/// lock of the shard its *tenant* hashes to (FNV-1a, the platform-wide
/// placement function), so one tenant's cold compiles never stall another
/// tenant's hits on a different stripe. With one shard (the default) the
/// cache behaves exactly as the unsharded original. A hit is byte-identical
/// to a cold compile regardless of which stripe served it —
/// [`CompiledArtifact::classify`] is deterministic and striping only moves
/// *where* an entry lives, never what it computes.
///
/// Counters are mirrored into the tracer's metrics registry as the quiet
/// series `serve.cache.{hit,miss,eviction}` (registry-only: lookup order
/// under concurrent tenants is scheduling-dependent, so they stay out of
/// the deterministic record stream).
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
    /// The build runs under the stripe's lock, so concurrent misses for
    /// one key on one stripe compile exactly once; lookups on other
    /// stripes proceed unblocked.
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
        let mut entries = lock(&shard.entries);
        if let Some(pos) = entries.iter().position(|a| a.key() == key) {
            let entry = entries.remove(pos).expect("position is in range");
            entries.push_back(Arc::clone(&entry));
            shard.hits.fetch_add(1, Ordering::Relaxed);
            self.tracer.quiet_counter("serve.cache.hit").inc();
            return Ok((entry, true));
        }
        let entry = Arc::new(build()?);
        entries.push_back(Arc::clone(&entry));
        shard.misses.fetch_add(1, Ordering::Relaxed);
        self.tracer.quiet_counter("serve.cache.miss").inc();
        while entries.len() > self.capacity {
            entries.pop_front();
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            self.tracer.quiet_counter("serve.cache.eviction").inc();
        }
        Ok((entry, false))
    }

    /// `true` when `key` is resident on `tenant`'s stripe (does not touch
    /// LRU order or stats).
    pub fn contains(&self, tenant: &str, key: &ArtifactKey) -> bool {
        let shard = &self.shards[self.shard_of(tenant)];
        let entries = lock(&shard.entries);
        entries.iter().any(|a| a.key() == key)
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

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = CompiledArtifactCache::with_shards(0, 0, Tracer::disabled());
        assert_eq!(cache.shard_count(), 1);
        assert_eq!(cache.shard_of("anyone"), 0);
    }
}
