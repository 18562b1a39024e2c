//! Platform-scale bench: a deterministic open-loop load harness over the
//! sharded [`ei_platform::Api`], writing latency percentiles, saturation
//! throughput, per-shard occupancy skew, per-shard artifact-cache hit
//! rates and cross-shard-count state equality to
//! `results/platform_scale.json`.
//!
//! The harness generates one seeded arrival schedule — a Poisson process
//! whose rate bursts 5x every fourth block (open-loop: arrivals never wait
//! for completions) — over a population of 10^5 synthetic tenants, each a
//! real project in the sharded store. Every arrival is one platform op:
//!
//! * `classify` / `estimate` — served through the attached serving layer
//!   (admission and artifact-cache shards = store shards) against a
//!   Zipf-style hot set of tenants holding a real trained model;
//! * `job-submit` — a keyed job on the sharded [`JobScheduler`] that
//!   uploads a uniquely-named artifact to a tenant drawn uniformly from
//!   the *whole* population (the long tail);
//! * `stream-push` — a chunk into one of the always-open continuous
//!   inference sessions, pinned to its project's shard.
//!
//! The schedule replays against a real `Api` at shard counts {1, 4, 16,
//! 64}; ops execute in arrival order and mutate real state, and the final
//! `export_json` checksum must be identical at every shard count
//! (`state_identical`). Latency and throughput are *modeled* on the
//! logical timeline by a discrete-event queueing simulation — completion
//! = max(arrival, shard-lock free, worker free) + per-op service cost —
//! at worker widths {1, 4} (the `EI_THREADS` axis; modeled, so the bench
//! is honest on a single-core host, the same idiom as the serving
//! layer's modeled service times). The arrival rate deliberately exceeds
//! single-shard capacity, so throughput reads as saturation capacity:
//! flat across shard counts at 1 worker, scaling with shard count at 4.
//!
//! Two further phases ride on the same schedule:
//!
//! * **Racing replay** — the schedule is re-run from *real* concurrent
//!   OS threads (event `i` goes to thread `i % threads`, no coordination
//!   beyond the platform's own locks) at every shard count × thread
//!   width {1, 4}. The mutating ops commute (each uploads a
//!   uniquely-named artifact), so the final export checksum must equal
//!   the serial replay's byte-for-byte (`racing_state_identical`) — the
//!   linearizability check the modeled timeline cannot provide.
//! * **Cache striping bench** — a seeded access schedule over the real
//!   [`CompiledArtifactCache`] at 1 vs 16 stripes: real lookups drive
//!   hit/miss outcomes (and assert hit artifacts are identical across
//!   stripe counts), while throughput is modeled on the logical
//!   timeline with the stripe lock as the contended resource at 4
//!   workers — misses pay the artifact's modeled compile cost, hits a
//!   constant lookup cost.
//!
//! The whole sweep runs twice and must be byte-for-byte reproducible.
//! Set `EDGELAB_QUICK=1` for a smoke run with a smaller population.

use ei_bench::{percentile, quick_mode, ResultsWriter};
use ei_core::impulse::ImpulseDesign;
use ei_data::synth::KwsGenerator;
use ei_dsp::{DspConfig, MfccConfig};
use ei_faults::{Clock, VirtualClock};
use ei_nn::presets;
use ei_nn::train::TrainConfig;
use ei_obs::Obs;
use ei_par::{ParPool, Parallelism};
use ei_platform::{Api, JobScheduler, ProjectId, SessionId, UserId};
use ei_serve::{
    content_hash, ArtifactKey, CompiledArtifact, CompiledArtifactCache, InferenceSpec, Server,
    ServerConfig,
};
use ei_shard::{fnv1a_u64, ShardKey, SplitMix64};
use ei_stream::SessionConfig;
use ei_trace::json::Json;
use ei_trace::Tracer;
use std::sync::Arc;

/// Shard counts swept (the x-axis of the scaling curve).
const SHARD_COUNTS: [usize; 4] = [1, 4, 16, 64];

/// Modeled worker widths (the `EI_THREADS` axis) — also the real thread
/// counts the racing replay runs at.
const THREADS: [usize; 2] = [1, 4];

/// Arrival-schedule seed.
const SEED: u64 = 0xE15_CA1E;

/// Mean inter-arrival gap (µs) outside bursts.
const BASE_GAP_US: f64 = 1_000.0;

/// Mean inter-arrival gap (µs) inside a burst (5x the base rate).
const BURST_GAP_US: f64 = 200.0;

/// Events per burst-phase block; every fourth block is a burst.
const BLOCK: usize = 250;

/// Modeled service cost per op (µs): classify, estimate, job, stream.
const SERVICE_US: [u64; 4] = [3_000, 5_000, 8_000, 2_000];

/// Cache-stripe counts compared by the cache striping bench.
const CACHE_SHARD_CONFIGS: [usize; 2] = [1, 16];

/// Modeled workers racing for cache stripes in the cache bench.
const CACHE_WORKERS: usize = 4;

/// Modeled cost (µs) of a cache *hit* — the lock-and-lookup path.
const CACHE_HIT_US: u64 = 50;

/// Per-stripe capacity used by the cache bench (entries per stripe).
const CACHE_BENCH_CAPACITY: usize = 8;

/// Distinct tenants hammering the cache in the cache bench — chosen to
/// overflow one 8-entry stripe (forcing LRU churn at 1 stripe) while
/// fitting comfortably at 16 stripes.
const CACHE_TENANTS: usize = 12;

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Arrival time on the logical timeline (µs).
    at_us: u64,
    /// 0 = classify, 1 = estimate, 2 = job-submit, 3 = stream-push.
    op: usize,
    /// Index into the tenant population (hot set for serving ops).
    tenant: usize,
    /// Raw project key the op contends on (filled after setup).
    key: u64,
}

/// Scale knobs, shrunk under `EDGELAB_QUICK=1`.
struct Scale {
    tenants: usize,
    events: usize,
    hot: usize,
    streams: usize,
    cache_accesses: usize,
}

fn scale() -> Scale {
    if quick_mode() {
        Scale { tenants: 5_000, events: 1_500, hot: 16, streams: 4, cache_accesses: 600 }
    } else {
        Scale { tenants: 100_000, events: 20_000, hot: 32, streams: 8, cache_accesses: 2_400 }
    }
}

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["yes".into(), "no".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
}

/// One shared tiny KWS model for the hot set (window 1000, MFCC).
fn model_json() -> String {
    let design = ImpulseDesign::new(
        "scale-kws",
        1_000,
        DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 8,
            n_filters: 16,
            sample_rate_hz: 4_000,
        }),
    )
    .expect("bench design is valid");
    let spec = presets::dense_mlp(design.feature_dims().expect("valid design"), 2, 8);
    let config = TrainConfig {
        epochs: 2,
        batch_size: 8,
        learning_rate: 0.01,
        seed: 13,
        ..TrainConfig::default()
    };
    design
        .train(&spec, &generator().dataset(4, 13), &config)
        .expect("bench model trains")
        .to_json()
        .expect("serializes")
}

/// The seeded Poisson+bursty arrival schedule (tenant keys unfilled).
fn schedule(scale: &Scale) -> Vec<Event> {
    let mut rng = SplitMix64::new(SEED);
    let mut t_us = 0u64;
    (0..scale.events)
        .map(|i| {
            let burst = (i / BLOCK) % 4 == 3;
            let mean = if burst { BURST_GAP_US } else { BASE_GAP_US };
            // exponential inter-arrival; 1-u keeps the argument in (0, 1]
            let gap = (-(1.0 - rng.next_f64()).ln() * mean).round().max(1.0) as u64;
            t_us += gap;
            let op = match rng.next_u64() % 100 {
                0..=34 => 0,  // classify
                35..=54 => 1, // estimate
                55..=79 => 2, // job-submit
                _ => 3,       // stream-push
            };
            let tenant = if op == 2 {
                (rng.next_u64() % scale.tenants as u64) as usize
            } else if op == 3 {
                (rng.next_u64() % scale.streams as u64) as usize
            } else {
                (rng.next_u64() % scale.hot as u64) as usize
            };
            Event { at_us: t_us, op, tenant, key: 0 }
        })
        .collect()
}

/// `hits / lookups` of one counter snapshot (0 when the stripe was idle).
fn hit_rate(stats: &ei_serve::CacheStats) -> f64 {
    let lookups = stats.hits + stats.misses;
    if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    }
}

/// What one real replay at a fixed shard count produced.
struct Replay {
    /// FNV-1a checksum of the final `export_json` bytes.
    state_checksum: u64,
    /// `max/mean` occupancy across the project shards.
    occupancy_skew: f64,
    /// Merged artifact-cache hit rate across every stripe.
    cache_hit_rate: f64,
    /// Per-stripe hit rates, in stripe-index order.
    cache_shard_hit_rates: Vec<f64>,
    /// Ops whose admission was refused (must be 0 — the harness sizes
    /// quotas and queues so rejection never hides a scaling effect).
    rejected: u64,
}

/// A fully provisioned platform under test: real sharded store, serving
/// layer (admission + cache stripes = store shards), sharded scheduler,
/// synthetic population with the hot set modeled and streaming. Both the
/// serial and the racing replay drive one of these, so any divergence
/// between them is the replay's, not the setup's.
struct Harness {
    clock: Arc<VirtualClock>,
    obs: Arc<Obs>,
    api: Api,
    scheduler: JobScheduler,
    population: Vec<(ProjectId, UserId)>,
    sessions: Vec<SessionId>,
    signal: Vec<f32>,
    window: Vec<f32>,
    classify_spec: InferenceSpec,
    estimate_spec: InferenceSpec,
}

fn setup(shards: usize, scale: &Scale, model: &str) -> Harness {
    let clock = VirtualClock::shared();
    let obs = Obs::builder(clock.clone() as Arc<dyn Clock>).build();
    let api = Api::with_shards(shards);
    api.attach_obs(&obs);
    let pool = Arc::new(ParPool::new(Parallelism::new(2)));
    let server_config = ServerConfig {
        queue_capacity: 4_096,
        quota_capacity: 1 << 20,
        quota_refill_per_sec: 1e6,
        cache_capacity: 8,
        admission_shards: shards,
        cache_shards: shards,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::new(
        server_config,
        clock.clone() as Arc<dyn Clock>,
        Arc::clone(&pool),
        Tracer::disabled(),
    ));
    api.attach_serving(server).expect("fresh api attaches serving");
    let scheduler = JobScheduler::with_sharded_pool(Arc::clone(&pool), shards);

    // population: every synthetic tenant is a real user + project
    let population: Vec<(ProjectId, UserId)> = (0..scale.tenants)
        .map(|i| {
            let user = api.create_user(&format!("u{i}"));
            let project = api.create_project(&format!("p{i}"), user).expect("user exists");
            (project, user)
        })
        .collect();
    // the hot set holds the real model; the first few also stream
    for &(project, user) in &population[..scale.hot] {
        api.upload_model(project, user, "m", model.to_string()).expect("hot tenant uploads");
    }
    let sessions: Vec<SessionId> = population[..scale.streams]
        .iter()
        .map(|&(project, user)| {
            api.stream_open(project, user, "m", SessionConfig::new("", 256))
                .expect("hot tenant streams")
        })
        .collect();
    let signal: Vec<f32> =
        (0..4).flat_map(|i| generator().generate(i % 2, 17 + i as u64)).collect();
    let window = signal[..1_000].to_vec();
    let classify_spec = InferenceSpec::new("m", ei_runtime_engine());
    let estimate_spec = classify_spec.clone().on_board("nano 33");
    Harness {
        clock,
        obs,
        api,
        scheduler,
        population,
        sessions,
        signal,
        window,
        classify_spec,
        estimate_spec,
    }
}

impl Harness {
    /// Drains outstanding jobs, closes every stream, stops the scheduler
    /// and returns the FNV-1a checksum of the final `export_json` bytes.
    fn finish(mut self, jobs: Vec<u64>) -> u64 {
        for id in jobs {
            self.scheduler.wait(id).expect("job-submit uploads succeed");
        }
        for (&session, &(_, user)) in self.sessions.iter().zip(&self.population) {
            self.api.stream_close(session, user).expect("session closes");
        }
        self.scheduler.shutdown();
        self.api.export_json().expect("state exports").as_str().shard_hash()
    }
}

/// Replays the schedule serially against a real sharded `Api`, filling
/// each event's contention key, and returns the final-state checksum plus
/// the skew/cache telemetry the consolidated `shard_report` exposes.
fn replay(events: &mut [Event], shards: usize, scale: &Scale, model: &str) -> Replay {
    let harness = setup(shards, scale, model);
    let api = &harness.api;
    let mut jobs = Vec::new();
    let mut pushed = vec![0usize; scale.streams];
    let mut rejected = 0u64;
    for (i, ev) in events.iter_mut().enumerate() {
        // open-loop arrivals drive the logical clock forward
        let at_ms = ev.at_us / 1_000;
        let now = harness.clock.now_ms();
        if at_ms > now {
            harness.clock.advance_ms(at_ms - now);
        }
        match ev.op {
            0 => {
                let (project, user) = harness.population[ev.tenant];
                ev.key = project.0;
                if api
                    .classify(project, user, &harness.classify_spec, harness.window.clone())
                    .is_err()
                {
                    rejected += 1;
                }
            }
            1 => {
                let (project, user) = harness.population[ev.tenant];
                ev.key = project.0;
                api.estimate(project, user, &harness.estimate_spec).expect("estimate runs");
            }
            2 => {
                let (project, user) = harness.population[ev.tenant];
                ev.key = project.0;
                let api2 = api.clone();
                let name = format!("job-{i}");
                let payload = format!("{{\"job\":{i}}}");
                let id = harness
                    .scheduler
                    .submit_keyed(project.0, 1, move || {
                        api2.upload_model(project, user, &name, payload.clone())
                            .map_err(|e| e.to_string())?;
                        Ok(name.clone())
                    })
                    .expect("scheduler accepts");
                jobs.push(id);
            }
            _ => {
                let (project, user) = harness.population[ev.tenant];
                ev.key = project.0;
                let off = (pushed[ev.tenant] * 250) % (harness.signal.len() - 250);
                pushed[ev.tenant] += 1;
                api.stream_push(harness.sessions[ev.tenant], user, &harness.signal[off..off + 250])
                    .expect("stream accepts");
            }
        }
    }

    // shard telemetry flowed into the obs registry during the replay
    let prom = harness.obs.prometheus();
    assert!(
        prom.contains("platform_shard_occupancy"),
        "shard occupancy gauges must reach the obs registry"
    );

    // the consolidated report carries skew + striped cache counters
    let report = api.shard_report();
    let occupancy_skew = report.skew;
    let cache = report.cache.expect("serving layer attached");
    let cache_shard_hit_rates: Vec<f64> = report.cache_shards.iter().map(hit_rate).collect();
    assert_eq!(cache_shard_hit_rates.len(), shards, "one counter set per cache stripe");
    let cache_hit_rate = hit_rate(&cache);

    let state_checksum = harness.finish(jobs);
    Replay { state_checksum, occupancy_skew, cache_hit_rate, cache_shard_hit_rates, rejected }
}

/// Replays the schedule from `threads` real OS threads (event `i` runs on
/// thread `i % threads`), coordinated only by the platform's own locks,
/// and returns the final-state checksum. Serving/stream errors are
/// tolerated (admission under a frozen clock is timing-dependent and none
/// of those ops mutate exported state); the state-mutating job uploads
/// must all succeed. The returned checksum must equal the serial one: the
/// mutating ops commute, so any divergence is a lost or duplicated update
/// inside the sharded store.
fn racing_replay(
    events: &[Event],
    shards: usize,
    threads: usize,
    scale: &Scale,
    model: &str,
) -> u64 {
    let harness = setup(shards, scale, model);
    let mut jobs: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let harness = &harness;
                scope.spawn(move || {
                    let api = &harness.api;
                    let mut jobs = Vec::new();
                    let mut pushed = vec![0usize; scale.streams];
                    for (i, ev) in events.iter().enumerate().filter(|(i, _)| i % threads == t) {
                        let (project, user) = harness.population[ev.tenant];
                        match ev.op {
                            0 => {
                                let _ = api.classify(
                                    project,
                                    user,
                                    &harness.classify_spec,
                                    harness.window.clone(),
                                );
                            }
                            1 => {
                                let _ = api.estimate(project, user, &harness.estimate_spec);
                            }
                            2 => {
                                let api2 = api.clone();
                                let name = format!("job-{i}");
                                let payload = format!("{{\"job\":{i}}}");
                                let id = harness
                                    .scheduler
                                    .submit_keyed(project.0, 1, move || {
                                        api2.upload_model(project, user, &name, payload.clone())
                                            .map_err(|e| e.to_string())?;
                                        Ok(name.clone())
                                    })
                                    .expect("scheduler accepts");
                                jobs.push(id);
                            }
                            _ => {
                                let off = (pushed[ev.tenant] * 250) % (harness.signal.len() - 250);
                                pushed[ev.tenant] += 1;
                                let _ = api.stream_push(
                                    harness.sessions[ev.tenant],
                                    user,
                                    &harness.signal[off..off + 250],
                                );
                            }
                        }
                    }
                    jobs
                })
            })
            .collect();
        for handle in handles {
            jobs.extend(handle.join().expect("racing thread completes"));
        }
    });
    harness.finish(jobs)
}

/// The engine the hot-set model serves with.
fn ei_runtime_engine() -> ei_runtime::EngineKind {
    ei_runtime::EngineKind::EonCompiled
}

/// Discrete-event queueing model of the replay: ops execute FIFO by
/// arrival, each needing its project's shard lock and one of `workers`
/// pool workers; completion = max(arrival, shard free, worker free) +
/// service. Returns (p50, p95, p99) sojourn µs and throughput (ops/s
/// over the makespan).
fn simulate(events: &[Event], shards: usize, workers: usize) -> (u64, u64, u64, f64) {
    let mut shard_free = vec![0u64; shards];
    let mut worker_free = vec![0u64; workers];
    let mut sojourn: Vec<u64> = Vec::with_capacity(events.len());
    let mut end = 0u64;
    for ev in events {
        let shard = (fnv1a_u64(ev.key) % shards as u64) as usize;
        let worker = (0..workers).min_by_key(|&w| worker_free[w]).expect("workers >= 1");
        let start = ev.at_us.max(shard_free[shard]).max(worker_free[worker]);
        let done = start + SERVICE_US[ev.op];
        shard_free[shard] = done;
        worker_free[worker] = done;
        sojourn.push(done - ev.at_us);
        end = end.max(done);
    }
    sojourn.sort_unstable();
    let span_s = (end - events[0].at_us) as f64 / 1e6;
    let throughput = events.len() as f64 / span_s;
    (percentile(&sojourn, 50), percentile(&sojourn, 95), percentile(&sojourn, 99), throughput)
}

/// Cache striping bench: one seeded tenant/arrival schedule replayed
/// against a real [`CompiledArtifactCache`] at each stripe count in
/// [`CACHE_SHARD_CONFIGS`]. Lookups are real (hit/miss counters and the
/// returned artifacts come from the cache under test; artifacts must be
/// identical across stripe counts), throughput is modeled: each access
/// needs its tenant's stripe lock and one of [`CACHE_WORKERS`] workers,
/// paying the artifact's modeled compile cost on a miss and
/// [`CACHE_HIT_US`] on a hit. Returns the 16-vs-1-stripe speedup.
fn cache_bench(results: &mut ResultsWriter, scale: &Scale, model: &str, print: bool) -> f64 {
    let content = content_hash(model);
    // seeded accesses: tenant drawn uniformly, exponential inter-arrival
    let mut rng = SplitMix64::new(SEED ^ 0xCAC4E);
    let mut t_us = 0u64;
    let accesses: Vec<(usize, u64)> = (0..scale.cache_accesses)
        .map(|_| {
            let gap = (-(1.0 - rng.next_f64()).ln() * 200.0).round().max(1.0) as u64;
            t_us += gap;
            ((rng.next_u64() % CACHE_TENANTS as u64) as usize, t_us)
        })
        .collect();
    // per-tenant artifact fingerprints from the first config, checked by
    // the second: a striped hit must hand back the same compiled bytes
    let mut reference: Vec<Option<(u64, usize, usize)>> = vec![None; CACHE_TENANTS];
    let mut throughputs = Vec::new();
    for &stripes in &CACHE_SHARD_CONFIGS {
        let cache =
            CompiledArtifactCache::with_shards(CACHE_BENCH_CAPACITY, stripes, Tracer::disabled());
        let mut stripe_free = vec![0u64; stripes];
        let mut worker_free = [0u64; CACHE_WORKERS];
        let mut end = 0u64;
        for &(tenant, at_us) in &accesses {
            let tenant_name = format!("cache-t{tenant}");
            // every tenant compiles the model for its own board, so keys
            // are distinct and LRU churn is real at one stripe
            let key = ArtifactKey {
                content_hash: content,
                board: format!("board-{tenant}"),
                engine: ei_runtime_engine(),
                quantized: false,
            };
            let (artifact, hit) = cache
                .get_or_insert_with(&tenant_name, &key, || {
                    CompiledArtifact::compile(key.clone(), model)
                })
                .expect("bench model compiles");
            assert_eq!(artifact.key(), &key, "cache must return the requested artifact");
            let fingerprint = (
                artifact.compile_cost_ms(),
                artifact.plan().arena_bytes,
                artifact.memory().ram_total(),
            );
            match &reference[tenant] {
                None => reference[tenant] = Some(fingerprint),
                Some(prev) => assert_eq!(
                    prev, &fingerprint,
                    "hit artifacts must be identical across stripe counts"
                ),
            }
            let stripe = cache.shard_of(&tenant_name);
            let worker = (0..CACHE_WORKERS).min_by_key(|&w| worker_free[w]).expect("workers");
            let start = at_us.max(stripe_free[stripe]).max(worker_free[worker]);
            let cost = if hit { CACHE_HIT_US } else { artifact.compile_cost_ms() * 1_000 };
            let done = start + cost;
            stripe_free[stripe] = done;
            worker_free[worker] = done;
            end = end.max(done);
        }
        let stats = cache.stats();
        let shard_stats = cache.shard_stats();
        assert_eq!(shard_stats.len(), stripes);
        let span_s = (end - accesses[0].1) as f64 / 1e6;
        let throughput = accesses.len() as f64 / span_s;
        throughputs.push(throughput);
        if print {
            println!(
                "cache   {stripes:>3} stripes {:>10.1} ops/s  hit rate {:.3}  evictions {}",
                throughput,
                hit_rate(&stats),
                stats.evictions
            );
        }
        results.push(
            results
                .stamp()
                .field("cache_bench", Json::Bool(true))
                .field("cache_shards", Json::Uint(stripes as u64))
                .field("cache_workers", Json::Uint(CACHE_WORKERS as u64))
                .field("cache_tenants", Json::Uint(CACHE_TENANTS as u64))
                .field("cache_accesses", Json::Uint(accesses.len() as u64))
                .field("cache_hit_rate", Json::Float(hit_rate(&stats)))
                .field(
                    "cache_shard_hit_rates",
                    Json::Array(shard_stats.iter().map(|s| Json::Float(hit_rate(s))).collect()),
                )
                .field("cache_evictions", Json::Uint(stats.evictions))
                .field("cache_throughput_ops_per_s", Json::Float(throughput)),
        );
    }
    throughputs[1] / throughputs[0]
}

/// Runs the full sweep once and returns the populated writer.
fn run_sweep(scale: &Scale, model: &str, print: bool) -> ResultsWriter {
    let mut results = ResultsWriter::new("platform_scale");
    if print {
        println!(
            "{:<7} {:>8} {:>10} {:>10} {:>10} {:>12} {:>6} {:>6} {:>9} {:>7}",
            "shards",
            "threads",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "ops/s",
            "skew",
            "state",
            "cache hit",
            "racing"
        );
    }
    let mut reference_checksum = None;
    let mut by_threads: Vec<Vec<f64>> = vec![Vec::new(); THREADS.len()];
    for &shards in &SHARD_COUNTS {
        let mut events = schedule(scale);
        let replayed = replay(&mut events, shards, scale, model);
        assert_eq!(replayed.rejected, 0, "harness sizing must avoid admission rejections");
        let reference = *reference_checksum.get_or_insert(replayed.state_checksum);
        let identical = replayed.state_checksum == reference;
        for (t, &threads) in THREADS.iter().enumerate() {
            let (p50, p95, p99, throughput) = simulate(&events, shards, threads);
            by_threads[t].push(throughput);
            // the racing replay re-runs the same schedule from real
            // threads and must land on the serial checksum
            let racing_checksum = racing_replay(&events, shards, threads, scale, model);
            let racing_identical = racing_checksum == replayed.state_checksum;
            assert!(
                racing_identical,
                "racing replay diverged from serial at {shards} shards x {threads} threads"
            );
            if print {
                println!(
                    "{shards:<7} {threads:>8} {:>10.1} {:>10.1} {:>10.1} {throughput:>12.1} \
                     {:>6.2} {identical:>6} {:>9.3} {racing_identical:>7}",
                    p50 as f64 / 1e3,
                    p95 as f64 / 1e3,
                    p99 as f64 / 1e3,
                    replayed.occupancy_skew,
                    replayed.cache_hit_rate,
                );
            }
            results.push(
                results
                    .stamp()
                    .field("shards", Json::Uint(shards as u64))
                    .field("threads", Json::Uint(threads as u64))
                    .field("tenants", Json::Uint(scale.tenants as u64))
                    .field("ops", Json::Uint(events.len() as u64))
                    .field("p50_ms", Json::Float(p50 as f64 / 1e3))
                    .field("p95_ms", Json::Float(p95 as f64 / 1e3))
                    .field("p99_ms", Json::Float(p99 as f64 / 1e3))
                    .field("throughput_ops_per_s", Json::Float(throughput))
                    .field("occupancy_skew", Json::Float(replayed.occupancy_skew))
                    .field("cache_hit_rate", Json::Float(replayed.cache_hit_rate))
                    .field(
                        "cache_shard_hit_rates",
                        Json::Array(
                            replayed
                                .cache_shard_hit_rates
                                .iter()
                                .map(|&r| Json::Float(r))
                                .collect(),
                        ),
                    )
                    .field("state_checksum", Json::Str(format!("{:016x}", replayed.state_checksum)))
                    .field("state_identical", Json::Bool(identical))
                    .field("racing_state_checksum", Json::Str(format!("{racing_checksum:016x}")))
                    .field("racing_state_identical", Json::Bool(racing_identical)),
            );
        }
    }
    // throughput must scale monotonically with shard count at every width
    for (t, series) in by_threads.iter().enumerate() {
        for pair in series.windows(2) {
            assert!(
                pair[1] >= pair[0] * 0.999,
                "throughput must not regress as shards grow (threads {}): {series:?}",
                THREADS[t]
            );
        }
    }
    let cache_speedup = cache_bench(&mut results, scale, model, print);
    assert!(
        cache_speedup >= 1.5,
        "16-stripe cache must beat 1 stripe by >= 1.5x at {CACHE_WORKERS} workers, \
         got {cache_speedup:.2}x"
    );
    let wide = &by_threads[THREADS.len() - 1];
    let speedup = wide[2] / wide[0]; // 16 shards vs 1 shard at 4 workers
    results.push(
        results
            .stamp()
            .field("summary", Json::Bool(true))
            .field("monotone_throughput", Json::Bool(true))
            .field("speedup_16_over_1_at_4_threads", Json::Float(speedup))
            .field("cache_speedup_16_over_1_at_4_threads", Json::Float(cache_speedup))
            .field("state_identical", Json::Bool(true))
            .field("racing_state_identical", Json::Bool(true)),
    );
    results
}

fn main() {
    let scale = scale();
    let model = model_json();
    let first = run_sweep(&scale, &model, true);
    let second = run_sweep(&scale, &model, false);
    assert_eq!(
        first.to_jsonl(),
        second.to_jsonl(),
        "platform-scale sweep must be byte-for-byte reproducible"
    );
    first.write_and_report();
}
