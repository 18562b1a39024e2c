//! Multi-tenant serving bench: replays a synthetic request trace against
//! [`ei_serve::Server`] and writes throughput, per-tenant latency
//! percentiles, and cache statistics to `results/serving.json`.
//!
//! Three tenants each own a distinct trained KWS-style model and call both
//! engines (TFLM interpreter and EON compiled), so the trace exercises six
//! artifact-cache entries. The server runs on a [`VirtualClock`] with all
//! service costs modeled, which makes the whole bench byte-for-byte
//! reproducible: the trace is replayed twice and the runs are asserted
//! identical. The cold-vs-hit comparison at the top asserts the cache's
//! contract — a hit is at least 5x faster than a cold compile and returns
//! the identical classification.
//!
//! Set `EDGELAB_QUICK=1` for a smoke run with a shorter trace.

use ei_bench::{percentile, quick_mode, ResultsWriter};
use ei_core::impulse::ImpulseDesign;
use ei_data::synth::KwsGenerator;
use ei_dsp::{DspConfig, MfccConfig};
use ei_faults::{Clock, VirtualClock};
use ei_nn::presets;
use ei_nn::train::TrainConfig;
use ei_par::{ParPool, Parallelism};
use ei_runtime::EngineKind;
use ei_serve::{InferenceRequest, ModelSource, Outcome, Server, ServerConfig};
use ei_trace::json::Json;
use ei_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

const ENGINES: [EngineKind; 2] = [EngineKind::TflmInterpreter, EngineKind::EonCompiled];

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["yes".into(), "no".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
}

fn design(name: &str) -> ImpulseDesign {
    ImpulseDesign::new(
        name,
        1_000,
        DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 10,
            n_filters: 20,
            sample_rate_hz: 4_000,
        }),
    )
    .expect("bench design is valid")
}

/// Trains one small model per tenant; hidden sizes differ so each tenant's
/// model has distinct content, weights, and compile cost.
fn tenant_models() -> Vec<(String, ModelSource)> {
    let epochs = if quick_mode() { 3 } else { 10 };
    let gen = generator();
    [("alpha", 16usize, 7u64), ("beta", 24, 8), ("gamma", 32, 9)]
        .into_iter()
        .map(|(tenant, hidden, seed)| {
            let d = design(tenant);
            let spec = presets::dense_mlp(d.feature_dims().expect("valid design"), 2, hidden);
            let config = TrainConfig {
                epochs,
                batch_size: 8,
                learning_rate: 0.01,
                seed,
                ..TrainConfig::default()
            };
            let trained =
                d.train(&spec, &gen.dataset(6, seed), &config).expect("bench model trains");
            let json = trained.to_json().expect("serializes");
            (tenant.to_string(), ModelSource::new(tenant, json))
        })
        .collect()
}

fn request(
    tenant: &str,
    model: &ModelSource,
    engine: EngineKind,
    window: Vec<f32>,
) -> InferenceRequest {
    InferenceRequest {
        tenant: tenant.to_string(),
        model: model.clone(),
        board: String::new(),
        engine,
        quantized: false,
        window,
        deadline_ms: 0,
        precomputed: false,
    }
}

/// Replays the trace once and returns the fully-populated results writer.
fn run_trace(models: &[(String, ModelSource)], print: bool) -> ResultsWriter {
    let clock = VirtualClock::shared();
    let pool = Arc::new(ParPool::new(Parallelism::from_env()));
    let config = ServerConfig {
        queue_capacity: 256,
        quota_capacity: 256,
        quota_refill_per_sec: 256.0,
        ..ServerConfig::default()
    };
    let server = Server::new(config, clock.clone() as Arc<dyn Clock>, pool, Tracer::disabled());
    let gen = generator();

    // Cache contract: a hit must be >= 5x faster than the cold compile and
    // byte-identical to it.
    let (tenant0, model0) = &models[0];
    let probe = gen.generate(0, 1);
    let t = server.submit(request(tenant0, model0, EngineKind::EonCompiled, probe.clone()));
    let cold = server.resolve(t.expect("admitted")).expect("completed");
    let t = server.submit(request(tenant0, model0, EngineKind::EonCompiled, probe));
    let hit = server.resolve(t.expect("admitted")).expect("completed");
    assert!(!cold.cache_hit && hit.cache_hit);
    assert_eq!(cold.outcome, hit.outcome, "cache hit must return the identical classification");
    assert!(
        cold.latency_ms >= 5 * hit.latency_ms.max(1),
        "cold {} ms vs hit {} ms: hit path must be >= 5x faster",
        cold.latency_ms,
        hit.latency_ms
    );
    let speedup = cold.latency_ms as f64 / hit.latency_ms.max(1) as f64;

    let rounds = if quick_mode() { 4 } else { 12 };
    let mut completions = vec![cold, hit];
    for round in 0..rounds {
        for (i, (tenant, model)) in models.iter().enumerate() {
            for engine in ENGINES {
                for rep in 0..2u64 {
                    let seed = (round * 1_000 + i * 100) as u64 + rep;
                    let window = gen.generate((rep % 2) as usize, seed);
                    server
                        .submit(request(tenant, model, engine, window))
                        .expect("trace stays under quota and queue bounds");
                }
            }
        }
        completions.extend(server.drain());
    }

    // group latencies per (tenant, engine) and per tenant across engines
    let mut series: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    let mut by_tenant: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for c in &completions {
        assert!(
            matches!(c.outcome, Outcome::Classified(_)),
            "trace requests must all classify: {c:?}"
        );
        series.entry((c.tenant.clone(), c.engine.to_string())).or_default().push(c.latency_ms);
        by_tenant.entry(c.tenant.clone()).or_default().push(c.latency_ms);
    }

    let stats = server.cache_stats();
    let elapsed_ms = clock.now_ms();
    let throughput_rps = completions.len() as f64 * 1_000.0 / elapsed_ms as f64;

    let mut results = ResultsWriter::new("serving");
    if print {
        println!("serving trace: {} requests over {} virtual ms", completions.len(), elapsed_ms);
        println!(
            "{:<8} {:<6} {:>9} {:>8} {:>8} {:>8}",
            "tenant", "engine", "requests", "p50 ms", "p95 ms", "p99 ms"
        );
    }
    for ((tenant, engine), mut lat) in series {
        lat.sort_unstable();
        let (p50, p95, p99) = (percentile(&lat, 50), percentile(&lat, 95), percentile(&lat, 99));
        if print {
            println!("{tenant:<8} {engine:<6} {:>9} {p50:>8} {p95:>8} {p99:>8}", lat.len());
        }
        results.push(
            results
                .stamp()
                .field("tenant", Json::Str(tenant))
                .field("engine", Json::Str(engine))
                .field("requests", Json::Uint(lat.len() as u64))
                .field("p50_ms", Json::Uint(p50))
                .field("p95_ms", Json::Uint(p95))
                .field("p99_ms", Json::Uint(p99)),
        );
    }
    // per-tenant aggregates across engines: the ground truth an
    // `ei_obs::SloSpec` latency objective for that tenant evaluates
    // against (ei-obs labels `serve.latency_ms` by tenant only)
    for (tenant, mut lat) in by_tenant {
        lat.sort_unstable();
        let (p50, p95, p99) = (percentile(&lat, 50), percentile(&lat, 95), percentile(&lat, 99));
        if print {
            println!("{tenant:<8} {:<6} {:>9} {p50:>8} {p95:>8} {p99:>8}", "all", lat.len());
        }
        results.push(
            results
                .stamp()
                .field("tenant", Json::Str(tenant))
                .field("engine", Json::Str("all".into()))
                .field("slo_ground_truth", Json::Bool(true))
                .field("requests", Json::Uint(lat.len() as u64))
                .field("p50_ms", Json::Uint(p50))
                .field("p95_ms", Json::Uint(p95))
                .field("p99_ms", Json::Uint(p99)),
        );
    }
    if print {
        println!(
            "throughput {throughput_rps:.1} req/s   cache hit rate {:.2} \
             ({} hits / {} misses / {} evictions)   cold/hit speedup {speedup:.1}x",
            stats.hit_rate(),
            stats.hits,
            stats.misses,
            stats.evictions
        );
    }
    results.push(
        results
            .stamp()
            .field("summary", Json::Bool(true))
            .field("requests", Json::Uint(completions.len() as u64))
            .field("virtual_ms", Json::Uint(elapsed_ms))
            .field("throughput_rps", Json::Float(throughput_rps))
            .field("cache_hits", Json::Uint(stats.hits))
            .field("cache_misses", Json::Uint(stats.misses))
            .field("cache_evictions", Json::Uint(stats.evictions))
            .field("cache_hit_rate", Json::Float(stats.hit_rate()))
            .field("cold_hit_speedup", Json::Float(speedup)),
    );
    results
}

fn main() {
    let models = tenant_models();
    let first = run_trace(&models, true);
    let second = run_trace(&models, false);
    assert_eq!(
        first.to_jsonl(),
        second.to_jsonl(),
        "serving trace must be byte-for-byte reproducible under the virtual clock"
    );
    first.write_and_report();
}
