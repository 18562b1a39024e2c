//! Always-on telemetry overhead bench: proves the `ei-obs` quiet path
//! (per-request histogram + counters + SLO burn-rate evaluation) costs
//! ≤ 5% on top of the serving hot path, and that the flight recorder's
//! fault dumps are byte-identical across pool widths and repeated runs.
//! Writes `results/obs_overhead.json`.
//!
//! Two measurements:
//!
//! 1. **Quiet path** — classify one window through a compiled artifact
//!    `iters` times, bare vs. with what the server records per completed
//!    request (tenant-labeled latency histogram and ok counter through
//!    the hub's tracer, then [`Obs::record_request`]) after every
//!    request (healthy latencies, so no SLO ever fires and the recorder
//!    never dumps — the steady state production runs in). Min-of-repeats
//!    wall time, `overhead_ratio = instrumented / baseline`.
//! 2. **Fault dumps** — replay a deadline-overrun serving trace (pool
//!    widths 1 and 4, each twice) and a job dead-letter flow (twice) on
//!    a [`VirtualClock`]; every replay must produce byte-identical
//!    flight-recorder captures.
//!
//! Set `EDGELAB_QUICK=1` for a shorter timing loop.

use ei_bench::{quick_mode, Measurement, ResultsWriter};
use ei_core::impulse::ImpulseDesign;
use ei_data::synth::KwsGenerator;
use ei_dsp::{DspConfig, MfccConfig};
use ei_faults::{CancelToken, Clock, VirtualClock};
use ei_nn::presets;
use ei_nn::train::TrainConfig;
use ei_obs::{BurnWindow, Obs, SloSpec, LATENCY_BOUNDS};
use ei_par::{ParPool, Parallelism};
use ei_platform::JobScheduler;
use ei_runtime::EngineKind;
use ei_serve::{
    ArtifactKey, CompiledArtifact, InferenceRequest, ModelSource, Outcome, Server, ServerConfig,
};
use ei_trace::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["yes".into(), "no".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
}

/// Trains the one small model the whole bench serves.
fn model_json() -> String {
    let design = ImpulseDesign::new(
        "obs-overhead",
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
    let spec = presets::dense_mlp(design.feature_dims().expect("valid design"), 2, 16);
    let config =
        TrainConfig { epochs: 4, batch_size: 8, learning_rate: 0.01, ..TrainConfig::default() };
    design
        .train(&spec, &generator().dataset(6, 7), &config)
        .expect("bench model trains")
        .to_json()
        .expect("serializes")
}

/// An always-on hub with a tight-window latency SLO that healthy
/// traffic never breaches — the full quiet-path cost, nothing skipped.
fn quiet_obs(clock: Arc<VirtualClock>) -> Arc<Obs> {
    Obs::builder(clock as Arc<dyn Clock>)
        .slo(SloSpec::latency("serve-p99", 100.0, 0.99).with_windows(vec![
            BurnWindow { window_ms: 50, burn_threshold: 2.0 },
            BurnWindow { window_ms: 200, burn_threshold: 1.0 },
        ]))
        .build()
}

/// One timed pass over the hot path; returns elapsed ns. The classify
/// result is consumed so the loop cannot be optimized away.
fn quiet_pass(
    artifact: &CompiledArtifact,
    window: &[f32],
    iters: usize,
    clock: &VirtualClock,
    obs: Option<&Obs>,
) -> u64 {
    let start = Instant::now();
    let mut ok = 0u64;
    for i in 0..iters {
        clock.advance_ms(1);
        let out = artifact.classify(window).expect("bench window classifies");
        ok += (out.confidence >= 0.0) as u64;
        if let Some(obs) = obs {
            // healthy latencies: under the 100 ms objective, never bad
            let (tenant, latency_ms) = (TENANTS[i % TENANTS.len()], (i % 40) as f64);
            let tracer = obs.tracer();
            tracer
                .histogram("serve.latency_ms", &LATENCY_BOUNDS)
                .labeled(tenant)
                .observe(latency_ms);
            tracer.quiet_counter("serve.ok").labeled(tenant).inc();
            obs.record_request(tenant, latency_ms, true);
        }
    }
    assert_eq!(ok, iters as u64, "every classify must succeed");
    start.elapsed().as_nanos() as u64
}

fn request(
    tenant: &str,
    model: &ModelSource,
    window: Vec<f32>,
    deadline_ms: u64,
) -> InferenceRequest {
    InferenceRequest {
        tenant: tenant.to_string(),
        model: model.clone(),
        board: String::new(),
        engine: EngineKind::EonCompiled,
        quantized: false,
        window,
        deadline_ms,
        precomputed: false,
    }
}

/// A clock that moves 150 ms on every read, so a deadline can blow
/// inside a batch (the server itself never advances time).
#[derive(Default)]
struct SteppingClock(AtomicU64);

impl Clock for SteppingClock {
    fn now_ms(&self) -> u64 {
        self.0.fetch_add(150, Ordering::SeqCst)
    }
    fn sleep_ms(&self, _ms: u64, _cancel: Option<&CancelToken>) -> bool {
        false
    }
}

/// Deadline-overrun serving trace: the server's stepping clock blows the
/// 200 ms deadline in-batch, tripping the recorder (which stays on the
/// virtual clock). Returns the dump JSONLs.
fn deadline_dumps(json: &str, window: &[f32], threads: usize) -> Vec<String> {
    let obs = quiet_obs(VirtualClock::shared());
    let srv = Server::new(
        ServerConfig::default(),
        Arc::new(SteppingClock::default()),
        Arc::new(ParPool::with_tracer(Parallelism::new(threads), obs.tracer().clone())),
        obs.tracer().clone(),
    )
    .with_obs(Arc::clone(&obs));
    let model = ModelSource::new("kws", json.to_string());
    let ticket = srv.submit(request("alpha", &model, window.to_vec(), 200)).expect("admitted");
    let completion = srv.resolve(ticket).expect("completed");
    assert!(
        matches!(completion.outcome, Outcome::DeadlineExceeded { .. }),
        "the batch must overrun: {completion:?}"
    );
    obs.dumps().into_iter().map(|d| d.jsonl).collect()
}

/// Job dead-letter flow under an ambient request span. Returns dump
/// JSONLs.
fn dead_letter_dumps() -> Vec<String> {
    let clock = VirtualClock::shared();
    let obs = quiet_obs(clock.clone());
    let scheduler =
        JobScheduler::with_clock_and_tracer(1, clock as Arc<dyn Clock>, obs.tracer().clone());
    let root = obs.tracer().span("bench.request");
    let id = {
        let _ambient = root.enter();
        scheduler.submit(2, || Err("injected failure".into())).expect("submitted")
    };
    assert!(scheduler.wait(id).is_err(), "the job must dead-letter");
    drop(root);
    obs.dumps().into_iter().map(|d| d.jsonl).collect()
}

fn main() {
    let json = model_json();
    let window = generator().generate(0, 3);
    let key = ArtifactKey {
        content_hash: ei_serve::content_hash(&json),
        board: String::new(),
        engine: EngineKind::EonCompiled,
        quantized: false,
    };
    let artifact = CompiledArtifact::compile(key, &json).expect("compiles");

    // --- 1. quiet-path overhead, min of interleaved repeats ---
    // many short passes: the min of each variant converges on its true
    // floor, squeezing scheduler noise out of the ratio
    let (iters, repeats) = if quick_mode() { (200, 5) } else { (1_000, 15) };
    // warm-up: touch the classify path once before timing
    let warmup = VirtualClock::shared();
    quiet_pass(&artifact, &window, 10, &warmup, None);

    let (mut baseline_ns, mut instrumented_ns) = (u64::MAX, u64::MAX);
    for _ in 0..repeats {
        let clock = VirtualClock::shared();
        baseline_ns = baseline_ns.min(quiet_pass(&artifact, &window, iters, &clock, None));
        let clock = VirtualClock::shared();
        let obs = quiet_obs(clock.clone());
        instrumented_ns =
            instrumented_ns.min(quiet_pass(&artifact, &window, iters, &clock, Some(&obs)));
        assert!(obs.dumps().is_empty(), "the quiet path must never trip the recorder");
    }
    let overhead_ratio = instrumented_ns as f64 / baseline_ns as f64;

    // --- 2. fault dumps: byte-identical across widths and runs ---
    let reference = deadline_dumps(&json, &window, 1);
    assert!(!reference.is_empty(), "the deadline scenario must dump");
    let mut dumps_identical = true;
    for replay in [
        deadline_dumps(&json, &window, 1),
        deadline_dumps(&json, &window, 4),
        deadline_dumps(&json, &window, 4),
    ] {
        dumps_identical &= replay == reference;
    }
    let letters = dead_letter_dumps();
    assert!(!letters.is_empty(), "the dead-letter scenario must dump");
    dumps_identical &= dead_letter_dumps() == letters;

    println!("obs overhead: {iters} classifications x {repeats} repeats (min)");
    println!("  baseline      {:>12} ns", baseline_ns);
    println!("  instrumented  {:>12} ns", instrumented_ns);
    println!("  overhead      {:>11.3}x (gate: <= 1.05)", overhead_ratio);
    println!(
        "fault dumps: {} deadline + {} dead-letter captures, identical: {dumps_identical}",
        reference.len(),
        letters.len()
    );
    assert!(
        overhead_ratio <= 1.05,
        "always-on telemetry must stay under 5% ({overhead_ratio:.3}x)"
    );
    assert!(dumps_identical, "flight dumps must not depend on pool width or run");

    let mut results = ResultsWriter::new("obs_overhead", Measurement::Wall);
    results.push(
        results
            .stamp()
            .field("kind", Json::Str("quiet_path".into()))
            .field("iters", Json::Uint(iters as u64))
            .field("repeats", Json::Uint(repeats as u64))
            .field("baseline_ns", Json::Uint(baseline_ns))
            .field("instrumented_ns", Json::Uint(instrumented_ns))
            .field("overhead_ratio", Json::Float(overhead_ratio)),
    );
    results.push(
        results
            .stamp()
            .field("kind", Json::Str("fault_dumps".into()))
            .field("deadline_dumps", Json::Uint(reference.len() as u64))
            .field("dead_letter_dumps", Json::Uint(letters.len() as u64))
            .field("dumps_identical", Json::Bool(dumps_identical)),
    );
    results.write_and_report();
}
