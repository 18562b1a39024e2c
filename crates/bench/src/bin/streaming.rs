//! Streaming-session bench: sustained multi-tenant live streams through
//! [`ei_stream::StreamSession`] + [`ei_serve::Server`], writing per-tenant
//! window staleness percentiles, drop rates and incremental-DSP reuse to
//! `results/streaming.json`.
//!
//! Three load scenarios sweep the gap between ingest rate and inference
//! capacity:
//!
//! * `nominal` — inference keeps up; every window classifies, staleness is
//!   one dispatch.
//! * `bursty` — polls are four pushes apart and service is slower, so
//!   short backlogs form and drain.
//! * `overloaded` — service costs dwarf the ingest rate; the per-session
//!   backpressure bound sheds the oldest windows, trading drop rate for a
//!   staleness ceiling.
//!
//! Each scenario runs the identical trace on an explicit 1-thread and
//! 4-thread pool; the runs are asserted byte-identical (determinism is the
//! repo-wide contract, see DESIGN.md), and the whole sweep is run twice to
//! assert the file is byte-for-byte reproducible. Every session keeps its
//! bitwise batch-recompute oracle on, so the bench also proves
//! `features_identical` under load.
//!
//! Set `EDGELAB_QUICK=1` for a smoke run with shorter streams.

use ei_bench::{percentile, quick_mode, ResultsWriter};
use ei_core::impulse::ImpulseDesign;
use ei_data::synth::KwsGenerator;
use ei_dsp::{DspConfig, MfccConfig};
use ei_faults::{Clock, VirtualClock};
use ei_nn::presets;
use ei_nn::train::TrainConfig;
use ei_par::{ParPool, Parallelism};
use ei_serve::{ModelSource, Server, ServerConfig};
use ei_stream::{SessionConfig, SessionStats, StreamSession, WindowVerdict};
use ei_trace::json::Json;
use ei_trace::Tracer;
use std::sync::Arc;

/// One load scenario: how often sessions poll relative to pushes, and how
/// expensive the modeled inference is.
struct Scenario {
    name: &'static str,
    /// Pushes between polls (1 = poll every chunk).
    polls_every: usize,
    /// Modeled per-request service cost (logical ms).
    per_item_ms: u64,
    /// Admission queue bound shared by all sessions.
    queue_capacity: usize,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario { name: "nominal", polls_every: 1, per_item_ms: 1, queue_capacity: 64 },
    Scenario { name: "bursty", polls_every: 4, per_item_ms: 5, queue_capacity: 16 },
    Scenario { name: "overloaded", polls_every: 8, per_item_ms: 20, queue_capacity: 4 },
];

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
const CHUNK: usize = 500;

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["yes".into(), "no".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
}

/// One shared KWS model (window 1000, MFCC frames of 128 every 64).
fn model() -> ModelSource {
    let design = ImpulseDesign::new(
        "stream-kws",
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
        epochs: 3,
        batch_size: 8,
        learning_rate: 0.01,
        seed: 11,
        ..TrainConfig::default()
    };
    let trained =
        design.train(&spec, &generator().dataset(4, 11), &config).expect("bench model trains");
    ModelSource::new("stream-kws", trained.to_json().expect("serializes"))
}

/// Per-tenant outcome of one scenario run.
struct TenantRun {
    tenant: String,
    staleness: Vec<u64>,
    stats: SessionStats,
}

/// Replays one scenario on an explicit pool width; fully deterministic.
fn run_scenario(scenario: &Scenario, model: &ModelSource, threads: usize) -> Vec<TenantRun> {
    let clock = VirtualClock::shared();
    let pool = Arc::new(ParPool::new(Parallelism::new(threads)));
    let config = ServerConfig {
        queue_capacity: scenario.queue_capacity,
        per_item_ms: scenario.per_item_ms,
        quota_capacity: 4_096,
        quota_refill_per_sec: 4_096.0,
        ..ServerConfig::default()
    };
    let server =
        Arc::new(Server::new(config, clock.clone() as Arc<dyn Clock>, pool, Tracer::disabled()));

    let clips = if quick_mode() { 4 } else { 16 };
    let gen = generator();
    let mut sessions: Vec<StreamSession> = TENANTS
        .iter()
        .map(|tenant| {
            StreamSession::open(server.clone(), model.clone(), SessionConfig::new(tenant, 256))
                .expect("bench session opens")
        })
        .collect();
    // one distinct deterministic signal per tenant
    let signals: Vec<Vec<f32>> = (0..sessions.len())
        .map(|t| {
            (0..clips).flat_map(|i| gen.generate((t + i) % 2, (t * 1_000 + i) as u64)).collect()
        })
        .collect();

    let mut staleness: Vec<Vec<u64>> = vec![Vec::new(); sessions.len()];
    let chunks = signals[0].len() / CHUNK;
    for step in 0..chunks {
        for (t, session) in sessions.iter_mut().enumerate() {
            let chunk = &signals[t][step * CHUNK..(step + 1) * CHUNK];
            session.push(chunk).expect("ingest never fails");
            if (step + 1) % scenario.polls_every == 0 {
                record(&mut staleness[t], session.poll());
            }
        }
    }
    sessions
        .into_iter()
        .zip(staleness)
        .map(|(mut session, mut staleness)| {
            let tenant = session.tenant().to_string();
            // drain what is still in flight before closing
            record(&mut staleness, session.poll());
            let stats = session.close();
            TenantRun { tenant, staleness, stats }
        })
        .collect()
}

fn record(staleness: &mut Vec<u64>, verdicts: Vec<WindowVerdict>) {
    staleness.extend(verdicts.iter().map(|v| v.staleness_ms));
}

/// Runs every scenario at both pool widths and returns the canonical
/// writer (built from the 1-thread run, asserted equal to the 4-thread
/// run).
fn run_sweep(model: &ModelSource, print: bool) -> ResultsWriter {
    let mut results = ResultsWriter::new("streaming");
    if print {
        println!(
            "{:<12} {:<8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7}",
            "scenario", "tenant", "windows", "p50 ms", "p95 ms", "p99 ms", "drop rate", "reuse"
        );
    }
    for scenario in &SCENARIOS {
        let serial = run_scenario(scenario, model, 1);
        let wide = run_scenario(scenario, model, 4);
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.stats, b.stats, "{}: stats must not depend on pool width", scenario.name);
            assert_eq!(
                a.staleness, b.staleness,
                "{}: staleness must not depend on pool width",
                scenario.name
            );
        }
        for run in serial {
            let mut sorted = run.staleness.clone();
            sorted.sort_unstable();
            let (p50, p95, p99) =
                (percentile(&sorted, 50), percentile(&sorted, 95), percentile(&sorted, 99));
            let stats = run.stats;
            assert!(stats.features_identical(), "incremental DSP must match batch bitwise");
            let drop_rate = stats.drops_total() as f64 / stats.windows_emitted.max(1) as f64;
            // frames shared across overlapping windows: >1 means the
            // incremental extractor did asymptotically less FFT work
            let reuse = stats.frames_used as f64 / stats.frames_computed.max(1) as f64;
            if print {
                println!(
                    "{:<12} {:<8} {:>8} {p50:>8} {p95:>8} {p99:>8} {drop_rate:>9.2} {reuse:>7.2}",
                    scenario.name, run.tenant, stats.windows_classified,
                );
            }
            results.push(
                results
                    .stamp()
                    .field("scenario", Json::Str(scenario.name.into()))
                    .field("tenant", Json::Str(run.tenant))
                    .field("windows_emitted", Json::Uint(stats.windows_emitted))
                    .field("windows_classified", Json::Uint(stats.windows_classified))
                    .field("drops_backpressure", Json::Uint(stats.drops_backpressure))
                    .field("drops_quota", Json::Uint(stats.drops_quota))
                    .field("drops_deadline", Json::Uint(stats.drops_deadline))
                    .field("drop_rate", Json::Float(drop_rate))
                    .field("staleness_p50_ms", Json::Uint(p50))
                    .field("staleness_p95_ms", Json::Uint(p95))
                    .field("staleness_p99_ms", Json::Uint(p99))
                    .field("frames_computed", Json::Uint(stats.frames_computed))
                    .field("frames_used", Json::Uint(stats.frames_used))
                    .field("dsp_reuse", Json::Float(reuse))
                    .field("oracle_windows", Json::Uint(stats.oracle_windows))
                    .field("features_identical", Json::Bool(stats.features_identical())),
            );
        }
    }
    results.push(
        results
            .stamp()
            .field("summary", Json::Bool(true))
            .field("features_identical", Json::Bool(true))
            .field("pools_identical", Json::Bool(true))
            .field("tenants", Json::Uint(TENANTS.len() as u64))
            .field("scenarios", Json::Uint(SCENARIOS.len() as u64)),
    );
    results
}

fn main() {
    let model = model();
    let first = run_sweep(&model, true);
    let second = run_sweep(&model, false);
    assert_eq!(
        first.to_jsonl(),
        second.to_jsonl(),
        "streaming sweep must be byte-for-byte reproducible under the virtual clock"
    );
    first.write_and_report();
}
