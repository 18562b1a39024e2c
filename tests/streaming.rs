//! Cross-crate streaming guarantees: incremental DSP features are bitwise
//! equal to batch recomputation no matter how the signal is chunked, the
//! verdict stream is identical at any pool width, every `serve.request`
//! chains causally under its `stream.session` span (so SLO breach dumps
//! name the stream that caused them), the serving layer exports queue
//! depth and per-tenant in-flight gauges, and the platform API's stream
//! endpoints enforce project access control end to end.
//!
//! `scripts/check.sh` runs this suite under both `EI_THREADS=1` and `4`.

use edgelab::core::impulse::ImpulseDesign;
use edgelab::data::synth::KwsGenerator;
use edgelab::dsp::{DspConfig, MfccConfig};
use edgelab::faults::{Clock, VirtualClock};
use edgelab::nn::{presets, train::TrainConfig};
use edgelab::obs::{Obs, SloSpec};
use edgelab::par::{ParPool, Parallelism};
use edgelab::platform::{Api, PlatformError};
use edgelab::serve::{ModelSource, Server, ServerConfig};
use edgelab::stream::{SessionConfig, SessionStats, StreamSession, WindowVerdict};
use edgelab::trace::Tracer;
use std::sync::Arc;

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["yes".into(), "no".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
}

/// A tiny KWS model: window 1000 samples, MFCC frames of 128 every 64.
fn model_json() -> String {
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
    .unwrap();
    let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
    let config = TrainConfig { epochs: 2, seed: 11, ..TrainConfig::default() };
    design.train(&spec, &generator().dataset(4, 11), &config).unwrap().to_json().unwrap()
}

fn audio(clips: usize) -> Vec<f32> {
    let gen = generator();
    (0..clips).flat_map(|i| gen.generate(i % 2, i as u64)).collect()
}

fn server_on(pool: Parallelism, queue_capacity: usize) -> Arc<Server> {
    Arc::new(Server::new(
        ServerConfig { queue_capacity, ..ServerConfig::default() },
        VirtualClock::shared() as Arc<dyn Clock>,
        Arc::new(ParPool::new(pool)),
        Tracer::disabled(),
    ))
}

/// Runs one whole session and returns its verdicts + final stats.
fn run_session(
    json: &str,
    pool: Parallelism,
    chunk_len: usize,
) -> (Vec<WindowVerdict>, SessionStats) {
    let mut config = SessionConfig::new("tenant-a", 256);
    config.max_pending = 64;
    let mut session =
        StreamSession::open(server_on(pool, 64), ModelSource::new("kws", json.to_string()), config)
            .unwrap();
    let signal = audio(4);
    let mut verdicts = Vec::new();
    for chunk in signal.chunks(chunk_len) {
        session.push(chunk).unwrap();
        verdicts.extend(session.poll());
    }
    verdicts.extend(session.poll());
    (verdicts, session.close())
}

/// Tentpole: the incremental extractor's features are *bitwise* equal to
/// batch recomputation (the in-session oracle re-derives every window from
/// raw samples), regardless of how the signal is chunked on the way in.
#[test]
fn incremental_features_match_batch_bitwise_at_any_chunking() {
    let json = model_json();
    for chunk_len in [37usize, 500, 4_000] {
        let (verdicts, stats) = run_session(&json, Parallelism::from_env(), chunk_len);
        assert!(verdicts.len() >= 10, "chunk_len {chunk_len}: {verdicts:?}");
        assert!(stats.oracle_windows >= 10, "oracle must check every window");
        assert!(
            stats.features_identical(),
            "chunk_len {chunk_len}: incremental DSP diverged from batch: {stats:?}"
        );
        // overlapping windows shared columns instead of recomputing them
        assert!(
            stats.frames_used > 2 * stats.frames_computed,
            "expected >2x column reuse: {stats:?}"
        );
    }
}

/// Three tenants stream distinct signals through one shared server,
/// polling every `polls_every` pushes against an admission queue of
/// `queue_capacity`; default `max_pending`, so a slow cadence sheds.
fn run_shared_server(
    json: &str,
    pool: Parallelism,
    polls_every: usize,
    queue_capacity: usize,
) -> Vec<(Vec<WindowVerdict>, SessionStats)> {
    let server = server_on(pool, queue_capacity);
    let gen = generator();
    let mut sessions: Vec<_> = ["alpha", "beta", "gamma"]
        .iter()
        .enumerate()
        .map(|(t, tenant)| {
            let model = ModelSource::new("kws", json.to_string());
            let session =
                StreamSession::open(server.clone(), model, SessionConfig::new(tenant, 256))
                    .unwrap();
            let signal: Vec<f32> =
                (0..8).flat_map(|i| gen.generate((t + i) % 2, (t * 1_000 + i) as u64)).collect();
            (session, signal, Vec::new())
        })
        .collect();
    for step in 0..16 {
        for (session, signal, verdicts) in &mut sessions {
            session.push(&signal[step * 500..(step + 1) * 500]).unwrap();
            if (step + 1) % polls_every == 0 {
                verdicts.extend(session.poll());
            }
        }
    }
    sessions
        .into_iter()
        .map(|(mut session, _, mut verdicts)| {
            verdicts.extend(session.poll());
            (verdicts, session.close())
        })
        .collect()
}

/// The whole verdict stream — sequence numbers, classifications,
/// timestamps, smoothed labels — is identical at every pool width: for
/// one session, and for three tenants sharing a server at a nominal, a
/// bursty and an overloaded poll cadence (cadence and queue capacity
/// alone decide what is shed).
#[test]
fn verdict_stream_is_identical_at_any_pool_width() {
    let json = model_json();
    let (serial, serial_stats) = run_session(&json, Parallelism::serial(), 500);
    let (wide, wide_stats) = run_session(&json, Parallelism::new(4), 500);
    let (env, env_stats) = run_session(&json, Parallelism::from_env(), 500);
    assert!(!serial.is_empty());
    assert_eq!(serial, wide, "verdicts must not depend on pool width");
    assert_eq!(serial_stats, wide_stats);
    assert_eq!(serial, env, "verdicts must not depend on EI_THREADS");
    assert_eq!(serial_stats, env_stats);

    for (polls_every, queue_capacity, sheds) in [(1, 64, false), (4, 16, false), (8, 4, true)] {
        let serial = run_shared_server(&json, Parallelism::serial(), polls_every, queue_capacity);
        let wide = run_shared_server(&json, Parallelism::new(4), polls_every, queue_capacity);
        assert_eq!(serial, wide, "poll every {polls_every}: pool width changed the streams");
        for (verdicts, stats) in &serial {
            assert!(!verdicts.is_empty());
            assert!(stats.features_identical(), "incremental DSP must match batch: {stats:?}");
            assert_eq!(stats.drops_total(), stats.drops_backpressure, "only backpressure sheds");
            assert_eq!(
                stats.drops_backpressure > 0,
                sheds,
                "poll every {polls_every} at capacity {queue_capacity}: {stats:?}"
            );
        }
    }
}

/// Requests submitted by a session adopt its `stream.session` span as
/// causal parent, so an SLO breach dump cut by ei-obs names the stream
/// that caused the breach — and the capture is byte-identical across
/// runs.
#[test]
fn slo_breach_dump_chains_back_to_the_stream_session() {
    let json = model_json();
    let run = || {
        let clock = VirtualClock::shared();
        let obs = Obs::builder(clock.clone() as Arc<dyn Clock>)
            // each window waits 5 ms of advanced time against 1 ms
            .slo(SloSpec::latency("stream-p99", 1.0, 0.99).with_min_samples(3).with_cooldown_ms(0))
            .build();
        let server = Arc::new(
            Server::new(
                ServerConfig { queue_capacity: 64, ..ServerConfig::default() },
                clock.clone() as Arc<dyn Clock>,
                Arc::new(ParPool::new(Parallelism::from_env())),
                obs.tracer().clone(),
            )
            .with_obs(Arc::clone(&obs)),
        );
        let mut config = SessionConfig::new("stream-tenant", 256);
        config.max_pending = 64;
        let mut session =
            StreamSession::open(Arc::clone(&server), ModelSource::new("kws", json.clone()), config)
                .unwrap();
        for chunk in audio(2).chunks(500) {
            session.push(chunk).unwrap();
            clock.advance_ms(5);
            session.poll();
        }
        session.close();
        obs.dumps()
    };
    let dumps = run();
    let breach = dumps
        .iter()
        .find(|d| d.trigger == "slo.breach")
        .expect("5 ms between push and poll must breach the 1 ms objective");
    for name in ["stream.session", "serve.request"] {
        assert!(
            breach.jsonl.contains(&format!("\"name\":\"{name}\"")),
            "breach dump must chain back through {name}:\n{}",
            breach.jsonl
        );
    }
    assert_eq!(dumps, run(), "breach dumps must be byte-identical across runs");
}

/// Satellite: the serving layer exports admission-queue depth and
/// per-tenant in-flight request gauges into the ei-obs registry.
#[test]
fn serve_exports_queue_depth_and_inflight_gauges() {
    let json = model_json();
    let clock = VirtualClock::shared();
    let obs = Obs::builder(clock.clone() as Arc<dyn Clock>).build();
    let server = Arc::new(
        Server::new(
            ServerConfig { queue_capacity: 64, ..ServerConfig::default() },
            clock as Arc<dyn Clock>,
            Arc::new(ParPool::new(Parallelism::from_env())),
            obs.tracer().clone(),
        )
        .with_obs(Arc::clone(&obs)),
    );
    let mut config = SessionConfig::new("gauge-tenant", 256);
    config.max_pending = 64;
    let mut session =
        StreamSession::open(Arc::clone(&server), ModelSource::new("kws", json), config).unwrap();
    session.push(&audio(2)).unwrap();

    let gauge = |metric: &str, label: &str| obs.registry().gauge(metric, label);
    // windows were submitted but not yet resolved: both gauges are live
    assert!(
        gauge("serve.queue_depth", "").is_some(),
        "queue depth gauge must exist: {:?}",
        obs.registry().snapshot().keys().collect::<Vec<_>>()
    );
    let inflight = gauge("serve.inflight", "gauge-tenant").expect("per-tenant in-flight gauge");
    assert!(inflight > 0.0, "submitted windows must show as in-flight, got {inflight}");
    assert_eq!(server.tenant_inflight("gauge-tenant"), inflight as u64);

    let verdicts = session.poll();
    assert!(!verdicts.is_empty());
    session.close();
    // everything resolved: the gauges drain back to zero
    assert_eq!(gauge("serve.inflight", "gauge-tenant"), Some(0.0));
    assert_eq!(gauge("serve.queue_depth", ""), Some(0.0));
}

/// The platform API's stream endpoints: project-scoped access control,
/// default project billing identity, and full-session accounting.
#[test]
fn platform_stream_endpoints_enforce_access_and_account_windows() {
    let api = Api::new();
    let owner = api.create_user("owner");
    let outsider = api.create_user("outsider");
    let project = api.create_project("live", owner).unwrap();
    api.attach_serving(server_on(Parallelism::from_env(), 64)).unwrap();
    api.upload_model(project, owner, "kws", model_json()).unwrap();

    let mut config = SessionConfig::new("", 256); // empty tenant -> project-<id>
    config.max_pending = 64;
    let sid = api.stream_open(project, owner, "kws", config).unwrap();

    assert!(matches!(
        api.stream_push(sid, outsider, &[0.0; 64]),
        Err(PlatformError::AccessDenied(_))
    ));

    let signal = audio(4);
    let mut verdicts = Vec::new();
    for chunk in signal.chunks(500) {
        verdicts.extend(api.stream_push(sid, owner, chunk).unwrap());
    }
    let stats = api.stream_stats(sid, owner).unwrap();
    assert_eq!(stats.samples_in, signal.len() as u64);
    let final_stats = api.stream_close(sid, owner).unwrap();
    assert!(final_stats.windows_classified >= 10);
    assert!(final_stats.features_identical());
    assert!(!verdicts.is_empty());
    assert!(api.stream_push(sid, owner, &[0.0; 64]).is_err(), "closed session is gone");
}
