//! Integration of the deployment-side runtimes: the EIM JSON protocol,
//! the calibrated detector on a live stream, and the saved-model round
//! trip — together they are the "ship it" half of the platform.
//!
//! The live keyword detector is composition: a `StreamSession` classifies
//! each window through the serving tier (int8, as deployed), and each
//! verdict's "go" probability goes into the same `EventDetector` the
//! calibration GA scores. An event on window `seq` starts at sample
//! `seq * HOP`.

use edgelab::calibration::{EventDetector, PostProcessConfig};
use edgelab::core::eim::EimRunner;
use edgelab::core::impulse::{ImpulseDesign, TrainedImpulse};
use edgelab::data::synth::KwsGenerator;
use edgelab::data::{Dataset, Sample, SensorKind};
use edgelab::dsp::{DspConfig, MfccConfig};
use edgelab::faults::{Clock, VirtualClock};
use edgelab::nn::{presets, train::TrainConfig};
use edgelab::par::{ParPool, Parallelism};
use edgelab::serve::{ModelSource, Server, ServerConfig};
use edgelab::stream::{SessionConfig, SessionStats, StreamSession, WindowVerdict};
use edgelab::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::sync::{Arc, OnceLock};

/// Samples the spotter classifies at once.
const WINDOW: usize = 2_000;

/// Samples between classification windows: a multiple of the spotter's
/// 128-sample MFCC frame stride (16 ms at 8 kHz).
const HOP: usize = 512;

/// The calibrated post-processing the live detector runs.
const POST_PROCESS: PostProcessConfig =
    PostProcessConfig { mean_filter: 1, threshold: 0.6, suppression: 6 };

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["go".into()],
        sample_rate_hz: 8_000,
        duration_s: 0.25,
        noise: 0.03,
    }
}

/// Keyword-vs-noise dataset matching what a streaming deployment sees.
fn dataset() -> Dataset {
    let gen = generator();
    let mut ds = Dataset::new("deploy");
    let mut rng = StdRng::seed_from_u64(42);
    for k in 0..18 {
        ds.add(Sample::new(0, gen.generate(0, k), SensorKind::Audio).with_label("go"));
        let noise: Vec<f32> = (0..2_000).map(|_| rng.gen_range(-0.06f32..0.06)).collect();
        ds.add(Sample::new(0, noise, SensorKind::Audio).with_label("background"));
    }
    ds
}

/// The spotter, trained once for every test in this file.
fn spotter() -> &'static TrainedImpulse {
    static SPOTTER: OnceLock<TrainedImpulse> = OnceLock::new();
    SPOTTER.get_or_init(|| {
        let design = ImpulseDesign::new(
            "deploy-kws",
            WINDOW,
            DspConfig::Mfcc(MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 8,
                n_filters: 20,
                sample_rate_hz: 8_000,
            }),
        )
        .unwrap();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 24);
        design
            .train(
                &spec,
                &dataset(),
                &TrainConfig { epochs: 14, learning_rate: 0.01, ..TrainConfig::default() },
            )
            .unwrap()
    })
}

/// Background noise of `len` samples with a "go" clip added at each
/// position.
fn stream_with_keywords(
    noise_seed: u64,
    clip_seed: u64,
    positions: &[usize],
    len: usize,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(noise_seed);
    let mut stream: Vec<f32> = (0..len).map(|_| rng.gen_range(-0.04f32..0.04)).collect();
    for (k, &pos) in positions.iter().enumerate() {
        let clip = generator().generate(0, clip_seed + k as u64);
        for (i, &v) in clip.iter().enumerate() {
            stream[pos + i] += v;
        }
    }
    stream
}

/// An event the live detector fired: the window's first sample and the
/// smoothed probability it fired on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    sample_offset: usize,
    probability: f32,
}

/// Streams `signal` in `chunk`-sample pushes through an int8 session on a
/// virtual-clock server, feeding every verdict's "go" probability to the
/// calibrated detector. Returns the events and the closed session's stats.
fn detect_live(signal: &[f32], chunk: usize) -> (Vec<Event>, SessionStats) {
    let server = Arc::new(Server::new(
        ServerConfig::default(),
        VirtualClock::shared() as Arc<dyn Clock>,
        Arc::new(ParPool::new(Parallelism::from_env())),
        Tracer::disabled(),
    ));
    let mut config = SessionConfig::new("deploy", HOP);
    config.quantized = true; // deploy the int8 artifact
    config.max_pending = 64;
    let model = ModelSource::new("deploy-kws", spotter().to_json().unwrap());
    let mut session = StreamSession::open(server, model, config).unwrap();
    let go = session.labels().iter().position(|l| l == "go").expect("'go' is a class");
    let mut detector = EventDetector::new(POST_PROCESS);
    let mut events = Vec::new();
    let mut detect = |verdicts: Vec<WindowVerdict>| {
        for v in verdicts {
            if let Some(probability) = detector.push(v.classification.probabilities[go]) {
                events.push(Event { sample_offset: v.seq as usize * HOP, probability });
            }
        }
    };
    for piece in signal.chunks(chunk) {
        session.push(piece).unwrap();
        detect(session.poll());
    }
    while session.stats().pending + session.stats().inflight > 0 {
        detect(session.poll());
    }
    let stats = session.close();
    // every window reached the detector, in order, so `seq` indexes the
    // probability trace the detector saw
    assert_eq!(stats.windows_classified, stats.windows_emitted, "{stats:?}");
    assert!(stats.features_identical(), "{stats:?}");
    (events, stats)
}

#[test]
fn saved_model_behaves_identically_through_eim() {
    let trained = spotter();
    let clip = generator().generate(0, 500);
    let direct = trained.classify(&clip).unwrap();

    // round-trip through the registry format, then serve over EIM
    let reloaded = TrainedImpulse::from_json(&trained.to_json().unwrap()).unwrap();
    let artifact = reloaded.float_artifact();
    let runner = EimRunner::new(reloaded, artifact);
    let response = runner.handle(&json!({"classify": clip, "id": 9}));
    assert_eq!(response["success"], true);
    assert_eq!(response["winner"], direct.label);
    let go_index = trained.labels().iter().position(|l| l == "go").expect("'go' exists");
    let served = response["result"]["classification"]["go"].as_f64().unwrap() as f32;
    assert!(
        (served - direct.probabilities[go_index]).abs() < 1e-6,
        "EIM after save/load must match the original exactly"
    );
}

/// Streams noise with a "go" clip at each of `positions` in `chunk`-sample
/// pushes and checks that every window was classified and that exactly one
/// event fires near each keyword. No test's push size is a multiple of the
/// hop, as with an audio driver.
fn assert_events_near_keywords(
    noise_seed: u64,
    clip_seed: u64,
    positions: &[usize],
    len: usize,
    chunk: usize,
) {
    let stream = stream_with_keywords(noise_seed, clip_seed, positions, len);
    let (events, stats) = detect_live(&stream, chunk);
    assert_eq!(stats.windows_classified as usize, (len - WINDOW) / HOP + 1, "{stats:?}");
    assert_eq!(events.len(), positions.len(), "events: {events:?}");
    for (event, &pos) in events.iter().zip(positions) {
        let distance = event.sample_offset.abs_diff(pos);
        assert!(distance <= 2_500, "event at {} vs keyword at {pos}", event.sample_offset);
        assert!(event.probability >= POST_PROCESS.threshold);
    }
}

#[test]
fn streaming_deployment_detects_and_stays_quiet() {
    assert_events_near_keywords(7, 900, &[5_000, 13_000], 20_000, 640);
}

#[test]
fn live_events_land_near_the_embedded_keywords() {
    assert_events_near_keywords(1, 300, &[4_000, 14_000], 24_000, 733);
}

#[test]
fn a_quiet_live_stream_fires_nothing() {
    assert_events_near_keywords(9, 0, &[], 16_000, 1_000);
}

#[test]
fn chunked_live_detection_equals_one_whole_push() {
    let stream = stream_with_keywords(1, 300, &[5_000], 12_000);
    let (chunked, _) = detect_live(&stream, 311);
    let (whole, _) = detect_live(&stream, stream.len());
    assert!(!whole.is_empty(), "the keyword must fire");
    assert_eq!(chunked, whole);
}
