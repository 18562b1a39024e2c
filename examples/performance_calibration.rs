//! Performance calibration (paper §4.4): tune streaming post-processing
//! for a deployed keyword spotter with a genetic algorithm, trading off
//! false accepts against false rejections.
//!
//! Builds probability traces by sliding a *real* trained classifier over
//! composed audio streams with known keyword positions, then lets the GA
//! suggest Pareto-optimal post-processing configurations. The balanced
//! suggestion is then deployed: a fresh stream runs through a live
//! `StreamSession`, and each window's verdict feeds the same
//! `EventDetector` the GA scored.
//!
//! ```bash
//! cargo run --release --example performance_calibration
//! ```

use edgelab::calibration::postprocess::score_detections;
use edgelab::calibration::stream::trace_from_classifier;
use edgelab::calibration::{calibrate, EventDetector, GaConfig, ProbabilityTrace};
use edgelab::core::impulse::ImpulseDesign;
use edgelab::data::synth::KwsGenerator;
use edgelab::dsp::{DspConfig, MfccConfig};
use edgelab::faults::{Clock, VirtualClock};
use edgelab::nn::{presets, train::TrainConfig};
use edgelab::par::{ParPool, Parallelism};
use edgelab::serve::{ModelSource, Server, ServerConfig};
use edgelab::stream::{SessionConfig, StreamSession};
use edgelab::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Samples in each composed stream.
const STREAM_LEN: usize = 80_000;

/// `STREAM_LEN` samples of background noise with six keywords at known
/// positions (one every 12 000 samples from 6 000); returns the stream and
/// the keyword start positions.
fn compose_stream(generator: &KwsGenerator, seed: u64) -> (Vec<f32>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream: Vec<f32> = (0..STREAM_LEN).map(|_| rng.gen_range(-0.05f32..0.05)).collect();
    let mut truth = Vec::new();
    for k in 0..6 {
        let pos = 6_000 + k * 12_000;
        let clip = generator.generate(0, 100 + seed * 10 + k as u64);
        for (i, &v) in clip.iter().enumerate() {
            stream[pos + i] += v;
        }
        truth.push(pos);
    }
    (stream, truth)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // train a small two-class spotter: "go" vs background noise
    let generator = KwsGenerator {
        classes: vec!["go".into(), "noise".into()],
        sample_rate_hz: 8_000,
        duration_s: 0.5,
        noise: 0.04,
    };
    let dataset = generator.dataset(16, 2);
    let design = ImpulseDesign::new(
        "spotter",
        4_000,
        DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 10,
            n_filters: 24,
            sample_rate_hz: 8_000,
        }),
    )?;
    let spec = presets::dense_mlp(design.feature_dims()?, 2, 32);
    let trained = design.train(
        &spec,
        &dataset,
        &TrainConfig { epochs: 12, learning_rate: 0.01, ..TrainConfig::default() },
    )?;
    println!("spotter val accuracy: {:.1}%", trained.report().best_val_accuracy * 100.0);

    // compose long streams: background noise with keywords at known spots;
    // calibrate at the hop the deployment will run (a multiple of the
    // 128-sample MFCC frame stride, as a live session requires)
    let window = 4_000usize;
    let hop = 1_024usize;
    let go = trained.labels().iter().position(|l| l == "go").ok_or("no 'go' class")?;
    let traces: Vec<ProbabilityTrace> = (0..3u64)
        .map(|seed| {
            let (stream, truth) = compose_stream(&generator, seed);
            trace_from_classifier(&stream, &truth, window, hop, |w| {
                trained.classify(w).map(|c| c.probabilities[go]).unwrap_or(0.0)
            })
        })
        .collect();
    let total_events: usize = traces.iter().map(|t| t.truth.len()).sum();
    println!("built {} streams with {total_events} true keyword events", traces.len());

    // run the genetic algorithm over post-processing configurations
    let suggestions =
        calibrate(&traces, &GaConfig { population: 20, generations: 12, ..GaConfig::default() });
    println!();
    println!("Pareto-optimal post-processing configurations (FAR vs FRR):");
    println!(
        "{:>12} {:>10} {:>12} | {:>12} {:>8} | {:>6} {:>8} {:>8}",
        "mean filter", "threshold", "suppression", "FAR/1k win", "FRR", "hits", "misses", "false+"
    );
    for s in &suggestions {
        println!(
            "{:>12} {:>10.2} {:>12} | {:>12.2} {:>7.0}% | {:>6} {:>8} {:>8}",
            s.config.mean_filter,
            s.config.threshold,
            s.config.suppression,
            s.metrics.far_per_1k,
            s.metrics.frr * 100.0,
            s.metrics.hits,
            s.metrics.misses,
            s.metrics.false_accepts
        );
    }

    // deploy the balanced configuration and sanity-check it on a new stream
    let best = suggestions
        .iter()
        .min_by(|a, b| {
            let ca = a.metrics.far_per_1k + a.metrics.frr * 100.0;
            let cb = b.metrics.far_per_1k + b.metrics.frr * 100.0;
            ca.partial_cmp(&cb).expect("finite")
        })
        .expect("at least one suggestion");
    println!();
    println!(
        "selected: mean_filter={} threshold={:.2} suppression={}",
        best.config.mean_filter, best.config.threshold, best.config.suppression
    );

    // a stream the GA never saw, classified live through the serving tier
    let (fresh, truth) = compose_stream(&generator, 7);
    let server = Arc::new(Server::new(
        // the virtual clock never refills the tenant's token bucket, so
        // give it one token per window of the stream
        ServerConfig { quota_capacity: (STREAM_LEN / hop) as u32, ..ServerConfig::default() },
        VirtualClock::shared() as Arc<dyn Clock>,
        Arc::new(ParPool::new(Parallelism::from_env())),
        Tracer::disabled(),
    ));
    let mut session = StreamSession::open(
        server,
        ModelSource::new("spotter", trained.to_json()?),
        SessionConfig::new("device", hop),
    )?;
    let mut detector = EventDetector::new(best.config);
    let mut detections = Vec::new();
    // half-second chunks, as an audio driver would deliver them
    for chunk in fresh.chunks(4_000) {
        session.push(chunk)?;
        for verdict in session.poll() {
            if detector.push(verdict.classification.probabilities[go]).is_some() {
                detections.push(verdict.seq as usize);
            }
        }
    }
    let stats = session.close();
    let windows = stats.windows_emitted as usize;
    let truth_windows: Vec<usize> = truth.iter().map(|&p| p / hop).collect();
    let metrics = score_detections(&detections, &truth_windows, 4, windows);
    println!(
        "live on a fresh stream: {windows} windows ({} shed), {} detections, {} hits / {} events, \
         {} false accepts",
        stats.drops_total(),
        detections.len(),
        metrics.hits,
        truth.len(),
        metrics.false_accepts
    );
    Ok(())
}
