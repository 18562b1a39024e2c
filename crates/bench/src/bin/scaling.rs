//! Parallel scaling of the `ei-par` pool across the pipeline's two
//! sweep-shaped workloads, written as machine-readable rows to
//! `results/parallel_scaling.json`:
//!
//! 1. **Tuner sweep** — a real [`EonTuner::run`] over the small
//!    search space at 1/2/4 threads, recording wall-clock speedup and
//!    checking the [`ei_tuner::TunerReport`] stays byte-identical to the
//!    serial run (the determinism guarantee that makes `EI_THREADS` a
//!    pure wall-clock knob);
//! 2. **DSP sweep** — dataset-wide feature extraction through
//!    [`ei_dsp::parallel::process_windows`].
//!
//! Set `EDGELAB_QUICK=1` for a smoke run with shrunk workloads.

use ei_bench::{ms, quick_mode, Measurement, ResultsWriter};
use ei_data::synth::KwsGenerator;
use ei_data::Dataset;
use ei_device::{Board, Profiler};
use ei_dsp::blocks::MfeBlock;
use ei_dsp::parallel::process_windows;
use ei_dsp::{DspConfig, MfccConfig, MfeConfig};
use ei_nn::train::TrainConfig;
use ei_par::{ParPool, Parallelism};
use ei_trace::json::Json;
use ei_tuner::{EonTuner, ModelChoice, SearchSpace, TunerConfig};
use std::sync::Arc;
use std::time::Instant;

/// Thread counts swept by every workload (1 is the serial baseline).
const THREADS: [usize; 3] = [1, 2, 4];

fn space() -> SearchSpace {
    SearchSpace {
        dsp: vec![
            DspConfig::Mfcc(MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 8,
                n_filters: 16,
                sample_rate_hz: 4_000,
            }),
            DspConfig::Mfe(MfeConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_filters: 12,
                sample_rate_hz: 4_000,
                low_hz: 0.0,
                high_hz: 0.0,
            }),
        ],
        models: vec![
            ModelChoice::DenseMlp { hidden: 16 },
            ModelChoice::Conv1dStack { depth: 2, base_filters: 8 },
        ],
    }
}

fn dataset() -> Dataset {
    KwsGenerator {
        classes: vec!["on".into(), "off".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
    .dataset(12, 3)
}

fn tuner(epochs: usize) -> EonTuner {
    EonTuner::new(
        space(),
        Profiler::new(Board::nano33_ble_sense()),
        1_000,
        TunerConfig {
            trials: 3,
            train: TrainConfig { epochs, learning_rate: 0.01, ..TrainConfig::default() },
            ..TunerConfig::default()
        },
    )
}

fn main() {
    let mut writer = ResultsWriter::new("parallel_scaling", Measurement::Wall);
    let host_threads = Parallelism::available().threads();
    println!("parallel scaling (host threads: {host_threads})");
    println!("{:<10} {:>8} {:>10} {:>8}", "workload", "threads", "wall ms", "x");

    tuner_cpu(&mut writer, host_threads);
    dsp_cpu(&mut writer, host_threads);

    writer.write_and_report();
}

/// Pushes one row; `extra` appends workload-specific fields.
fn row(
    writer: &mut ResultsWriter,
    host_threads: usize,
    workload: &str,
    threads: usize,
    wall_ms: f64,
    serial_ms: f64,
    extra: impl FnOnce(ei_trace::json::JsonObject) -> ei_trace::json::JsonObject,
) {
    let speedup = if wall_ms > 0.0 { serial_ms / wall_ms } else { 0.0 };
    println!("{workload:<10} {threads:>8} {:>10} {:>8}", ms(wall_ms), format!("{speedup:.2}"));
    let r = writer
        .stamp()
        .field("workload", Json::Str(workload.to_string()))
        .field("threads", Json::Uint(threads as u64))
        .field("host_threads", Json::Uint(host_threads as u64))
        .field("wall_ms", Json::Float(wall_ms))
        .field("speedup_vs_serial", Json::Float(speedup));
    writer.push(extra(r));
}

/// Real tuner sweeps: wall clock plus the byte-identical report check.
fn tuner_cpu(writer: &mut ResultsWriter, host_threads: usize) {
    let epochs = if quick_mode() { 2 } else { 8 };
    let data = dataset();
    let mut serial_ms = 0.0;
    let mut serial_report = String::new();
    for threads in THREADS {
        let pool = Arc::new(ParPool::new(Parallelism::new(threads)));
        let t0 = Instant::now();
        let report = tuner(epochs).with_pool(pool).run(&data).expect("tuner runs");
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let json = report.to_json();
        if threads == 1 {
            serial_ms = wall;
            serial_report = json.clone();
        }
        let identical = json == serial_report;
        row(writer, host_threads, "tuner", threads, wall, serial_ms, |r| {
            r.field("report_identical", Json::Bool(identical))
        });
        assert!(identical, "parallel tuner report diverged from serial at {threads} threads");
    }
}

/// Dataset-wide MFE extraction over the pool.
fn dsp_cpu(writer: &mut ResultsWriter, host_threads: usize) {
    let windows_n = if quick_mode() { 16 } else { 96 };
    let block = MfeBlock::new(MfeConfig {
        frame_s: 0.032,
        stride_s: 0.016,
        n_filters: 12,
        sample_rate_hz: 4_000,
        low_hz: 0.0,
        high_hz: 0.0,
    })
    .expect("valid config");
    let windows: Vec<Vec<f32>> = (0..windows_n)
        .map(|w| (0..1_000).map(|i| ((w * 31 + i) as f32 * 0.01).sin()).collect())
        .collect();
    let mut serial_ms = 0.0;
    let mut serial_features: Vec<Vec<f32>> = Vec::new();
    for threads in THREADS {
        let pool = ParPool::new(Parallelism::new(threads));
        let t0 = Instant::now();
        let features = process_windows(&pool, &block, 1_000, &windows).expect("windows are valid");
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        if threads == 1 {
            serial_ms = wall;
            serial_features = features.clone();
        }
        assert_eq!(features, serial_features, "parallel features diverged at {threads} threads");
        row(writer, host_threads, "dsp", threads, wall, serial_ms, |r| {
            r.field("windows", Json::Uint(windows_n as u64))
        });
    }
}
