//! Parallel execution integration: the `ei-par` pool driving tuner
//! sweeps, DSP feature extraction and scheduler jobs end to end.
//!
//! The two load-bearing guarantees exercised here:
//!
//! * **determinism** — a tuner sweep on a 4-thread pool produces a
//!   [`edgelab::tuner::TunerReport`] byte-identical (as JSON) to the
//!   serial run, so `EI_THREADS` is purely a wall-clock knob;
//! * **cancellation** — cancelling a scheduler job that owns a parallel
//!   sweep stops the sweep cooperatively and lands the job in
//!   `Cancelled`, not the dead-letter queue.

use edgelab::data::synth::KwsGenerator;
use edgelab::data::Dataset;
use edgelab::device::{Board, Profiler};
use edgelab::dsp::blocks::FramedBlock;
use edgelab::dsp::{DspBlock, DspConfig, MfccConfig, MfeConfig};
use edgelab::faults::RetryPolicy;
use edgelab::nn::train::TrainConfig;
use edgelab::par::{ParPool, Parallelism};
use edgelab::platform::{JobScheduler, JobStatus, PlatformError};
use edgelab::tuner::{EonTuner, ModelChoice, SearchSpace, TunerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Satellite: the determinism regression. The report must not depend on
/// the thread count — serial, 4 threads, and whatever `EI_THREADS` says
/// (`scripts/check.sh` runs this suite under both 1 and 4) all agree
/// byte for byte.
#[test]
fn tuner_report_is_byte_identical_across_thread_counts() {
    let data = dataset();
    let serial = tuner(4)
        .with_pool(Arc::new(ParPool::new(Parallelism::serial())))
        .run(&data)
        .unwrap()
        .to_json();
    let four = tuner(4)
        .with_pool(Arc::new(ParPool::new(Parallelism::new(4))))
        .run(&data)
        .unwrap()
        .to_json();
    let env = tuner(4)
        .with_pool(Arc::new(ParPool::new(Parallelism::from_env())))
        .run(&data)
        .unwrap()
        .to_json();
    assert_eq!(serial, four, "4-thread report must match serial byte for byte");
    assert_eq!(serial, env, "EI_THREADS must not change the report");
}

/// Satellite: cancelling a scheduler job that owns a parallel tuner
/// sweep. The job wires its cancel token into the tuner; cancellation
/// stops the sweep (the pool drains queued candidate tasks without
/// starting them — covered bitwise in ei-par's unit tests) and the job
/// ends `Cancelled`, never dead-lettered.
#[test]
fn cancelling_a_job_stops_a_parallel_tuner_sweep() {
    let scheduler = JobScheduler::new(1);
    let sweep_pool = Arc::new(ParPool::new(Parallelism::new(4)));
    let started = Arc::new(AtomicBool::new(false));
    let started_in_job = Arc::clone(&started);
    let id = scheduler
        .submit_with(RetryPolicy::immediate(1), move |ctx| {
            started_in_job.store(true, Ordering::SeqCst);
            // hundreds of epochs per candidate: far longer than the
            // cancel round-trip, so the token fires mid-sweep
            let tuner =
                tuner(600).with_pool(Arc::clone(&sweep_pool)).with_cancel(ctx.cancel.clone());
            match tuner.run(&dataset()) {
                Ok(report) => Ok(format!("{} trials", report.trials.len())),
                Err(e) => Err(e.to_string()),
            }
        })
        .unwrap();
    while !started.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    scheduler.cancel(id).unwrap();
    assert!(matches!(scheduler.wait(id), Err(PlatformError::JobCancelled(i)) if i == id));
    assert_eq!(scheduler.status(id).unwrap(), JobStatus::Cancelled);
    assert!(scheduler.dead_letters().is_empty(), "cancellation must not dead-letter");
}

/// Satellite: pool edge cases — empty input, single element, and a chunk
/// size larger than the slice — all bitwise-equal to the serial loop at
/// `EI_THREADS=1` and `4`.
#[test]
fn par_map_edge_cases_are_bitwise_equal_to_serial() {
    let items: Vec<f32> = (0..7).map(|i| i as f32 * 0.37).collect();
    let serial_bits: Vec<u32> = items.iter().map(|x| x.sin().to_bits()).collect();
    for threads in [1, 4] {
        let pool = ParPool::new(Parallelism::new(threads));
        assert!(pool.par_map(&[] as &[f32], |x| x.sin()).is_empty(), "threads={threads}");
        assert_eq!(
            pool.par_map(&items[..1], |x| x.sin().to_bits()),
            serial_bits[..1],
            "threads={threads}"
        );
        assert_eq!(pool.par_map(&items, |x| x.sin().to_bits()), serial_bits, "threads={threads}");
    }
}

#[test]
fn par_chunks_reduce_edge_cases_are_bitwise_equal_to_serial() {
    let items: Vec<f32> = (0..7).map(|i| (i as f32 * 0.73).cos()).collect();
    for threads in [1, 4] {
        let pool = ParPool::new(Parallelism::new(threads));
        assert_eq!(
            pool.par_chunks_reduce(&[] as &[f32], 4, |c| c.iter().sum::<f32>(), |a, b| a + b),
            None,
            "empty input reduces to None (threads={threads})"
        );
        assert_eq!(
            pool.par_chunks_reduce(&items[..1], 4, |c| c.iter().sum::<f32>(), |a, b| a + b)
                .map(f32::to_bits),
            Some(items[0].to_bits()),
            "threads={threads}"
        );
        for chunk in [2, 16] {
            let serial =
                items.chunks(chunk).map(|c| c.iter().sum::<f32>()).reduce(|a, b| a + b).unwrap();
            let parallel = pool
                .par_chunks_reduce(&items, chunk, |c| c.iter().sum::<f32>(), |a, b| a + b)
                .unwrap();
            assert_eq!(
                parallel.to_bits(),
                serial.to_bits(),
                "chunk={chunk} threads={threads}: reduction must match serial bitwise"
            );
        }
    }
}

/// Dataset-wide DSP extraction through the facade: parallel output (and
/// error precedence) matches the serial loop at any thread count.
#[test]
fn parallel_dsp_extraction_matches_serial() {
    let block = FramedBlock::new(&DspConfig::Mfe(MfeConfig {
        frame_s: 0.032,
        stride_s: 0.016,
        n_filters: 12,
        sample_rate_hz: 4_000,
        low_hz: 0.0,
        high_hz: 0.0,
    }))
    .unwrap();
    let windows: Vec<Vec<f32>> =
        (0..16).map(|w| (0..1_000).map(|i| ((w * 17 + i) as f32 * 0.01).sin()).collect()).collect();
    let serial: Vec<Vec<f32>> = windows.iter().map(|w| block.process(w).unwrap()).collect();
    for threads in [1, 4] {
        let pool = ParPool::new(Parallelism::new(threads));
        let parallel =
            edgelab::dsp::parallel::process_windows(&pool, &block, 1_000, &windows).unwrap();
        assert_eq!(parallel, serial, "threads={threads}");
    }
}
