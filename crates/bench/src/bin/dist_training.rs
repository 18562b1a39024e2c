//! Distributed-training determinism bench: sweeps worker count ×
//! injected crash rate and writes `results/dist_training.json`.
//!
//! Every cell trains the same model on the same data through the
//! `ei-dist` parameter-server cluster, under a seeded [`DistFaultPlan`]
//! that crashes, stalls, or panics workers mid-epoch. The cluster runs
//! on a [`VirtualClock`], so stall/crash detection is instantaneous in
//! wall time while the heartbeat protocol observes genuine deadline
//! overruns. The row's headline claim — `weights_identical: true` — is
//! **asserted**, not just recorded: the final weight checksum of every
//! cell must equal the no-fault serial-SGD reference, at any worker
//! count and any crash rate. A cell that converges to different bits
//! aborts the bench.
//!
//! `EI_DIST_FAULT_SEED` selects the fault script (default 42), so CI can
//! replay the sweep under multiple scripts. Set `EDGELAB_QUICK=1` for a
//! shorter run.

use ei_bench::{quick_mode, Measurement, ResultsWriter};
use ei_dist::{train_serial_reference, weight_checksum, DistConfig, DistFaultPlan, DistTrainer};
use ei_faults::VirtualClock;
use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
use ei_nn::train::TrainConfig;
use ei_nn::Sequential;
use ei_trace::json::Json;

const WORKERS: [usize; 3] = [1, 2, 4];
const CRASH_RATES: [f64; 3] = [0.0, 0.15, 0.3];

/// Two interleaved Gaussian-ish blobs, deterministic, 8-D.
fn blobs(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut state = 0x5eed_1234u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let mut inputs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        let center = if class == 0 { 1.0 } else { -1.0 };
        inputs.push(
            (0..8).map(|d| center * if d % 2 == 0 { 1.0 } else { -1.0 } + 0.4 * next()).collect(),
        );
        labels.push(class);
    }
    (inputs, labels)
}

fn spec() -> ModelSpec {
    ModelSpec::new(Dims::new(1, 8, 1))
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense { units: 16, activation: Activation::Relu })
        .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
        .layer(LayerSpec::Softmax)
}

fn main() {
    let fault_seed: u64 =
        std::env::var("EI_DIST_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let epochs = if quick_mode() { 4 } else { 10 };
    let (inputs, labels) = blobs(96);
    let train = TrainConfig {
        epochs,
        batch_size: 8,
        learning_rate: 0.01,
        validation_split: 0.0,
        seed: 42,
        ..TrainConfig::default()
    };
    let base = DistConfig::new(1).with_partitions(8).with_timeout_ms(50);
    // steps per epoch = ceil(samples/partitions/batch) — the fault
    // planner aims inside this range
    let steps_hint = (inputs.len() / base.partitions).div_ceil(train.batch_size);

    // the oracle: no cluster, no faults, one thread, same fold schedule
    let mut reference = Sequential::build(&spec(), train.seed).expect("reference model builds");
    let ref_loss = train_serial_reference(&mut reference, &train, &base, &inputs, &labels)
        .expect("serial reference trains");
    let ref_checksum = weight_checksum(&reference);
    eprintln!(
        "serial reference: {} epochs, final loss {:.4}, checksum {ref_checksum:016x}",
        epochs,
        ref_loss.last().copied().unwrap_or(f32::NAN)
    );

    let mut writer = ResultsWriter::new("dist_training", Measurement::Wall);
    let mut total_crashes = 0u64;
    for workers in WORKERS {
        for crash_rate in CRASH_RATES {
            let faults = DistFaultPlan::seeded(fault_seed, workers, epochs, steps_hint, crash_rate);
            let config = DistConfig::new(workers).with_partitions(8).with_timeout_ms(50);
            let trainer = DistTrainer::new(config, train.clone())
                .with_clock(VirtualClock::shared())
                .with_faults(faults.fresh());
            let mut model = Sequential::build(&spec(), train.seed).expect("model builds");
            let report = trainer.train(&mut model, &inputs, &labels).expect("cluster converges");
            let identical = report.weight_checksum == ref_checksum;
            assert!(
                identical,
                "workers={workers} crash_rate={crash_rate}: checksum {:016x} != reference {ref_checksum:016x}",
                report.weight_checksum
            );
            assert_eq!(weight_checksum(&model), ref_checksum, "in-place model diverged");
            total_crashes += report.crashes_detected;
            eprintln!(
                "workers={workers} crash_rate={crash_rate:>4}: {} crashes, {} partitions moved, {} epoch retries, loss {:.4}, identical={identical}",
                report.crashes_detected,
                report.partitions_rescheduled,
                report.epoch_retries,
                report.train_loss.last().copied().unwrap_or(f32::NAN),
            );
            let row = writer
                .stamp()
                .field("workers", Json::Uint(workers as u64))
                .field("crash_rate", Json::Float(crash_rate))
                .field("fault_seed", Json::Uint(fault_seed))
                .field("epochs", Json::Uint(report.epochs as u64))
                .field("faults_scripted", Json::Uint(faults.len() as u64))
                .field("crashes_detected", Json::Uint(report.crashes_detected))
                .field("partitions_rescheduled", Json::Uint(report.partitions_rescheduled))
                .field("epoch_retries", Json::Uint(report.epoch_retries))
                .field("workers_surviving", Json::Uint(report.workers_surviving as u64))
                .field(
                    "final_loss",
                    Json::Float(f64::from(report.train_loss.last().copied().unwrap_or(f32::NAN))),
                )
                .field("weight_checksum", Json::Str(format!("{:016x}", report.weight_checksum)))
                .field("reference_checksum", Json::Str(format!("{ref_checksum:016x}")))
                .field("weights_identical", Json::Bool(identical));
            writer.push(row);
        }
    }
    eprintln!("sweep done: {total_crashes} injected faults detected and recovered across the grid");
    writer.write_and_report();
}
