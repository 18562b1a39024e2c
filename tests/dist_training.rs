//! Distributed-training integration: bitwise determinism and crash
//! recovery of the `ei-dist` cluster, end to end through the facade —
//! worker sweeps, seeded fault scripts, the job-scheduler bridge, the
//! tuner's distributed backend and the `dist.*` trace counters.
//!
//! `EI_DIST_FAULT_SEED` (default 42) selects the seeded fault script, so
//! CI replays the whole suite under multiple scripts.

use edgelab::dist::{
    train_serial_reference, weight_checksum, DistConfig, DistError, DistFaultPlan, DistTrainer,
    WorkerFault,
};
use edgelab::faults::VirtualClock;
use edgelab::nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
use edgelab::nn::train::TrainConfig;
use edgelab::nn::Sequential;
use edgelab::platform::dist::{submit_distributed_training, DistTrainingJob};
use edgelab::platform::JobScheduler;
use edgelab::trace::Tracer;

fn fault_seed() -> u64 {
    std::env::var("EI_DIST_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42)
}

/// Deterministic two-class blobs in 6-D.
fn blobs(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut state = 0xb10b_5eedu64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let mut inputs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        let center = if class == 0 { 1.0f32 } else { -1.0 };
        inputs.push((0..6).map(|_| center + 0.35 * next()).collect());
        labels.push(class);
    }
    (inputs, labels)
}

fn spec() -> ModelSpec {
    ModelSpec::new(Dims::new(1, 6, 1))
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense { units: 12, activation: Activation::Relu })
        .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
        .layer(LayerSpec::Softmax)
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 6,
        learning_rate: 0.01,
        validation_split: 0.0,
        seed: 7,
        ..TrainConfig::default()
    }
}

fn dist_cfg(workers: usize) -> DistConfig {
    DistConfig::new(workers).with_partitions(6).with_timeout_ms(50)
}

/// The serial-SGD oracle's final weight checksum for this suite's task.
fn reference_checksum() -> u64 {
    let (inputs, labels) = blobs(72);
    let mut model = Sequential::build(&spec(), train_cfg().seed).unwrap();
    train_serial_reference(&mut model, &train_cfg(), &dist_cfg(1), &inputs, &labels).unwrap();
    weight_checksum(&model)
}

#[test]
fn weights_are_bitwise_identical_at_every_worker_count() {
    let (inputs, labels) = blobs(72);
    let reference = reference_checksum();
    for workers in [1usize, 2, 4] {
        let trainer = DistTrainer::new(dist_cfg(workers), train_cfg());
        let mut model = Sequential::build(&spec(), train_cfg().seed).unwrap();
        let report = trainer.train(&mut model, &inputs, &labels).unwrap();
        assert_eq!(
            report.weight_checksum, reference,
            "{workers} workers diverged from the serial-SGD reference"
        );
        assert_eq!(weight_checksum(&model), reference);
        assert_eq!(report.crashes_detected, 0);
    }
}

#[test]
fn seeded_fault_script_recovers_to_the_exact_no_fault_bits() {
    let (inputs, labels) = blobs(72);
    let reference = reference_checksum();
    let cfg = train_cfg();
    // steps per epoch = partition size / batch = 12 / 6 = 2
    let faults = DistFaultPlan::seeded(fault_seed(), 4, cfg.epochs, 2, 1.0);
    assert!(!faults.is_empty(), "a 100% crash rate must script at least one fault");
    let trainer = DistTrainer::new(dist_cfg(4), cfg.clone())
        .with_clock(VirtualClock::shared())
        .with_faults(faults.fresh());
    let mut model = Sequential::build(&spec(), cfg.seed).unwrap();
    let report = trainer.train(&mut model, &inputs, &labels).unwrap();
    assert!(report.crashes_detected >= 1, "the script must kill at least one worker mid-epoch");
    assert!(report.partitions_rescheduled >= 1, "orphaned partitions must be adopted");
    assert_eq!(
        report.weight_checksum, reference,
        "crash recovery must converge to the no-fault serial-SGD bits"
    );
}

#[test]
fn crash_stall_and_panic_all_recover_identically() {
    let (inputs, labels) = blobs(72);
    let reference = reference_checksum();
    for fault in [WorkerFault::Crash, WorkerFault::Stall(1_000_000), WorkerFault::Panic] {
        let trainer = DistTrainer::new(dist_cfg(2), train_cfg())
            .with_clock(VirtualClock::shared())
            .with_faults(DistFaultPlan::new().inject(1, 1, 0, fault));
        let mut model = Sequential::build(&spec(), train_cfg().seed).unwrap();
        let report = trainer.train(&mut model, &inputs, &labels).unwrap();
        assert_eq!(report.crashes_detected, 1, "{fault:?} must be detected as one death");
        assert_eq!(report.weight_checksum, reference, "{fault:?} recovery diverged");
    }
}

#[test]
fn losing_every_worker_is_a_clean_error() {
    let (inputs, labels) = blobs(72);
    let trainer = DistTrainer::new(dist_cfg(2), train_cfg())
        .with_clock(VirtualClock::shared())
        .with_faults(DistFaultPlan::new().inject(0, 0, 0, WorkerFault::Crash).inject(
            1,
            0,
            0,
            WorkerFault::Crash,
        ));
    let mut model = Sequential::build(&spec(), train_cfg().seed).unwrap();
    match trainer.train(&mut model, &inputs, &labels) {
        Err(DistError::AllWorkersDead { epoch: 0 }) => {}
        other => panic!("expected AllWorkersDead, got {other:?}"),
    }
}

#[test]
fn trace_counters_record_the_recovery() {
    let (inputs, labels) = blobs(72);
    let clock = VirtualClock::shared();
    let (tracer, collector) = Tracer::collecting(clock.clone());
    let cfg = train_cfg();
    let trainer = DistTrainer::new(dist_cfg(2), cfg.clone())
        .with_clock(clock)
        .with_tracer(tracer.clone())
        .with_faults(DistFaultPlan::new().inject(1, 2, 1, WorkerFault::Crash));
    let mut model = Sequential::build(&spec(), cfg.seed).unwrap();
    trainer.train(&mut model, &inputs, &labels).unwrap();
    let registry = tracer.registry().unwrap();
    assert_eq!(registry.counter("dist.epochs", ""), Some(cfg.epochs as u64));
    assert_eq!(registry.counter("dist.crashes_detected", ""), Some(1));
    assert!(registry.counter("dist.partitions_rescheduled", "").is_some_and(|n| n >= 1));
    assert!(registry.counter("dist.reductions", "").is_some_and(|n| n > 0));
    let records = collector.records();
    assert!(records.iter().any(|r| r.name() == "dist.train"));
    assert!(records.iter().any(|r| r.name() == "dist.crash_detected"));
    assert!(records.iter().any(|r| r.name() == "dist.checkpoint_restored"));
}

#[test]
fn scheduler_retries_a_job_whose_cluster_died_and_dead_letters_exhaustion() {
    use edgelab::faults::RetryPolicy;
    let (inputs, labels) = blobs(72);
    let scheduler = JobScheduler::new(1);
    // attempt 1 loses the lone worker; the one-shot fault is consumed,
    // so the scheduler's retry converges — with the reference bits
    let trainer = DistTrainer::new(dist_cfg(1), train_cfg())
        .with_faults(DistFaultPlan::new().inject(0, 0, 0, WorkerFault::Crash));
    let job = DistTrainingJob { trainer, spec: spec(), inputs, labels };
    let handle = submit_distributed_training(&scheduler, RetryPolicy::immediate(2), job).unwrap();
    scheduler.wait(handle.id).unwrap();
    let report = handle.report().unwrap();
    assert_eq!(report.weight_checksum, reference_checksum());
    assert_eq!(scheduler.attempt_history(handle.id).unwrap().len(), 1);

    // a cluster that cannot ever survive exhausts retries → dead letter
    // → inspectable and requeueable through the new queue API
    let (inputs, labels) = blobs(72);
    let trainer = DistTrainer::new(dist_cfg(1), train_cfg()).with_faults(
        DistFaultPlan::new().inject(0, 0, 0, WorkerFault::Crash).inject(
            0,
            0,
            1,
            WorkerFault::Crash,
        ),
    );
    let job = DistTrainingJob { trainer, spec: spec(), inputs, labels };
    let handle = submit_distributed_training(&scheduler, RetryPolicy::immediate(2), job).unwrap();
    assert!(scheduler.wait(handle.id).is_err());
    let letter = scheduler.dead_letter(handle.id).unwrap();
    assert!(letter.error.contains("all workers dead"), "{}", letter.error);
    assert!(letter.requeueable);
    // both scripted faults were consumed by the two failed attempts, so
    // the operator's requeue converges
    let requeued = scheduler.requeue(handle.id).unwrap();
    scheduler.wait(requeued).unwrap();
}

#[test]
fn tuner_distributed_backend_skips_killed_trials() {
    use edgelab::data::synth::KwsGenerator;
    use edgelab::device::{Board, Profiler};
    use edgelab::dsp::{DspConfig, MfccConfig};
    use edgelab::tuner::{EonTuner, SearchSpace, TunerConfig};

    let dataset = KwsGenerator {
        classes: vec!["go".into(), "stop".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
    .dataset(10, 3);
    let space = SearchSpace {
        dsp: vec![DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 8,
            n_filters: 16,
            sample_rate_hz: 4_000,
        })],
        models: vec![edgelab::tuner::ModelChoice::DenseMlp { hidden: 16 }],
    };
    let config = TunerConfig {
        trials: 1,
        train: TrainConfig { epochs: 3, validation_split: 0.0, ..TrainConfig::default() },
        ..TunerConfig::default()
    };
    let make = || {
        EonTuner::new(
            space.clone(),
            Profiler::new(Board::nano33_ble_sense()),
            1_000,
            config.clone(),
        )
    };

    // distributed training succeeds → a normal trial
    let ok = make().with_distributed(DistConfig::new(2).with_timeout_ms(50)).run(&dataset).unwrap();
    assert_eq!(ok.trials.len(), 1);

    // an unsurvivable cluster kills the trial → skipped-trial record,
    // exactly like run_hyperband's evaluation-failure path
    let killed = make()
        .with_distributed(DistConfig::new(1).with_timeout_ms(50))
        .with_dist_faults(DistFaultPlan::new().inject(0, 0, 0, WorkerFault::Crash))
        .run(&dataset)
        .unwrap();
    assert!(killed.trials.is_empty());
    assert_eq!(killed.filtered.len(), 1);
    assert!(killed.filtered[0].1.contains("evaluation failed"), "{}", killed.filtered[0].1);
}
