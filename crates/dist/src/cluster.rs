//! Worker threads, the parameter server and the recovery orchestrator.

use crate::config::{DistConfig, DistError};
use crate::fault::{DistFaultPlan, WorkerFault};
use crate::reference::weight_checksum;
use crate::schedule::{epoch_plan, partition_indices, PlannedBatch};
use ei_faults::{Clock, SystemClock};
use ei_nn::model::LayerGrads;
use ei_nn::optimizer::Optimizer;
use ei_nn::train::{
    apply_batch, fold_grads, restore, snapshot, BatchGrads, Checkpoint, TrainConfig, Trainer,
};
use ei_nn::Sequential;
use ei_trace::{SpanGuard, Tracer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Command sent from the server to a worker.
struct Cmd {
    attempt: u64,
    epoch: usize,
    step: usize,
    partition: usize,
    ckpt: Arc<Checkpoint>,
    batch: Arc<Vec<usize>>,
    seed: u64,
}

/// A worker's answer for one planned batch.
struct Reply {
    worker: usize,
    attempt: u64,
    partition: usize,
    grads: Result<BatchGrads, String>,
}

/// Orchestrator-side view of one worker thread.
struct WorkerSlot {
    tx: Option<Sender<Cmd>>,
    beat: Arc<AtomicU64>,
}

impl WorkerSlot {
    fn alive(&self) -> bool {
        self.tx.is_some()
    }
}

/// Outcome summary of one distributed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistReport {
    /// Workers the cluster started with.
    pub workers_started: usize,
    /// Workers still alive when training finished.
    pub workers_surviving: usize,
    /// Fixed partition count used for the gradient fold.
    pub partitions: usize,
    /// Epochs completed.
    pub epochs: usize,
    /// Mean training loss per epoch (computed during the successful
    /// attempt of each epoch).
    pub train_loss: Vec<f32>,
    /// Worker deaths detected via missed heartbeats or overrun deadlines.
    pub crashes_detected: u64,
    /// Orphaned partitions reassigned to surviving workers.
    pub partitions_rescheduled: u64,
    /// Epochs rolled back to their checkpoint and replayed.
    pub epoch_retries: u64,
    /// FNV-1a checksum over the final weight bytes (see
    /// [`crate::weight_checksum`]).
    pub weight_checksum: u64,
}

/// Synchronous data-parallel trainer: worker threads plus an in-process
/// parameter server with checkpoint-rollback crash recovery.
///
/// Uses `epochs`, `batch_size`, `learning_rate`, `optimizer`, `loss`,
/// `weight_decay` and `seed` from the given [`TrainConfig`];
/// `validation_split` and `restore_best` are serial-trainer features and
/// are ignored here.
pub struct DistTrainer {
    config: DistConfig,
    train: TrainConfig,
    tracer: Tracer,
    clock: Arc<dyn Clock>,
    faults: DistFaultPlan,
}

impl DistTrainer {
    /// A trainer over the real [`SystemClock`] with no fault injection.
    pub fn new(config: DistConfig, train: TrainConfig) -> DistTrainer {
        DistTrainer {
            config,
            train,
            tracer: Tracer::disabled(),
            clock: Arc::new(SystemClock::new()),
            faults: DistFaultPlan::new(),
        }
    }

    /// Attaches a tracer: emits a `dist.train` span, per-epoch events and
    /// `dist.*` counters.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> DistTrainer {
        self.tracer = tracer;
        self
    }

    /// Substitutes the clock workers heartbeat on (a
    /// [`ei_faults::VirtualClock`] makes injected stalls instantaneous).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> DistTrainer {
        self.clock = clock;
        self
    }

    /// Arms a fault script for this run.
    #[must_use]
    pub fn with_faults(mut self, faults: DistFaultPlan) -> DistTrainer {
        self.faults = faults;
        self
    }

    /// The cluster configuration.
    pub fn config(&self) -> &DistConfig {
        &self.config
    }

    /// The training configuration the cluster optimizes under.
    pub fn train_config(&self) -> &TrainConfig {
        &self.train
    }

    /// Trains `model` in place and returns the run report. Weights are
    /// bitwise-identical to [`crate::train_serial_reference`] with the
    /// same configs, at any worker count, with or without injected
    /// faults (as long as a worker survives).
    ///
    /// # Errors
    ///
    /// Fails on invalid shapes/data, when every worker dies, when one
    /// epoch exceeds its retry budget, or when the underlying trainer
    /// rejects a batch.
    pub fn train(
        &self,
        model: &mut Sequential,
        inputs: &[Vec<f32>],
        labels: &[usize],
    ) -> crate::Result<DistReport> {
        self.config.validate()?;
        if inputs.is_empty() || inputs.len() != labels.len() {
            return Err(DistError::InvalidData(format!(
                "{} inputs vs {} labels",
                inputs.len(),
                labels.len()
            )));
        }

        let span = self.tracer.span_with(
            "dist.train",
            vec![
                ("workers", (self.config.workers as u64).into()),
                ("partitions", (self.config.partitions as u64).into()),
                ("epochs", (self.train.epochs as u64).into()),
                ("samples", (inputs.len() as u64).into()),
            ],
        );

        let parts = partition_indices(inputs.len(), self.config.partitions);
        let trainer = Trainer::new(self.train.clone());
        let mut optimizer = Optimizer::new(self.train.optimizer);
        let mut report = DistReport {
            workers_started: self.config.workers,
            workers_surviving: self.config.workers,
            partitions: self.config.partitions,
            epochs: 0,
            train_loss: Vec::new(),
            crashes_detected: 0,
            partitions_rescheduled: 0,
            epoch_retries: 0,
            weight_checksum: 0,
        };

        let (result_tx, result_rx) = mpsc::channel::<Reply>();
        let spec = model.spec().clone();
        let outcome = std::thread::scope(|scope| -> crate::Result<()> {
            let mut slots: Vec<WorkerSlot> = Vec::with_capacity(self.config.workers);
            for id in 0..self.config.workers {
                let (tx, rx) = mpsc::channel::<Cmd>();
                let beat = Arc::new(AtomicU64::new(self.clock.now_ms()));
                let shell = WorkerShell {
                    id,
                    spec: spec.clone(),
                    trainer: trainer.clone(),
                    inputs,
                    labels,
                    rx,
                    tx: result_tx.clone(),
                    beat: Arc::clone(&beat),
                    clock: Arc::clone(&self.clock),
                    faults: self.faults.clone(),
                    timeout_ms: self.config.heartbeat_timeout_ms,
                };
                std::thread::Builder::new()
                    .name(format!("ei-dist-worker-{id}"))
                    .spawn_scoped(scope, move || shell.run())
                    .expect("spawn worker thread");
                slots.push(WorkerSlot { tx: Some(tx), beat });
            }

            // partition → worker placement; rebuilt only on worker death
            let mut assignment: Vec<usize> =
                (0..self.config.partitions).map(|p| p % self.config.workers).collect();
            let mut attempt: u64 = 0;

            for epoch in 0..self.train.epochs {
                let plan = epoch_plan(&parts, epoch, self.train.batch_size, self.train.seed);
                let mut retries_this_epoch: u32 = 0;
                let epoch_loss = loop {
                    let ckpt = Arc::new(snapshot(model));
                    let opt_ckpt = optimizer.clone();
                    attempt += 1;
                    match self.run_epoch_attempt(
                        model,
                        &mut optimizer,
                        &plan,
                        &slots,
                        &assignment,
                        &result_rx,
                        epoch,
                        attempt,
                        Arc::clone(&ckpt),
                    ) {
                        Ok(loss) => break loss,
                        Err(Abort::Fatal(err)) => return Err(err),
                        Err(Abort::Dead { workers, cause }) => {
                            self.bury_and_reassign(
                                &span,
                                &mut slots,
                                &mut assignment,
                                &workers,
                                cause,
                                epoch,
                                &mut report,
                            )?;
                            restore(model, &ckpt);
                            optimizer = opt_ckpt;
                            report.epoch_retries += 1;
                            self.tracer.counter("dist.epoch_retries").inc();
                            span.event(
                                "dist.checkpoint_restored",
                                vec![
                                    ("epoch", (epoch as u64).into()),
                                    ("retry", u64::from(retries_this_epoch + 1).into()),
                                ],
                            );
                            retries_this_epoch += 1;
                            if retries_this_epoch > self.config.max_epoch_retries {
                                return Err(DistError::RetriesExhausted {
                                    epoch,
                                    retries: retries_this_epoch,
                                });
                            }
                        }
                    }
                };
                report.epochs += 1;
                report.train_loss.push(epoch_loss);
                self.tracer.counter("dist.epochs").inc();
                span.event(
                    "dist.epoch",
                    vec![("epoch", (epoch as u64).into()), ("loss", f64::from(epoch_loss).into())],
                );
            }
            // closing the command channels lets every surviving worker
            // drain out of its recv loop so the scope can join
            for slot in &mut slots {
                slot.tx = None;
            }
            report.workers_surviving =
                slots.iter().filter(|s| s.beat.load(Ordering::SeqCst) != u64::MAX).count();
            Ok(())
        });
        outcome?;

        report.weight_checksum = weight_checksum(model);
        span.event(
            "dist.finished",
            vec![
                ("epochs", (report.epochs as u64).into()),
                ("crashes", report.crashes_detected.into()),
                ("checksum", report.weight_checksum.into()),
            ],
        );
        Ok(report)
    }

    /// Runs one attempt of one epoch: dispatches every step, reduces in
    /// partition order, applies optimizer updates. Returns the epoch's
    /// mean loss, or which workers must be declared dead.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch_attempt(
        &self,
        model: &mut Sequential,
        optimizer: &mut Optimizer,
        plan: &[Vec<PlannedBatch>],
        slots: &[WorkerSlot],
        assignment: &[usize],
        result_rx: &Receiver<Reply>,
        epoch: usize,
        attempt: u64,
        mut ckpt: Arc<Checkpoint>,
    ) -> Result<f32, Abort> {
        let mut loss_sum = 0.0f64;
        let mut sample_count = 0usize;
        for (step, batches) in plan.iter().enumerate() {
            let step_start = self.clock.now_ms();
            let deadline = step_start.saturating_add(self.config.heartbeat_timeout_ms);
            // dispatch this step's batches to their partitions' workers
            let mut pending: BTreeMap<usize, usize> = BTreeMap::new();
            for pb in batches {
                let worker = assignment[pb.partition];
                let slot = &slots[worker];
                let cmd = Cmd {
                    attempt,
                    epoch,
                    step,
                    partition: pb.partition,
                    ckpt: Arc::clone(&ckpt),
                    batch: Arc::new(pb.indices.clone()),
                    seed: pb.seed,
                };
                match &slot.tx {
                    Some(tx) if tx.send(cmd).is_ok() => {
                        pending.insert(pb.partition, worker);
                    }
                    // channel gone: the thread already exited without
                    // ever being detected — declare it dead now
                    _ => {
                        return Err(Abort::Dead { workers: vec![worker], cause: "channel_closed" })
                    }
                }
            }

            // collect replies; detect missed heartbeats / overrun deadlines
            let mut slots_grads: BTreeMap<usize, BatchGrads> = BTreeMap::new();
            let mut overdue_polls: u32 = 0;
            while !pending.is_empty() {
                match result_rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(reply) => {
                        if reply.attempt != attempt
                            || pending.get(&reply.partition) != Some(&reply.worker)
                        {
                            continue; // stale reply from a rolled-back attempt
                        }
                        // a reply is never "too late": gradients are pure
                        // functions of (checkpoint, batch, seed), so accepting
                        // one cannot change the bits. Workers that overslept
                        // their lease fence themselves and never reply.
                        match reply.grads {
                            Ok(grads) => {
                                pending.remove(&reply.partition);
                                slots_grads.insert(reply.partition, grads);
                            }
                            Err(msg) => return Err(Abort::Fatal(DistError::Train(msg))),
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        let now = self.clock.now_ms();
                        if now <= deadline {
                            continue;
                        }
                        let stale: Vec<usize> = pending
                            .values()
                            .filter(|&&w| {
                                let beat = slots[w].beat.load(Ordering::SeqCst);
                                beat == u64::MAX
                                    || now.saturating_sub(beat) > self.config.heartbeat_timeout_ms
                            })
                            .copied()
                            .collect();
                        if stale.is_empty() {
                            continue; // everyone still heartbeating; extend
                        }
                        overdue_polls += 1;
                        if overdue_polls >= self.config.grace_polls {
                            let mut dead = stale;
                            dead.sort_unstable();
                            dead.dedup();
                            return Err(Abort::Dead { workers: dead, cause: "missed_heartbeat" });
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(Abort::Fatal(DistError::Train(
                            "result channel disconnected".into(),
                        )))
                    }
                }
            }

            // parameter server: fold partition sums in ascending partition
            // order — the fixed fold tree that pins the trained bits
            let mut total: Option<Vec<LayerGrads>> = None;
            let mut step_samples = 0usize;
            for (_, grads) in slots_grads {
                loss_sum += grads.loss_sum;
                step_samples += grads.count;
                fold_grads(&mut total, grads.grads);
            }
            if let Some(total) = total {
                apply_batch(
                    model,
                    &total,
                    optimizer,
                    self.train.learning_rate,
                    step_samples as f32,
                    self.train.weight_decay,
                );
                self.tracer.counter("dist.reductions").inc();
                sample_count += step_samples;
                // later steps must ship the post-update weights
                ckpt = Arc::new(snapshot(model));
            }
        }
        Ok((loss_sum / sample_count.max(1) as f64) as f32)
    }

    /// Marks `dead` workers as gone, reassigns their partitions
    /// round-robin onto survivors, and emits the recovery telemetry
    /// through the `dist.train` span, so crash events carry the training
    /// run's causal chain (back to the submitting job/request) for the
    /// flight recorder.
    #[allow(clippy::too_many_arguments)]
    fn bury_and_reassign(
        &self,
        span: &SpanGuard,
        slots: &mut [WorkerSlot],
        assignment: &mut [usize],
        dead: &[usize],
        cause: &'static str,
        epoch: usize,
        report: &mut DistReport,
    ) -> crate::Result<()> {
        for &w in dead {
            slots[w].tx = None; // drop the sender; the thread drains out
            slots[w].beat.store(u64::MAX, Ordering::SeqCst);
            report.crashes_detected += 1;
            self.tracer.counter("dist.crashes_detected").inc();
            span.event(
                "dist.crash_detected",
                vec![
                    ("worker", (w as u64).into()),
                    ("epoch", (epoch as u64).into()),
                    ("cause", cause.into()),
                ],
            );
        }
        let survivors: Vec<usize> = (0..slots.len()).filter(|&w| slots[w].alive()).collect();
        if survivors.is_empty() {
            return Err(DistError::AllWorkersDead { epoch });
        }
        let mut next = 0usize;
        let mut moved = 0u64;
        for (partition, owner) in assignment.iter_mut().enumerate() {
            if slots[*owner].alive() {
                continue;
            }
            *owner = survivors[next % survivors.len()];
            next += 1;
            moved += 1;
            span.event(
                "dist.partition_rescheduled",
                vec![("partition", (partition as u64).into()), ("worker", (*owner as u64).into())],
            );
        }
        report.partitions_rescheduled += moved;
        self.tracer.counter("dist.partitions_rescheduled").add(moved);
        span.event(
            "dist.partitions_rescheduled",
            vec![("count", moved.into()), ("epoch", (epoch as u64).into())],
        );
        Ok(())
    }
}

/// Why an epoch attempt could not finish.
enum Abort {
    /// These workers are dead; roll back and replay.
    Dead { workers: Vec<usize>, cause: &'static str },
    /// Unrecoverable error; stop training.
    Fatal(DistError),
}

/// Everything one worker thread owns.
struct WorkerShell<'data> {
    id: usize,
    spec: ei_nn::ModelSpec,
    trainer: Trainer,
    inputs: &'data [Vec<f32>],
    labels: &'data [usize],
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
    beat: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
    faults: DistFaultPlan,
    timeout_ms: u64,
}

impl WorkerShell<'_> {
    /// Worker main loop: restore the shipped checkpoint into a local
    /// replica, compute the batch's gradient sums, heartbeat around every
    /// boundary, reply. Exits (silently) on channel close, injected
    /// crash, or a caught panic.
    fn run(self) {
        let caught = catch_unwind(AssertUnwindSafe(|| self.serve()));
        if caught.is_err() {
            // a panicking worker just dies; the orchestrator's heartbeat
            // watchdog turns the silence into a reschedule
        }
    }

    fn serve(&self) {
        let mut replica = match Sequential::build(&self.spec, 0) {
            Ok(m) => m,
            Err(_) => return, // server built the same spec; unreachable
        };
        while let Ok(cmd) = self.rx.recv() {
            self.beat.store(self.clock.now_ms(), Ordering::SeqCst);
            if let Some(fault) = self.faults.take(self.id, cmd.epoch, cmd.step) {
                match fault {
                    WorkerFault::Crash => {
                        // die without a word; jump a virtual clock past
                        // the deadline so detection is immediate in tests
                        self.clock.sleep_ms(self.timeout_ms.saturating_add(1), None);
                        return;
                    }
                    WorkerFault::Panic => {
                        self.clock.sleep_ms(self.timeout_ms.saturating_add(1), None);
                        // a genuine unwinding panic, raised without the
                        // global panic hook so tests stay quiet; run()
                        // catches it and the thread dies silently
                        std::panic::resume_unwind(Box::new(format!(
                            "injected fault: worker {} panicked at epoch {} step {}",
                            self.id, cmd.epoch, cmd.step
                        )));
                    }
                    WorkerFault::Stall(ms) => {
                        // go silent for `ms` without heartbeating; a worker
                        // that overslept its lease self-fences — the server
                        // may have reassigned its partition, so replying
                        // could race the replacement. A short stall is a
                        // benign slowdown.
                        self.clock.sleep_ms(ms, None);
                        if ms > self.timeout_ms {
                            return;
                        }
                    }
                }
            }
            restore(&mut replica, &cmd.ckpt);
            self.beat.store(self.clock.now_ms(), Ordering::SeqCst);
            let grads = self
                .trainer
                .batch_gradients(&replica, self.inputs, self.labels, &cmd.batch, cmd.seed)
                .map_err(|e| e.to_string());
            self.beat.store(self.clock.now_ms(), Ordering::SeqCst);
            let reply =
                Reply { worker: self.id, attempt: cmd.attempt, partition: cmd.partition, grads };
            if self.tx.send(reply).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::train_serial_reference;
    use ei_faults::VirtualClock;
    use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec};

    /// Two linearly separable blobs in 2-D.
    fn blobs(n_per_class: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class {
            let jx = (i % 7) as f32 * 0.05;
            let jy = (i % 5) as f32 * 0.05;
            inputs.push(vec![1.0 + jx, 1.0 + jy]);
            labels.push(0);
            inputs.push(vec![-1.0 - jx, -1.0 - jy]);
            labels.push(1);
        }
        (inputs, labels)
    }

    fn classifier_spec() -> ModelSpec {
        ModelSpec::new(Dims::new(1, 2, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 8, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
            .layer(LayerSpec::Softmax)
    }

    fn train_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 4,
            learning_rate: 0.01,
            validation_split: 0.0,
            restore_best: false,
            seed: 42,
            ..TrainConfig::default()
        }
    }

    fn fast_cluster(workers: usize) -> DistConfig {
        let mut cfg = DistConfig::new(workers).with_partitions(4).with_timeout_ms(50);
        cfg.grace_polls = 5;
        cfg
    }

    #[test]
    fn one_worker_matches_serial_reference() {
        let (inputs, labels) = blobs(16);
        let dist_cfg = fast_cluster(1);

        let mut serial = Sequential::build(&classifier_spec(), 7).unwrap();
        let serial_loss =
            train_serial_reference(&mut serial, &train_cfg(), &dist_cfg, &inputs, &labels).unwrap();

        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let report =
            DistTrainer::new(dist_cfg, train_cfg()).train(&mut model, &inputs, &labels).unwrap();

        assert_eq!(snapshot(&serial), snapshot(&model), "weights must match bit for bit");
        assert_eq!(report.weight_checksum, weight_checksum(&serial));
        assert_eq!(report.train_loss, serial_loss);
        assert_eq!(report.epochs, 3);
        assert_eq!(report.crashes_detected, 0);
    }

    #[test]
    fn worker_count_does_not_change_the_bits() {
        let (inputs, labels) = blobs(16);
        let mut checksums = Vec::new();
        for workers in [1usize, 2, 3, 4] {
            let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
            let report = DistTrainer::new(fast_cluster(workers), train_cfg())
                .train(&mut model, &inputs, &labels)
                .unwrap();
            checksums.push(report.weight_checksum);
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "checksums diverged across worker counts: {checksums:?}"
        );
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (inputs, labels) = blobs(16);
        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let cfg = TrainConfig { epochs: 10, ..train_cfg() };
        let report =
            DistTrainer::new(fast_cluster(2), cfg).train(&mut model, &inputs, &labels).unwrap();
        assert!(report.train_loss.last().unwrap() < report.train_loss.first().unwrap());
    }

    #[test]
    fn crash_mid_epoch_recovers_with_identical_bits() {
        let (inputs, labels) = blobs(16);
        let dist_cfg = fast_cluster(4);

        let mut baseline = Sequential::build(&classifier_spec(), 7).unwrap();
        train_serial_reference(&mut baseline, &train_cfg(), &dist_cfg, &inputs, &labels).unwrap();

        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let plan = DistFaultPlan::new().inject(1, 1, 0, WorkerFault::Crash);
        let report = DistTrainer::new(dist_cfg, train_cfg())
            .with_clock(Arc::new(VirtualClock::new()))
            .with_faults(plan)
            .train(&mut model, &inputs, &labels)
            .unwrap();

        assert_eq!(report.crashes_detected, 1);
        assert!(report.partitions_rescheduled >= 1);
        assert_eq!(report.epoch_retries, 1);
        assert_eq!(snapshot(&baseline), snapshot(&model), "recovery must not change the bits");
    }

    #[test]
    fn stall_past_deadline_is_detected_and_recovered() {
        let (inputs, labels) = blobs(16);
        let dist_cfg = fast_cluster(3);

        let mut baseline = Sequential::build(&classifier_spec(), 7).unwrap();
        train_serial_reference(&mut baseline, &train_cfg(), &dist_cfg, &inputs, &labels).unwrap();

        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let plan = DistFaultPlan::new().inject(2, 0, 1, WorkerFault::Stall(1_000_000));
        let report = DistTrainer::new(dist_cfg, train_cfg())
            .with_clock(Arc::new(VirtualClock::new()))
            .with_faults(plan)
            .train(&mut model, &inputs, &labels)
            .unwrap();

        assert_eq!(report.crashes_detected, 1);
        assert_eq!(snapshot(&baseline), snapshot(&model));
    }

    #[test]
    fn panic_is_isolated_and_recovered() {
        let (inputs, labels) = blobs(16);
        let dist_cfg = fast_cluster(2);

        let mut baseline = Sequential::build(&classifier_spec(), 7).unwrap();
        train_serial_reference(&mut baseline, &train_cfg(), &dist_cfg, &inputs, &labels).unwrap();

        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let plan = DistFaultPlan::new().inject(1, 2, 1, WorkerFault::Panic);
        let report = DistTrainer::new(dist_cfg, train_cfg())
            .with_clock(Arc::new(VirtualClock::new()))
            .with_faults(plan)
            .train(&mut model, &inputs, &labels)
            .unwrap();

        assert_eq!(report.crashes_detected, 1);
        assert_eq!(report.workers_surviving, 1);
        assert_eq!(snapshot(&baseline), snapshot(&model));
    }

    #[test]
    fn losing_every_worker_is_fatal() {
        let (inputs, labels) = blobs(8);
        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let plan = DistFaultPlan::new().inject(0, 0, 0, WorkerFault::Crash).inject(
            1,
            0,
            0,
            WorkerFault::Crash,
        );
        let err = DistTrainer::new(fast_cluster(2), train_cfg())
            .with_clock(Arc::new(VirtualClock::new()))
            .with_faults(plan)
            .train(&mut model, &inputs, &labels)
            .unwrap_err();
        assert!(matches!(err, DistError::AllWorkersDead { epoch: 0 }), "got {err}");
    }

    #[test]
    fn retry_budget_is_enforced() {
        let (inputs, labels) = blobs(8);
        let mut dist_cfg = fast_cluster(2);
        dist_cfg.max_epoch_retries = 0;
        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let plan = DistFaultPlan::new().inject(1, 0, 0, WorkerFault::Crash);
        let err = DistTrainer::new(dist_cfg, train_cfg())
            .with_clock(Arc::new(VirtualClock::new()))
            .with_faults(plan)
            .train(&mut model, &inputs, &labels)
            .unwrap_err();
        assert!(matches!(err, DistError::RetriesExhausted { epoch: 0, retries: 1 }), "got {err}");
    }

    #[test]
    fn rejects_bad_shapes_and_data() {
        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let err = DistTrainer::new(DistConfig::new(0), train_cfg())
            .train(&mut model, &[vec![0.0, 0.0]], &[0])
            .unwrap_err();
        assert!(matches!(err, DistError::InvalidConfig(_)));
        let err = DistTrainer::new(DistConfig::new(1), train_cfg())
            .train(&mut model, &[], &[])
            .unwrap_err();
        assert!(matches!(err, DistError::InvalidData(_)));
    }

    #[test]
    fn more_workers_than_partitions_is_fine() {
        let (inputs, labels) = blobs(8);
        let dist_cfg = fast_cluster(4).with_partitions(2);
        let mut serial = Sequential::build(&classifier_spec(), 7).unwrap();
        train_serial_reference(&mut serial, &train_cfg(), &dist_cfg, &inputs, &labels).unwrap();
        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        DistTrainer::new(dist_cfg, train_cfg()).train(&mut model, &inputs, &labels).unwrap();
        assert_eq!(snapshot(&serial), snapshot(&model));
    }

    #[test]
    fn tracer_counts_epochs_and_reductions() {
        let (inputs, labels) = blobs(8);
        let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
        let (tracer, collector) = Tracer::collecting(clock.clone());
        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        DistTrainer::new(fast_cluster(2), train_cfg())
            .with_clock(clock)
            .with_tracer(tracer.clone())
            .train(&mut model, &inputs, &labels)
            .unwrap();
        let registry = tracer.registry().unwrap();
        assert_eq!(registry.counter("dist.epochs", ""), Some(3));
        assert!(registry.counter("dist.reductions", "").is_some_and(|n| n > 0));
        let names: Vec<String> = collector.records().iter().map(|r| r.name().to_string()).collect();
        assert!(names.iter().any(|n| n == "dist.train"));
        assert!(names.iter().any(|n| n == "dist.epoch"));
    }
}
