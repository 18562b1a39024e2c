//! Distributed-training jobs: the bridge between the [`JobScheduler`]
//! and the `ei-dist` data-parallel cluster.
//!
//! A distributed run is submitted as an ordinary scheduler job, so it
//! inherits the platform's whole failure envelope unchanged: retry
//! policy with seeded backoff, per-attempt watchdog timeouts,
//! cooperative cancellation, and dead-lettering (with
//! [`JobScheduler::requeue`]) when every attempt is exhausted. Each
//! attempt rebuilds the model from its spec and reruns the cluster from
//! scratch — `ei-dist` training is bitwise deterministic, so a retry
//! that converges produces exactly the weights the first attempt would
//! have, and one-shot fault scripts consumed by a dying first attempt
//! leave the retry clean.

use crate::error::PlatformError;
use crate::jobs::JobScheduler;
use crate::Result;
use ei_dist::{DistReport, DistTrainer};
use ei_faults::sync::lock;
use ei_faults::RetryPolicy;
use ei_nn::spec::ModelSpec;
use ei_nn::Sequential;
use std::sync::{Arc, Mutex};

/// A distributed training job: everything one scheduler attempt needs
/// to run the cluster end to end.
pub struct DistTrainingJob {
    /// The cluster trainer (worker count, heartbeats, fault script).
    pub trainer: DistTrainer,
    /// Model architecture; each attempt rebuilds from this spec with the
    /// training seed, so retries start from identical initial weights.
    pub spec: ModelSpec,
    /// Training inputs (feature vectors).
    pub inputs: Vec<Vec<f32>>,
    /// Class labels, parallel to `inputs`.
    pub labels: Vec<usize>,
}

/// Handle to a submitted distributed training job: the scheduler id for
/// status/cancel/wait plus a slot the final [`DistReport`] lands in.
pub struct DistJobHandle {
    /// Scheduler job id — pass to [`JobScheduler::wait`], `status`,
    /// `cancel`, `attempt_history`, or `requeue` after dead-lettering.
    pub id: u64,
    report: Arc<Mutex<Option<DistReport>>>,
}

impl DistJobHandle {
    /// The report of the last successful attempt, once the job finished.
    pub fn report(&self) -> Option<DistReport> {
        lock(&self.report).clone()
    }
}

/// Submits `job` to `scheduler` under `policy` and returns its handle.
///
/// The job's success output is a one-line summary
/// (`epochs=… loss=… checksum=… crashes=…`); the full [`DistReport`] is
/// available via [`DistJobHandle::report`]. A cluster failure (all
/// workers lost, epoch retries exhausted, bad data) is an ordinary job
/// failure: the scheduler retries it under `policy` and dead-letters it
/// when exhausted.
///
/// # Errors
///
/// Returns [`PlatformError::SchedulerStopped`] after shutdown and
/// [`PlatformError::BadRequest`] for empty or mismatched training data.
pub fn submit_distributed_training(
    scheduler: &JobScheduler,
    policy: RetryPolicy,
    job: DistTrainingJob,
) -> Result<DistJobHandle> {
    if job.inputs.is_empty() || job.inputs.len() != job.labels.len() {
        return Err(PlatformError::BadRequest(format!(
            "distributed training needs matching inputs/labels, got {} vs {}",
            job.inputs.len(),
            job.labels.len()
        )));
    }
    let report_slot: Arc<Mutex<Option<DistReport>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&report_slot);
    let DistTrainingJob { trainer, spec, inputs, labels } = job;
    let seed = trainer.train_config().seed;
    let id = scheduler.submit_with(policy, move |ctx| {
        if ctx.cancel.is_cancelled() {
            return Err("cancelled before training started".into());
        }
        let mut model =
            Sequential::build(&spec, seed).map_err(|e| format!("model build failed: {e}"))?;
        let report = trainer.train(&mut model, &inputs, &labels).map_err(|e| e.to_string())?;
        let summary = format!(
            "epochs={} loss={:.4} checksum={:016x} crashes={}",
            report.epochs,
            report.train_loss.last().copied().unwrap_or(f32::NAN),
            report.weight_checksum,
            report.crashes_detected,
        );
        *lock(&slot) = Some(report);
        Ok(summary)
    })?;
    Ok(DistJobHandle { id, report: report_slot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_dist::{DistConfig, DistFaultPlan, WorkerFault};
    use ei_nn::spec::{Activation, Dims, LayerSpec};
    use ei_nn::train::TrainConfig;

    fn blobs(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut inputs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut state = 123u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for i in 0..n {
            let class = i % 2;
            let cx = if class == 0 { -1.0 } else { 1.0 };
            inputs.push(vec![cx + 0.3 * next(), -cx + 0.3 * next(), 0.3 * next(), 0.3 * next()]);
            labels.push(class);
        }
        (inputs, labels)
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(Dims::new(1, 4, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 8, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
            .layer(LayerSpec::Softmax)
    }

    fn train_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 4,
            learning_rate: 0.01,
            validation_split: 0.0,
            seed: 42,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn dist_job_runs_through_the_scheduler() {
        let scheduler = JobScheduler::new(1);
        let (inputs, labels) = blobs(24);
        let job = DistTrainingJob {
            trainer: DistTrainer::new(DistConfig::new(2).with_partitions(4), train_cfg()),
            spec: spec(),
            inputs,
            labels,
        };
        let handle =
            submit_distributed_training(&scheduler, RetryPolicy::immediate(1), job).unwrap();
        let summary = scheduler.wait(handle.id).unwrap();
        assert!(summary.starts_with("epochs=2 "), "{summary}");
        let report = handle.report().expect("report recorded on success");
        assert_eq!(report.epochs, 2);
        assert_eq!(report.crashes_detected, 0);
    }

    #[test]
    fn retry_recovers_a_dist_job_whose_cluster_died() {
        let scheduler = JobScheduler::new(1);
        let (inputs, labels) = blobs(24);
        // the lone worker crashes: attempt 1 loses the whole cluster.
        // The one-shot fault is consumed, so the retry runs clean.
        let trainer = DistTrainer::new(
            DistConfig::new(1).with_partitions(4).with_timeout_ms(40),
            train_cfg(),
        )
        .with_faults(DistFaultPlan::new().inject(0, 0, 0, WorkerFault::Crash));
        let job = DistTrainingJob { trainer, spec: spec(), inputs, labels };
        let handle =
            submit_distributed_training(&scheduler, RetryPolicy::immediate(2), job).unwrap();
        let summary = scheduler.wait(handle.id).unwrap();
        assert!(summary.contains("crashes=0"), "the retry saw no faults: {summary}");
        let history = scheduler.attempt_history(handle.id).unwrap();
        assert_eq!(history.len(), 1, "exactly one failed attempt before recovery");
        assert!(history[0].cause.to_string().contains("all workers dead"), "{:?}", history[0]);
    }

    #[test]
    fn exhausted_dist_job_is_dead_lettered_and_requeueable() {
        let scheduler = JobScheduler::new(1);
        let (inputs, labels) = blobs(24);
        // zero workers is rejected by validation on every attempt
        let job = DistTrainingJob {
            trainer: DistTrainer::new(DistConfig::new(0), train_cfg()),
            spec: spec(),
            inputs,
            labels,
        };
        let handle =
            submit_distributed_training(&scheduler, RetryPolicy::immediate(1), job).unwrap();
        assert!(scheduler.wait(handle.id).is_err());
        assert!(handle.report().is_none());
        let letter = scheduler.dead_letter(handle.id).unwrap();
        assert!(letter.requeueable, "a dead dist job can be requeued for another run");
    }

    #[test]
    fn mismatched_data_is_rejected_before_submission() {
        let scheduler = JobScheduler::new(1);
        let job = DistTrainingJob {
            trainer: DistTrainer::new(DistConfig::new(1), train_cfg()),
            spec: spec(),
            inputs: vec![vec![0.0; 4]; 3],
            labels: vec![0; 2],
        };
        assert!(matches!(
            submit_distributed_training(&scheduler, RetryPolicy::immediate(1), job),
            Err(PlatformError::BadRequest(_))
        ));
    }
}
