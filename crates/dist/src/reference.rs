//! Threadless serial oracle and the weight checksum.

use crate::config::{DistConfig, DistError};
use crate::schedule::{epoch_plan, partition_indices};
use ei_nn::model::LayerGrads;
use ei_nn::optimizer::Optimizer;
use ei_nn::train::{apply_batch, fold_grads, TrainConfig, Trainer};
use ei_nn::Sequential;

/// FNV-1a hash over the little-endian bit patterns of every weight and
/// bias value, in layer order. Two models collide only when their
/// parameter bytes are identical (up to hash collisions), so equality of
/// checksums is the cheap proxy the benches use for "bitwise-equal
/// weights".
pub fn weight_checksum(model: &Sequential) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for layer in model.layers() {
        for tensor in [layer.weights.as_ref(), layer.bias.as_ref()].into_iter().flatten() {
            for v in tensor.as_f32() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    hash
}

/// Serial replay of the distributed schedule: same partitions, same
/// shuffles, same per-batch dropout seeds, same ascending-partition fold
/// — executed by one thread with no cluster. [`crate::DistTrainer`] is
/// bitwise-equal to this at any worker count, which is what the
/// integration tests assert.
///
/// Returns the per-epoch mean training loss.
///
/// # Errors
///
/// Fails on invalid shapes/data or when the underlying trainer rejects a
/// batch.
pub fn train_serial_reference(
    model: &mut Sequential,
    train: &TrainConfig,
    dist: &DistConfig,
    inputs: &[Vec<f32>],
    labels: &[usize],
) -> crate::Result<Vec<f32>> {
    dist.validate()?;
    if inputs.is_empty() || inputs.len() != labels.len() {
        return Err(DistError::InvalidData(format!(
            "{} inputs vs {} labels",
            inputs.len(),
            labels.len()
        )));
    }
    let parts = partition_indices(inputs.len(), dist.partitions);
    let trainer = Trainer::new(train.clone());
    let mut optimizer = Optimizer::new(train.optimizer);
    let mut losses = Vec::with_capacity(train.epochs);
    for epoch in 0..train.epochs {
        let mut loss_sum = 0.0f64;
        let mut sample_count = 0usize;
        for batches in epoch_plan(&parts, epoch, train.batch_size, train.seed) {
            let mut total: Option<Vec<LayerGrads>> = None;
            let mut step_samples = 0usize;
            for pb in &batches {
                let grads = trainer.batch_gradients(model, inputs, labels, &pb.indices, pb.seed)?;
                loss_sum += grads.loss_sum;
                step_samples += grads.count;
                fold_grads(&mut total, grads.grads);
            }
            if let Some(total) = total {
                apply_batch(
                    model,
                    &total,
                    &mut optimizer,
                    train.learning_rate,
                    step_samples as f32,
                    train.weight_decay,
                );
                sample_count += step_samples;
            }
        }
        losses.push((loss_sum / sample_count.max(1) as f64) as f32);
    }
    Ok(losses)
}
