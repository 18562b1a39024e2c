//! Minibatch training with the stability helpers the platform ships.
//!
//! Paper §4.3: "Edge Impulse provides a number of subtle, but important,
//! optimisation pieces to ensure stable training including, but not limited
//! to, learning rate finding, classifier bias initialisation, best model
//! checkpoint restoration." All three live here.
//!
//! Training is observable through [`ei_trace`]: attach a tracer with
//! [`Trainer::with_tracer`] and every epoch emits a `train.epoch` event
//! (loss, validation metrics, learning rate) plus `train.*` gauges,
//! wrapped in one `train` span per run. The default disabled tracer adds
//! nothing to the hot path and never changes the numerics — shuffling and
//! dropout consume the same seeded RNG stream either way.

use crate::loss::Loss;
use crate::model::{LayerGrads, Sequential};
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::spec::LayerSpec;
use crate::{NnError, Result};
use ei_tensor::ops::argmax;
use ei_tensor::Tensor;
use ei_trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Optimizer algorithm.
    pub optimizer: OptimizerKind,
    /// Loss function.
    pub loss: Loss,
    /// Fraction of the data held out for validation (0 disables).
    pub validation_split: f32,
    /// L2 weight decay coefficient applied to weight (not bias) tensors
    /// (0 disables).
    pub weight_decay: f32,
    /// Restore the weights of the best validation epoch at the end.
    pub restore_best: bool,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            learning_rate: 0.005,
            optimizer: OptimizerKind::default(),
            loss: Loss::CrossEntropy,
            validation_split: 0.2,
            weight_decay: 0.0,
            restore_best: true,
            seed: 42,
        }
    }
}

/// Per-epoch metrics plus the best-checkpoint bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation loss per epoch (empty when `validation_split == 0`).
    pub val_loss: Vec<f32>,
    /// Validation accuracy per epoch.
    pub val_accuracy: Vec<f32>,
    /// Epoch whose weights were restored (0-based).
    pub best_epoch: usize,
    /// Validation accuracy of the restored epoch.
    pub best_val_accuracy: f32,
}

/// Snapshot of every parameter tensor, in layer order.
///
/// Used for best-checkpoint restore here and for epoch checkpoints /
/// replica synchronisation by the distributed trainer (`ei-dist`).
pub type Checkpoint = Vec<(Option<Tensor>, Option<Tensor>)>;

/// Captures a [`Checkpoint`] of every parameter tensor in `model`.
pub fn snapshot(model: &Sequential) -> Checkpoint {
    model.layers().iter().map(|l| (l.weights.clone(), l.bias.clone())).collect()
}

/// Writes a [`Checkpoint`] back into `model`, layer by layer.
pub fn restore(model: &mut Sequential, ckpt: &Checkpoint) {
    for (layer, (w, b)) in model.layers_mut().iter_mut().zip(ckpt) {
        layer.weights = w.clone();
        layer.bias = b.clone();
    }
}

/// Summed (not yet averaged) gradients of one minibatch, plus the
/// bookkeeping a reducer needs to average and report loss.
#[derive(Debug, Clone)]
pub struct BatchGrads {
    /// Per-layer gradient sums, aligned with the model's layer order.
    pub grads: Vec<LayerGrads>,
    /// Sum of per-sample losses over the batch.
    pub loss_sum: f64,
    /// Number of samples that contributed.
    pub count: usize,
}

/// Trains sequential models on in-memory datasets.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    tracer: Tracer,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config, tracer: Tracer::disabled() }
    }

    /// Attaches a tracer; subsequent runs emit a `train` span with
    /// per-epoch `train.epoch` events and `train.*` gauges.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Trainer {
        self.tracer = tracer;
        self
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Initializes the classifier bias from class priors: `b_c = ln(p_c)`.
    ///
    /// # Errors
    ///
    /// Fails when `labels` is empty or the model output width differs from
    /// `n_classes`.
    pub fn init_class_bias(
        &self,
        model: &mut Sequential,
        labels: &[usize],
        n_classes: usize,
    ) -> Result<()> {
        if labels.is_empty() {
            return Err(NnError::InvalidTrainingData("no labels for bias init".into()));
        }
        let mut counts = vec![0usize; n_classes];
        for &l in labels {
            if l >= n_classes {
                return Err(NnError::LabelOutOfRange { label: l, classes: n_classes });
            }
            counts[l] += 1;
        }
        let total = labels.len() as f32;
        let bias: Vec<f32> = counts.iter().map(|&c| ((c as f32 / total).max(1e-6)).ln()).collect();
        model.set_output_bias(&bias)
    }

    /// Runs the learning-rate range test: exponentially ramps the LR over a
    /// copy of the model and returns the rate one decade below the loss
    /// blow-up point.
    ///
    /// # Errors
    ///
    /// Fails on empty data or mismatched input sizes.
    pub fn find_learning_rate(
        &self,
        model: &Sequential,
        inputs: &[Vec<f32>],
        labels: &[usize],
    ) -> Result<f32> {
        if inputs.is_empty() {
            return Err(NnError::InvalidTrainingData("lr finder needs data".into()));
        }
        let mut probe = model.clone();
        let mut opt = Optimizer::new(OptimizerKind::Sgd { momentum: 0.0 });
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let steps = 40usize;
        let lr_min = 1e-5f32;
        let lr_max = 1.0f32;
        let mut best_lr = self.config.learning_rate;
        let mut best_drop = 0.0f32;
        let mut prev_loss = f32::NAN;
        let task = Task::Classify(labels);
        for step in 0..steps {
            let lr = lr_min * (lr_max / lr_min).powf(step as f32 / (steps - 1) as f32);
            let idx = step % inputs.len();
            let (loss, grads) =
                task.sample_pass(self.config.loss, &probe, &inputs[idx], idx, &mut rng)?;
            let loss = loss as f32; // exact: widened from f32
            apply_batch(&mut probe, &grads, &mut opt, lr, 1.0, 0.0);
            if prev_loss.is_finite() {
                let drop = prev_loss - loss;
                if drop > best_drop {
                    best_drop = drop;
                    best_lr = lr;
                }
                if !loss.is_finite() || loss > prev_loss * 4.0 {
                    break; // diverged
                }
            }
            prev_loss = loss;
        }
        Ok((best_lr / 10.0).clamp(1e-5, 0.1))
    }

    /// Computes summed per-layer gradients for the samples selected by
    /// `batch` (indices into `inputs`/`labels`) without touching the model.
    ///
    /// The dropout RNG stream is seeded from `rng_seed` alone, so the result
    /// depends only on (weights, batch, seed) — never on which thread or
    /// worker ran it. This is the building block the distributed trainer
    /// uses to make data-parallel SGD bitwise-identical to serial SGD.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range indices/labels or wrongly sized inputs.
    pub fn batch_gradients(
        &self,
        model: &Sequential,
        inputs: &[Vec<f32>],
        labels: &[usize],
        batch: &[usize],
        rng_seed: u64,
    ) -> Result<BatchGrads> {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut acc: Option<Vec<LayerGrads>> = None;
        let mut loss_sum = 0.0f64;
        let task = Task::Classify(labels);
        for &i in batch {
            let (Some(input), Some(_)) = (inputs.get(i), labels.get(i)) else {
                let n = inputs.len();
                return Err(NnError::InvalidTrainingData(format!(
                    "batch index {i} out of range for {n} samples"
                )));
            };
            let (loss, grads) = task.sample_pass(self.config.loss, model, input, i, &mut rng)?;
            loss_sum += loss;
            fold_grads(&mut acc, grads);
        }
        Ok(BatchGrads { grads: acc.unwrap_or_default(), loss_sum, count: batch.len() })
    }

    /// Trains `model` in place and returns the per-epoch report.
    ///
    /// # Errors
    ///
    /// Fails on empty/mismatched data, out-of-range labels, or wrongly
    /// sized inputs.
    pub fn train(
        &self,
        model: &mut Sequential,
        inputs: &[Vec<f32>],
        labels: &[usize],
    ) -> Result<TrainingReport> {
        if inputs.is_empty() || inputs.len() != labels.len() {
            return Err(NnError::InvalidTrainingData(format!(
                "{} inputs vs {} labels",
                inputs.len(),
                labels.len()
            )));
        }
        self.fit(model, inputs, Task::Classify(labels))
    }

    /// Trains `model` on scalar regression targets (the platform's
    /// regression learn block). The model must have exactly one output and
    /// no trailing softmax; loss is mean squared error.
    ///
    /// Runs the epoch loop of [`Trainer::train`], with the best checkpoint
    /// tracked on validation MSE.
    ///
    /// # Errors
    ///
    /// Fails on empty/mismatched data or a model without a single output.
    pub fn train_regression(
        &self,
        model: &mut Sequential,
        inputs: &[Vec<f32>],
        targets: &[f32],
    ) -> Result<TrainingReport> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(NnError::InvalidTrainingData(format!(
                "{} inputs vs {} targets",
                inputs.len(),
                targets.len()
            )));
        }
        if model.output_dims().len() != 1 {
            return Err(NnError::InvalidTrainingData(format!(
                "regression needs a single output, model has {}",
                model.output_dims().len()
            )));
        }
        if matches!(model.layers().last().map(|l| &l.spec), Some(LayerSpec::Softmax)) {
            return Err(NnError::InvalidTrainingData(
                "regression model must not end in softmax".into(),
            ));
        }
        self.fit(model, inputs, Task::Regress(targets))
    }

    /// The epoch loop of both tasks: validation split, shuffle, minibatch
    /// fold, optimizer step, epoch event and best-checkpoint restore.
    fn fit(
        &self,
        model: &mut Sequential,
        inputs: &[Vec<f32>],
        task: Task<'_>,
    ) -> Result<TrainingReport> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        order.shuffle(&mut rng);
        let n_val = ((inputs.len() as f32) * self.config.validation_split).round() as usize;
        let n_val = n_val.min(inputs.len().saturating_sub(1));
        let (val_idx, train_idx) = order.split_at(n_val);
        let mut train_idx = train_idx.to_vec();

        let mut optimizer = Optimizer::new(self.config.optimizer);
        let mut report = TrainingReport::default();
        // best by validation accuracy (-MSE for a regressor, -train loss
        // without a validation set), ties broken by loss: small validation
        // sets saturate accuracy early, yet the loss keeps improving
        let (mut best_metric, mut best_loss) = (f32::NEG_INFINITY, f32::INFINITY);
        let mut best_ckpt: Option<Checkpoint> = None;

        let classifies = matches!(task, Task::Classify(_));
        let train_span = self.tracer.span_with(
            if classifies { "train" } else { "train.regression" },
            vec![
                ("epochs", (self.config.epochs as u64).into()),
                ("samples", (inputs.len() as u64).into()),
            ],
        );
        for epoch in 0..self.config.epochs {
            train_idx.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for batch in train_idx.chunks(self.config.batch_size.max(1)) {
                let mut acc: Option<Vec<LayerGrads>> = None;
                for &i in batch {
                    let (loss, grads) =
                        task.sample_pass(self.config.loss, model, &inputs[i], i, &mut rng)?;
                    epoch_loss += loss;
                    fold_grads(&mut acc, grads);
                }
                if let Some(grads) = acc {
                    apply_batch(
                        model,
                        &grads,
                        &mut optimizer,
                        self.config.learning_rate,
                        batch.len() as f32,
                        self.config.weight_decay,
                    );
                }
            }
            let train_loss = (epoch_loss / train_idx.len().max(1) as f64) as f32;
            report.train_loss.push(train_loss);

            let val = match val_idx {
                [] => None,
                idx => Some(task.validate(self.config.loss, model, inputs, idx)?),
            };
            let val_loss = val.map_or(f32::NAN, |(loss, _)| loss);
            // a classifier's accuracy, NaN without a validation set
            let val_accuracy = classifies.then(|| val.and_then(|(_, acc)| acc).unwrap_or(f32::NAN));
            let mut fields = vec![
                ("epoch", (epoch as u64).into()),
                ("train_loss", train_loss.into()),
                ("val_loss", val_loss.into()),
            ];
            fields.extend(val_accuracy.map(|acc| ("val_accuracy", acc.into())));
            fields.push(("lr", self.config.learning_rate.into()));
            train_span.event("train.epoch", fields);
            self.tracer.gauge("train.loss").set(f64::from(train_loss));
            match val_accuracy {
                Some(acc) if !val_loss.is_nan() => {
                    report.val_loss.push(val_loss);
                    report.val_accuracy.push(acc);
                    self.tracer.gauge("train.val_loss").set(f64::from(val_loss));
                    self.tracer.gauge("train.val_accuracy").set(f64::from(acc));
                }
                None if val.is_some() => report.val_loss.push(val_loss),
                _ => {}
            }

            let (metric, loss) =
                val.map_or((-train_loss, train_loss), |(loss, acc)| (acc.unwrap_or(-loss), loss));
            if metric > best_metric || (metric == best_metric && loss < best_loss) {
                (best_metric, best_loss) = (metric, loss);
                report.best_epoch = epoch;
                if let Some(acc) = val_accuracy {
                    report.best_val_accuracy = acc;
                }
                if self.config.restore_best {
                    best_ckpt = Some(snapshot(model));
                }
            }
        }
        if let Some(ckpt) = best_ckpt {
            restore(model, &ckpt);
        }
        Ok(report)
    }
}

/// What a model is trained to predict: class labels or scalar targets,
/// indexed like the inputs.
enum Task<'a> {
    Classify(&'a [usize]),
    Regress(&'a [f32]),
}

impl Task<'_> {
    /// One training forward/backward pass over `input`, sample `i`: its
    /// loss, widened to `f64`, and its gradients (the fused softmax and
    /// cross-entropy gradient where it applies, `2·err` for MSE).
    fn sample_pass(
        &self,
        loss: Loss,
        model: &Sequential,
        input: &[f32],
        i: usize,
        rng: &mut StdRng,
    ) -> Result<(f64, Vec<LayerGrads>)> {
        let cache = model.forward_cached(input, true, Some(rng))?;
        match self {
            Task::Classify(labels) => {
                let value = loss.value(cache.output(), labels[i])?;
                let grad = loss.gradient(cache.output(), labels[i])?;
                let fused = loss == Loss::CrossEntropy
                    && matches!(model.layers().last().map(|l| &l.spec), Some(LayerSpec::Softmax));
                let grads = if fused {
                    model.backward_from(&cache, &grad, model.layers().len() - 1)?
                } else {
                    model.backward(&cache, &grad)?
                };
                Ok((value as f64, grads))
            }
            Task::Regress(targets) => {
                let err = cache.output()[0] - targets[i];
                Ok(((err as f64).powi(2), model.backward(&cache, &[2.0 * err])?))
            }
        }
    }

    /// Mean loss over `indices` (MSE for a regressor), and a classifier's
    /// accuracy.
    fn validate(
        &self,
        loss: Loss,
        model: &Sequential,
        inputs: &[Vec<f32>],
        indices: &[usize],
    ) -> Result<(f32, Option<f32>)> {
        let mut total = 0.0f64;
        let mut correct = 0usize;
        for &i in indices {
            let out = model.forward(&inputs[i])?;
            match self {
                Task::Classify(labels) => {
                    total += loss.value(&out, labels[i])? as f64;
                    correct += usize::from(argmax(&out) == labels[i]);
                }
                Task::Regress(targets) => total += ((out[0] - targets[i]) as f64).powi(2),
            }
        }
        let n = indices.len().max(1) as f64;
        let accuracy = matches!(self, Task::Classify(_)).then_some((correct as f64 / n) as f32);
        Ok(((total / n) as f32, accuracy))
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer::new(TrainConfig::default())
    }
}

/// Folds `delta` into `acc` element-wise. The caller fixes the fold order;
/// folding contributions in a fixed order is what keeps a parallel
/// reduction bitwise-identical to the serial loop.
pub fn accumulate_grads(acc: &mut [LayerGrads], delta: &[LayerGrads]) {
    for (a, d) in acc.iter_mut().zip(delta) {
        for (sum, add) in [(&mut a.weights, &d.weights), (&mut a.bias, &d.bias)] {
            if let (Some(sum), Some(add)) = (sum, add) {
                sum.iter_mut().zip(add).for_each(|(x, y)| *x += y);
            }
        }
    }
}

/// Adds `grads` to the running sum `sum`: the first contribution becomes
/// the sum, later ones are folded in with [`accumulate_grads`].
pub fn fold_grads(sum: &mut Option<Vec<LayerGrads>>, grads: Vec<LayerGrads>) {
    match sum {
        Some(acc) => accumulate_grads(acc, &grads),
        None => *sum = Some(grads),
    }
}

/// Performs one optimizer step: advances the optimizer's step counter and
/// applies `grads` (averaged over `batch_len` samples, with optional L2
/// weight decay on weight tensors) to every non-frozen layer.
pub fn apply_batch(
    model: &mut Sequential,
    grads: &[LayerGrads],
    optimizer: &mut Optimizer,
    lr: f32,
    batch_len: f32,
    weight_decay: f32,
) {
    optimizer.begin_step();
    let inv = 1.0 / batch_len.max(1.0);
    for (i, layer) in model.layers_mut().iter_mut().enumerate() {
        if layer.frozen {
            continue;
        }
        if let (Some(w), Some(gw)) = (layer.weights.as_mut(), grads[i].weights.as_ref()) {
            let params = w.as_f32_mut();
            let scaled: Vec<f32> =
                gw.iter().zip(params.iter()).map(|(g, p)| g * inv + weight_decay * p).collect();
            optimizer.step((i, 0), params, &scaled, lr);
        }
        if let (Some(b), Some(gb)) = (layer.bias.as_mut(), grads[i].bias.as_ref()) {
            let scaled: Vec<f32> = gb.iter().map(|g| g * inv).collect();
            optimizer.step((i, 1), b.as_f32_mut(), &scaled, lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Activation, Dims, LayerSpec, ModelSpec};

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

    #[test]
    fn trains_linear_classifier_to_high_accuracy() {
        let (inputs, labels) = blobs(40);
        let mut model = Sequential::build(&classifier_spec(), 7).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 8,
            learning_rate: 0.01,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut model, &inputs, &labels).unwrap();
        assert!(
            report.best_val_accuracy > 0.95,
            "expected >95% accuracy, got {}",
            report.best_val_accuracy
        );
        // loss should broadly decrease
        assert!(report.train_loss.last().unwrap() < report.train_loss.first().unwrap());
    }

    #[test]
    fn training_is_deterministic() {
        let (inputs, labels) = blobs(10);
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let mut m1 = Sequential::build(&classifier_spec(), 7).unwrap();
        let mut m2 = Sequential::build(&classifier_spec(), 7).unwrap();
        let r1 = Trainer::new(cfg.clone()).train(&mut m1, &inputs, &labels).unwrap();
        let r2 = Trainer::new(cfg).train(&mut m2, &inputs, &labels).unwrap();
        assert_eq!(r1.train_loss, r2.train_loss);
        assert_eq!(m1.forward(&inputs[0]).unwrap(), m2.forward(&inputs[0]).unwrap());
    }

    #[test]
    fn rejects_empty_and_mismatched_data() {
        let mut model = Sequential::build(&classifier_spec(), 1).unwrap();
        let trainer = Trainer::default();
        assert!(trainer.train(&mut model, &[], &[]).is_err());
        assert!(trainer.train(&mut model, &[vec![0.0, 0.0]], &[0, 1]).is_err());
    }

    #[test]
    fn rejects_out_of_range_labels() {
        let mut model = Sequential::build(&classifier_spec(), 1).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            validation_split: 0.0,
            ..TrainConfig::default()
        });
        let err = trainer.train(&mut model, &[vec![0.0, 0.0]], &[5]).unwrap_err();
        assert!(matches!(err, NnError::LabelOutOfRange { label: 5, classes: 2 }));
    }

    #[test]
    fn class_bias_init_matches_priors() {
        let mut model = Sequential::build(&classifier_spec(), 1).unwrap();
        let trainer = Trainer::default();
        // 3:1 class imbalance
        let labels = vec![0, 0, 0, 1];
        trainer.init_class_bias(&mut model, &labels, 2).unwrap();
        let bias = model.layers()[2].bias.as_ref().unwrap().as_f32().to_vec();
        assert!((bias[0] - 0.75f32.ln()).abs() < 1e-5);
        assert!((bias[1] - 0.25f32.ln()).abs() < 1e-5);
        assert!(trainer.init_class_bias(&mut model, &[], 2).is_err());
    }

    #[test]
    fn lr_finder_returns_sane_rate() {
        let (inputs, labels) = blobs(20);
        let model = Sequential::build(&classifier_spec(), 3).unwrap();
        let lr = Trainer::default().find_learning_rate(&model, &inputs, &labels).unwrap();
        assert!((1e-5..=0.1).contains(&lr), "lr {lr}");
    }

    #[test]
    fn best_checkpoint_restored() {
        // with a huge LR the last epochs will be worse than the best; the
        // restored model must match the best epoch's accuracy
        let (inputs, labels) = blobs(30);
        let mut model = Sequential::build(&classifier_spec(), 2).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 12,
            learning_rate: 0.3,
            restore_best: true,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut model, &inputs, &labels).unwrap();
        // evaluate the restored model on everything
        let mut correct = 0;
        for (x, &y) in inputs.iter().zip(&labels) {
            if argmax(&model.forward(x).unwrap()) == y {
                correct += 1;
            }
        }
        let acc = correct as f32 / inputs.len() as f32;
        assert!(
            acc + 0.15 >= report.best_val_accuracy,
            "restored accuracy {acc} far below best {}",
            report.best_val_accuracy
        );
    }

    #[test]
    fn checkpoint_keeps_improving_after_accuracy_saturates() {
        // tiny validation sets saturate at 100% accuracy early; the best
        // checkpoint must then keep following the falling validation loss
        // instead of freezing at the first saturated epoch
        let (inputs, labels) = blobs(10);
        let mut model = Sequential::build(&classifier_spec(), 3).unwrap();
        let trainer =
            Trainer::new(TrainConfig { epochs: 15, learning_rate: 0.02, ..TrainConfig::default() });
        let report = trainer.train(&mut model, &inputs, &labels).unwrap();
        // on this separable task validation accuracy saturates quickly...
        assert_eq!(report.best_val_accuracy, 1.0);
        // ...and the restored epoch is a *later* one with lower loss than
        // the first perfect epoch
        let first_perfect = report.val_accuracy.iter().position(|&a| a == 1.0).expect("saturates");
        assert!(
            report.best_epoch > first_perfect,
            "best epoch {} should improve past first perfect epoch {first_perfect}",
            report.best_epoch
        );
        assert!(report.val_loss[report.best_epoch] <= report.val_loss[first_perfect]);
    }

    #[test]
    fn frozen_layers_do_not_change() {
        let (inputs, labels) = blobs(10);
        let mut model = Sequential::build(&classifier_spec(), 4).unwrap();
        model.freeze_first(2); // flatten + first dense
        let before = model.layers()[1].weights.as_ref().unwrap().clone();
        let trainer = Trainer::new(TrainConfig {
            epochs: 2,
            validation_split: 0.0,
            restore_best: false,
            ..TrainConfig::default()
        });
        trainer.train(&mut model, &inputs, &labels).unwrap();
        let after = model.layers()[1].weights.as_ref().unwrap();
        assert_eq!(&before, after, "frozen layer must not move");
        // unfrozen classifier did move
        let head = model.layers()[2].weights.as_ref().unwrap();
        let fresh = Sequential::build(&classifier_spec(), 4).unwrap();
        assert_ne!(head, fresh.layers()[2].weights.as_ref().unwrap());
    }

    #[test]
    fn weight_decay_shrinks_weight_norms() {
        let (inputs, labels) = blobs(20);
        let train = |wd: f32| -> f32 {
            let mut model = Sequential::build(&classifier_spec(), 6).unwrap();
            let trainer = Trainer::new(TrainConfig {
                epochs: 10,
                weight_decay: wd,
                restore_best: false,
                validation_split: 0.0,
                ..TrainConfig::default()
            });
            trainer.train(&mut model, &inputs, &labels).unwrap();
            model
                .layers()
                .iter()
                .filter_map(|l| l.weights.as_ref())
                .flat_map(|w| w.as_f32().iter().map(|x| x * x))
                .sum::<f32>()
        };
        let plain = train(0.0);
        let decayed = train(0.3);
        assert!(decayed < plain * 0.8, "decay {decayed} vs plain {plain}");
    }

    #[test]
    fn regression_fits_a_linear_function() {
        // y = 2 x0 - x1 + 0.5
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..60 {
            let x0 = (i % 10) as f32 * 0.1;
            let x1 = (i % 7) as f32 * 0.1;
            inputs.push(vec![x0, x1]);
            targets.push(2.0 * x0 - x1 + 0.5);
        }
        let spec = ModelSpec::new(Dims::new(1, 2, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 8, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 1, activation: Activation::None });
        let mut model = Sequential::build(&spec, 3).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 8,
            learning_rate: 0.01,
            ..TrainConfig::default()
        });
        let report = trainer.train_regression(&mut model, &inputs, &targets).unwrap();
        assert!(report.train_loss.last().unwrap() < &0.01, "{:?}", report.train_loss.last());
        // prediction close to truth on a fresh point
        let pred = model.forward(&[0.5, 0.3]).unwrap()[0];
        assert!((pred - (2.0 * 0.5 - 0.3 + 0.5)).abs() < 0.15, "pred {pred}");
    }

    #[test]
    fn regression_validates_model_shape() {
        let trainer = Trainer::default();
        // multi-output rejected
        let spec = ModelSpec::new(Dims::new(1, 2, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None });
        let mut multi = Sequential::build(&spec, 0).unwrap();
        assert!(trainer.train_regression(&mut multi, &[vec![0.0, 0.0]], &[1.0]).is_err());
        // softmax tail rejected
        let soft = ModelSpec::new(Dims::new(1, 2, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 1, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        let mut soft_model = Sequential::build(&soft, 0).unwrap();
        assert!(trainer.train_regression(&mut soft_model, &[vec![0.0, 0.0]], &[1.0]).is_err());
        // mismatched lengths rejected
        let ok = ModelSpec::new(Dims::new(1, 2, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 1, activation: Activation::None });
        let mut ok_model = Sequential::build(&ok, 0).unwrap();
        assert!(trainer.train_regression(&mut ok_model, &[vec![0.0, 0.0]], &[1.0, 2.0]).is_err());
        assert!(trainer.train_regression(&mut ok_model, &[], &[]).is_err());
    }

    #[test]
    fn traced_training_emits_one_epoch_event_per_epoch() {
        let (inputs, labels) = blobs(10);
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::default() };
        // traced and untraced runs must produce identical numerics
        let mut plain_model = Sequential::build(&classifier_spec(), 7).unwrap();
        let plain = Trainer::new(cfg.clone()).train(&mut plain_model, &inputs, &labels).unwrap();
        let clock = ei_faults::VirtualClock::shared();
        let (tracer, collector) = Tracer::collecting(clock);
        let mut traced_model = Sequential::build(&classifier_spec(), 7).unwrap();
        let traced = Trainer::new(cfg)
            .with_tracer(tracer.clone())
            .train(&mut traced_model, &inputs, &labels)
            .unwrap();
        assert_eq!(plain.train_loss, traced.train_loss, "tracer must not perturb training");
        let records = collector.records();
        let epoch_events: Vec<&ei_trace::TraceRecord> =
            records.iter().filter(|r| r.name() == "train.epoch").collect();
        assert_eq!(epoch_events.len(), 4);
        // each event carries the loss the report records
        for (i, event) in epoch_events.iter().enumerate() {
            let loss = event
                .fields()
                .iter()
                .find(|(k, _)| *k == "train_loss")
                .map(|(_, v)| match v {
                    ei_trace::Value::Float(f) => *f as f32,
                    other => panic!("train_loss should be a float, got {other:?}"),
                })
                .unwrap();
            assert_eq!(loss, traced.train_loss[i]);
        }
        // the gauges hold the final epoch's values
        let registry = tracer.registry().unwrap();
        let loss = registry.gauge("train.loss", "").expect("train.loss gauge");
        assert_eq!(loss as f32, *traced.train_loss.last().unwrap());
        assert!(registry.gauge("train.val_accuracy", "").is_some());
    }

    #[test]
    fn batch_gradients_plus_apply_matches_trainer_inner_loop() {
        // one hand-driven optimizer step via the public pieces must be
        // bitwise-identical to one step of Trainer::train's inner loop
        let (inputs, labels) = blobs(8);
        let batch: Vec<usize> = (0..8).collect();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            validation_split: 0.0,
            restore_best: false,
            ..TrainConfig::default()
        };
        let trainer = Trainer::new(cfg.clone());

        let mut manual = Sequential::build(&classifier_spec(), 11).unwrap();
        let b = trainer.batch_gradients(&manual, &inputs, &labels, &batch, 99).unwrap();
        assert_eq!(b.count, 8);
        assert!(b.loss_sum.is_finite());
        let mut opt = Optimizer::new(cfg.optimizer);
        apply_batch(&mut manual, &b.grads, &mut opt, cfg.learning_rate, 8.0, 0.0);

        // partition sums computed in any order, folded in fixed partition
        // order, give bitwise-identical gradients — the invariant the
        // distributed trainer relies on (float addition is not associative,
        // so only the fold *order* pins the result, not computation order)
        let mut split_model = Sequential::build(&classifier_spec(), 11).unwrap();
        let lo = trainer.batch_gradients(&split_model, &inputs, &labels, &batch[..4], 99).unwrap();
        let hi = trainer.batch_gradients(&split_model, &inputs, &labels, &batch[4..], 7).unwrap();
        let mut rev_model = Sequential::build(&classifier_spec(), 11).unwrap();
        let hi2 = trainer.batch_gradients(&rev_model, &inputs, &labels, &batch[4..], 7).unwrap();
        let lo2 = trainer.batch_gradients(&rev_model, &inputs, &labels, &batch[..4], 99).unwrap();
        let mut total = lo.grads;
        accumulate_grads(&mut total, &hi.grads);
        let mut total2 = lo2.grads;
        accumulate_grads(&mut total2, &hi2.grads);
        let mut opt2 = Optimizer::new(cfg.optimizer);
        apply_batch(&mut split_model, &total, &mut opt2, cfg.learning_rate, 8.0, 0.0);
        let mut opt3 = Optimizer::new(cfg.optimizer);
        apply_batch(&mut rev_model, &total2, &mut opt3, cfg.learning_rate, 8.0, 0.0);
        assert_eq!(snapshot(&split_model), snapshot(&rev_model));

        // out-of-range batch index is rejected
        assert!(trainer.batch_gradients(&manual, &inputs, &labels, &[999], 0).is_err());
    }

    #[test]
    fn zero_validation_split_trains() {
        let (inputs, labels) = blobs(10);
        let mut model = Sequential::build(&classifier_spec(), 4).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            validation_split: 0.0,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut model, &inputs, &labels).unwrap();
        assert!(report.val_loss.is_empty());
        assert_eq!(report.train_loss.len(), 3);
    }
}
