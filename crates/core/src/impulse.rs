//! Impulse design, training orchestration and end-to-end inference.

use crate::eval::{ConfusionMatrix, EvalReport};
use crate::{CoreError, Result};
use ei_data::{Dataset, Split};
use ei_dsp::{DspBlock, DspConfig};
use ei_nn::model::Layer;
use ei_nn::spec::{Dims, ModelSpec};
use ei_nn::train::{TrainConfig, Trainer, TrainingReport};
use ei_nn::Sequential;
use ei_quant::{quantize_model, QuantizedModel};
use ei_runtime::ModelArtifact;
use ei_tensor::ops::argmax;
use serde::{Deserialize, Serialize};

/// Extracted features, their label indices, and the sorted label names —
/// the triple the trainer consumes.
pub type ExtractedFeatures = (Vec<Vec<f32>>, Vec<usize>, Vec<String>);

/// The serializable design of an impulse: window size + DSP configuration.
///
/// This mirrors what a project stores (paper Fig. 2): the left-hand
/// "time series data" block (window) and the middle processing block. The
/// learn block's [`ModelSpec`] is supplied at training time because its
/// input dimensions derive from the DSP output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpulseDesign {
    /// Impulse name.
    pub name: String,
    /// Raw samples per classification window.
    pub window_samples: usize,
    /// Processing-block configuration.
    pub dsp: DspConfig,
}

impl ImpulseDesign {
    /// Creates a design, validating that the DSP block accepts the window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidImpulse`] for a zero-length window or a
    /// DSP block that rejects it.
    pub fn new(name: &str, window_samples: usize, dsp: DspConfig) -> Result<ImpulseDesign> {
        if window_samples == 0 {
            return Err(CoreError::InvalidImpulse("window must be non-zero".into()));
        }
        let block = dsp.build()?;
        block.output_len(window_samples)?;
        Ok(ImpulseDesign { name: name.to_string(), window_samples, dsp })
    }

    /// Instantiates the processing block.
    ///
    /// # Errors
    ///
    /// Propagates DSP configuration errors.
    pub fn dsp_block(&self) -> Result<Box<dyn DspBlock>> {
        Ok(self.dsp.build()?)
    }

    /// The learn block's input dimensions (the DSP output shape).
    ///
    /// # Errors
    ///
    /// Propagates DSP errors for incompatible windows.
    pub fn feature_dims(&self) -> Result<Dims> {
        let block = self.dsp_block()?;
        let (h, w, c) = block.output_shape(self.window_samples)?;
        Ok(Dims::new(h, w, c))
    }

    /// Runs the processing block over one split of a dataset, producing
    /// `(features, label indices, labels)` for the trainer.
    ///
    /// # Errors
    ///
    /// Fails when the split is empty or samples have the wrong length.
    pub fn extract_features(&self, dataset: &Dataset, split: Split) -> Result<ExtractedFeatures> {
        let block = self.dsp_block()?;
        let (raw, ys) = dataset.xy(split)?;
        // Windows fan out over the shared pool; each task length-checks
        // then processes its own sample — the same per-sample sequence as
        // the old serial loop — and the lowest-index error wins, so the
        // result (and the error on bad data) is identical to serial.
        let features = ei_par::ParPool::global().par_map_result(&raw, |sample| {
            if sample.len() != self.window_samples {
                return Err(CoreError::InvalidImpulse(format!(
                    "sample has {} values, impulse window is {}",
                    sample.len(),
                    self.window_samples
                )));
            }
            Ok(block.process(sample)?)
        })?;
        Ok((features, ys, dataset.labels()))
    }

    /// Trains a model spec on a dataset's training split: extracts
    /// features, initializes the classifier bias from class priors, and
    /// runs the trainer (paper §4.3).
    ///
    /// # Errors
    ///
    /// Fails when the model spec's input does not match the DSP output,
    /// the dataset is empty, or training data is inconsistent.
    pub fn train(
        &self,
        model_spec: &ModelSpec,
        dataset: &Dataset,
        config: &TrainConfig,
    ) -> Result<TrainedImpulse> {
        self.train_traced(model_spec, dataset, config, ei_trace::Tracer::disabled())
    }

    /// Like [`ImpulseDesign::train`], but the internal [`Trainer`] emits
    /// its `train` span and per-epoch `train.epoch` events through
    /// `tracer`.
    ///
    /// # Errors
    ///
    /// Same as [`ImpulseDesign::train`].
    pub fn train_traced(
        &self,
        model_spec: &ModelSpec,
        dataset: &Dataset,
        config: &TrainConfig,
        tracer: ei_trace::Tracer,
    ) -> Result<TrainedImpulse> {
        let dims = self.feature_dims()?;
        if model_spec.input != dims {
            return Err(CoreError::InvalidImpulse(format!(
                "model expects input {}, dsp produces {}",
                model_spec.input, dims
            )));
        }
        let (features, ys, labels) = self.extract_features(dataset, Split::Training)?;
        let n_classes = labels.len();
        let mut model = Sequential::build(model_spec, config.seed)?;
        if model.output_dims().len() != n_classes {
            return Err(CoreError::InvalidImpulse(format!(
                "model has {} outputs, dataset has {} classes",
                model.output_dims().len(),
                n_classes
            )));
        }
        let trainer = Trainer::new(config.clone()).with_tracer(tracer);
        trainer.init_class_bias(&mut model, &ys, n_classes)?;
        let report = trainer.train(&mut model, &features, &ys)?;
        Ok(TrainedImpulse { design: self.clone(), labels, model, report, feature_cache: features })
    }

    /// Trains a single-output regression model on numeric labels (the
    /// platform's regression learn block).
    ///
    /// # Errors
    ///
    /// Fails when labels are non-numeric, the model is not single-output,
    /// or windows are wrongly sized.
    pub fn train_regression(
        &self,
        model_spec: &ModelSpec,
        dataset: &Dataset,
        config: &TrainConfig,
    ) -> Result<RegressionImpulse> {
        self.train_regression_traced(model_spec, dataset, config, ei_trace::Tracer::disabled())
    }

    /// Like [`ImpulseDesign::train_regression`], but the internal
    /// [`Trainer`] reports per-epoch metrics through `tracer`.
    ///
    /// # Errors
    ///
    /// Same as [`ImpulseDesign::train_regression`].
    pub fn train_regression_traced(
        &self,
        model_spec: &ModelSpec,
        dataset: &Dataset,
        config: &TrainConfig,
        tracer: ei_trace::Tracer,
    ) -> Result<RegressionImpulse> {
        let dims = self.feature_dims()?;
        if model_spec.input != dims {
            return Err(CoreError::InvalidImpulse(format!(
                "model expects input {}, dsp produces {dims}",
                model_spec.input
            )));
        }
        let (raw, targets) = regression_xy(dataset, Split::Training, self.window_samples)?;
        let block = self.dsp_block()?;
        let mut features = Vec::with_capacity(raw.len());
        for sample in &raw {
            features.push(block.process(sample)?);
        }
        let mut model = Sequential::build(model_spec, config.seed)?;
        let trainer = Trainer::new(config.clone()).with_tracer(tracer);
        let report = trainer.train_regression(&mut model, &features, &targets)?;
        Ok(RegressionImpulse { design: self.clone(), model, report })
    }
}

/// Evaluation metrics of a regression impulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionEval {
    /// Mean absolute error.
    pub mae: f32,
    /// Root mean squared error.
    pub rmse: f32,
    /// Coefficient of determination (1 = perfect, 0 = predicting the mean).
    pub r2: f32,
    /// Samples evaluated.
    pub count: usize,
}

/// A trained regression impulse: processing block + single-output model.
///
/// The platform's regression learn block (used for continuous targets such
/// as the heat-strain index of the SlateSafety case study, paper §8.2).
/// Targets come from parsing each sample's label as a number.
#[derive(Debug, Clone)]
pub struct RegressionImpulse {
    design: ImpulseDesign,
    model: Sequential,
    report: TrainingReport,
}

impl RegressionImpulse {
    /// The impulse design.
    pub fn design(&self) -> &ImpulseDesign {
        &self.design
    }

    /// The trained model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// The training report (losses are MSE).
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// Predicts the target value for one raw window.
    ///
    /// # Errors
    ///
    /// Fails for wrongly sized windows.
    pub fn predict(&self, raw: &[f32]) -> Result<f32> {
        let block = self.design.dsp_block()?;
        let features = block.process(raw)?;
        Ok(self.model.forward(&features)?[0])
    }

    /// Evaluates MAE/RMSE/R² on one dataset split.
    ///
    /// # Errors
    ///
    /// Fails when the split is empty, labels are non-numeric, or windows
    /// are wrongly sized.
    pub fn evaluate(&self, dataset: &Dataset, split: Split) -> Result<RegressionEval> {
        let (raw, targets) = regression_xy(dataset, split, self.design.window_samples)?;
        let block = self.design.dsp_block()?;
        let mut abs_sum = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut preds = Vec::with_capacity(raw.len());
        for sample in &raw {
            let features = block.process(sample)?;
            preds.push(self.model.forward(&features)?[0]);
        }
        for (&p, &t) in preds.iter().zip(&targets) {
            abs_sum += (p - t).abs() as f64;
            sq_sum += ((p - t) as f64).powi(2);
        }
        let n = targets.len() as f64;
        let mean_t = targets.iter().map(|&t| t as f64).sum::<f64>() / n;
        let total_var: f64 = targets.iter().map(|&t| (t as f64 - mean_t).powi(2)).sum();
        let r2 = if total_var > 1e-12 { 1.0 - sq_sum / total_var } else { 0.0 };
        Ok(RegressionEval {
            mae: (abs_sum / n) as f32,
            rmse: (sq_sum / n).sqrt() as f32,
            r2: r2 as f32,
            count: targets.len(),
        })
    }
}

/// Extracts `(windows, numeric targets)` from a split by parsing labels.
fn regression_xy(
    dataset: &Dataset,
    split: Split,
    window: usize,
) -> Result<(Vec<Vec<f32>>, Vec<f32>)> {
    let mut raw = Vec::new();
    let mut targets = Vec::new();
    for sample in dataset.split(split) {
        let Some(label) = sample.label() else { continue };
        let target: f32 = label.parse().map_err(|_| {
            CoreError::InvalidImpulse(format!("regression label {label:?} is not numeric"))
        })?;
        if sample.len() != window {
            return Err(CoreError::InvalidImpulse(format!(
                "sample has {} values, impulse window is {window}",
                sample.len()
            )));
        }
        raw.push(sample.values().to_vec());
        targets.push(target);
    }
    if raw.is_empty() {
        return Err(CoreError::Data(format!("no labeled samples in {split:?} split")));
    }
    Ok((raw, targets))
}

/// Format version of [`SavedImpulse`] payloads.
const SAVED_IMPULSE_VERSION: u32 = 1;

/// The serialized form of a trained impulse (see
/// [`TrainedImpulse::to_json`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SavedImpulse {
    format_version: u32,
    design: ImpulseDesign,
    labels: Vec<String>,
    model: SavedModel,
    calibration: Vec<Vec<f32>>,
}

/// A [`Sequential`] as it serializes. A loaded one is reassembled by
/// [`Sequential::from_parts`], which checks every layer's shapes against
/// its spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SavedModel {
    spec: ModelSpec,
    layers: Vec<Layer>,
}

/// One end-to-end classification result.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Winning label.
    pub label: String,
    /// Winning probability.
    pub confidence: f32,
    /// Full probability vector in label order.
    pub probabilities: Vec<f32>,
    /// Index of the winning label.
    pub label_index: usize,
}

/// A trained impulse: processing block + trained model + label map.
#[derive(Debug, Clone)]
pub struct TrainedImpulse {
    design: ImpulseDesign,
    labels: Vec<String>,
    model: Sequential,
    report: TrainingReport,
    /// Training-split features kept for quantization calibration.
    feature_cache: Vec<Vec<f32>>,
}

impl TrainedImpulse {
    /// Assembles a trained impulse from externally trained parts — the
    /// entry point for alternative training backends (e.g. the `ei-dist`
    /// parameter-server trainer) that run the optimization loop
    /// themselves. `feature_cache` must be the training-split features
    /// the model was fitted on; quantization calibrates against it.
    pub fn from_parts(
        design: ImpulseDesign,
        labels: Vec<String>,
        model: Sequential,
        report: TrainingReport,
        feature_cache: Vec<Vec<f32>>,
    ) -> TrainedImpulse {
        TrainedImpulse { design, labels, model, report, feature_cache }
    }

    /// The impulse design.
    pub fn design(&self) -> &ImpulseDesign {
        &self.design
    }

    /// Class labels in output order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The trained float model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// The training report.
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// Classifies one raw window (DSP + NN).
    ///
    /// # Errors
    ///
    /// Fails for wrongly sized windows.
    pub fn classify(&self, raw: &[f32]) -> Result<Classification> {
        let block = self.design.dsp_block()?;
        let features = block.process(raw)?;
        let probabilities = self.model.forward(&features)?;
        Ok(self.classification_from(probabilities))
    }

    /// Classifies using an arbitrary artifact (float or quantized), so
    /// evaluation can compare both paths.
    ///
    /// # Errors
    ///
    /// Fails for wrongly sized windows.
    pub fn classify_with(&self, artifact: &ModelArtifact, raw: &[f32]) -> Result<Classification> {
        let block = self.design.dsp_block()?;
        let features = block.process(raw)?;
        let probabilities = artifact.run_reference(&features)?;
        Ok(self.classification_from(probabilities))
    }

    fn classification_from(&self, probabilities: Vec<f32>) -> Classification {
        let label_index = argmax(&probabilities);
        Classification {
            label: self.labels.get(label_index).cloned().unwrap_or_default(),
            confidence: probabilities.get(label_index).copied().unwrap_or(0.0),
            probabilities,
            label_index,
        }
    }

    /// Post-training int8 quantization calibrated on the training features.
    ///
    /// # Errors
    ///
    /// Propagates quantization failures.
    pub fn quantized(&self) -> Result<QuantizedModel> {
        let calib = &self.feature_cache[..self.feature_cache.len().min(64)];
        Ok(quantize_model(&self.model, calib)?)
    }

    /// The float deployment artifact.
    pub fn float_artifact(&self) -> ModelArtifact {
        ModelArtifact::Float(self.model.clone())
    }

    /// The int8 deployment artifact.
    ///
    /// # Errors
    ///
    /// Propagates quantization failures.
    pub fn int8_artifact(&self) -> Result<ModelArtifact> {
        Ok(ModelArtifact::Int8(self.quantized()?))
    }

    /// Serializes the trained impulse (design, labels, weights and the
    /// quantization-calibration features) as versioned JSON — the artifact
    /// a model registry stores and a teammate reloads byte-identically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidImpulse`] on serialization failure.
    pub fn to_json(&self) -> Result<String> {
        let saved = SavedImpulse {
            format_version: SAVED_IMPULSE_VERSION,
            design: self.design.clone(),
            labels: self.labels.clone(),
            model: SavedModel {
                spec: self.model.spec().clone(),
                layers: self.model.layers().to_vec(),
            },
            calibration: self.feature_cache.iter().take(64).cloned().collect(),
        };
        serde_json::to_string(&saved).map_err(|e| CoreError::InvalidImpulse(e.to_string()))
    }

    /// Reloads a trained impulse saved by [`TrainedImpulse::to_json`].
    ///
    /// The training report is not persisted; the reloaded impulse carries
    /// an empty one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidImpulse`] for malformed JSON, an
    /// unsupported format version, a model whose layers do not match
    /// their specs (shapes, weights or biases), or a model that does not
    /// match the design's feature dimensions.
    pub fn from_json(json: &str) -> Result<TrainedImpulse> {
        let saved: SavedImpulse =
            serde_json::from_str(json).map_err(|e| CoreError::InvalidImpulse(e.to_string()))?;
        if saved.format_version != SAVED_IMPULSE_VERSION {
            return Err(CoreError::InvalidImpulse(format!(
                "unsupported saved-impulse version {}",
                saved.format_version
            )));
        }
        let dims = saved.design.feature_dims()?;
        let model = Sequential::from_parts(saved.model.spec, saved.model.layers)
            .map_err(|e| CoreError::InvalidImpulse(format!("saved model: {e}")))?;
        if model.input_dims() != dims {
            return Err(CoreError::InvalidImpulse(format!(
                "saved model expects {}, design produces {dims}",
                model.input_dims()
            )));
        }
        if model.output_dims().len() != saved.labels.len() {
            return Err(CoreError::InvalidImpulse(format!(
                "saved model has {} outputs for {} labels",
                model.output_dims().len(),
                saved.labels.len()
            )));
        }
        Ok(TrainedImpulse {
            design: saved.design,
            labels: saved.labels,
            model,
            report: TrainingReport::default(),
            feature_cache: saved.calibration,
        })
    }

    /// Transfer learning (paper §4.3): reuses this impulse's feature
    /// extractor on a *new* classification task.
    ///
    /// Builds a model with the same body but a fresh classifier head sized
    /// for the new dataset's classes, copies every compatible layer's
    /// weights, freezes the first `freeze_layers` layers, and fine-tunes on
    /// the new data.
    ///
    /// # Errors
    ///
    /// Fails when the new dataset's windows do not match the design or
    /// training fails.
    pub fn transfer_to(
        &self,
        dataset: &Dataset,
        freeze_layers: usize,
        config: &TrainConfig,
    ) -> Result<TrainedImpulse> {
        let new_labels = dataset.labels();
        // same body, new head: swap the units of the last Dense layer
        let mut spec = self.model.spec().clone();
        let head = spec
            .layers
            .iter()
            .rposition(|l| matches!(l, ei_nn::spec::LayerSpec::Dense { .. }))
            .ok_or_else(|| {
                CoreError::InvalidImpulse("model has no dense head to replace".into())
            })?;
        if let ei_nn::spec::LayerSpec::Dense { units, .. } = &mut spec.layers[head] {
            *units = new_labels.len();
        }
        let mut model = Sequential::build(&spec, config.seed)?;
        // copy weights for every layer whose shapes survived the head swap
        for (new_layer, old_layer) in
            model.layers_mut().iter_mut().zip(self.model.layers()).take(head)
        {
            if let (Some(nw), Some(ow)) = (&new_layer.weights, &old_layer.weights) {
                if nw.shape() == ow.shape() {
                    new_layer.weights = Some(ow.clone());
                    new_layer.bias = old_layer.bias.clone();
                }
            }
        }
        model.freeze_first(freeze_layers.min(head));
        let (features, ys, labels) = self.design.extract_features(dataset, Split::Training)?;
        let trainer = Trainer::new(config.clone());
        trainer.init_class_bias(&mut model, &ys, labels.len())?;
        let report = trainer.train(&mut model, &features, &ys)?;
        Ok(TrainedImpulse {
            design: self.design.clone(),
            labels,
            model,
            report,
            feature_cache: features,
        })
    }

    /// Evaluates an artifact on one dataset split, producing the confusion
    /// matrix and summary metrics (paper §4.4).
    ///
    /// # Errors
    ///
    /// Fails when the split is empty or windows are wrongly sized.
    pub fn evaluate(
        &self,
        artifact: &ModelArtifact,
        dataset: &Dataset,
        split: Split,
    ) -> Result<EvalReport> {
        let block = self.design.dsp_block()?;
        let (raw, ys) = dataset.xy(split)?;
        let mut matrix = ConfusionMatrix::new(self.labels.clone());
        for (sample, &truth) in raw.iter().zip(&ys) {
            let features = block.process(sample)?;
            let probs = artifact.run_reference(&features)?;
            matrix.record(truth, argmax(&probs));
        }
        Ok(EvalReport::from_matrix(matrix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_data::synth::KwsGenerator;
    use ei_dsp::MfccConfig;
    use ei_nn::presets;
    use ei_nn::spec::{Activation, LayerSpec};

    fn small_generator() -> KwsGenerator {
        KwsGenerator {
            classes: vec!["alpha".into(), "beta".into()],
            sample_rate_hz: 4_000,
            duration_s: 0.25,
            noise: 0.02,
        }
    }

    fn small_design() -> ImpulseDesign {
        ImpulseDesign::new(
            "test-kws",
            1_000,
            DspConfig::Mfcc(MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 10,
                n_filters: 20,
                sample_rate_hz: 4_000,
            }),
        )
        .unwrap()
    }

    fn quick_config() -> TrainConfig {
        TrainConfig { epochs: 12, batch_size: 8, learning_rate: 0.01, ..TrainConfig::default() }
    }

    #[test]
    fn design_validation() {
        assert!(ImpulseDesign::new("x", 0, DspConfig::Mfcc(MfccConfig::default())).is_err());
        // window shorter than one frame
        assert!(ImpulseDesign::new("x", 10, DspConfig::Mfcc(MfccConfig::default())).is_err());
        let d = small_design();
        let dims = d.feature_dims().unwrap();
        assert_eq!(dims.c, 1);
        assert_eq!(dims.w, 10);
    }

    #[test]
    fn end_to_end_training_learns_synthetic_keywords() {
        let gen = small_generator();
        let dataset = gen.dataset(20, 11);
        let design = small_design();
        let dims = design.feature_dims().unwrap();
        let spec = presets::dense_mlp(dims, 2, 24);
        let trained = design.train(&spec, &dataset, &quick_config()).unwrap();
        // evaluate on the held-out split
        let report = trained.evaluate(&trained.float_artifact(), &dataset, Split::Testing).unwrap();
        assert!(report.accuracy > 0.8, "test accuracy {}", report.accuracy);
        // classify a fresh clip
        let clip = gen.generate(1, 999);
        let result = trained.classify(&clip).unwrap();
        assert_eq!(result.probabilities.len(), 2);
        assert!(result.confidence >= 0.5);
    }

    #[test]
    fn quantized_accuracy_close_to_float() {
        let gen = small_generator();
        let dataset = gen.dataset(15, 3);
        let design = small_design();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 16);
        let trained = design.train(&spec, &dataset, &quick_config()).unwrap();
        let float_eval =
            trained.evaluate(&trained.float_artifact(), &dataset, Split::Testing).unwrap();
        let int8_eval =
            trained.evaluate(&trained.int8_artifact().unwrap(), &dataset, Split::Testing).unwrap();
        assert!(
            (float_eval.accuracy - int8_eval.accuracy).abs() <= 0.25,
            "float {} vs int8 {}",
            float_eval.accuracy,
            int8_eval.accuracy
        );
    }

    #[test]
    fn train_rejects_mismatched_model() {
        let dataset = small_generator().dataset(4, 1);
        let design = small_design();
        // wrong input dims
        let bad = presets::dense_mlp(Dims::new(1, 7, 1), 2, 8);
        assert!(design.train(&bad, &dataset, &quick_config()).is_err());
        // wrong class count
        let wrong_classes = presets::dense_mlp(design.feature_dims().unwrap(), 5, 8);
        assert!(design.train(&wrong_classes, &dataset, &quick_config()).is_err());
    }

    #[test]
    fn classify_rejects_wrong_window() {
        let dataset = small_generator().dataset(4, 1);
        let design = small_design();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
        let trained = design.train(&spec, &dataset, &quick_config()).unwrap();
        assert!(trained.classify(&[0.0; 10]).is_err());
    }

    #[test]
    fn design_serde_round_trip() {
        let d = small_design();
        let json = serde_json::to_string(&d).unwrap();
        let back: ImpulseDesign = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn extract_features_shapes() {
        let dataset = small_generator().dataset(5, 2);
        let design = small_design();
        let (features, ys, labels) = design.extract_features(&dataset, Split::Training).unwrap();
        assert_eq!(features.len(), ys.len());
        assert_eq!(labels, vec!["alpha".to_string(), "beta".to_string()]);
        let expected = design.feature_dims().unwrap().len();
        assert!(features.iter().all(|f| f.len() == expected));
    }

    #[test]
    fn save_load_round_trip_preserves_behavior() {
        let gen = small_generator();
        let dataset = gen.dataset(10, 8);
        let design = small_design();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 16);
        let trained = design.train(&spec, &dataset, &quick_config()).unwrap();
        let json = trained.to_json().unwrap();
        let reloaded = TrainedImpulse::from_json(&json).unwrap();
        assert_eq!(reloaded.labels(), trained.labels());
        let clip = gen.generate(0, 123);
        assert_eq!(
            reloaded.classify(&clip).unwrap().probabilities,
            trained.classify(&clip).unwrap().probabilities,
            "reloaded model must be byte-identical"
        );
        // quantization also survives (calibration features persisted)
        let q = reloaded.int8_artifact().unwrap();
        assert!(q.is_quantized());
    }

    #[test]
    fn from_json_rejects_bad_payloads() {
        assert!(TrainedImpulse::from_json("not json").is_err());
        // version mismatch
        let gen = small_generator();
        let dataset = gen.dataset(4, 1);
        let design = small_design();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
        let trained = design.train(&spec, &dataset, &quick_config()).unwrap();
        let json =
            trained.to_json().unwrap().replace("\"format_version\":1", "\"format_version\":99");
        assert!(TrainedImpulse::from_json(&json).is_err());
    }

    #[test]
    fn from_json_refuses_an_oversized_dsp_frame_without_allocating_it() {
        let dataset = small_generator().dataset(4, 1);
        let design = small_design();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
        let json = design.train(&spec, &dataset, &quick_config()).unwrap().to_json().unwrap();
        // a 10^6 s frame at 4 kHz would plan a 2^32-point FFT and a Mel
        // bank of 2^31 bins per filter
        let hostile = json.replacen("\"frame_s\":0.032", "\"frame_s\":1000000.0", 1);
        assert_ne!(hostile, json, "the design's frame length is in the payload");
        let err = TrainedImpulse::from_json(&hostile).unwrap_err();
        assert!(err.to_string().contains("maximum"), "{err}");
    }

    /// A saved dense-MLP impulse (hidden layers 8 and 4 wide).
    fn saved_mlp_json() -> String {
        let dataset = small_generator().dataset(4, 1);
        let design = small_design();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
        design.train(&spec, &dataset, &quick_config()).unwrap().to_json().unwrap()
    }

    /// The message of the `InvalidImpulse` that loading `json` must return.
    fn invalid_impulse(json: &str) -> String {
        match TrainedImpulse::from_json(json) {
            Err(CoreError::InvalidImpulse(m)) => m,
            other => panic!("expected InvalidImpulse, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn from_json_rejects_a_layer_wider_than_its_weights() {
        // the hidden layer widened in the model spec and in the layer alike:
        // its stored 8-wide weights no longer fit, and a forward pass would
        // slice past them on every request
        let json = saved_mlp_json();
        let (narrow, wide) = ("{\"Dense\":{\"units\":8", "{\"Dense\":{\"units\":9");
        assert_eq!(json.matches(narrow).count(), 2);
        let message = invalid_impulse(&json.replace(narrow, wide));
        assert!(message.contains("resolves to 1x1x9"), "{message}");
    }

    #[test]
    fn from_json_rejects_a_parameterized_layer_without_weights() {
        let json = saved_mlp_json();
        // null the first weight tensor: the first dense layer's
        let at = json.find("\"weights\":{").unwrap() + "\"weights\":".len();
        let mut depth = 0usize;
        let len = json[at..]
            .find(|c| {
                depth = match c {
                    '{' => depth + 1,
                    '}' => depth - 1,
                    _ => depth,
                };
                depth == 0
            })
            .unwrap();
        let message = invalid_impulse(&format!("{}null{}", &json[..at], &json[at + len + 1..]));
        assert!(message.contains("weights missing"), "{message}");
    }

    #[test]
    fn transfer_learning_reuses_the_body() {
        let gen = small_generator();
        let base_dataset = gen.dataset(15, 4);
        let design = small_design();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 24);
        let base = design.train(&spec, &base_dataset, &quick_config()).unwrap();

        // new task: three classes with different names
        let new_gen = KwsGenerator {
            classes: vec!["gamma".into(), "delta".into(), "epsilon".into()],
            ..small_generator()
        };
        let new_dataset = new_gen.dataset(12, 9);
        let transferred = base.transfer_to(&new_dataset, 2, &quick_config()).unwrap();
        assert_eq!(transferred.labels().len(), 3);
        // frozen body layers kept the base weights
        let base_w = base.model().layers()[1].weights.as_ref().unwrap();
        let new_w = transferred.model().layers()[1].weights.as_ref().unwrap();
        assert_eq!(base_w, new_w, "frozen transferred layer must keep base weights");
        // and the new task is learnable
        let eval = transferred
            .evaluate(&transferred.float_artifact(), &new_dataset, Split::Testing)
            .unwrap();
        assert!(eval.accuracy > 0.6, "transfer accuracy {}", eval.accuracy);
    }

    #[test]
    fn regression_impulse_predicts_signal_amplitude() {
        use ei_data::{Sample, SensorKind};
        use ei_dsp::SpectralConfig;
        // windows of a 5 Hz sine whose amplitude is the target
        let window = 128usize;
        let make = |amp: f32, phase: f32| -> Vec<f32> {
            (0..window)
                .map(|t| amp * (2.0 * std::f32::consts::PI * 5.0 * t as f32 / 100.0 + phase).sin())
                .collect()
        };
        let mut ds = ei_data::Dataset::new("amplitude");
        for i in 0..40 {
            let amp = 0.2 + (i % 10) as f32 * 0.15;
            ds.add(
                Sample::new(0, make(amp, i as f32 * 0.37), SensorKind::Inertial)
                    .with_label(&format!("{amp}")),
            );
        }
        let design = ImpulseDesign::new(
            "regress",
            window,
            DspConfig::Spectral(SpectralConfig {
                axes: 1,
                fft_len: 128,
                n_buckets: 8,
                sample_rate_hz: 100,
            }),
        )
        .unwrap();
        let dims = design.feature_dims().unwrap();
        let spec = ModelSpec::new(dims)
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 12, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 1, activation: Activation::None });
        let model = design
            .train_regression(
                &spec,
                &ds,
                &TrainConfig { epochs: 200, learning_rate: 0.01, ..TrainConfig::default() },
            )
            .unwrap();
        let eval = model.evaluate(&ds, Split::Testing).unwrap();
        assert!(eval.rmse < 0.15, "rmse {}", eval.rmse);
        assert!(eval.r2 > 0.8, "r2 {}", eval.r2);
        // prediction tracks an unseen amplitude
        let pred = model.predict(&make(1.0, 0.1)).unwrap();
        assert!((pred - 1.0).abs() < 0.25, "pred {pred}");
    }

    #[test]
    fn regression_rejects_non_numeric_labels() {
        let dataset = small_generator().dataset(4, 1); // labels "alpha"/"beta"
        let design = small_design();
        let dims = design.feature_dims().unwrap();
        let spec = ModelSpec::new(dims)
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 1, activation: Activation::None });
        assert!(matches!(
            design.train_regression(&spec, &dataset, &quick_config()),
            Err(CoreError::InvalidImpulse(_))
        ));
    }

    #[test]
    fn custom_model_specs_work() {
        // a conv1d model through the full pipeline
        let dataset = small_generator().dataset(8, 5);
        let design = small_design();
        let dims = design.feature_dims().unwrap();
        let spec = ModelSpec::new(dims)
            .named("tiny-conv")
            .layer(LayerSpec::Reshape { h: 1, w: dims.h, c: dims.w * dims.c })
            .layer(LayerSpec::Conv1d {
                filters: 8,
                kernel: 3,
                stride: 1,
                padding: ei_nn::spec::Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::GlobalAvgPool)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        let trained = design.train(&spec, &dataset, &quick_config()).unwrap();
        assert_eq!(trained.labels().len(), 2);
    }
}
