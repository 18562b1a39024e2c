//! Deployable model artifacts and per-op resource metadata.

use ei_nn::spec::{Dims, LayerSpec};
use ei_nn::Sequential;
use ei_quant::QuantizedModel;

use crate::{Result, RuntimeError};

/// Per-op resource metadata derived from a model, independent of engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpInfo {
    /// Kernel-style op name (e.g. `"conv2d"`).
    pub name: &'static str,
    /// Multiply–accumulate count of one execution.
    pub macs: u64,
    /// Parameter bytes stored in flash for this op.
    pub weight_bytes: usize,
    /// Input activation element count.
    pub input_elems: usize,
    /// Output activation element count.
    pub output_elems: usize,
    /// `true` for ops that alias their input buffer (no new activation).
    pub in_place: bool,
}

/// Whether an op aliases its input buffer instead of producing a new one.
pub fn op_in_place(spec: &LayerSpec) -> bool {
    matches!(spec, LayerSpec::Reshape { .. } | LayerSpec::Flatten | LayerSpec::Dropout { .. })
}

/// A deployable model: trained float weights or a fully int8 artifact.
///
/// This is what the platform's deployment stage converts and what both
/// engines execute.
#[derive(Debug, Clone)]
pub enum ModelArtifact {
    /// float32 weights and activations.
    Float(Sequential),
    /// Fully int8 weights and activations.
    Int8(QuantizedModel),
}

impl ModelArtifact {
    /// Architecture name.
    pub fn name(&self) -> &str {
        match self {
            ModelArtifact::Float(m) => &m.spec().name,
            ModelArtifact::Int8(m) => m.name(),
        }
    }

    /// `true` for the quantized variant.
    pub fn is_quantized(&self) -> bool {
        matches!(self, ModelArtifact::Int8(_))
    }

    /// Bytes per activation element (4 for float, 1 for int8).
    pub fn activation_elem_bytes(&self) -> usize {
        if self.is_quantized() {
            1
        } else {
            4
        }
    }

    /// Input element count.
    pub fn input_len(&self) -> usize {
        match self {
            ModelArtifact::Float(m) => m.input_dims().len(),
            ModelArtifact::Int8(m) => m.input_dims().len(),
        }
    }

    /// Output element count.
    pub fn output_len(&self) -> usize {
        match self {
            ModelArtifact::Float(m) => m.output_dims().len(),
            ModelArtifact::Int8(m) => m.output_dims().len(),
        }
    }

    /// Total parameter bytes as stored in flash.
    pub fn weight_bytes(&self) -> usize {
        match self {
            ModelArtifact::Float(m) => m.param_count() * 4,
            ModelArtifact::Int8(m) => m.weight_bytes(),
        }
    }

    /// Per-op metadata in execution order.
    pub fn ops(&self) -> Vec<OpInfo> {
        let op = |spec: &LayerSpec, input: Dims, output: Dims, weight_bytes| OpInfo {
            name: spec.op_name(),
            macs: spec.macs(input),
            weight_bytes,
            input_elems: input.len(),
            output_elems: output.len(),
            in_place: op_in_place(spec),
        };
        match self {
            ModelArtifact::Float(m) => m
                .layers()
                .iter()
                .map(|l| op(&l.spec, l.input, l.output, l.param_count() * 4))
                .collect(),
            ModelArtifact::Int8(m) => m
                .layers()
                .iter()
                .map(|l| op(&l.spec, l.input, l.output, l.weight_bytes()))
                .collect(),
        }
    }

    /// Distinct op kinds used (for kernel linking / dead-code elimination).
    pub fn op_kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.ops().iter().map(|o| o.name).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// Executes the artifact through its dtype's one walk (no engine
    /// bookkeeping): both engines' `run`.
    ///
    /// # Errors
    ///
    /// Fails for wrongly sized input.
    pub fn run_reference(&self, input: &[f32]) -> Result<Vec<f32>> {
        match self {
            ModelArtifact::Float(m) => m.forward(input).map_err(RuntimeError::from),
            ModelArtifact::Int8(m) => m.forward(input).map_err(RuntimeError::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_nn::spec::{Activation, ModelSpec, Padding};

    fn float_model() -> Sequential {
        let spec = ModelSpec::new(Dims::new(8, 8, 1))
            .named("test-cnn")
            .layer(LayerSpec::Conv2d {
                filters: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::MaxPool { size: 2 })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        Sequential::build(&spec, 7).unwrap()
    }

    #[test]
    fn float_artifact_metadata() {
        let model = float_model();
        let artifact = ModelArtifact::Float(model.clone());
        assert_eq!(artifact.name(), "test-cnn");
        assert!(!artifact.is_quantized());
        assert_eq!(artifact.activation_elem_bytes(), 4);
        assert_eq!(artifact.input_len(), 64);
        assert_eq!(artifact.output_len(), 3);
        assert_eq!(artifact.weight_bytes(), model.param_count() * 4);
        let ops = artifact.ops();
        assert_eq!(ops.len(), 5);
        assert_eq!(ops[0].name, "conv2d");
        assert!(ops[2].in_place, "flatten is in-place");
        // op macs agree with the model's own accounting
        let total: u64 = ops.iter().map(|o| o.macs).sum();
        assert_eq!(total, model.macs());
    }

    #[test]
    fn square_and_rect_conv_are_the_same_op() {
        let build = |conv| {
            let spec = ModelSpec::new(Dims::new(6, 6, 2))
                .layer(conv)
                .layer(LayerSpec::Flatten)
                .layer(LayerSpec::Dense { units: 3, activation: Activation::None });
            Sequential::build(&spec, 99).unwrap()
        };
        let square = build(LayerSpec::Conv2d {
            filters: 4,
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
            activation: Activation::Relu,
        });
        let rect = build(LayerSpec::Conv2dRect {
            filters: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
            activation: Activation::Relu,
        });
        let (fs, fr) = (ModelArtifact::Float(square.clone()), ModelArtifact::Float(rect.clone()));
        assert_eq!(fs.ops(), fr.ops());
        let calib: Vec<Vec<f32>> = (0..4)
            .map(|s| (0..72).map(|i| ((i * 7 + s) % 11) as f32 * 0.1 - 0.5).collect())
            .collect();
        let qs = ei_quant::quantize_model(&square, &calib).unwrap();
        let qr = ei_quant::quantize_model(&rect, &calib).unwrap();
        for x in &calib {
            assert_eq!(qs.trace_raw(x).unwrap(), qr.trace_raw(x).unwrap());
        }
        assert_eq!(ModelArtifact::Int8(qs).ops(), ModelArtifact::Int8(qr).ops());
    }

    #[test]
    fn int8_artifact_smaller() {
        let model = float_model();
        let calib = vec![vec![0.2f32; 64], vec![-0.3f32; 64]];
        let qmodel = ei_quant::quantize_model(&model, &calib).unwrap();
        let fa = ModelArtifact::Float(model);
        let qa = ModelArtifact::Int8(qmodel);
        assert!(qa.weight_bytes() < fa.weight_bytes() / 3);
        assert_eq!(qa.activation_elem_bytes(), 1);
        assert_eq!(qa.ops().len(), fa.ops().len());
    }

    #[test]
    fn op_kinds_deduplicated() {
        let artifact = ModelArtifact::Float(float_model());
        let kinds = artifact.op_kinds();
        assert!(kinds.contains(&"conv2d"));
        assert!(kinds.contains(&"dense"));
        let mut sorted = kinds.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len());
    }

    #[test]
    fn reference_run_matches_model() {
        let model = float_model();
        let artifact = ModelArtifact::Float(model.clone());
        let input = vec![0.25f32; 64];
        assert_eq!(artifact.run_reference(&input).unwrap(), model.forward(&input).unwrap());
        assert!(artifact.run_reference(&[0.0; 3]).is_err());
    }
}
