//! Compiled sequential models: shape inference, forward, backward.

use std::borrow::Cow;

use crate::layers::conv::{conv1d_backward, conv2d_backward, depthwise_backward};
use crate::layers::dense::dense_backward;
use crate::layers::pool::{
    avgpool2d_backward, avgpool2d_forward, global_avg_backward, global_avg_forward,
    maxpool2d_backward, maxpool2d_forward, pool_out,
};
use crate::par::{
    conv1d_forward_auto, conv2d_forward_auto, dense_forward_auto, depthwise_forward_auto,
};
use crate::resolve::{elems, Kernel, Resolved};
#[cfg(test)]
use crate::spec::Padding;
use crate::spec::{Activation, Dims, LayerSpec, ModelSpec};
use crate::{NnError, Result};
use ei_par::ParPool;
use ei_tensor::init::{init_tensor, Init};
use ei_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Epsilon used by batch normalization.
const BN_EPS: f32 = 1e-3;

/// A compiled layer: spec, resolved shapes and (optional) parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Layer {
    /// The architecture description this layer was built from.
    pub spec: LayerSpec,
    /// Input activation dimensions.
    pub input: Dims,
    /// Output activation dimensions.
    pub output: Dims,
    /// Weight tensor, if the layer has one.
    pub weights: Option<Tensor>,
    /// Bias tensor, if the layer has one.
    pub bias: Option<Tensor>,
    /// Frozen layers are skipped by the optimizer (transfer learning).
    pub frozen: bool,
}

impl Layer {
    /// Trainable parameter count (frozen layers still report theirs).
    pub fn param_count(&self) -> usize {
        self.weights.as_ref().map_or(0, Tensor::len) + self.bias.as_ref().map_or(0, Tensor::len)
    }

    /// Multiply–accumulate count of one forward pass.
    pub fn macs(&self) -> u64 {
        self.spec.macs(self.input)
    }

    /// This layer's spec resolved against its input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] when the spec does not fit the
    /// input (see [`LayerSpec::resolve`]).
    pub fn resolve(&self) -> Result<Resolved> {
        self.spec.resolve(self.input)
    }

    /// The weights and bias as `f32` values; an absent bias is empty.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] when the layer has no weights or holds
    /// non-`f32` parameters.
    pub fn params(&self) -> Result<(&[f32], &[f32])> {
        let weights = self.weights.as_ref().ok_or_else(|| {
            NnError::Tensor(format!("{} layer has no weights", self.spec.op_name()))
        })?;
        let bias = match &self.bias {
            Some(b) => b.as_f32()?,
            None => &[],
        };
        Ok((weights.as_f32()?, bias))
    }
}

/// Per-layer parameter gradients produced by one backward pass.
#[derive(Debug, Clone, Default)]
pub struct LayerGrads {
    /// Gradient w.r.t. the weight tensor, if the layer has weights.
    pub weights: Option<Vec<f32>>,
    /// Gradient w.r.t. the bias tensor, if the layer has a bias.
    pub bias: Option<Vec<f32>>,
}

/// Intermediate activations recorded during a cached forward pass.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `activations[0]` is the input; `activations[i + 1]` is layer `i`'s output.
    pub activations: Vec<Vec<f32>>,
    /// Dropout masks (1.0 = kept, 0.0 = dropped), recorded per layer.
    pub masks: Vec<Option<Vec<f32>>>,
}

impl ForwardCache {
    /// The model output (last activation).
    pub fn output(&self) -> &[f32] {
        self.activations.last().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A compiled sequential model.
///
/// Built from a [`ModelSpec`] with [`Sequential::build`]; supports
/// inference ([`Sequential::forward`]), cached training passes and
/// backpropagation, plus the resource accounting (`macs`, `param_count`)
/// that the device cost model consumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    spec: ModelSpec,
    layers: Vec<Layer>,
}

impl Sequential {
    /// Compiles a spec: resolves every layer (see [`LayerSpec::resolve`])
    /// and initializes parameters deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] when a layer is incompatible with
    /// its input shape (e.g. a kernel larger than the activation, a 1-D
    /// convolution on 2-D data, or a reshape that changes the element count).
    pub fn build(spec: &ModelSpec, seed: u64) -> Result<Sequential> {
        let mut layers = Vec::with_capacity(spec.layers.len());
        let mut dims = spec.input;
        for (index, layer_spec) in spec.layers.iter().enumerate() {
            let r = resolve_at(layer_spec, index, dims)?;
            let (weights, bias) = init_params(&r, seed.wrapping_add(index as u64 * 0x9e37_79b9))?;
            layers.push(Layer {
                spec: layer_spec.clone(),
                input: dims,
                output: r.output,
                weights,
                bias,
                frozen: matches!(r.kernel, Kernel::BatchNorm),
            });
            dims = r.output;
        }
        Ok(Sequential { spec: spec.clone(), layers })
    }

    /// Reassembles a model from a spec and pre-built layers, checking each
    /// layer against [`LayerSpec::resolve`].
    ///
    /// Used by graph transforms (operator fusion, quantization) that edit
    /// the layer list while preserving trained parameters, and by loaders
    /// of serialized models.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] when the layer chain's shapes do
    /// not connect or do not match the spec, or when a layer's output
    /// dimensions, weight shape or bias length differ from what its spec
    /// resolves to.
    pub fn from_parts(spec: ModelSpec, layers: Vec<Layer>) -> Result<Sequential> {
        if spec.layers.len() != layers.len() {
            return Err(NnError::InvalidLayer {
                index: 0,
                reason: format!(
                    "spec has {} layers but {} were provided",
                    spec.layers.len(),
                    layers.len()
                ),
            });
        }
        let mut dims = spec.input;
        for (index, (layer, layer_spec)) in layers.iter().zip(&spec.layers).enumerate() {
            let invalid = |reason: String| NnError::InvalidLayer { index, reason };
            if layer.input != dims {
                return Err(invalid(format!(
                    "expected input {dims}, layer declares {}",
                    layer.input
                )));
            }
            if layer.spec != *layer_spec {
                return Err(invalid("layer spec does not match model spec".into()));
            }
            let r = resolve_at(&layer.spec, index, dims)?;
            if layer.output != r.output {
                return Err(invalid(format!(
                    "layer declares output {}, its spec resolves to {}",
                    layer.output, r.output
                )));
            }
            check_param("weights", layer.weights.as_ref(), r.weight_dims()).map_err(invalid)?;
            check_param("bias", layer.bias.as_ref(), r.bias_len().map(|n| vec![n]))
                .map_err(invalid)?;
            dims = r.output;
        }
        Ok(Sequential { spec, layers })
    }

    /// The spec this model was compiled from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Input dimensions.
    pub fn input_dims(&self) -> Dims {
        self.spec.input
    }

    /// Output dimensions.
    pub fn output_dims(&self) -> Dims {
        self.layers.last().map_or(self.spec.input, |l| l.output)
    }

    /// Compiled layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the compiled layers (used by the optimizer and by
    /// quantization/fusion passes).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Total multiply–accumulate count of one forward pass.
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Size of the largest single activation (elements) — the dominant term
    /// of inference RAM.
    pub fn peak_activation_elems(&self) -> usize {
        let mut peak = self.spec.input.len();
        for l in &self.layers {
            peak = peak.max(l.output.len());
        }
        peak
    }

    /// Freezes the first `n` layers (transfer learning, paper §4.3).
    pub fn freeze_first(&mut self, n: usize) {
        for layer in self.layers.iter_mut().take(n) {
            layer.frozen = true;
        }
    }

    /// Sets the bias of the final parameterized layer — classifier bias
    /// initialization from class priors (paper §4.3).
    ///
    /// # Errors
    ///
    /// Fails when no parameterized layer exists or the length differs.
    pub fn set_output_bias(&mut self, values: &[f32]) -> Result<()> {
        let bias = self
            .layers
            .iter_mut()
            .rev()
            .find_map(|l| l.bias.as_mut())
            .ok_or_else(|| NnError::InvalidTrainingData("model has no biased layer".into()))?;
        if bias.len() != values.len() {
            return Err(NnError::InputLengthMismatch {
                expected: bias.len(),
                actual: values.len(),
            });
        }
        bias.as_f32_mut()?.copy_from_slice(values);
        Ok(())
    }

    /// Inference forward pass (dropout disabled). Only the live activation
    /// is kept; the output is bitwise that of [`Sequential::forward_cached`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputLengthMismatch`] for wrongly sized inputs.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>> {
        self.check_input(input)?;
        let pool = ParPool::global();
        let mut x = Cow::Borrowed(input);
        for layer in &self.layers {
            x = Cow::Owned(forward_layer(layer, pool, &x, false, None)?.0);
        }
        Ok(x.into_owned())
    }

    /// Forward pass that records every intermediate activation.
    ///
    /// With `training == true`, dropout layers sample masks from `rng`
    /// (required in that case).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputLengthMismatch`] for wrongly sized inputs, or
    /// [`NnError::InvalidTrainingData`] when training mode lacks an RNG.
    pub fn forward_cached(
        &self,
        input: &[f32],
        training: bool,
        mut rng: Option<&mut StdRng>,
    ) -> Result<ForwardCache> {
        self.check_input(input)?;
        let pool = ParPool::global();
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        let mut masks = Vec::with_capacity(self.layers.len());
        activations.push(input.to_vec());
        for (i, layer) in self.layers.iter().enumerate() {
            let (out, mask) =
                forward_layer(layer, pool, &activations[i], training, rng.as_deref_mut())?;
            masks.push(mask);
            activations.push(out);
        }
        Ok(ForwardCache { activations, masks })
    }

    fn check_input(&self, input: &[f32]) -> Result<()> {
        let expected = self.spec.input.len();
        if input.len() != expected {
            return Err(NnError::InputLengthMismatch { expected, actual: input.len() });
        }
        Ok(())
    }

    /// Backpropagates `grad_output` (w.r.t. the model output) through the
    /// network, returning per-layer parameter gradients and consuming the
    /// forward cache.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputLengthMismatch`] when `grad_output` does not
    /// match the output size.
    pub fn backward(&self, cache: &ForwardCache, grad_output: &[f32]) -> Result<Vec<LayerGrads>> {
        self.backward_from(cache, grad_output, self.layers.len())
    }

    /// Backpropagates starting from the *output of layer `start - 1`*,
    /// skipping layers `start..`.
    ///
    /// The trainer uses this for the fused softmax + cross-entropy gradient:
    /// with a trailing `Softmax` layer it injects `p − y` directly at the
    /// logits (`start = len − 1`), which is faster and numerically stabler
    /// than backpropagating through the softmax Jacobian.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputLengthMismatch`] when `grad_output` does not
    /// match the activation size at `start`.
    pub fn backward_from(
        &self,
        cache: &ForwardCache,
        grad_output: &[f32],
        start: usize,
    ) -> Result<Vec<LayerGrads>> {
        let expected =
            if start == 0 { self.spec.input.len() } else { self.layers[start - 1].output.len() };
        if grad_output.len() != expected {
            return Err(NnError::InputLengthMismatch { expected, actual: grad_output.len() });
        }
        let mut grads = vec![LayerGrads::default(); self.layers.len()];
        let mut grad = grad_output.to_vec();
        for (i, layer) in self.layers.iter().enumerate().take(start).rev() {
            let input = &cache.activations[i];
            let output = &cache.activations[i + 1];
            let r = layer.resolve()?;
            let d = r.input;
            // undo fused activation
            if r.activation != Activation::None {
                for (g, &y) in grad.iter_mut().zip(output) {
                    *g *= r.activation.derivative_from_output(y);
                }
            }
            let mut keep = |(gin, gw, gb): (Vec<f32>, Vec<f32>, Vec<f32>)| {
                grads[i] = LayerGrads { weights: Some(gw), bias: Some(gb) };
                gin
            };
            grad = match r.kernel {
                Kernel::Dense { units } => {
                    keep(dense_backward(input, layer.params()?.0, units, &grad))
                }
                Kernel::Conv1d(g) => keep(conv1d_backward(input, layer.params()?.0, g, &grad)),
                Kernel::Conv2d(g) => keep(conv2d_backward(input, layer.params()?.0, g, &grad)),
                Kernel::Depthwise(g) => {
                    keep(depthwise_backward(input, layer.params()?.0, g, &grad))
                }
                Kernel::MaxPool { size } if d.h == 1 => {
                    pool1d_backward(input, d.w, d.c, size, &grad, true)
                }
                Kernel::MaxPool { size } => maxpool2d_backward(input, d.h, d.w, d.c, size, &grad),
                Kernel::AvgPool { size } if d.h == 1 => {
                    pool1d_backward(input, d.w, d.c, size, &grad, false)
                }
                Kernel::AvgPool { size } => avgpool2d_backward(d.h, d.w, d.c, size, &grad),
                Kernel::GlobalAvgPool => global_avg_backward(d.h, d.w, d.c, &grad),
                Kernel::Identity => grad,
                Kernel::Dropout { .. } => match &cache.masks[i] {
                    Some(mask) => grad.iter().zip(mask).map(|(g, m)| g * m).collect(),
                    None => grad,
                },
                Kernel::BatchNorm => {
                    let params = layer.params()?.0;
                    let c = d.c;
                    let gamma = &params[..c];
                    let var = &params[3 * c..4 * c];
                    grad.iter()
                        .enumerate()
                        .map(|(idx, g)| {
                            let ch = idx % c;
                            g * gamma[ch] / (var[ch] + BN_EPS).sqrt()
                        })
                        .collect()
                }
                Kernel::Softmax => {
                    // dL/dx_i = y_i * (g_i - sum_j g_j y_j)
                    let dot: f32 = grad.iter().zip(output).map(|(g, y)| g * y).sum();
                    grad.iter().zip(output).map(|(g, y)| y * (g - dot)).collect()
                }
            };
        }
        Ok(grads)
    }
}

/// Resolves layer `index` of a model against `input`.
fn resolve_at(spec: &LayerSpec, index: usize, input: Dims) -> Result<Resolved> {
    spec.resolve(input).map_err(|e| match e {
        NnError::InvalidLayer { reason, .. } => NnError::InvalidLayer { index, reason },
        e => e,
    })
}

/// Fresh parameters of a resolved layer's shapes: seeded Xavier (dense)
/// or He (convolution) weights and a zero bias; a batch norm starts as
/// the identity.
fn init_params(r: &Resolved, seed: u64) -> Result<(Option<Tensor>, Option<Tensor>)> {
    let Some(dims) = r.weight_dims() else { return Ok((None, None)) };
    let shape = Shape::new(&dims)?;
    let (init, fan_in, fan_out) = match r.kernel {
        Kernel::Dense { units } => (Init::XavierUniform, r.input.len(), units),
        Kernel::Conv1d(g) => (Init::HeNormal, g.kernel * g.in_c, g.kernel * g.out_c),
        Kernel::Conv2d(g) => {
            let window = g.kernel_h * g.kernel_w;
            (Init::HeNormal, window * g.in_c, window * g.out_c)
        }
        Kernel::Depthwise(g) => {
            let window = g.kernel_h * g.kernel_w;
            (Init::HeNormal, window, window)
        }
        _ => {
            // batch norm rows: gamma 1, beta 0, running mean 0, variance 1
            let data = [1.0, 0.0, 0.0, 1.0].iter().flat_map(|&v| vec![v; r.input.c]).collect();
            return Ok((Some(Tensor::from_f32(shape, data)?), None));
        }
    };
    let bias = r.bias_len().map(|n| Tensor::zeros_f32(Shape::d1(n)));
    Ok((Some(init_tensor(shape, init, fan_in, fan_out, seed)), bias))
}

/// Checks a loaded parameter: absent when the layer has none, otherwise
/// `f32` values of exactly the resolved `dims`.
fn check_param(
    what: &str,
    tensor: Option<&Tensor>,
    dims: Option<Vec<usize>>,
) -> std::result::Result<(), String> {
    match (tensor, dims) {
        (None, None) => Ok(()),
        (None, Some(dims)) => Err(format!("{what} missing, expected {dims:?}")),
        (Some(_), None) => Err(format!("unexpected {what}")),
        (Some(t), Some(dims)) => {
            if t.shape().dims() == dims && elems(&dims) == Some(t.len()) && t.as_f32().is_ok() {
                Ok(())
            } else {
                Err(format!(
                    "{what} are {} {:?} values, expected {dims:?} f32",
                    t.len(),
                    t.shape().dims()
                ))
            }
        }
    }
}

/// Runs one layer on `x`: its output with the fused activation applied,
/// and, in training mode, the dropout mask it sampled from `rng`.
fn forward_layer(
    layer: &Layer,
    pool: &ParPool,
    x: &[f32],
    training: bool,
    rng: Option<&mut StdRng>,
) -> Result<(Vec<f32>, Option<Vec<f32>>)> {
    let r = layer.resolve()?;
    let d = r.input;
    let mut mask = None;
    let mut out = match r.kernel {
        Kernel::Dense { units } => {
            let (w, b) = layer.params()?;
            dense_forward_auto(pool, x, w, b, units)
        }
        Kernel::Conv1d(g) => {
            let (w, b) = layer.params()?;
            conv1d_forward_auto(pool, x, w, b, g)
        }
        Kernel::Conv2d(g) => {
            let (w, b) = layer.params()?;
            conv2d_forward_auto(pool, x, w, b, g)
        }
        Kernel::Depthwise(g) => {
            let (w, b) = layer.params()?;
            depthwise_forward_auto(pool, x, w, b, g)
        }
        Kernel::MaxPool { size } if d.h == 1 => pool1d(x, d.w, d.c, size, true),
        Kernel::MaxPool { size } => maxpool2d_forward(x, d.h, d.w, d.c, size),
        Kernel::AvgPool { size } if d.h == 1 => pool1d(x, d.w, d.c, size, false),
        Kernel::AvgPool { size } => avgpool2d_forward(x, d.h, d.w, d.c, size),
        Kernel::GlobalAvgPool => global_avg_forward(x, d.h, d.w, d.c),
        Kernel::Dropout { rate } if training => {
            let rng = rng.ok_or_else(|| {
                NnError::InvalidTrainingData(
                    "training forward pass requires an rng for dropout".into(),
                )
            })?;
            let keep = 1.0 - rate;
            let m: Vec<f32> = (0..x.len())
                .map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
                .collect();
            let out = x.iter().zip(&m).map(|(v, k)| v * k).collect();
            mask = Some(m);
            out
        }
        Kernel::Identity | Kernel::Dropout { .. } => x.to_vec(),
        Kernel::BatchNorm => {
            let params = layer.params()?.0;
            let c = d.c;
            let (gamma, rest) = params.split_at(c);
            let (beta, rest) = rest.split_at(c);
            let (mean, var) = rest.split_at(c);
            x.chunks(c)
                .flat_map(|pix| {
                    pix.iter().enumerate().map(|(ch, &v)| {
                        (v - mean[ch]) / (var[ch] + BN_EPS).sqrt() * gamma[ch] + beta[ch]
                    })
                })
                .collect()
        }
        Kernel::Softmax => ei_tensor::ops::softmax(x),
    };
    if r.activation != Activation::None {
        for v in &mut out {
            *v = r.activation.apply(*v);
        }
    }
    Ok((out, mask))
}

/// 1-D pooling over `(w, c)` steps with non-overlapping windows.
fn pool1d(input: &[f32], w: usize, c: usize, size: usize, is_max: bool) -> Vec<f32> {
    let ow = pool_out(w, size);
    let mut out = vec![if is_max { f32::NEG_INFINITY } else { 0.0 }; ow * c];
    let norm = 1.0 / size as f32;
    for ox in 0..ow {
        for k in 0..size {
            let in_base = (ox * size + k) * c;
            for ch in 0..c {
                let v = input[in_base + ch];
                let slot = &mut out[ox * c + ch];
                if is_max {
                    if v > *slot {
                        *slot = v;
                    }
                } else {
                    *slot += v * norm;
                }
            }
        }
    }
    out
}
/// Backward of [`pool1d`].
fn pool1d_backward(
    input: &[f32],
    w: usize,
    c: usize,
    size: usize,
    grad_out: &[f32],
    is_max: bool,
) -> Vec<f32> {
    let ow = pool_out(w, size);
    let mut grad_in = vec![0.0f32; input.len()];
    let norm = 1.0 / size as f32;
    for ox in 0..ow {
        for ch in 0..c {
            if is_max {
                let mut best_idx = ox * size * c + ch;
                let mut best = f32::NEG_INFINITY;
                for k in 0..size {
                    let idx = (ox * size + k) * c + ch;
                    if input[idx] > best {
                        best = input[idx];
                        best_idx = idx;
                    }
                }
                grad_in[best_idx] += grad_out[ox * c + ch];
            } else {
                for k in 0..size {
                    grad_in[(ox * size + k) * c + ch] += grad_out[ox * c + ch] * norm;
                }
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_spec() -> ModelSpec {
        ModelSpec::new(Dims::new(1, 4, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 5, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
            .layer(LayerSpec::Softmax)
    }

    #[test]
    fn build_resolves_shapes() {
        let model = Sequential::build(&tiny_spec(), 1).unwrap();
        assert_eq!(model.output_dims().len(), 3);
        assert_eq!(model.param_count(), 4 * 5 + 5 + 5 * 3 + 3);
        assert!(model.macs() >= (4 * 5 + 5 * 3) as u64);
    }

    #[test]
    fn forward_produces_distribution_after_softmax() {
        let model = Sequential::build(&tiny_spec(), 1).unwrap();
        let out = model.forward(&[0.5, -0.2, 0.1, 0.9]).unwrap();
        assert_eq!(out.len(), 3);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn forward_rejects_wrong_input_len() {
        let model = Sequential::build(&tiny_spec(), 1).unwrap();
        assert!(model.forward(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn build_rejects_bad_layers() {
        let bad = ModelSpec::new(Dims::new(4, 4, 1)).layer(LayerSpec::Conv1d {
            filters: 2,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        });
        assert!(matches!(
            Sequential::build(&bad, 0).unwrap_err(),
            NnError::InvalidLayer { index: 0, .. }
        ));
        let too_big = ModelSpec::new(Dims::new(2, 2, 1)).layer(LayerSpec::Conv2d {
            filters: 2,
            kernel: 5,
            stride: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        });
        assert!(Sequential::build(&too_big, 0).is_err());
        let bad_reshape =
            ModelSpec::new(Dims::new(2, 2, 1)).layer(LayerSpec::Reshape { h: 3, w: 1, c: 1 });
        assert!(Sequential::build(&bad_reshape, 0).is_err());
        let bad_dropout =
            ModelSpec::new(Dims::new(2, 2, 1)).layer(LayerSpec::Dropout { rate: 1.5 });
        assert!(Sequential::build(&bad_dropout, 0).is_err());
    }

    #[test]
    fn conv_model_shapes() {
        let spec = ModelSpec::new(Dims::new(8, 8, 1))
            .layer(LayerSpec::Conv2d {
                filters: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::MaxPool { size: 2 })
            .layer(LayerSpec::DepthwiseConv2d {
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::GlobalAvgPool)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None });
        let model = Sequential::build(&spec, 3).unwrap();
        let dims: Vec<Dims> = model.layers().iter().map(|l| l.output).collect();
        assert_eq!(dims[0], Dims::new(8, 8, 4));
        assert_eq!(dims[1], Dims::new(4, 4, 4));
        assert_eq!(dims[2], Dims::new(4, 4, 4));
        assert_eq!(dims[3], Dims::new(1, 1, 4));
        assert_eq!(dims[4], Dims::new(1, 1, 2));
        let out = model.forward(&vec![0.1; 64]).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn rect_conv_shapes_and_gradients() {
        let spec = ModelSpec::new(Dims::new(10, 4, 1))
            .layer(LayerSpec::Conv2dRect {
                filters: 3,
                kernel_h: 5,
                kernel_w: 2,
                stride: 2,
                padding: Padding::Same,
                activation: Activation::Tanh,
            })
            .layer(LayerSpec::GlobalAvgPool)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None });
        let mut model = Sequential::build(&spec, 4).unwrap();
        assert_eq!(model.layers()[0].output, Dims::new(5, 2, 3));
        assert_eq!(model.layers()[0].weights.as_ref().unwrap().shape().dims(), &[5, 2, 1, 3]);
        // rectangular macs: 5*2*1*3 per output position * 10 positions
        assert_eq!(model.layers()[0].macs(), 5 * 2 * 3 * 10);
        // finite-difference check on the rect-conv weights
        let input: Vec<f32> = (0..40).map(|i| ((i % 9) as f32 - 4.0) * 0.1).collect();
        let cache = model.forward_cached(&input, false, None).unwrap();
        let grads = model.backward(&cache, &[1.0, 1.0]).unwrap();
        let eps = 1e-3f32;
        for k in (0..30).step_by(3) {
            let orig = model.layers()[0].weights.as_ref().unwrap().as_f32().unwrap()[k];
            model.layers_mut()[0].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] = orig + eps;
            let plus: f32 = model.forward(&input).unwrap().iter().sum();
            model.layers_mut()[0].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] = orig - eps;
            let minus: f32 = model.forward(&input).unwrap().iter().sum();
            model.layers_mut()[0].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads[0].weights.as_ref().unwrap()[k];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "rect weight {k}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // rect conv that degenerates to square behaves like Conv2d
        let square = ModelSpec::new(Dims::new(6, 6, 1)).layer(LayerSpec::Conv2d {
            filters: 2,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        });
        let rect = ModelSpec::new(Dims::new(6, 6, 1)).layer(LayerSpec::Conv2dRect {
            filters: 2,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        });
        let ms = Sequential::build(&square, 99).unwrap();
        let mr = Sequential::build(&rect, 99).unwrap();
        let (ls, lr) = (&ms.layers()[0], &mr.layers()[0]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ls.params().unwrap().0), bits(lr.params().unwrap().0));
        assert_eq!(ls.weights.as_ref().unwrap().shape(), lr.weights.as_ref().unwrap().shape());
        assert_eq!(ls.macs(), lr.macs());
        let probe: Vec<f32> = (0..36).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect();
        let (cs, cr) = (
            ms.forward_cached(&probe, false, None).unwrap(),
            mr.forward_cached(&probe, false, None).unwrap(),
        );
        assert_eq!(bits(cs.output()), bits(cr.output()));
        assert_eq!(bits(&ms.forward(&probe).unwrap()), bits(cs.output()));
        let grad: Vec<f32> = (0..32).map(|i| (i as f32 - 15.5) * 0.1).collect();
        let (gs, gr) = (ms.backward(&cs, &grad).unwrap(), mr.backward(&cr, &grad).unwrap());
        assert_eq!(bits(gs[0].weights.as_ref().unwrap()), bits(gr[0].weights.as_ref().unwrap()));
        assert_eq!(bits(gs[0].bias.as_ref().unwrap()), bits(gr[0].bias.as_ref().unwrap()));
    }

    #[test]
    fn whole_model_gradient_matches_finite_difference() {
        let spec = ModelSpec::new(Dims::new(1, 6, 1))
            .layer(LayerSpec::Reshape { h: 1, w: 3, c: 2 })
            .layer(LayerSpec::Conv1d {
                filters: 3,
                kernel: 2,
                stride: 1,
                padding: Padding::Valid,
                activation: Activation::Tanh,
            })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None });
        let mut model = Sequential::build(&spec, 11).unwrap();
        let input = [0.3f32, -0.1, 0.7, 0.2, -0.5, 0.9];
        // loss = sum of outputs
        let cache = model.forward_cached(&input, false, None).unwrap();
        let grads = model.backward(&cache, &[1.0, 1.0]).unwrap();
        let eps = 1e-3f32;
        // check dense weights (layer 3) and conv weights (layer 1)
        for li in [1usize, 3] {
            let n = model.layers()[li].weights.as_ref().unwrap().len();
            for k in (0..n).step_by(2) {
                let orig = model.layers()[li].weights.as_ref().unwrap().as_f32().unwrap()[k];
                model.layers_mut()[li].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] =
                    orig + eps;
                let plus: f32 = model.forward(&input).unwrap().iter().sum();
                model.layers_mut()[li].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] =
                    orig - eps;
                let minus: f32 = model.forward(&input).unwrap().iter().sum();
                model.layers_mut()[li].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = grads[li].weights.as_ref().unwrap()[k];
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "layer {li} weight {k}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let spec = ModelSpec::new(Dims::new(1, 3, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        let mut model = Sequential::build(&spec, 5).unwrap();
        let input = [0.2f32, -0.4, 0.6];
        // loss = out[0]
        let cache = model.forward_cached(&input, false, None).unwrap();
        let grads = model.backward(&cache, &[1.0, 0.0, 0.0]).unwrap();
        let eps = 1e-3f32;
        let w_len = model.layers()[1].weights.as_ref().unwrap().len();
        for k in 0..w_len {
            let orig = model.layers()[1].weights.as_ref().unwrap().as_f32().unwrap()[k];
            model.layers_mut()[1].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] = orig + eps;
            let plus = model.forward(&input).unwrap()[0];
            model.layers_mut()[1].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] = orig - eps;
            let minus = model.forward(&input).unwrap()[0];
            model.layers_mut()[1].weights.as_mut().unwrap().as_f32_mut().unwrap()[k] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads[1].weights.as_ref().unwrap()[k];
            assert!((numeric - analytic).abs() < 1e-3);
        }
    }

    #[test]
    fn dropout_training_vs_inference() {
        let spec = ModelSpec::new(Dims::new(1, 100, 1)).layer(LayerSpec::Dropout { rate: 0.5 });
        let model = Sequential::build(&spec, 0).unwrap();
        let input = vec![1.0f32; 100];
        // inference: identity
        assert_eq!(model.forward(&input).unwrap(), input);
        // training: roughly half dropped, survivors scaled by 2
        let mut rng = StdRng::seed_from_u64(7);
        let cache = model.forward_cached(&input, true, Some(&mut rng)).unwrap();
        let out = cache.output();
        let dropped = out.iter().filter(|&&v| v == 0.0).count();
        assert!((20..80).contains(&dropped), "dropped {dropped}");
        assert!(out.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // training without rng errors
        assert!(model.forward_cached(&input, true, None).is_err());
    }

    #[test]
    fn batchnorm_identity_by_default() {
        let spec = ModelSpec::new(Dims::new(2, 2, 3)).layer(LayerSpec::BatchNorm);
        let model = Sequential::build(&spec, 0).unwrap();
        let input: Vec<f32> = (0..12).map(|x| x as f32 * 0.1).collect();
        let out = model.forward(&input).unwrap();
        for (o, i) in out.iter().zip(&input) {
            assert!((o - i).abs() < 1e-3, "bn with identity params ~ identity");
        }
        assert!(model.layers()[0].frozen, "bn params are frozen");
    }

    #[test]
    fn freeze_and_bias_init() {
        let mut model = Sequential::build(&tiny_spec(), 1).unwrap();
        model.freeze_first(2);
        assert!(model.layers()[1].frozen);
        assert!(!model.layers()[2].frozen);
        model.set_output_bias(&[0.1, 0.2, 0.3]).unwrap();
        let bias = model.layers()[2].bias.as_ref().unwrap().as_f32().unwrap().to_vec();
        assert_eq!(bias, vec![0.1, 0.2, 0.3]);
        assert!(model.set_output_bias(&[1.0]).is_err());
    }

    #[test]
    fn deterministic_build() {
        let a = Sequential::build(&tiny_spec(), 9).unwrap();
        let b = Sequential::build(&tiny_spec(), 9).unwrap();
        let input = [0.1f32, 0.2, 0.3, 0.4];
        assert_eq!(a.forward(&input).unwrap(), b.forward(&input).unwrap());
    }

    #[test]
    fn pool1d_max_and_avg() {
        let spec_max = ModelSpec::new(Dims::new(1, 6, 1)).layer(LayerSpec::MaxPool { size: 2 });
        let model = Sequential::build(&spec_max, 0).unwrap();
        let out = model.forward(&[1.0, 3.0, 2.0, 2.0, 5.0, 0.0]).unwrap();
        assert_eq!(out, vec![3.0, 2.0, 5.0]);
        let spec_avg = ModelSpec::new(Dims::new(1, 6, 1)).layer(LayerSpec::AvgPool { size: 3 });
        let model = Sequential::build(&spec_avg, 0).unwrap();
        let out = model.forward(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(out, vec![2.0, 5.0]);
    }

    #[test]
    fn peak_activation_tracks_largest_layer() {
        let spec = ModelSpec::new(Dims::new(8, 8, 1))
            .layer(LayerSpec::Conv2d {
                filters: 16,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::GlobalAvgPool);
        let model = Sequential::build(&spec, 0).unwrap();
        assert_eq!(model.peak_activation_elems(), 8 * 8 * 16);
    }
}
