//! Fully int8 quantized models with integer inference kernels.
//!
//! Weights are symmetric per-channel int8, biases int32 at scale
//! `s_in * s_w`, activations asymmetric per-tensor int8, and every
//! requantization uses the fixed-point multiplier from
//! [`crate::qparams::FixedMultiplier`] — the same scheme TFLite Micro
//! executes on Cortex-M targets (paper §4.5).

use crate::calibrate::calibrate;
use crate::fusion::fold_batch_norm;
use crate::qparams::{ChannelQuant, FixedMultiplier, QuantParams};
use crate::{QuantError, Result};
use ei_nn::layers::conv::{Conv1dGeom, Conv2dGeom};
use ei_nn::layers::im2col::{im2col_1d, im2col_2d};
use ei_nn::resolve::Kernel;
use ei_nn::spec::{Activation, Dims, LayerSpec};
use ei_nn::Sequential;
use ei_tensor::simd::{self, DepthwiseShape, Level, PackedDepthwise, PackedI8};

/// One quantized layer.
#[derive(Debug, Clone)]
pub struct QLayer {
    /// The architecture op this layer executes.
    pub spec: LayerSpec,
    /// Input activation dimensions.
    pub input: Dims,
    /// Output activation dimensions.
    pub output: Dims,
    /// int8 weights (output-channel-fastest layout), if parameterized.
    pub weights: Option<Vec<i8>>,
    /// Per-channel weight quantization, if parameterized.
    pub w_quant: Option<ChannelQuant>,
    /// int32 biases at scale `s_in * s_w[ch]`.
    pub bias: Option<Vec<i32>>,
    /// Input activation quantization.
    pub in_q: QuantParams,
    /// Output activation quantization.
    pub out_q: QuantParams,
    /// Per-output-channel requantization multipliers (`s_in*s_w/s_out`).
    pub multipliers: Option<Vec<FixedMultiplier>>,
    /// The parameterized layer's kernel, built from the fields above when
    /// the model is quantized.
    kernel: Option<LayerKernel>,
}

impl QLayer {
    /// Bytes of flash this layer's parameters occupy when deployed.
    pub fn weight_bytes(&self) -> usize {
        self.weights.as_ref().map_or(0, Vec::len) + self.bias.as_ref().map_or(0, |b| b.len() * 4)
    }
}

/// A fully int8 model produced by [`quantize_model`].
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    layers: Vec<QLayer>,
    input_q: QuantParams,
    output_q: QuantParams,
    input_dims: Dims,
    output_dims: Dims,
    name: String,
}

impl QuantizedModel {
    /// Quantized layers.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Input quantization parameters.
    pub fn input_qparams(&self) -> QuantParams {
        self.input_q
    }

    /// Output quantization parameters.
    pub fn output_qparams(&self) -> QuantParams {
        self.output_q
    }

    /// Input dimensions.
    pub fn input_dims(&self) -> Dims {
        self.input_dims
    }

    /// Output dimensions.
    pub fn output_dims(&self) -> Dims {
        self.output_dims
    }

    /// Architecture name carried over from the float model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total parameter bytes (int8 weights + int32 biases).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(QLayer::weight_bytes).sum()
    }

    /// Largest single activation in elements (1 byte each when quantized).
    pub fn peak_activation_elems(&self) -> usize {
        let mut peak = self.input_dims.len();
        for l in &self.layers {
            peak = peak.max(l.output.len());
        }
        peak
    }

    /// The same model with every kernel packed for `level` instead of the
    /// host's best one, or `None` if this host cannot run `level`. The
    /// output bytes are the same at every level; this exists so tests can
    /// show it.
    pub fn with_kernel_level(&self, level: Level) -> Option<QuantizedModel> {
        if !level.is_supported() {
            return None;
        }
        let mut model = self.clone();
        for layer in &mut model.layers {
            layer.kernel = LayerKernel::build(layer, level);
        }
        Some(model)
    }

    /// Runs inference on real-valued input, returning real-valued output.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InputLengthMismatch`] for wrongly sized input.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>> {
        let q_in = self.input_q.quantize_slice(input);
        let q_out = self.forward_quantized(&q_in)?;
        Ok(self.output_q.dequantize_slice(&q_out))
    }

    /// Runs the integer path, returning every intermediate activation as
    /// raw int8 codes — one vector per layer boundary, starting with the
    /// quantized input. This is the byte-level view an arena-backed
    /// executor stores.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InputLengthMismatch`] for wrongly sized input.
    pub fn trace_raw(&self, input: &[f32]) -> Result<Vec<Vec<i8>>> {
        let mut act = self.input_q.quantize_slice(input);
        let mut out = vec![act.clone()];
        for layer in &self.layers {
            act = run_qlayer(layer, &act)?;
            out.push(act.clone());
        }
        Ok(out)
    }

    /// Runs the integer path, returning every intermediate activation as
    /// dequantized reals — one vector per layer boundary, starting with the
    /// (requantized) input. Useful for debugging where quantization error
    /// accumulates.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InputLengthMismatch`] for wrongly sized input.
    pub fn trace(&self, input: &[f32]) -> Result<Vec<Vec<f32>>> {
        let mut act = self.input_q.quantize_slice(input);
        let mut out = vec![self.input_q.dequantize_slice(&act)];
        for layer in &self.layers {
            act = run_qlayer(layer, &act)?;
            out.push(layer.out_q.dequantize_slice(&act));
        }
        Ok(out)
    }

    /// Runs the pure-integer inference path.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InputLengthMismatch`] for wrongly sized input.
    pub fn forward_quantized(&self, input: &[i8]) -> Result<Vec<i8>> {
        if input.len() != self.input_dims.len() {
            return Err(QuantError::InputLengthMismatch {
                expected: self.input_dims.len(),
                actual: input.len(),
            });
        }
        let mut act = input.to_vec();
        for layer in &self.layers {
            act = run_qlayer(layer, &act)?;
        }
        Ok(act)
    }
}

/// Quantizes a trained float model to fully int8.
///
/// `BatchNorm` layers are folded into their predecessors first; activation
/// ranges come from running `calibration` through the float model.
///
/// # Errors
///
/// Fails on an empty calibration set, wrongly sized calibration samples, or
/// a `BatchNorm` with no fusable predecessor.
pub fn quantize_model(model: &Sequential, calibration: &[Vec<f32>]) -> Result<QuantizedModel> {
    let (fused, _) = fold_batch_norm(model)?;
    let ranges = calibrate(&fused, calibration)?;
    let mut layers = Vec::with_capacity(fused.layers().len());
    // pooling and shape ops operate directly on int8 codes, so (as in
    // TFLM) their output must share the input's quantization parameters;
    // track the propagated parameters along the chain
    let mut cur_q = ranges.qparams(0);
    for (i, layer) in fused.layers().iter().enumerate() {
        let in_q = cur_q;
        let passthrough = matches!(
            layer.spec,
            LayerSpec::MaxPool { .. }
                | LayerSpec::AvgPool { .. }
                | LayerSpec::GlobalAvgPool
                | LayerSpec::Reshape { .. }
                | LayerSpec::Flatten
                | LayerSpec::Dropout { .. }
        );
        let out_q = if passthrough { in_q } else { ranges.qparams(i + 1) };
        cur_q = out_q;
        let (weights, w_quant, bias, multipliers) = match (&layer.weights, &layer.bias) {
            (Some(w), bias) => {
                let out_c = layer.resolve()?.bias_len().unwrap_or(layer.output.c);
                let wf = w.as_f32()?;
                let cq = ChannelQuant::from_weights(wf, out_c);
                let qw = cq.quantize(wf);
                let qb = bias.as_ref().map(|b| b.as_f32()).transpose()?.map(|b| {
                    b.iter()
                        .enumerate()
                        .map(|(ch, &v)| (v / (in_q.scale * cq.scales[ch % out_c])).round() as i32)
                        .collect::<Vec<i32>>()
                });
                let mults = cq
                    .scales
                    .iter()
                    .map(|&sw| FixedMultiplier::from_real(in_q.scale * sw / out_q.scale))
                    .collect();
                (Some(qw), Some(cq), qb, Some(mults))
            }
            _ => (None, None, None, None),
        };
        let mut qlayer = QLayer {
            spec: layer.spec.clone(),
            input: layer.input,
            output: layer.output,
            weights,
            w_quant,
            bias,
            in_q,
            out_q,
            multipliers,
            kernel: None,
        };
        qlayer.kernel = LayerKernel::build(&qlayer, simd::level());
        layers.push(qlayer);
    }
    Ok(QuantizedModel {
        input_q: ranges.qparams(0),
        output_q: cur_q,
        input_dims: fused.input_dims(),
        output_dims: fused.output_dims(),
        name: fused.spec().name.clone(),
        layers,
    })
}

/// A layer's requantization to the output int8 domain, resolved once when
/// the model is quantized: per channel, the [`FixedMultiplier`] as the shift and
/// rounding terms it implies, plus the activation's clamp bounds.
///
/// [`Requantizer::apply`] is [`FixedMultiplier::apply`] followed by the
/// output zero point and the ReLU-family clamp, bit for bit — except that
/// the zero-point add saturates: `apply` clamps a huge product to the
/// `i32` range, and adding the zero point to that used to overflow.
#[derive(Debug, Clone)]
struct Requantizer {
    channels: Vec<ChannelScale>,
    zero_point: i64,
    /// The clamp bounds minus the zero point: clamping `v` to them and
    /// then adding the zero point is clamping `v + zp`, with no overflow.
    lo: i64,
    hi: i64,
}

/// One channel's fixed-point multiplier, pre-decoded.
#[derive(Debug, Clone, Copy)]
struct ChannelScale {
    /// The mantissa times `2^left`, wrapping: multiplying by it is
    /// `apply`'s (wrapping) `prod << left`, since wrapping multiplication
    /// is associative.
    mantissa: i64,
    right: u32,
    /// Added before the right shift to a non-negative product (and
    /// `round_neg` to a negative one): round half away from zero.
    round: i64,
    round_neg: i64,
}

impl Requantizer {
    fn new(mults: &[FixedMultiplier], out_q: QuantParams, act: Activation) -> Requantizer {
        let channels = mults
            .iter()
            .map(|m| {
                // `apply` shifts left by `shift - 31` when that is positive
                // (no rounding), else right by `31 - shift` with rounding
                let total = 31 - m.shift;
                let left = (-total).max(0) as u32;
                let right = total.max(0) as u32;
                let round = if right > 0 { 1i64 << (right - 1) } else { 0 };
                ChannelScale {
                    mantissa: i64::from(m.mantissa).wrapping_mul(1i64 << left),
                    right,
                    round,
                    round_neg: if right > 0 { round - 1 } else { 0 },
                }
            })
            .collect();
        let (lo, hi) = activation_bounds(act, out_q);
        let zp = out_q.zero_point;
        Requantizer { channels, zero_point: zp.into(), lo: (lo - zp).into(), hi: (hi - zp).into() }
    }

    /// Requantizes channel `ch`'s accumulator.
    #[inline]
    fn apply(&self, ch: usize, acc: i32) -> i8 {
        let c = self.channels[ch];
        let prod = i64::from(acc).wrapping_mul(c.mantissa);
        let round = if prod < 0 { c.round_neg } else { c.round };
        (((prod + round) >> c.right).clamp(self.lo, self.hi) + self.zero_point) as i8
    }
}

/// int8 clamping bounds implementing ReLU-family activations.
fn activation_bounds(act: Activation, out_q: QuantParams) -> (i32, i32) {
    match act {
        Activation::Relu => (out_q.zero_point.max(-128), 127),
        Activation::Relu6 => {
            let six = (6.0 / out_q.scale).round() as i32 + out_q.zero_point;
            (out_q.zero_point.max(-128), six.min(127))
        }
        _ => (-128, 127),
    }
}

/// A parameterized layer's epilogue: the [`Requantizer`], or for
/// sigmoid/tanh, which have no integer fast path, the float fallback.
#[derive(Debug, Clone)]
enum Epilogue {
    Fixed(Requantizer),
    Float { act: Activation, in_scale: f32, scales: Vec<f32>, out_q: QuantParams },
}

impl Epilogue {
    fn new(layer: &QLayer, mults: &[FixedMultiplier], cq: &ChannelQuant, act: Activation) -> Self {
        if matches!(act, Activation::Sigmoid | Activation::Tanh) {
            Epilogue::Float {
                act,
                in_scale: layer.in_q.scale,
                scales: cq.scales.clone(),
                out_q: layer.out_q,
            }
        } else {
            Epilogue::Fixed(Requantizer::new(mults, layer.out_q, act))
        }
    }

    /// Requantizes channel `ch`'s accumulator. The kernels match on the
    /// variant once per call and take [`Requantizer::apply`] directly.
    fn apply(&self, ch: usize, acc: i32) -> i8 {
        match self {
            Epilogue::Fixed(r) => r.apply(ch, acc),
            Epilogue::Float { act, in_scale, scales, out_q } => {
                out_q.quantize(act.apply(acc as f32 * in_scale * scales[ch]))
            }
        }
    }
}

/// How a parameterized layer feeds its packed weights.
#[derive(Debug, Clone)]
enum KernelOp {
    /// The input already is the GEMM's `m × k` left operand: a dense layer
    /// (`m = 1`) or a 1×1, stride-1 convolution (`m` = pixels).
    Direct {
        m: usize,
        packed: PackedI8,
    },
    Conv1d(Conv1dGeom, PackedI8),
    Conv2d(Conv2dGeom, PackedI8),
    Depthwise(DepthwiseShape, PackedDepthwise),
}

/// A parameterized layer's kernel: weights packed for one
/// [`ei_tensor::simd::Level`], the input zero point they were packed for,
/// and the requantization epilogue.
#[derive(Debug, Clone)]
struct LayerKernel {
    op: KernelOp,
    in_zp: i8,
    epilogue: Epilogue,
}

impl LayerKernel {
    /// Packs `layer`'s weights for `level`; `None` for a layer without
    /// weights. A missing bias is zero.
    fn build(layer: &QLayer, level: Level) -> Option<LayerKernel> {
        let (Some(w), Some(cq), Some(mults)) = (&layer.weights, &layer.w_quant, &layer.multipliers)
        else {
            return None;
        };
        // activation zero points lie in the int8 range by construction
        // (`QuantParams::from_range` clamps them)
        let in_zp = layer.in_q.zero_point as i8;
        let r = layer.spec.resolve(layer.input).ok()?;
        let n = r.bias_len()?;
        let bias = layer.bias.clone().unwrap_or_else(|| vec![0; n]);
        let gemm = |k: usize| PackedI8::with_level(level, k, n, w, &bias, in_zp);
        let op = match r.kernel {
            Kernel::Dense { .. } => KernelOp::Direct { m: 1, packed: gemm(layer.input.len())? },
            Kernel::Conv1d(g) => KernelOp::Conv1d(g, gemm(g.kernel * g.in_c)?),
            Kernel::Conv2d(g) => conv2d_op(g, gemm)?,
            Kernel::Depthwise(g) => {
                let (out_h, out_w, pad_top, pad_left) = g.output();
                let shape = DepthwiseShape {
                    in_h: g.in_h,
                    in_w: g.in_w,
                    c: g.in_c,
                    kernel_h: g.kernel_h,
                    kernel_w: g.kernel_w,
                    stride: g.stride,
                    out_h,
                    out_w,
                    pad_top,
                    pad_left,
                };
                let taps = g.kernel_h * g.kernel_w;
                let packed = PackedDepthwise::with_level(level, taps, g.in_c, w, &bias)?;
                KernelOp::Depthwise(shape, packed)
            }
            _ => return None,
        };
        Some(LayerKernel { op, in_zp, epilogue: Epilogue::new(layer, mults, cq, r.activation) })
    }

    /// Runs the layer on `input`.
    fn run(&self, input: &[i8]) -> Vec<i8> {
        let zp = self.in_zp;
        match &self.op {
            KernelOp::Direct { m, packed } => self.gemm(packed, *m, input),
            KernelOp::Conv1d(g, packed) => {
                // padding taps hold the zero-point code, so `(x - zp) * w ==
                // 0` exactly where the naive kernel's bounds check skipped
                self.gemm(packed, g.output().0, &im2col_1d(input, *g, zp))
            }
            KernelOp::Conv2d(g, packed) => {
                let (oh, ow, _, _) = g.output();
                self.gemm(packed, oh * ow, &im2col_2d(input, *g, zp))
            }
            KernelOp::Depthwise(shape, packed) => {
                let mut out = vec![0i8; shape.out_h * shape.out_w * shape.c];
                match &self.epilogue {
                    Epilogue::Fixed(r) => {
                        packed.run(input, zp, *shape, |ch, acc| r.apply(ch, acc), &mut out)
                    }
                    float => {
                        packed.run(input, zp, *shape, |ch, acc| float.apply(ch, acc), &mut out)
                    }
                }
                out
            }
        }
    }

    /// The fused GEMM of `m` rows of `a` against the packed weights.
    fn gemm(&self, packed: &PackedI8, m: usize, a: &[i8]) -> Vec<i8> {
        let mut out = vec![0i8; m * packed.n()];
        match &self.epilogue {
            Epilogue::Fixed(r) => packed.gemm(m, a, |j, acc| r.apply(j, acc), &mut out),
            float => packed.gemm(m, a, |j, acc| float.apply(j, acc), &mut out),
        }
        out
    }
}

/// A 2-D convolution's lowering: a 1×1, stride-1 convolution's input is
/// already its patch matrix, anything else goes through im2col.
fn conv2d_op(g: Conv2dGeom, gemm: impl Fn(usize) -> Option<PackedI8>) -> Option<KernelOp> {
    let k = g.kernel_h * g.kernel_w * g.in_c;
    Some(if g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 {
        KernelOp::Direct { m: g.in_h * g.in_w, packed: gemm(k)? }
    } else {
        KernelOp::Conv2d(g, gemm(k)?)
    })
}

/// Executes one quantized layer.
fn run_qlayer(layer: &QLayer, input: &[i8]) -> Result<Vec<i8>> {
    if let Some(kernel) = &layer.kernel {
        return Ok(kernel.run(input));
    }
    match layer.spec.resolve(layer.input)?.kernel {
        Kernel::Dense { .. } | Kernel::Conv1d(_) | Kernel::Conv2d(_) | Kernel::Depthwise(_) => {
            Err(QuantError::UnsupportedLayer(format!(
                "{} has no quantized weights",
                layer.spec.op_name()
            )))
        }
        Kernel::MaxPool { size } => Ok(maxpool_q(input, layer.input, size)),
        Kernel::AvgPool { size } => Ok(avgpool_q(input, layer.input, size)),
        Kernel::GlobalAvgPool => {
            let n = (layer.input.h * layer.input.w) as i32;
            let c = layer.input.c;
            let mut sums = vec![0i32; c];
            for pix in input.chunks(c) {
                for (s, &v) in sums.iter_mut().zip(pix) {
                    *s += v as i32;
                }
            }
            Ok(sums
                .iter()
                .map(|&s| {
                    let rounded = if s >= 0 { (s + n / 2) / n } else { (s - n / 2) / n };
                    rounded.clamp(-128, 127) as i8
                })
                .collect())
        }
        Kernel::Identity | Kernel::Dropout { .. } => Ok(input.to_vec()),
        Kernel::BatchNorm => Err(QuantError::UnsupportedLayer(
            "batch_norm must be folded before quantized execution".into(),
        )),
        Kernel::Softmax => {
            // no integer softmax: dequantize, soft-max in float, requantize
            let reals = layer.in_q.dequantize_slice(input);
            let probs = ei_tensor::ops::softmax(&reals);
            Ok(layer.out_q.quantize_slice(&probs))
        }
    }
}

/// int8 max pooling (shares geometry rules with the float path).
fn maxpool_q(input: &[i8], dims: Dims, size: usize) -> Vec<i8> {
    let (h, w, c) = if dims.h == 1 { (dims.w, 1, dims.c) } else { (dims.h, dims.w, dims.c) };
    if dims.h == 1 {
        // 1-D: pool over steps
        let ow = h / size;
        let mut out = vec![i8::MIN; ow * c];
        for ox in 0..ow {
            for k in 0..size {
                let base = (ox * size + k) * c;
                for ch in 0..c {
                    out[ox * c + ch] = out[ox * c + ch].max(input[base + ch]);
                }
            }
        }
        return out;
    }
    let (oh, ow) = (h / size, w / size);
    let mut out = vec![i8::MIN; oh * ow * c];
    for oy in 0..oh {
        for ox in 0..ow {
            let obase = (oy * ow + ox) * c;
            for ky in 0..size {
                for kx in 0..size {
                    let ibase = ((oy * size + ky) * w + ox * size + kx) * c;
                    for ch in 0..c {
                        out[obase + ch] = out[obase + ch].max(input[ibase + ch]);
                    }
                }
            }
        }
    }
    out
}

/// int8 average pooling with rounded integer division.
fn avgpool_q(input: &[i8], dims: Dims, size: usize) -> Vec<i8> {
    let div = |s: i32, n: i32| -> i8 {
        let r = if s >= 0 { (s + n / 2) / n } else { (s - n / 2) / n };
        r.clamp(-128, 127) as i8
    };
    if dims.h == 1 {
        let ow = dims.w / size;
        let c = dims.c;
        let mut out = vec![0i8; ow * c];
        for ox in 0..ow {
            for ch in 0..c {
                let mut s = 0i32;
                for k in 0..size {
                    s += input[(ox * size + k) * c + ch] as i32;
                }
                out[ox * c + ch] = div(s, size as i32);
            }
        }
        return out;
    }
    let (oh, ow) = (dims.h / size, dims.w / size);
    let c = dims.c;
    let n = (size * size) as i32;
    let mut out = vec![0i8; oh * ow * c];
    for oy in 0..oh {
        for ox in 0..ow {
            for ch in 0..c {
                let mut s = 0i32;
                for ky in 0..size {
                    for kx in 0..size {
                        s += input[((oy * size + ky) * dims.w + ox * size + kx) * c + ch] as i32;
                    }
                }
                out[(oy * ow + ox) * c + ch] = div(s, n);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec, Padding};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_inputs(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    fn dense_model() -> Sequential {
        let spec = ModelSpec::new(Dims::new(1, 8, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 16, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 4, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        Sequential::build(&spec, 3).unwrap()
    }

    #[test]
    fn quantized_dense_tracks_float() {
        let model = dense_model();
        let calib = random_inputs(32, 8, 1);
        let qmodel = quantize_model(&model, &calib).unwrap();
        let mut max_err = 0.0f32;
        for x in random_inputs(16, 8, 2) {
            let f = model.forward(&x).unwrap();
            let q = qmodel.forward(&x).unwrap();
            for (a, b) in f.iter().zip(&q) {
                max_err = max_err.max((a - b).abs());
            }
        }
        assert!(max_err < 0.1, "softmax outputs diverged by {max_err}");
    }

    #[test]
    fn quantized_argmax_agrees_with_float() {
        let model = dense_model();
        let calib = random_inputs(32, 8, 1);
        let qmodel = quantize_model(&model, &calib).unwrap();
        let mut agree = 0;
        let probes = random_inputs(50, 8, 7);
        for x in &probes {
            let f = model.forward(x).unwrap();
            let q = qmodel.forward(x).unwrap();
            if ei_tensor::ops::argmax(&f) == ei_tensor::ops::argmax(&q) {
                agree += 1;
            }
        }
        assert!(agree >= 45, "only {agree}/50 argmax agreements");
    }

    #[test]
    fn quantized_conv_model_tracks_float() {
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
                activation: Activation::Relu6,
            })
            .layer(LayerSpec::GlobalAvgPool)
            .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        let model = Sequential::build(&spec, 9).unwrap();
        let calib = random_inputs(16, 64, 4);
        let qmodel = quantize_model(&model, &calib).unwrap();
        for x in random_inputs(8, 64, 5) {
            let f = model.forward(&x).unwrap();
            let q = qmodel.forward(&x).unwrap();
            for (a, b) in f.iter().zip(&q) {
                assert!((a - b).abs() < 0.15, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn conv1d_and_pools_quantize() {
        let spec = ModelSpec::new(Dims::new(1, 16, 2))
            .layer(LayerSpec::Conv1d {
                filters: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::AvgPool { size: 2 })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        let model = Sequential::build(&spec, 2).unwrap();
        let calib = random_inputs(16, 32, 6);
        let qmodel = quantize_model(&model, &calib).unwrap();
        for x in random_inputs(4, 32, 8) {
            let f = model.forward(&x).unwrap();
            let q = qmodel.forward(&x).unwrap();
            assert_eq!(ei_tensor::ops::argmax(&f), ei_tensor::ops::argmax(&q), "f {f:?} q {q:?}");
        }
    }

    #[test]
    fn weight_bytes_quarter_of_float() {
        let model = dense_model();
        let calib = random_inputs(8, 8, 1);
        let qmodel = quantize_model(&model, &calib).unwrap();
        let float_bytes = model.param_count() * 4;
        let q_bytes = qmodel.weight_bytes();
        // int8 weights + int32 biases: a bit over 1/4 of float
        assert!(q_bytes < float_bytes / 3, "{q_bytes} vs {float_bytes}");
    }

    #[test]
    fn batchnorm_folded_automatically() {
        let spec = ModelSpec::new(Dims::new(4, 4, 1))
            .layer(LayerSpec::Conv2d {
                filters: 2,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::None,
            })
            .layer(LayerSpec::BatchNorm)
            .layer(LayerSpec::GlobalAvgPool)
            .layer(LayerSpec::Softmax);
        let model = Sequential::build(&spec, 1).unwrap();
        let qmodel = quantize_model(&model, &random_inputs(8, 16, 3)).unwrap();
        assert!(
            qmodel.layers().iter().all(|l| l.spec != LayerSpec::BatchNorm),
            "batchnorm must be folded away"
        );
    }

    #[test]
    fn forward_validates_input_len() {
        let model = dense_model();
        let qmodel = quantize_model(&model, &random_inputs(4, 8, 1)).unwrap();
        assert!(qmodel.forward(&[0.0; 3]).is_err());
    }

    #[test]
    fn relu_bounds_clamp_in_integer_domain() {
        let q = QuantParams::from_range(-2.0, 2.0);
        let (lo, hi) = activation_bounds(Activation::Relu, q);
        assert_eq!(lo, q.zero_point);
        assert_eq!(hi, 127);
        let (lo6, hi6) = activation_bounds(Activation::Relu6, q);
        assert_eq!(lo6, q.zero_point);
        assert!(hi6 <= 127);
    }

    #[test]
    fn requantizer_is_fixed_multiplier_then_zero_point_then_clamp() {
        // exact ties (reals 0.5 and 0.25 on odd accumulators), an unshifted
        // (2e9) and a left-shifting, wrapping (1e12) multiplier, a zero
        // multiplier and the i32 edges, at both zero-point edges
        let reals = [0.25f32, 0.5, 0.37, 1.0, 1.7, 3.0e-5, 2.0e9, 1.0e12, 0.0];
        let mults: Vec<FixedMultiplier> =
            reals.iter().map(|&r| FixedMultiplier::from_real(r)).collect();
        let accs = [i32::MIN, -1_000_001, -3, -2, -1, 0, 1, 2, 3, 777, i32::MAX];
        for out_q in [
            QuantParams::from_range(-2.0, 2.0),
            QuantParams::from_range(0.0, 0.0),
            QuantParams::from_range(-1e-6, 0.0),
        ] {
            for act in [Activation::Relu, Activation::Relu6, Activation::None] {
                let rq = Requantizer::new(&mults, out_q, act);
                let (lo, hi) = activation_bounds(act, out_q);
                for (ch, m) in mults.iter().enumerate() {
                    for acc in accs {
                        let want = m.apply(acc).saturating_add(out_q.zero_point).clamp(lo, hi);
                        assert_eq!(
                            i32::from(rq.apply(ch, acc)),
                            want,
                            "{m:?} {acc} {out_q:?} {act:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn requantize_saturates_at_both_zero_point_edges() {
        // a dead-ReLU layer (calibrated outputs all zero) has zero point
        // -128 and a multiplier in the thousands, so a strongly negative
        // accumulator clamps to i32::MIN before the zero point is added
        let big = [FixedMultiplier::from_real(30_000.0)];
        let dead = QuantParams::from_range(0.0, 0.0);
        assert_eq!(dead.zero_point, -128);
        assert_eq!(Requantizer::new(&big, dead, Activation::Relu).apply(0, -1_000_000), -128);
        // and the mirror image: zero point 127, i32::MAX
        let top = QuantParams::from_range(-1e-6, 0.0);
        assert_eq!(top.zero_point, 127);
        assert_eq!(Requantizer::new(&big, top, Activation::None).apply(0, 1_000_000), 127);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_quantized_close_to_float(seed in 0u64..500) {
            let spec = ModelSpec::new(Dims::new(1, 6, 1))
                .layer(LayerSpec::Flatten)
                .layer(LayerSpec::Dense { units: 8, activation: Activation::Relu })
                .layer(LayerSpec::Dense { units: 3, activation: Activation::None });
            let model = Sequential::build(&spec, seed).unwrap();
            let calib = random_inputs(24, 6, seed);
            let qmodel = quantize_model(&model, &calib).unwrap();
            // probe with calibration samples: inside the calibrated range the
            // int8 grid bounds the error; out-of-range inputs may clip
            for x in calib.iter().take(6) {
                let f = model.forward(x).unwrap();
                let q = qmodel.forward(x).unwrap();
                for (a, b) in f.iter().zip(&q) {
                    prop_assert!((a - b).abs() < 0.25, "float {a} vs quant {b}");
                }
            }
        }
    }
}
