//! Fully int8 quantized models with integer inference kernels.
//!
//! Weights are symmetric per-channel int8, biases int32 at scale
//! `s_in * s_w`, activations asymmetric per-tensor int8, and every
//! requantization uses the fixed-point multiplier from
//! [`crate::qparams::FixedMultiplier`] — the same scheme TFLite Micro
//! executes on Cortex-M targets (paper §4.5).

use crate::calibrate::{calibrate, ActivationRanges};
use crate::fusion::fold_batch_norm;
use crate::qparams::{ChannelQuant, FixedMultiplier, QuantParams};
use crate::{QuantError, Result};
use ei_nn::layers::conv::Conv2dGeom;
use ei_nn::layers::im2col::im2col_2d;
use ei_nn::layers::pool::{pool, pool_window};
use ei_nn::resolve::Kernel;
use ei_nn::spec::{Activation, Dims, LayerSpec};
use ei_nn::walk::PingPong;
use ei_nn::Sequential;
use ei_tensor::simd::{
    self, DepthwiseShape, I8Scratch, Level, PackedDepthwise, PackedI8, Requantizer, RowEpilogue,
    ScratchLen,
};

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

    /// The requantization this layer's kernel applies, built for `level`:
    /// `None` for a layer without multipliers, one whose activation has no
    /// integer epilogue (sigmoid, tanh), or a level this host cannot run.
    pub fn requantizer(&self, level: Level) -> Option<Requantizer> {
        let act = self.spec.resolve(self.input).ok()?.activation;
        if matches!(act, Activation::Sigmoid | Activation::Tanh) {
            return None;
        }
        requantizer(level, self.multipliers.as_ref()?, self.out_q, act)
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
        self.forward_observed(input, |_, _| {})
    }

    /// [`QuantizedModel::forward`] that shows every layer boundary's raw
    /// int8 codes to `observe` as the walk produces them: `observe(0, ..)`
    /// with the quantized input, then `observe(i + 1, ..)` with layer `i`'s
    /// output while it is the live activation. This is the byte-level view
    /// an arena-backed executor stores.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InputLengthMismatch`] for wrongly sized input.
    pub fn forward_observed(
        &self,
        input: &[f32],
        observe: impl FnMut(usize, &[i8]),
    ) -> Result<Vec<f32>> {
        self.check_input(input.len())?;
        let mut bufs = Buffers::new(self);
        for (c, &x) in bufs.acts.next(&[], input.len()).1.iter_mut().zip(input) {
            *c = self.input_q.quantize(x);
        }
        self.walk(&[], &mut bufs, observe)?;
        Ok(self.output_q.dequantize_slice(bufs.acts.live(&[])))
    }

    /// Every layer boundary's raw int8 codes, starting with the quantized
    /// input: [`QuantizedModel::forward_observed`], kept.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InputLengthMismatch`] for wrongly sized input.
    pub fn trace_raw(&self, input: &[f32]) -> Result<Vec<Vec<i8>>> {
        let mut trace = Vec::with_capacity(self.layers.len() + 1);
        self.forward_observed(input, |_, codes| trace.push(codes.to_vec()))?;
        Ok(trace)
    }

    /// Runs the pure-integer inference path.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InputLengthMismatch`] for wrongly sized input.
    pub fn forward_quantized(&self, input: &[i8]) -> Result<Vec<i8>> {
        self.check_input(input.len())?;
        let mut bufs = Buffers::new(self);
        self.walk(input, &mut bufs, |_, _| {})?;
        Ok(bufs.acts.live(input).to_vec())
    }

    fn check_input(&self, len: usize) -> Result<()> {
        let expected = self.input_dims.len();
        if len != expected {
            return Err(QuantError::InputLengthMismatch { expected, actual: len });
        }
        Ok(())
    }

    /// The one int8 walk: from the live codes (`input` until a step has
    /// written), each layer's kernel writes the other ping-pong half, and
    /// every boundary is shown to `observe`. A reshape, flatten or dropout
    /// passes the live codes on.
    fn walk(
        &self,
        input: &[i8],
        bufs: &mut Buffers,
        mut observe: impl FnMut(usize, &[i8]),
    ) -> Result<()> {
        observe(0, bufs.acts.live(input));
        for (i, layer) in self.layers.iter().enumerate() {
            if !matches!(
                layer.spec,
                LayerSpec::Reshape { .. } | LayerSpec::Flatten | LayerSpec::Dropout { .. }
            ) {
                let (x, out) = bufs.acts.next(input, layer.output.len());
                run_qlayer(layer, x, &mut bufs.scratch, out)?;
            }
            observe(i + 1, bufs.acts.live(input));
        }
        Ok(())
    }
}

/// What one int8 walk needs, sized once from the model: two ping-pong
/// activations and the kernels' scratch.
#[derive(Debug)]
struct Buffers {
    acts: PingPong<i8>,
    scratch: I8Scratch,
}

impl Buffers {
    fn new(model: &QuantizedModel) -> Buffers {
        let kernels = model.layers.iter().filter_map(|l| l.kernel.as_ref());
        let len =
            kernels.map(LayerKernel::scratch_len).fold(ScratchLen::default(), ScratchLen::max);
        Buffers { acts: PingPong::new(model.peak_activation_elems()), scratch: I8Scratch::new(len) }
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
    quantize_calibrated(&fused, &ranges)
}

/// Quantizes a `BatchNorm`-free model against its calibrated `ranges`.
fn quantize_calibrated(fused: &Sequential, ranges: &ActivationRanges) -> Result<QuantizedModel> {
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
                let wf = w.as_f32();
                let cq = ChannelQuant::from_weights(wf, out_c);
                let qw = cq.quantize(wf);
                let qb = bias.as_ref().map(|b| {
                    b.as_f32()
                        .iter()
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

/// `mults` with output `out_q` and `act`'s clamp as a [`Requantizer`] for
/// `level`, or `None` if this host cannot run `level`.
fn requantizer(
    level: Level,
    mults: &[FixedMultiplier],
    out_q: QuantParams,
    act: Activation,
) -> Option<Requantizer> {
    let (lo, hi) = activation_bounds(act, out_q);
    // zero points and clamp bounds lie in the int8 range by construction
    // (`QuantParams::from_range` clamps them, `activation_bounds` too)
    let mults = mults.iter().map(|m| (m.mantissa, m.shift));
    Requantizer::with_level(level, mults, out_q.zero_point as i8, (lo as i8, hi as i8))
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
    fn new(layer: &QLayer, level: Level, cq: &ChannelQuant, act: Activation) -> Option<Self> {
        Some(if matches!(act, Activation::Sigmoid | Activation::Tanh) {
            Epilogue::Float {
                act,
                in_scale: layer.in_q.scale,
                scales: cq.scales.clone(),
                out_q: layer.out_q,
            }
        } else {
            Epilogue::Fixed(layer.requantizer(level)?)
        })
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
    /// A convolution (a 1-D one as its single-row 2-D form) lowered
    /// through im2col.
    Conv2d(Conv2dGeom, PackedI8),
    Depthwise(PackedDepthwise),
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
        let (Some(w), Some(cq), Some(_)) = (&layer.weights, &layer.w_quant, &layer.multipliers)
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
            Kernel::Conv1d(g) => conv2d_op(g.as_2d(), gemm)?,
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
                KernelOp::Depthwise(PackedDepthwise::with_level(level, shape, w, &bias)?)
            }
            _ => return None,
        };
        let epilogue = Epilogue::new(layer, level, cq, r.activation)?;
        Some(LayerKernel { op, in_zp, epilogue })
    }

    /// The scratch [`LayerKernel::run`] works in.
    fn scratch_len(&self) -> ScratchLen {
        match &self.op {
            KernelOp::Direct { packed, .. } => packed.scratch_len(),
            KernelOp::Conv2d(g, packed) => {
                let (oh, ow, _, _) = g.output();
                ScratchLen { patches: oh * ow * g.window(), ..packed.scratch_len() }
            }
            KernelOp::Depthwise(packed) => packed.scratch_len(),
        }
    }

    /// Runs the layer from `input` into all of `out`.
    fn run(&self, input: &[i8], scratch: &mut I8Scratch, out: &mut [i8]) {
        match &self.epilogue {
            Epilogue::Fixed(r) => self.run_with(r, input, scratch, out),
            Epilogue::Float { act, in_scale, scales, out_q } => {
                let float = |ch: usize, acc: i32| {
                    out_q.quantize(act.apply(acc as f32 * in_scale * scales[ch]))
                };
                self.run_with(float, input, scratch, out)
            }
        }
    }

    /// [`LayerKernel::run`] with the epilogue resolved once.
    fn run_with(
        &self,
        epilogue: impl RowEpilogue,
        input: &[i8],
        scratch: &mut I8Scratch,
        out: &mut [i8],
    ) {
        match &self.op {
            KernelOp::Direct { m, packed } => packed.gemm(*m, input, epilogue, scratch, out),
            KernelOp::Conv2d(g, packed) => {
                // padding taps hold the zero-point code, so `(x - zp) * w ==
                // 0` exactly where the naive kernel's bounds check skipped
                let (oh, ow, _, _) = g.output();
                // the patches are the GEMM's input, so they leave the
                // scratch while it runs
                let mut patches = std::mem::take(&mut scratch.patches);
                let a = &mut patches[..oh * ow * g.window()];
                im2col_2d(input, *g, self.in_zp, a);
                packed.gemm(oh * ow, a, epilogue, scratch, out);
                scratch.patches = patches;
            }
            KernelOp::Depthwise(packed) => packed.run(input, self.in_zp, epilogue, scratch, out),
        }
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

/// Executes one quantized layer from `input` into all of `out`.
fn run_qlayer(layer: &QLayer, input: &[i8], scratch: &mut I8Scratch, out: &mut [i8]) -> Result<()> {
    if let Some(kernel) = &layer.kernel {
        kernel.run(input, scratch, out);
        return Ok(());
    }
    let d = layer.input;
    match layer.spec.resolve(d)?.kernel {
        Kernel::Dense { .. } | Kernel::Conv1d(_) | Kernel::Conv2d(_) | Kernel::Depthwise(_) => {
            return Err(QuantError::UnsupportedLayer(format!(
                "{} has no quantized weights",
                layer.spec.op_name()
            )))
        }
        Kernel::MaxPool { size } => {
            let window = pool_window(d, size);
            pool(input, (d.w, d.c), window, out, i8::MIN, |m, v| m.max(v), |m| m)
        }
        Kernel::AvgPool { size } => avgpool_q(input, d, pool_window(d, size), out),
        Kernel::GlobalAvgPool => avgpool_q(input, d, (d.h, d.w), out),
        Kernel::Identity | Kernel::Dropout { .. } => out.copy_from_slice(input),
        Kernel::BatchNorm => {
            return Err(QuantError::UnsupportedLayer(
                "batch_norm must be folded before quantized execution".into(),
            ))
        }
        Kernel::Softmax => {
            // no integer softmax: the float one over the dequantized codes,
            // requantized; each exponential is taken again rather than kept
            let real = |q: i8| layer.in_q.dequantize(q);
            let max = input.iter().map(|&q| real(q)).fold(f32::NEG_INFINITY, f32::max);
            let sum: f32 = input.iter().map(|&q| (real(q) - max).exp()).sum();
            for (o, &q) in out.iter_mut().zip(input) {
                *o = layer.out_q.quantize((real(q) - max).exp() / sum);
            }
        }
    }
    Ok(())
}

/// int8 average pooling over `window` into `out`, with rounded integer
/// division.
fn avgpool_q(input: &[i8], d: Dims, (kh, kw): (usize, usize), out: &mut [i8]) {
    let n = (kh * kw) as i32;
    pool(
        input,
        (d.w, d.c),
        (kh, kw),
        out,
        0,
        |s, v| s + i32::from(v),
        |s| {
            let r = if s >= 0 { (s + n / 2) / n } else { (s - n / 2) / n };
            r.clamp(-128, 127) as i8
        },
    );
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

    /// Everything of a quantized model that its bytes are made of, with
    /// every float as its bits.
    fn quantized_bits(q: &QuantizedModel) -> Vec<String> {
        let qp = |p: QuantParams| (p.scale.to_bits(), p.zero_point);
        let mut out = vec![format!("{:?} {:?}", qp(q.input_qparams()), qp(q.output_qparams()))];
        for l in q.layers() {
            let scales = l
                .w_quant
                .as_ref()
                .map(|c| c.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>());
            out.push(format!(
                "{:?} {:?} {:?} {:?} {:?} {scales:?} {:?}",
                qp(l.in_q),
                qp(l.out_q),
                l.weights,
                l.bias,
                l.multipliers,
                l.spec
            ));
        }
        out
    }

    #[test]
    fn streaming_and_reference_calibration_quantize_preset_models_identically() {
        use crate::calibrate::calibrate_reference;
        use ei_nn::presets;
        let cases = [
            ("kws", presets::ds_cnn(Dims::new(99, 10, 1), 4, 64)),
            ("vww", presets::mobilenet_v1(Dims::new(96, 96, 1), 2, 0.25)),
            ("ic", presets::cifar_cnn(Dims::new(32, 32, 3), 10)),
        ];
        for (name, spec) in cases {
            let model = Sequential::build(&spec, 7).unwrap();
            let (fused, _) = fold_batch_norm(&model).unwrap();
            let calib = random_inputs(3, spec.input.len(), 11);
            let streamed = calibrate(&fused, &calib).unwrap();
            let reference = calibrate_reference(&fused, &calib).unwrap();
            assert_eq!(streamed.len(), reference.len());
            for i in 0..streamed.len() {
                assert_eq!(streamed.range(i), reference.range(i), "{name} boundary {i}");
            }
            let a = quantize_calibrated(&fused, &streamed).unwrap();
            let b = quantize_calibrated(&fused, &reference).unwrap();
            assert_eq!(quantized_bits(&a), quantized_bits(&b), "{name}");
            assert_eq!(
                quantized_bits(&quantize_model(&model, &calib).unwrap()),
                quantized_bits(&a)
            );
        }
    }

    #[test]
    fn poisoned_buffers_leave_every_preset_output_unchanged() {
        // every int8 kernel writes all of its `out` and overwrites the
        // scratch it reads, so junk in the buffers before a walk moves no
        // boundary code, at any level
        use ei_nn::presets;
        use ei_tensor::simd::supported_levels;
        let specs = [
            presets::ds_cnn(Dims::new(99, 10, 1), 4, 64),
            presets::mobilenet_v1(Dims::new(96, 96, 1), 2, 0.25),
            presets::mobilenet_v2_like(Dims::new(32, 32, 3), 3, 0.35),
            presets::conv1d_stack(Dims::new(49, 13, 1), 4, 3, 8),
            presets::cifar_cnn(Dims::new(32, 32, 3), 10),
            presets::dense_mlp(Dims::new(1, 33, 1), 3, 20),
        ];
        for spec in specs {
            let model = Sequential::build(&spec, 7).unwrap();
            let calib = random_inputs(2, spec.input.len(), 3);
            let quantized = quantize_model(&model, &calib).unwrap();
            let codes =
                quantized.input_qparams().quantize_slice(&random_inputs(1, calib[0].len(), 4)[0]);
            for level in supported_levels() {
                let q = quantized.with_kernel_level(level).unwrap();
                let mut want = Vec::new();
                q.walk(&codes, &mut Buffers::new(&q), |_, c| want.push(c.to_vec())).unwrap();
                let mut bufs = Buffers::new(&q);
                bufs.acts.fill(0x5a);
                let s = &mut bufs.scratch;
                s.acc.fill(i32::MIN + 7);
                s.xq.fill(0xdead_beef);
                s.wide.fill(-12_345);
                s.patches.fill(-77);
                let mut got = Vec::new();
                q.walk(&codes, &mut bufs, |_, c| got.push(c.to_vec())).unwrap();
                assert_eq!(got, want, "{} at {level:?}", spec.name);
            }
        }
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
        // multiplier and the i32 edges, at both zero-point edges; at every
        // level, element by element and a whole row of channels at a time
        use ei_tensor::simd::supported_levels;
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
                let (lo, hi) = activation_bounds(act, out_q);
                for level in supported_levels() {
                    let rq = requantizer(level, &mults, out_q, act).unwrap();
                    for acc in accs {
                        let mut row = vec![0i8; mults.len()];
                        (&rq).retire(&vec![acc; mults.len()], &mut row);
                        for (ch, m) in mults.iter().enumerate() {
                            let want = m.apply(acc).saturating_add(out_q.zero_point).clamp(lo, hi);
                            let at = format!("{m:?} {acc} {out_q:?} {act:?} {level:?}");
                            assert_eq!(i32::from(rq.apply(ch, acc)), want, "{at}");
                            assert_eq!(i32::from(row[ch]), want, "row {at}");
                        }
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
        let rq = |out_q, act| requantizer(Level::Baseline, &big, out_q, act).unwrap();
        let dead = QuantParams::from_range(0.0, 0.0);
        assert_eq!(dead.zero_point, -128);
        assert_eq!(rq(dead, Activation::Relu).apply(0, -1_000_000), -128);
        // and the mirror image: zero point 127, i32::MAX
        let top = QuantParams::from_range(-1e-6, 0.0);
        assert_eq!(top.zero_point, 127);
        assert_eq!(rq(top, Activation::None).apply(0, 1_000_000), 127);
    }

    #[test]
    fn int8_average_pools_round_half_away_from_zero() {
        // small codes put many window sums, negative ones too, exactly on a
        // half (2x2 and 1x2 windows) or next to one (the odd 3x5 window);
        // full-range codes reach the int8 edges
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for c in [1, 3, 8, 63, 64, 65, 130] {
            for (d, (kh, kw)) in [
                (Dims::new(4, 6, c), (2, 2)),
                (Dims::new(1, 9, c), (1, 2)),
                (Dims::new(3, 5, c), (3, 5)),
                (Dims::new(5, 7, c), (2, 2)),
            ] {
                for spread in [4u64, 256] {
                    let input: Vec<i8> = (0..d.len())
                        .map(|_| {
                            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                            (((state >> 33) % spread) as i32 - (spread / 2) as i32) as i8
                        })
                        .collect();
                    let (oh, ow) = (d.h / kh, d.w / kw);
                    let mut got = vec![0x5ai8; oh * ow * c];
                    avgpool_q(&input, d, (kh, kw), &mut got);
                    for (at, &g) in got.iter().enumerate() {
                        let (ch, oy, ox) = (at % c, at / c / ow, at / c % ow);
                        let mut sum = 0i32;
                        for y in oy * kh..(oy + 1) * kh {
                            for x in ox * kw..(ox + 1) * kw {
                                sum += i32::from(input[(y * d.w + x) * c + ch]);
                            }
                        }
                        let want = (f64::from(sum) / (kh * kw) as f64).round() as i8;
                        assert_eq!(g, want, "sum {sum} over {kh}x{kw} {d:?} at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_pruned_channel_quantizes_to_the_zero_multiplier() {
        // unit 0's weights are all zero and unit 1's bias widens the output
        // range, so unit 0's multiplier is far below 2^-32: it must encode
        // as zero rather than overflow the requantizer's shifts
        use ei_tensor::simd::supported_levels;
        let spec = ModelSpec::new(Dims::new(1, 8, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 4, activation: Activation::None });
        let mut model = Sequential::build(&spec, 5).unwrap();
        let dense = &mut model.layers_mut()[1];
        let w = dense.weights.as_mut().unwrap().as_f32_mut();
        for row in w.chunks_mut(4) {
            row[0] = 0.0;
        }
        dense.bias.as_mut().unwrap().as_f32_mut()[1] = 1000.0;
        let calib = random_inputs(8, 8, 2);
        let quantized = quantize_model(&model, &calib).unwrap();
        let dense = &quantized.layers()[1];
        assert_eq!(dense.multipliers.as_ref().unwrap()[0], FixedMultiplier::from_real(0.0));
        let out_scale = dense.out_q.scale;
        for x in &calib {
            let want = model.forward(x).unwrap();
            for level in supported_levels() {
                let got = quantized.with_kernel_level(level).unwrap().forward(x).unwrap();
                for (a, b) in want.iter().zip(&got) {
                    assert!((a - b).abs() <= out_scale, "{a} vs {b} at {level:?}");
                }
            }
        }
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
