//! Convolution kernels: 2-D, depthwise 2-D and 1-D, with backward passes.
//!
//! Layouts (channels last):
//! * activations: `(h, w, c)` row-major;
//! * `Conv2d` weights: `(kh, kw, c_in, c_out)`;
//! * `DepthwiseConv2d` weights: `(kh, kw, c)`;
//! * `Conv1d` weights: `(k, c_in, c_out)`.
//!
//! The forward kernels skip every input that is exactly `±0.0`, as the
//! [`mod@reference`] loops do: ReLU outputs are about half zeros, and adding
//! `0.0 * w` would not be a bitwise no-op (`-0.0 + 0.0` is `+0.0`, and
//! `0.0 * inf` is NaN). They run at the host's [`F32Level`]; the `_at`
//! variants take the level, for tests and benchmarks.

use std::ops::Range;

use ei_tensor::simd::{f32_level, F32Kernel, F32Level};

use crate::spec::Padding;

use super::conv_out_len;

/// The most output channels whose accumulators one output pixel keeps in
/// registers across all of its taps and input channels.
const BLOCK: usize = 64;

/// The operands of one direct-kernel call: the output rows from `first`
/// on, as many as fit in `out`.
struct Call<'a> {
    input: &'a [f32],
    weights: &'a [f32],
    bias: &'a [f32],
    g: Conv2dGeom,
    first: usize,
    out: &'a mut [f32],
}

struct Conv2dRows<'a>(Call<'a>);
struct DepthwiseRows<'a>(Call<'a>);

impl F32Kernel for Conv2dRows<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        conv2d_rows(self.0)
    }
}

impl F32Kernel for DepthwiseRows<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        depthwise_rows(self.0)
    }
}

/// Geometry of a 2-D convolution (kernels may be rectangular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride in both axes.
    pub stride: usize,
    /// Padding strategy.
    pub padding: Padding,
}

impl Conv2dGeom {
    /// Output `(h, w)` plus leading pads `(pad_y, pad_x)`.
    pub fn output(&self) -> (usize, usize, usize, usize) {
        let (oh, py) = conv_out_len(self.in_h, self.kernel_h, self.stride, self.padding);
        let (ow, px) = conv_out_len(self.in_w, self.kernel_w, self.stride, self.padding);
        (oh, ow, py, px)
    }

    /// Multiply–accumulate count of one forward pass.
    pub fn macs(&self) -> u64 {
        let (oh, ow, _, _) = self.output();
        (oh * ow) as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
            * self.in_c as u64
            * self.out_c as u64
    }
}

/// Standard 2-D convolution forward pass.
pub fn conv2d_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv2dGeom) -> Vec<f32> {
    conv2d_forward_at(f32_level(), input, weights, bias, g)
}

/// [`conv2d_forward`] compiled for `level`: the same bits at every level.
///
/// # Panics
///
/// Panics if this CPU cannot run `level`.
pub fn conv2d_forward_at(
    level: F32Level,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv2dGeom,
) -> Vec<f32> {
    let (oh, ow, _, _) = g.output();
    let mut out = vec![0.0f32; oh * ow * g.out_c];
    level.run(Conv2dRows(Call { input, weights, bias, g, first: 0, out: &mut out }));
    out
}

/// Fills the output rows `[first, first + out.len() / (ow * out_c))` of a
/// 2-D convolution.
///
/// Per output pixel, the non-zero inputs under the kernel are listed first
/// with their weight rows, in ascending `(ky, kx, ci)` order and without a
/// branch: a branch per input would be a coin flip on ReLU outputs. Then
/// each block of 64, 32, 16 or 8 output channels starts at its bias, adds
/// `x * w` over the list in registers, and is stored once; fewer than 8
/// channels left over accumulate in place. Every element sees the operands
/// of [`reference::conv2d_forward`] in its order, so any row partition
/// reproduces it bit for bit.
#[inline(always)]
fn conv2d_rows(call: Call<'_>) {
    let Call { input, weights, bias, g, first, out } = call;
    if out.is_empty() {
        return;
    }
    let (_, ow, py, px) = g.output();
    let (in_c, out_c) = (g.in_c, g.out_c);
    let rows = out.len() / (ow * out_c);
    // (x, offset of its weight row), for the non-zero inputs of one pixel
    let mut nonzero = vec![(0.0f32, 0usize); g.kernel_h * g.kernel_w * in_c];
    for (row, oy) in (first..first + rows).enumerate() {
        let (y0, kys) = taps(oy, g.stride, py, g.kernel_h, g.in_h);
        for ox in 0..ow {
            let (x0, kxs) = taps(ox, g.stride, px, g.kernel_w, g.in_w);
            let mut count = 0;
            for (iy, ky) in (y0..).zip(kys.clone()) {
                for (ix, kx) in (x0..).zip(kxs.clone()) {
                    let in_base = (iy * g.in_w + ix) * in_c;
                    let w_base = (ky * g.kernel_w + kx) * in_c * out_c;
                    for (ci, &x) in input[in_base..in_base + in_c].iter().enumerate() {
                        nonzero[count] = (x, w_base + ci * out_c);
                        count += usize::from(x != 0.0);
                    }
                }
            }
            let nonzero = &nonzero[..count];
            let base = (row * ow + ox) * out_c;
            let mut cb = 0;
            while cb < out_c {
                let width = [BLOCK, 32, 16, LANES].into_iter().find(|&w| w <= out_c - cb);
                let width = width.unwrap_or(out_c - cb);
                let acc = &mut out[base + cb..base + cb + width];
                acc.copy_from_slice(&bias[cb..cb + width]);
                match width {
                    BLOCK => madd_block::<BLOCK>(acc, nonzero, weights, cb),
                    32 => madd_block::<32>(acc, nonzero, weights, cb),
                    16 => madd_block::<16>(acc, nonzero, weights, cb),
                    LANES => madd_block::<LANES>(acc, nonzero, weights, cb),
                    _ => {
                        for &(x, at) in nonzero {
                            axpy(acc, x, &weights[at + cb..at + cb + width]);
                        }
                    }
                }
                cb += width;
            }
        }
    }
}

/// `acc[i] += x * weights[at + cb + i]` for each `(x, at)` in `nonzero`,
/// on a block of `N` channels: a fixed size keeps it in registers.
#[inline(always)]
fn madd_block<const N: usize>(
    acc: &mut [f32],
    nonzero: &[(f32, usize)],
    weights: &[f32],
    cb: usize,
) {
    let acc: &mut [f32; N] = acc.try_into().expect("a block is N long");
    let mut a = *acc;
    for &(x, at) in nonzero {
        let w: &[f32; N] = weights[at + cb..at + cb + N].try_into().expect("N long");
        axpy(&mut a, x, w);
    }
    *acc = a;
}

/// The kernel offsets of output position `o` whose input position lies
/// inside `0..len`, in ascending order, and the input position of the
/// first of them.
#[inline(always)]
fn taps(o: usize, stride: usize, pad: usize, kernel: usize, len: usize) -> (usize, Range<usize>) {
    let start = o * stride;
    let lo = pad.saturating_sub(start).min(kernel);
    let hi = (len + pad).saturating_sub(start).clamp(lo, kernel);
    ((start + lo).saturating_sub(pad), lo..hi)
}

/// The fewest channels a fixed-size block holds: one AVX2 register. A
/// loop over a slice of runtime length leaves 8-, 16- and 32-channel
/// layers scalar once its vector body (8 lanes × 4 interleaved at AVX2) is
/// longer than the slice; a fixed length vectorizes them too.
const LANES: usize = 8;

/// `acc[i] += x * w[i]`.
#[inline(always)]
fn axpy(acc: &mut [f32], x: f32, w: &[f32]) {
    for (a, &w) in acc.iter_mut().zip(w) {
        *a += x * w;
    }
}

/// Standard 2-D convolution backward pass.
///
/// Returns `(grad_in, grad_weights, grad_bias)`.
pub fn conv2d_backward(
    input: &[f32],
    weights: &[f32],
    g: Conv2dGeom,
    grad_out: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow, py, px) = g.output();
    let mut grad_in = vec![0.0f32; input.len()];
    let mut grad_w = vec![0.0f32; weights.len()];
    let mut grad_b = vec![0.0f32; g.out_c];
    for oy in 0..oh {
        for ox in 0..ow {
            let base = (oy * ow + ox) * g.out_c;
            let go = &grad_out[base..base + g.out_c];
            for (co, &gv) in go.iter().enumerate() {
                grad_b[co] += gv;
            }
            for ky in 0..g.kernel_h {
                let iy = (oy * g.stride + ky) as isize - py as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    continue;
                }
                for kx in 0..g.kernel_w {
                    let ix = (ox * g.stride + kx) as isize - px as isize;
                    if ix < 0 || ix as usize >= g.in_w {
                        continue;
                    }
                    let in_base = ((iy as usize) * g.in_w + ix as usize) * g.in_c;
                    let w_base = (ky * g.kernel_w + kx) * g.in_c * g.out_c;
                    for ci in 0..g.in_c {
                        let x = input[in_base + ci];
                        let wrow = &weights[w_base + ci * g.out_c..w_base + (ci + 1) * g.out_c];
                        let gwrow = &mut grad_w[w_base + ci * g.out_c..w_base + (ci + 1) * g.out_c];
                        let mut acc = 0.0f32;
                        for co in 0..g.out_c {
                            acc += wrow[co] * go[co];
                            gwrow[co] += x * go[co];
                        }
                        grad_in[in_base + ci] += acc;
                    }
                }
            }
        }
    }
    (grad_in, grad_w, grad_b)
}

/// Depthwise 2-D convolution forward pass (channel multiplier 1).
pub fn depthwise_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv2dGeom) -> Vec<f32> {
    depthwise_forward_at(f32_level(), input, weights, bias, g)
}

/// [`depthwise_forward`] compiled for `level`: the same bits at every
/// level.
///
/// # Panics
///
/// Panics if this CPU cannot run `level`.
pub fn depthwise_forward_at(
    level: F32Level,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv2dGeom,
) -> Vec<f32> {
    debug_assert_eq!(g.in_c, g.out_c, "depthwise keeps the channel count");
    let (oh, ow, _, _) = g.output();
    let mut out = vec![0.0f32; oh * ow * g.in_c];
    level.run(DepthwiseRows(Call { input, weights, bias, g, first: 0, out: &mut out }));
    out
}

/// Fills the output rows `[oy0, oy0 + out.len() / (ow * c))` of a
/// depthwise convolution into `out`, at the host's [`F32Level`].
pub(crate) fn depthwise_forward_rows(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv2dGeom,
    oy0: usize,
    out: &mut [f32],
) {
    f32_level().run(DepthwiseRows(Call { input, weights, bias, g, first: oy0, out }));
}

/// The depthwise body. Per output pixel and chunk of [`LANES`] channels,
/// the accumulators stay in a local array across the taps, and each tap
/// adds `x * w` as a select: `if x != 0.0 { acc + x * w } else { acc }`.
/// `x != 0.0` holds exactly when `x == 0.0` does not (NaN included), so
/// this is the reference's per-element `continue` with the same operands
/// in the same order, and no branch.
///
/// Two forms that look equivalent are slower. Written `x == 0.0`, the
/// select does not vectorize at the baseline level; applied in place to
/// `out`, it compiles at AVX2 to masked stores, which the next tap's loads
/// cannot forward from.
#[inline(always)]
fn depthwise_rows(call: Call<'_>) {
    let Call { input, weights, bias, g, first, out } = call;
    if out.is_empty() {
        return;
    }
    let (_, ow, py, px) = g.output();
    let c = g.in_c;
    let rows = out.len() / (ow * c);
    let lanes = c - c % LANES;
    for (row, oy) in (first..first + rows).enumerate() {
        let (y0, kys) = taps(oy, g.stride, py, g.kernel_h, g.in_h);
        for ox in 0..ow {
            let (x0, kxs) = taps(ox, g.stride, px, g.kernel_w, g.in_w);
            let base = (row * ow + ox) * c;
            let acc = &mut out[base..base + c];
            acc.copy_from_slice(bias);
            let (ys, xs) = ((y0, kys.clone()), (x0, kxs));
            for ch in (0..lanes).step_by(LANES) {
                let mut block: [f32; LANES] = acc[ch..ch + LANES].try_into().expect("LANES");
                depthwise_pixel(&mut block, ch, input, weights, g, ys.clone(), xs.clone());
                acc[ch..ch + LANES].copy_from_slice(&block);
            }
            for ch in lanes..c {
                depthwise_pixel(
                    &mut acc[ch..ch + 1],
                    ch,
                    input,
                    weights,
                    g,
                    ys.clone(),
                    xs.clone(),
                );
            }
        }
    }
}

/// Channels `ch..ch + acc.len()` of one output pixel: every tap in `ys ×
/// xs` (the input position of the first in-bounds offset, and the
/// offsets) adds into `acc`. A closure here could be compiled apart from
/// the level's wrapper, at the baseline level.
#[inline(always)]
fn depthwise_pixel(
    acc: &mut [f32],
    ch: usize,
    input: &[f32],
    weights: &[f32],
    g: Conv2dGeom,
    (y0, kys): (usize, Range<usize>),
    (x0, kxs): (usize, Range<usize>),
) {
    let (c, n) = (g.in_c, acc.len());
    for (iy, ky) in (y0..).zip(kys) {
        for (ix, kx) in (x0..).zip(kxs.clone()) {
            let at = (iy * g.in_w + ix) * c + ch;
            let wt = (ky * g.kernel_w + kx) * c + ch;
            madd_nonzero(acc, &input[at..at + n], &weights[wt..wt + n]);
        }
    }
}

/// `acc[j] += xs[j] * w[j]` where `xs[j]` is not zero, as a select.
#[inline(always)]
fn madd_nonzero(acc: &mut [f32], xs: &[f32], w: &[f32]) {
    for ((a, &x), &w) in acc.iter_mut().zip(xs).zip(w) {
        let sum = *a + x * w;
        *a = if x != 0.0 { sum } else { *a };
    }
}

/// Depthwise 2-D convolution backward pass.
///
/// Returns `(grad_in, grad_weights, grad_bias)`.
pub fn depthwise_backward(
    input: &[f32],
    weights: &[f32],
    g: Conv2dGeom,
    grad_out: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow, py, px) = g.output();
    let c = g.in_c;
    let mut grad_in = vec![0.0f32; input.len()];
    let mut grad_w = vec![0.0f32; weights.len()];
    let mut grad_b = vec![0.0f32; c];
    for oy in 0..oh {
        for ox in 0..ow {
            let base = (oy * ow + ox) * c;
            for ch in 0..c {
                grad_b[ch] += grad_out[base + ch];
            }
            for ky in 0..g.kernel_h {
                let iy = (oy * g.stride + ky) as isize - py as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    continue;
                }
                for kx in 0..g.kernel_w {
                    let ix = (ox * g.stride + kx) as isize - px as isize;
                    if ix < 0 || ix as usize >= g.in_w {
                        continue;
                    }
                    let in_base = ((iy as usize) * g.in_w + ix as usize) * c;
                    let w_base = (ky * g.kernel_w + kx) * c;
                    for ch in 0..c {
                        let gv = grad_out[base + ch];
                        grad_in[in_base + ch] += weights[w_base + ch] * gv;
                        grad_w[w_base + ch] += input[in_base + ch] * gv;
                    }
                }
            }
        }
    }
    (grad_in, grad_w, grad_b)
}

/// Depthwise MAC count.
pub fn depthwise_macs(g: Conv2dGeom) -> u64 {
    let (oh, ow, _, _) = g.output();
    (oh * ow) as u64 * g.kernel_h as u64 * g.kernel_w as u64 * g.in_c as u64
}

/// Geometry of a 1-D convolution over `(steps, channels)` data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv1dGeom {
    /// Input time steps.
    pub in_w: usize,
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding strategy.
    pub padding: Padding,
}

impl Conv1dGeom {
    /// Output steps plus leading pad.
    pub fn output(&self) -> (usize, usize) {
        conv_out_len(self.in_w, self.kernel, self.stride, self.padding)
    }

    /// Multiply–accumulate count of one forward pass.
    pub fn macs(&self) -> u64 {
        let (ow, _) = self.output();
        ow as u64 * self.kernel as u64 * self.in_c as u64 * self.out_c as u64
    }
}

/// 1-D convolution forward pass.
pub fn conv1d_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv1dGeom) -> Vec<f32> {
    conv1d_forward_at(f32_level(), input, weights, bias, g)
}

/// [`conv1d_forward`] compiled for `level`: the same bits at every level.
///
/// A 1-D convolution is the 2-D one over a single row, with the same
/// weight layout, so it runs [`conv2d_forward_at`]'s kernel.
///
/// # Panics
///
/// Panics if this CPU cannot run `level`.
pub fn conv1d_forward_at(
    level: F32Level,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv1dGeom,
) -> Vec<f32> {
    let g = Conv2dGeom {
        in_h: 1,
        in_w: g.in_w,
        in_c: g.in_c,
        out_c: g.out_c,
        kernel_h: 1,
        kernel_w: g.kernel,
        stride: g.stride,
        padding: g.padding,
    };
    conv2d_forward_at(level, input, weights, bias, g)
}

/// 1-D convolution backward pass.
///
/// Returns `(grad_in, grad_weights, grad_bias)`.
pub fn conv1d_backward(
    input: &[f32],
    weights: &[f32],
    g: Conv1dGeom,
    grad_out: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (ow, pad) = g.output();
    let mut grad_in = vec![0.0f32; input.len()];
    let mut grad_w = vec![0.0f32; weights.len()];
    let mut grad_b = vec![0.0f32; g.out_c];
    for ox in 0..ow {
        let base = ox * g.out_c;
        let go = &grad_out[base..base + g.out_c];
        for (co, &gv) in go.iter().enumerate() {
            grad_b[co] += gv;
        }
        for k in 0..g.kernel {
            let ix = (ox * g.stride + k) as isize - pad as isize;
            if ix < 0 || ix as usize >= g.in_w {
                continue;
            }
            let in_base = (ix as usize) * g.in_c;
            let w_base = k * g.in_c * g.out_c;
            for ci in 0..g.in_c {
                let x = input[in_base + ci];
                let wrow = &weights[w_base + ci * g.out_c..w_base + (ci + 1) * g.out_c];
                let gwrow = &mut grad_w[w_base + ci * g.out_c..w_base + (ci + 1) * g.out_c];
                let mut acc = 0.0f32;
                for co in 0..g.out_c {
                    acc += wrow[co] * go[co];
                    gwrow[co] += x * go[co];
                }
                grad_in[in_base + ci] += acc;
            }
        }
    }
    (grad_in, grad_w, grad_b)
}

/// The direct kernels as they were before they were blocked and compiled
/// per level: one branch per input element, the output row loaded and
/// stored per input channel. These are the oracles the forward kernels
/// are tested against; their bodies stay as they are.
pub mod reference {
    use super::{Conv1dGeom, Conv2dGeom};

    /// Reference 2-D convolution forward pass.
    pub fn conv2d_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv2dGeom) -> Vec<f32> {
        let (oh, ow, _, _) = g.output();
        let mut out = vec![0.0f32; oh * ow * g.out_c];
        if !out.is_empty() {
            conv2d_forward_rows(input, weights, bias, g, 0, &mut out);
        }
        out
    }

    /// Reference depthwise 2-D convolution forward pass.
    pub fn depthwise_forward(
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: Conv2dGeom,
    ) -> Vec<f32> {
        let (oh, ow, _, _) = g.output();
        let mut out = vec![0.0f32; oh * ow * g.in_c];
        if !out.is_empty() {
            depthwise_forward_rows(input, weights, bias, g, 0, &mut out);
        }
        out
    }

    /// Reference 1-D convolution forward pass.
    pub fn conv1d_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv1dGeom) -> Vec<f32> {
        let (ow, _) = g.output();
        let mut out = vec![0.0f32; ow * g.out_c];
        if !out.is_empty() {
            conv1d_forward_steps(input, weights, bias, g, 0, &mut out);
        }
        out
    }

    /// Fills the output rows `[oy0, oy0 + out.len() / (ow * out_c))` of a 2-D
    /// convolution into `out`.
    ///
    /// Every output element is produced by the same accumulation sequence as
    /// in [`conv2d_forward`], so any row partition reproduces it bit for bit.
    fn conv2d_forward_rows(
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: Conv2dGeom,
        oy0: usize,
        out: &mut [f32],
    ) {
        let (_, ow, py, px) = g.output();
        let rows = out.len() / (ow * g.out_c);
        for (row, oy) in (oy0..oy0 + rows).enumerate() {
            for ox in 0..ow {
                let base = (row * ow + ox) * g.out_c;
                out[base..base + g.out_c].copy_from_slice(bias);
                for ky in 0..g.kernel_h {
                    let iy = (oy * g.stride + ky) as isize - py as isize;
                    if iy < 0 || iy as usize >= g.in_h {
                        continue;
                    }
                    for kx in 0..g.kernel_w {
                        let ix = (ox * g.stride + kx) as isize - px as isize;
                        if ix < 0 || ix as usize >= g.in_w {
                            continue;
                        }
                        let in_base = ((iy as usize) * g.in_w + ix as usize) * g.in_c;
                        let w_base = (ky * g.kernel_w + kx) * g.in_c * g.out_c;
                        for ci in 0..g.in_c {
                            let x = input[in_base + ci];
                            if x == 0.0 {
                                continue;
                            }
                            let wrow = &weights[w_base + ci * g.out_c..w_base + (ci + 1) * g.out_c];
                            let orow = &mut out[base..base + g.out_c];
                            for co in 0..g.out_c {
                                orow[co] += x * wrow[co];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Fills the output rows `[oy0, oy0 + out.len() / (ow * c))` of a
    /// depthwise convolution into `out`; see [`conv2d_forward_rows`].
    fn depthwise_forward_rows(
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: Conv2dGeom,
        oy0: usize,
        out: &mut [f32],
    ) {
        let (_, ow, py, px) = g.output();
        let c = g.in_c;
        let rows = out.len() / (ow * c);
        for (row, oy) in (oy0..oy0 + rows).enumerate() {
            for ox in 0..ow {
                let base = (row * ow + ox) * c;
                out[base..base + c].copy_from_slice(bias);
                for ky in 0..g.kernel_h {
                    let iy = (oy * g.stride + ky) as isize - py as isize;
                    if iy < 0 || iy as usize >= g.in_h {
                        continue;
                    }
                    for kx in 0..g.kernel_w {
                        let ix = (ox * g.stride + kx) as isize - px as isize;
                        if ix < 0 || ix as usize >= g.in_w {
                            continue;
                        }
                        let in_base = ((iy as usize) * g.in_w + ix as usize) * c;
                        let w_base = (ky * g.kernel_w + kx) * c;
                        for ch in 0..c {
                            let x = input[in_base + ch];
                            if x == 0.0 {
                                continue;
                            }
                            out[base + ch] += x * weights[w_base + ch];
                        }
                    }
                }
            }
        }
    }

    /// Fills the output steps `[ox0, ox0 + out.len() / out_c)` of a 1-D
    /// convolution into `out`; see [`conv2d_forward_rows`].
    fn conv1d_forward_steps(
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        g: Conv1dGeom,
        ox0: usize,
        out: &mut [f32],
    ) {
        let (_, pad) = g.output();
        let steps = out.len() / g.out_c;
        for (step, ox) in (ox0..ox0 + steps).enumerate() {
            let base = step * g.out_c;
            out[base..base + g.out_c].copy_from_slice(bias);
            for k in 0..g.kernel {
                let ix = (ox * g.stride + k) as isize - pad as isize;
                if ix < 0 || ix as usize >= g.in_w {
                    continue;
                }
                let in_base = (ix as usize) * g.in_c;
                let w_base = k * g.in_c * g.out_c;
                for ci in 0..g.in_c {
                    let x = input[in_base + ci];
                    if x == 0.0 {
                        continue;
                    }
                    let wrow = &weights[w_base + ci * g.out_c..w_base + (ci + 1) * g.out_c];
                    let orow = &mut out[base..base + g.out_c];
                    for co in 0..g.out_c {
                        orow[co] += x * wrow[co];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input
        let g = Conv2dGeom {
            in_h: 3,
            in_w: 3,
            in_c: 1,
            out_c: 1,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: Padding::Valid,
        };
        let input: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let out = conv2d_forward(&input, &[1.0], &[0.0], g);
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_known_sum() {
        // 2x2 all-ones kernel on 3x3 ramp, valid padding
        let g = Conv2dGeom {
            in_h: 3,
            in_w: 3,
            in_c: 1,
            out_c: 1,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            padding: Padding::Valid,
        };
        let input: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let out = conv2d_forward(&input, &[1.0; 4], &[0.0], g);
        // windows: [0,1,3,4]=8, [1,2,4,5]=12, [3,4,6,7]=20, [4,5,7,8]=24
        assert_eq!(out, vec![8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn conv2d_same_padding_keeps_size() {
        let g = Conv2dGeom {
            in_h: 5,
            in_w: 5,
            in_c: 2,
            out_c: 3,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
        };
        let (oh, ow, _, _) = g.output();
        assert_eq!((oh, ow), (5, 5));
        let input = vec![1.0f32; 5 * 5 * 2];
        let weights = vec![0.1f32; 3 * 3 * 2 * 3];
        let out = conv2d_forward(&input, &weights, &[0.0; 3], g);
        assert_eq!(out.len(), 5 * 5 * 3);
        // center output: full 3x3x2 window * 0.1 = 1.8
        let center = (2 * 5 + 2) * 3;
        assert!((out[center] - 1.8).abs() < 1e-5);
        // corner output: only 2x2x2 window inside = 0.8
        assert!((out[0] - 0.8).abs() < 1e-5);
    }

    fn finite_diff_check_conv2d(g: Conv2dGeom) {
        let n_in = g.in_h * g.in_w * g.in_c;
        let n_w = g.kernel_h * g.kernel_w * g.in_c * g.out_c;
        let input: Vec<f32> = (0..n_in).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.1).collect();
        let weights: Vec<f32> = (0..n_w).map(|i| ((i * 5 % 13) as f32 - 6.0) * 0.05).collect();
        let bias = vec![0.1f32; g.out_c];
        let (oh, ow, _, _) = g.output();
        let grad_out = vec![1.0f32; oh * ow * g.out_c];
        let (grad_in, grad_w, grad_b) = conv2d_backward(&input, &weights, g, &grad_out);
        let loss =
            |inp: &[f32], w: &[f32]| -> f32 { conv2d_forward(inp, w, &bias, g).iter().sum() };
        let eps = 1e-2f32;
        for i in (0..n_in).step_by(3) {
            let mut p = input.clone();
            p[i] += eps;
            let mut m = input.clone();
            m[i] -= eps;
            let num = (loss(&p, &weights) - loss(&m, &weights)) / (2.0 * eps);
            assert!((num - grad_in[i]).abs() < 0.05, "grad_in[{i}]: {num} vs {}", grad_in[i]);
        }
        for k in (0..n_w).step_by(5) {
            let mut p = weights.clone();
            p[k] += eps;
            let mut m = weights.clone();
            m[k] -= eps;
            let num = (loss(&input, &p) - loss(&input, &m)) / (2.0 * eps);
            assert!((num - grad_w[k]).abs() < 0.05, "grad_w[{k}]: {num} vs {}", grad_w[k]);
        }
        let expected_b: f32 = (oh * ow) as f32;
        assert!(grad_b.iter().all(|&b| (b - expected_b).abs() < 1e-3));
    }

    #[test]
    fn conv2d_backward_finite_difference_valid() {
        finite_diff_check_conv2d(Conv2dGeom {
            in_h: 4,
            in_w: 4,
            in_c: 2,
            out_c: 2,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Valid,
        });
    }

    #[test]
    fn conv2d_backward_finite_difference_same_strided() {
        finite_diff_check_conv2d(Conv2dGeom {
            in_h: 5,
            in_w: 5,
            in_c: 1,
            out_c: 3,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: Padding::Same,
        });
    }

    #[test]
    fn depthwise_keeps_channels_separate() {
        let g = Conv2dGeom {
            in_h: 2,
            in_w: 2,
            in_c: 2,
            out_c: 2,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: Padding::Valid,
        };
        // channel 0 weight 2, channel 1 weight 3
        let input = vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0];
        let out = depthwise_forward(&input, &[2.0, 3.0], &[0.0, 0.0], g);
        assert_eq!(out, vec![2.0, 30.0, 4.0, 60.0, 6.0, 90.0, 8.0, 120.0]);
    }

    #[test]
    fn depthwise_backward_finite_difference() {
        let g = Conv2dGeom {
            in_h: 4,
            in_w: 4,
            in_c: 3,
            out_c: 3,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
        };
        let n_in = 4 * 4 * 3;
        let n_w = 3 * 3 * 3;
        let input: Vec<f32> = (0..n_in).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect();
        let weights: Vec<f32> = (0..n_w).map(|i| ((i % 5) as f32 - 2.0) * 0.1).collect();
        let bias = vec![0.0f32; 3];
        let (oh, ow, _, _) = g.output();
        let grad_out = vec![1.0f32; oh * ow * 3];
        let (grad_in, grad_w, _) = depthwise_backward(&input, &weights, g, &grad_out);
        let loss =
            |inp: &[f32], w: &[f32]| -> f32 { depthwise_forward(inp, w, &bias, g).iter().sum() };
        let eps = 1e-2f32;
        for i in (0..n_in).step_by(4) {
            let mut p = input.clone();
            p[i] += eps;
            let mut m = input.clone();
            m[i] -= eps;
            let num = (loss(&p, &weights) - loss(&m, &weights)) / (2.0 * eps);
            assert!((num - grad_in[i]).abs() < 0.05);
        }
        for k in 0..n_w {
            let mut p = weights.clone();
            p[k] += eps;
            let mut m = weights.clone();
            m[k] -= eps;
            let num = (loss(&input, &p) - loss(&input, &m)) / (2.0 * eps);
            assert!((num - grad_w[k]).abs() < 0.05);
        }
    }

    #[test]
    fn conv1d_shapes_and_values() {
        let g = Conv1dGeom {
            in_w: 5,
            in_c: 1,
            out_c: 1,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
        };
        let out = conv1d_forward(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 1.0, 1.0], &[0.0], g);
        assert_eq!(out, vec![6.0, 9.0, 12.0]);
        assert_eq!(g.macs(), 3 * 3);
    }

    #[test]
    fn conv1d_backward_finite_difference() {
        let g =
            Conv1dGeom { in_w: 8, in_c: 2, out_c: 3, kernel: 3, stride: 2, padding: Padding::Same };
        let input: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.1).collect();
        let weights: Vec<f32> = (0..3 * 2 * 3).map(|i| ((i % 4) as f32 - 1.5) * 0.2).collect();
        let bias = vec![0.0f32; 3];
        let (ow, _) = g.output();
        let grad_out = vec![1.0f32; ow * 3];
        let (grad_in, grad_w, _) = conv1d_backward(&input, &weights, g, &grad_out);
        let loss =
            |inp: &[f32], w: &[f32]| -> f32 { conv1d_forward(inp, w, &bias, g).iter().sum() };
        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut p = input.clone();
            p[i] += eps;
            let mut m = input.clone();
            m[i] -= eps;
            let num = (loss(&p, &weights) - loss(&m, &weights)) / (2.0 * eps);
            assert!((num - grad_in[i]).abs() < 0.05);
        }
        for k in 0..weights.len() {
            let mut p = weights.clone();
            p[k] += eps;
            let mut m = weights.clone();
            m[k] -= eps;
            let num = (loss(&input, &p) - loss(&input, &m)) / (2.0 * eps);
            assert!((num - grad_w[k]).abs() < 0.05);
        }
    }

    /// A 2×2 input under a 3×3 `Valid` kernel, with `c` channels in and out.
    fn no_room(c: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_h: 2,
            in_w: 2,
            in_c: c,
            out_c: c,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Valid,
        }
    }

    #[test]
    fn conv2d_with_an_empty_output_returns_it() {
        let g = no_room(2);
        assert!(conv2d_forward(&[1.0; 8], &[1.0; 36], &[0.0; 2], g).is_empty());
        assert!(reference::conv2d_forward(&[1.0; 8], &[1.0; 36], &[0.0; 2], g).is_empty());
        let g = Conv2dGeom { out_c: 0, padding: Padding::Same, ..g };
        assert!(conv2d_forward(&[1.0; 8], &[], &[], g).is_empty());
    }

    #[test]
    fn depthwise_with_an_empty_output_returns_it() {
        assert!(depthwise_forward(&[1.0; 8], &[1.0; 18], &[0.0; 2], no_room(2)).is_empty());
        let g = Conv2dGeom { padding: Padding::Same, ..no_room(0) };
        assert!(depthwise_forward(&[], &[], &[], g).is_empty());
        assert!(reference::depthwise_forward(&[], &[], &[], g).is_empty());
    }

    #[test]
    fn conv1d_with_an_empty_output_returns_it() {
        let g = Conv1dGeom {
            in_w: 2,
            in_c: 1,
            out_c: 1,
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
        };
        assert!(conv1d_forward(&[1.0; 2], &[1.0; 3], &[0.0], g).is_empty());
        let g = Conv1dGeom { out_c: 0, padding: Padding::Same, ..g };
        assert!(conv1d_forward(&[1.0; 2], &[], &[], g).is_empty());
        assert!(reference::conv1d_forward(&[1.0; 2], &[], &[], g).is_empty());
    }

    #[test]
    fn mac_counts() {
        let g = Conv2dGeom {
            in_h: 10,
            in_w: 10,
            in_c: 3,
            out_c: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
        };
        assert_eq!(g.macs(), 100 * 9 * 3 * 8);
        assert_eq!(depthwise_macs(g), 100 * 9 * 3);
    }
}
