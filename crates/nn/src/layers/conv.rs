//! Convolution kernels: 2-D, depthwise 2-D and 1-D, with backward passes.
//!
//! Layouts (channels last):
//! * activations: `(h, w, c)` row-major;
//! * `Conv2d` weights: `(kh, kw, c_in, c_out)`;
//! * `DepthwiseConv2d` weights: `(kh, kw, c)`;
//! * `Conv1d` weights: `(k, c_in, c_out)`.
//!
//! The [`mod@reference`] loops skip every input that is exactly `±0.0`:
//! ReLU outputs are about half zeros, and adding `0.0 * w` is not a bitwise
//! no-op in general (`-0.0 + 0.0` is `+0.0`, and `0.0 * inf` is NaN). The
//! forward kernels give the same bits, and drop the skip where it cannot
//! change one. That holds for a layer whose weights are all finite and
//! whose biases are neither `-0.0` nor NaN: each accumulator starts at its
//! bias, a sum in round-to-nearest is `-0.0` only when both of its operands
//! are, so no accumulator ever becomes `-0.0`, and adding a product `x * w =
//! ±0.0` of a zero input to one that is not `-0.0` leaves it unchanged (NaN
//! and infinities included). Summing every tap then gives the reference's
//! operands in its order, plus additions that change no bit. The kernels
//! check this on every call (`9 · c + c` floats for a 3×3 depthwise layer)
//! and cache nothing, so a training step that changes the weights is
//! checked again.
//!
//! * A depthwise layer that passes runs plain multiply–adds over a
//!   zero-padded copy of its input, in tiles of output pixels × 8-channel
//!   registers, and the channels past the last whole 8 one at a time; one
//!   that fails runs the reference loop.
//! * A 2-D convolution with at most [`FEW_INPUT_CHANNELS`] input channels
//!   that passes adds every tap in tiles of output pixels, its output
//!   channels split the same way. Every other one
//!   lists each pixel's non-zero inputs and adds only those, which at more
//!   input channels is faster than adding every input, and exact whatever
//!   the weights.
//!
//! Each kernel writes every element of the `out` slice it is given, at the
//! [`F32Level`] it is given; the walker passes the host's
//! [`ei_tensor::simd::f32_level`].

use std::ops::Range;

use ei_tensor::simd::{F32Kernel, F32Level};

use crate::spec::Padding;

use super::conv_out_len;

/// The most output channels whose accumulators one output pixel keeps in
/// registers across all of its taps and input channels.
const BLOCK: usize = 64;

/// The most input channels a 2-D convolution has for it to add every tap
/// when its zero inputs are inert. Taken from a per-layer probe of the
/// KWS and VWW presets on their real inputs: adding every tap ran the
/// VWW stem (1 channel), its 8→16 and 16→32 pointwise layers and the KWS
/// stem (1 channel, a 10×4 window) 1.3–4.2× faster than the non-zero
/// list; at 32 input channels and more adding every tap ran 0.32–1.09×
/// the list's speed, below 1× on all but one of the 15 layers.
pub const FEW_INPUT_CHANNELS: usize = 16;

/// Output pixels per tile of the bodies that add every tap: one weight
/// load feeds this many independent accumulator registers.
const TILE: usize = 4;

/// The most non-zero inputs a direct convolution lists before it adds
/// them: a wider window is listed and added in parts, in order.
const LIST: usize = 256;

/// A direct convolution's non-zero list entry: an input and the offset of
/// its weight row.
type Tap = (f32, usize);

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
struct Conv2dTiles<'a>(Call<'a>);
struct DepthwiseTiles<'a>(Call<'a>);

impl F32Kernel for Conv2dRows<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        conv2d_rows(self.0)
    }
}

impl F32Kernel for Conv2dTiles<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        conv2d_tiles(self.0)
    }
}

impl F32Kernel for DepthwiseTiles<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        depthwise_tiles(self.0)
    }
}

/// Whether adding `x * w` for a zero input `x` leaves every accumulator of
/// a layer with these parameters unchanged: every weight finite and no
/// bias `-0.0` or NaN (see the module docs).
fn zeros_are_inert(weights: &[f32], bias: &[f32]) -> bool {
    let finite = weights.iter().fold(true, |ok, w| ok & w.is_finite());
    let neg_zero = (-0.0f32).to_bits();
    let plain = bias.iter().fold(true, |ok, b| ok & !b.is_nan() & (b.to_bits() != neg_zero));
    finite & plain
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

    /// Inputs under one window: the length of an im2col patch row.
    pub fn window(&self) -> usize {
        self.kernel_h * self.kernel_w * self.in_c
    }

    /// Rows and columns `(hp, wp)` of the zero-padded input that holds
    /// every output pixel's whole window: the input at `(pad_y, pad_x)`,
    /// cut where no window reaches. `(0, 0)` for an empty output.
    pub fn padded(&self) -> (usize, usize) {
        match self.output() {
            (0, _, _, _) | (_, 0, _, _) => (0, 0),
            (oh, ow, _, _) => {
                ((oh - 1) * self.stride + self.kernel_h, (ow - 1) * self.stride + self.kernel_w)
            }
        }
    }

    /// Elements of the zero-padded input ([`Conv2dGeom::padded`]) a
    /// depthwise layer runs over, each pixel's channels padded to a
    /// multiple of 8: the scratch [`depthwise_forward_at`] needs.
    pub fn padded_len(&self) -> usize {
        let (hp, wp) = self.padded();
        hp * wp * self.in_c.next_multiple_of(LANES)
    }
}

/// Standard 2-D convolution forward pass into `out` (`oh · ow · out_c`),
/// compiled for `level`: the same bits at every level.
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
    out: &mut [f32],
) {
    let call = Call { input, weights, bias, g, first: 0, out };
    if g.in_c <= FEW_INPUT_CHANNELS && zeros_are_inert(weights, bias) {
        level.run(Conv2dTiles(call));
    } else {
        level.run(Conv2dRows(call));
    }
}

/// Fills the output rows `[first, first + out.len() / (ow * out_c))` of a
/// 2-D convolution, adding only the non-zero inputs.
///
/// Per output pixel, the non-zero inputs under the kernel are listed first
/// with their weight rows, in ascending `(ky, kx, ci)` order and without a
/// branch: a branch per input would be a coin flip on ReLU outputs. Then
/// each block of 64, 32, 16 or 8 output channels adds `x * w` over the
/// list in registers, starting from the bias, and is stored once; fewer
/// than 8 channels left over accumulate in place. The list is added and
/// emptied before a tap's inputs, taken [`LIST`] at a time, would overflow
/// it, so a window of more than [`LIST`] inputs is listed and added in
/// parts; one check per tap costs less than one per input. Every element
/// sees the
/// operands of [`reference::conv2d_forward`] in its order, so any row
/// partition reproduces it bit for bit.
#[inline(always)]
fn conv2d_rows(call: Call<'_>) {
    let Call { input, weights, bias, g, first, out } = call;
    if out.is_empty() {
        return;
    }
    let (_, ow, py, px) = g.output();
    let (in_c, out_c) = (g.in_c, g.out_c);
    let mut list: [Tap; LIST] = [(0.0, 0); LIST];
    for (orow, oy) in out.chunks_exact_mut(ow * out_c).zip(first..) {
        let (y0, kys) = taps(oy, g.stride, py, g.kernel_h, g.in_h);
        for (ox, acc) in orow.chunks_exact_mut(out_c).enumerate() {
            let (x0, kxs) = taps(ox, g.stride, px, g.kernel_w, g.in_w);
            acc.copy_from_slice(bias);
            let mut count = 0;
            for (iy, ky) in (y0..).zip(kys.clone()) {
                for (ix, kx) in (x0..).zip(kxs.clone()) {
                    let in_base = (iy * g.in_w + ix) * in_c;
                    let w_base = (ky * g.kernel_w + kx) * in_c * out_c;
                    let xs = &input[in_base..in_base + in_c];
                    for (part, xs) in (0..).step_by(LIST).zip(xs.chunks(LIST)) {
                        if count + xs.len() > LIST {
                            madd_list(acc, &list[..count], weights);
                            count = 0;
                        }
                        for (ci, &x) in (part..).zip(xs) {
                            list[count] = (x, w_base + ci * out_c);
                            count += usize::from(x != 0.0);
                        }
                    }
                }
            }
            madd_list(acc, &list[..count], weights);
        }
    }
}

/// `acc[i] += x * weights[at + i]` for each `(x, at)` in `nonzero`, in
/// blocks of output channels.
#[inline(always)]
fn madd_list(acc: &mut [f32], nonzero: &[Tap], weights: &[f32]) {
    let out_c = acc.len();
    let mut cb = 0;
    while cb < out_c {
        let width = [BLOCK, 32, 16, LANES].into_iter().find(|&w| w <= out_c - cb);
        let width = width.unwrap_or(out_c - cb);
        let acc = &mut acc[cb..cb + width];
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

/// `acc[i] += x * weights[at + cb + i]` for each `(x, at)` in `nonzero`,
/// on a block of `N` channels: a fixed size keeps it in registers.
#[inline(always)]
fn madd_block<const N: usize>(acc: &mut [f32], nonzero: &[Tap], weights: &[f32], cb: usize) {
    let acc: &mut [f32; N] = acc.try_into().expect("a block is N long");
    let mut a = *acc;
    for &(x, at) in nonzero {
        let w: &[f32; N] = weights[at + cb..at + cb + N].try_into().expect("N long");
        axpy(&mut a, x, w);
    }
    *acc = a;
}

/// Fills the output rows `[first, first + out.len() / (ow * out_c))` of a
/// 2-D convolution whose zero inputs are inert, adding every in-bounds
/// tap: the output channels in blocks of [`LANES`], then those left over
/// one at a time. Each pass runs tiles of [`TILE`] output pixels whose
/// windows lie inside the input's columns × one block, then the pixels
/// left over one at a time × [`TILE`] blocks, while that many are left. A
/// tap outside the input adds nothing in the reference and is skipped
/// here, so every element sees the reference's non-zero operands in its
/// order, plus additions of `±0.0` that change no bit.
#[inline(always)]
fn conv2d_tiles(call: Call<'_>) {
    let Call { input, weights, bias, g, first, out } = call;
    let conv = ConvOperands { input, weights, bias, g };
    let full = g.out_c - g.out_c % LANES;
    conv2d_blocks::<LANES>(&conv, 0..full, first, out);
    conv2d_blocks::<1>(&conv, full..g.out_c, first, out);
}

/// [`conv2d_tiles`] for the output channels `channels`, in blocks of `N`,
/// `N` dividing their count.
#[inline(always)]
fn conv2d_blocks<const N: usize>(
    conv: &ConvOperands<'_>,
    channels: Range<usize>,
    first: usize,
    out: &mut [f32],
) {
    let g = conv.g;
    let (_, ow, py, px) = g.output();
    let blocks = channels.len() / N;
    if out.is_empty() || blocks == 0 {
        return;
    }
    let inner = inner(ow, g.stride, px, g.kernel_w, g.in_w);
    for (orow, oy) in out.chunks_exact_mut(ow * g.out_c).zip(first..) {
        let ys = taps(oy, g.stride, py, g.kernel_h, g.in_h);
        let mut ox = 0;
        while ox < ow {
            let xs = taps(ox, g.stride, px, g.kernel_w, g.in_w);
            let pixels = if inner.contains(&ox) && ox + TILE <= inner.end { TILE } else { 1 };
            let mut cb = 0;
            while cb < blocks {
                let ch = channels.start + cb * N;
                if pixels == TILE {
                    conv2d_tile::<TILE, 1, N>(conv, ox, ch, ys.clone(), xs.clone(), orow);
                    cb += 1;
                } else if cb + TILE <= blocks {
                    conv2d_tile::<1, TILE, N>(conv, ox, ch, ys.clone(), xs.clone(), orow);
                    cb += TILE;
                } else {
                    conv2d_tile::<1, 1, N>(conv, ox, ch, ys.clone(), xs.clone(), orow);
                    cb += 1;
                }
            }
            ox += pixels;
        }
    }
}

/// The operands of a 2-D convolution's tiles.
struct ConvOperands<'a> {
    input: &'a [f32],
    weights: &'a [f32],
    bias: &'a [f32],
    g: Conv2dGeom,
}

/// `Q` blocks of `N` output channels from `ch` on, of `P` output pixels
/// from `ox` on, all with the window rows `ys` and columns `xs` (the input
/// position of the first pixel's first in-bounds offset, and the offsets):
/// the accumulators stay in registers across the whole window and are
/// stored once.
#[inline(always)]
fn conv2d_tile<const P: usize, const Q: usize, const N: usize>(
    conv: &ConvOperands<'_>,
    ox: usize,
    ch: usize,
    (y0, kys): (usize, Range<usize>),
    (x0, kxs): (usize, Range<usize>),
    orow: &mut [f32],
) {
    let ConvOperands { input, weights, bias, g } = *conv;
    let (in_c, out_c) = (g.in_c, g.out_c);
    let step = g.stride * in_c;
    let (b, _) = bias[ch..][..Q * N].as_chunks::<N>();
    let mut acc = [[[0.0f32; N]; Q]; P];
    for a in &mut acc {
        a.copy_from_slice(b);
    }
    // a window row's in-bounds inputs are contiguous, `(kx, ci)` in
    // ascending order, and so are their weight rows
    let len = kxs.len() * in_c;
    for (iy, ky) in (y0..).zip(kys) {
        let at = (iy * g.in_w + x0) * in_c;
        let xs: [&[f32]; P] = std::array::from_fn(|p| &input[at + p * step..][..len]);
        let row = (ky * g.kernel_w + kxs.start) * in_c * out_c + ch;
        for t in 0..len {
            let (wt, _) = weights[row + t * out_c..][..Q * N].as_chunks::<N>();
            for (a, xs) in acc.iter_mut().zip(&xs) {
                let x = xs[t];
                for (a, wt) in a.iter_mut().zip(wt) {
                    for (a, wt) in a.iter_mut().zip(wt) {
                        *a += x * wt;
                    }
                }
            }
        }
    }
    for (p, a) in acc.into_iter().enumerate() {
        let o = (ox + p) * out_c + ch;
        let (dst, _) = orow[o..][..Q * N].as_chunks_mut::<N>();
        dst.copy_from_slice(&a);
    }
}

/// The output positions whose whole window lies inside `0..len`.
fn inner(out: usize, stride: usize, pad: usize, kernel: usize, len: usize) -> Range<usize> {
    let start = pad.div_ceil(stride);
    let end = match (len + pad).checked_sub(kernel) {
        Some(last) => (last / stride + 1).min(out),
        None => 0,
    };
    start..end.max(start)
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

/// Depthwise 2-D convolution forward pass (channel multiplier 1) into
/// `out` (`oh · ow · c`), compiled for `level`: the same bits at every
/// level. `padded` is scratch of at least [`Conv2dGeom::padded_len`]
/// elements; nothing is read from it that this call did not write.
///
/// # Panics
///
/// Panics if this CPU cannot run `level`, or `padded` is too short.
pub fn depthwise_forward_at(
    level: F32Level,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv2dGeom,
    padded: &mut [f32],
    out: &mut [f32],
) {
    debug_assert_eq!(g.in_c, g.out_c, "depthwise keeps the channel count");
    DepthwisePass::new(input, weights, bias, g, padded).rows(level, 0, out);
}

/// A depthwise layer set up to run in bands of output rows: its input
/// zero-padded to [`Conv2dGeom::padded`] when its zero inputs are inert,
/// for the tiled body; else as given, for the reference loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DepthwisePass<'a> {
    input: &'a [f32],
    padded: bool,
    weights: &'a [f32],
    bias: &'a [f32],
    g: Conv2dGeom,
}

impl<'a> DepthwisePass<'a> {
    /// Checks the layer's parameters and, if its zero inputs are inert,
    /// writes the padded input into `scratch`.
    pub(crate) fn new(
        input: &'a [f32],
        weights: &'a [f32],
        bias: &'a [f32],
        g: Conv2dGeom,
        scratch: &'a mut [f32],
    ) -> DepthwisePass<'a> {
        let xs = &mut scratch[..g.padded_len()];
        if !zeros_are_inert(weights, bias) {
            return DepthwisePass { input, padded: false, weights, bias, g };
        }
        pad(input, g, xs);
        DepthwisePass { input: xs, padded: true, weights, bias, g }
    }

    /// Fills the output rows `[first, first + out.len() / (ow * c))` into
    /// `out`, at `level`.
    pub(crate) fn rows(self, level: F32Level, first: usize, out: &mut [f32]) {
        let DepthwisePass { input, padded, weights, bias, g } = self;
        if padded {
            level.run(DepthwiseTiles(Call { input, weights, bias, g, first, out }));
        } else {
            reference::depthwise_forward_rows(input, weights, bias, g, first, out);
        }
    }
}

/// Writes `input` at `(pad_y, pad_x)` of the image [`Conv2dGeom::padded`]
/// describes, `xs`, each pixel's `c` channels followed by zeros up to the
/// next multiple of [`LANES`], and `0.0` everywhere else: every element of
/// `xs` is written, so no zero is left over from an earlier call.
fn pad(input: &[f32], g: Conv2dGeom, xs: &mut [f32]) {
    let (_, _, py, px) = g.output();
    let (_, wp) = g.padded();
    let c = g.in_c;
    let cp = c.next_multiple_of(LANES);
    // the input columns some window reaches
    let cols = g.in_w.min(wp.saturating_sub(px));
    for (y, row) in xs.chunks_exact_mut((wp * cp).max(1)).enumerate() {
        match y.checked_sub(py).filter(|&iy| iy < g.in_h) {
            Some(iy) => {
                let (left, rest) = row.split_at_mut(px * cp);
                let (mid, right) = rest.split_at_mut(cols * cp);
                left.fill(0.0);
                let src = &input[iy * g.in_w * c..][..cols * c];
                // one copy per row where no pixel has lanes to pad,
                // rather than one short copy per pixel
                if cp == c {
                    mid.copy_from_slice(src);
                } else {
                    for (dst, src) in mid.chunks_exact_mut(cp).zip(src.chunks_exact(c)) {
                        let (dst, lanes) = dst.split_at_mut(c);
                        dst.copy_from_slice(src);
                        lanes.fill(0.0);
                    }
                }
                right.fill(0.0);
            }
            None => row.fill(0.0),
        }
    }
}

/// The depthwise body over a zero-padded input: the channels in blocks of
/// [`LANES`], then those left over one at a time. Each pass runs, per
/// output row, tiles of [`TILE`] output pixels × one block, then the
/// pixels left over one at a time × [`TILE`] blocks, while that many are
/// left. A tile keeps its accumulators in registers across every tap,
/// `(ky, kx)` in ascending order, and is stored once.
#[inline(always)]
fn depthwise_tiles(call: Call<'_>) {
    let Call { input, weights, bias, g, first, out } = call;
    let (_, wp) = g.padded();
    let dw = DepthwiseOperands { input, weights, bias, wp, g };
    let full = g.in_c - g.in_c % LANES;
    depthwise_blocks::<LANES>(&dw, 0..full, first, out);
    depthwise_blocks::<1>(&dw, full..g.in_c, first, out);
}

/// [`depthwise_tiles`] for the channels `channels`, in blocks of `N`, `N`
/// dividing their count. The padded input is read as arrays of `N`, which
/// its pixels' stride (a multiple of [`LANES`]) keeps aligned, so one
/// bounds check covers a block.
#[inline(always)]
fn depthwise_blocks<const N: usize>(
    dw: &DepthwiseOperands<'_>,
    channels: Range<usize>,
    first: usize,
    out: &mut [f32],
) {
    let g = dw.g;
    let (_, ow, _, _) = g.output();
    let blocks = channels.len() / N;
    if out.is_empty() || blocks == 0 {
        return;
    }
    let (xs, _) = dw.input.as_chunks::<N>();
    // arrays of `N` per padded pixel
    let pixel = g.in_c.next_multiple_of(LANES) / N;
    for (orow, oy) in out.chunks_exact_mut(ow * g.in_c).zip(first..) {
        // the padded input of the row's first window
        let origin = oy * g.stride * dw.wp * pixel + channels.start / N;
        let tile =
            |ox, cb| PadTile { xs, pixel, origin: origin + cb, ox, ch: channels.start + cb * N };
        let mut ox = 0;
        while ox + TILE <= ow {
            for cb in 0..blocks {
                depthwise_tile::<TILE, 1, N>(dw, tile(ox, cb), orow);
            }
            ox += TILE;
        }
        for ox in ox..ow {
            let mut cb = 0;
            while cb + TILE <= blocks {
                depthwise_tile::<1, TILE, N>(dw, tile(ox, cb), orow);
                cb += TILE;
            }
            for cb in cb..blocks {
                depthwise_tile::<1, 1, N>(dw, tile(ox, cb), orow);
            }
        }
    }
}

/// A depthwise layer's operands: its zero-padded input, `wp` pixels per
/// row.
struct DepthwiseOperands<'a> {
    input: &'a [f32],
    weights: &'a [f32],
    bias: &'a [f32],
    wp: usize,
    g: Conv2dGeom,
}

/// Where a depthwise tile reads and writes: the padded input `xs` as
/// arrays of `N`, `pixel` per padded pixel; `origin`, the array of the
/// tile's first channel under the row's first window; the tile's first
/// output pixel `ox` and first channel `ch`.
struct PadTile<'a, const N: usize> {
    xs: &'a [[f32; N]],
    pixel: usize,
    origin: usize,
    ox: usize,
    ch: usize,
}

/// `Q` blocks of `N` channels of `P` output pixels, placed by `at`, into
/// the output row `orow`. Either `P` or `Q` is 1: a tile is a row of pixels
/// or of channel blocks, whose accumulators are independent registers.
#[inline(always)]
fn depthwise_tile<const P: usize, const Q: usize, const N: usize>(
    dw: &DepthwiseOperands<'_>,
    at: PadTile<'_, N>,
    orow: &mut [f32],
) {
    let DepthwiseOperands { weights, bias, wp, g, .. } = *dw;
    let PadTile { xs, pixel, origin, ox, ch } = at;
    let c = g.in_c;
    let step = g.stride * pixel;
    let (b, _) = bias[ch..][..Q * N].as_chunks::<N>();
    let mut acc = [[[0.0f32; N]; Q]; P];
    for a in &mut acc {
        a.copy_from_slice(b);
    }
    for ky in 0..g.kernel_h {
        for kx in 0..g.kernel_w {
            let (wt, _) = weights[(ky * g.kernel_w + kx) * c + ch..][..Q * N].as_chunks::<N>();
            let at = origin + (ky * wp + ox * g.stride + kx) * pixel;
            for (p, a) in acc.iter_mut().enumerate() {
                for (q, (a, wt)) in a.iter_mut().zip(wt).enumerate() {
                    let x = xs[at + p * step + q];
                    for ((a, x), wt) in a.iter_mut().zip(x).zip(wt) {
                        *a += x * wt;
                    }
                }
            }
        }
    }
    for (p, a) in acc.into_iter().enumerate() {
        let o = (ox + p) * c + ch;
        let (dst, _) = orow[o..][..Q * N].as_chunks_mut::<N>();
        dst.copy_from_slice(&a);
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

    /// The same convolution as a 2-D one over a single row, with the same
    /// weight layout: the form every forward kernel runs it in.
    pub fn as_2d(&self) -> Conv2dGeom {
        Conv2dGeom {
            in_h: 1,
            in_w: self.in_w,
            in_c: self.in_c,
            out_c: self.out_c,
            kernel_h: 1,
            kernel_w: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }
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
    pub(super) fn depthwise_forward_rows(
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
    use ei_tensor::simd::f32_level;

    fn conv2d_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv2dGeom) -> Vec<f32> {
        let (oh, ow, _, _) = g.output();
        let mut out = vec![f32::NAN; oh * ow * g.out_c];
        conv2d_forward_at(f32_level(), input, weights, bias, g, &mut out);
        out
    }

    fn depthwise_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv2dGeom) -> Vec<f32> {
        let (oh, ow, _, _) = g.output();
        let mut out = vec![f32::NAN; oh * ow * g.in_c];
        let mut padded = vec![f32::NAN; g.padded_len()];
        depthwise_forward_at(f32_level(), input, weights, bias, g, &mut padded, &mut out);
        out
    }

    fn conv1d_forward(input: &[f32], weights: &[f32], bias: &[f32], g: Conv1dGeom) -> Vec<f32> {
        conv2d_forward(input, weights, bias, g.as_2d())
    }

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
