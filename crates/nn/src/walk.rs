//! The one walk every forward pass takes. Each kernel reads the live
//! activation, writes all of an `out` slice of the resolved output length,
//! and works in [`Scratch`] sized once per model; the walk keeps the
//! activations in [`PingPong`] halves (inference) or a [`ForwardCache`]
//! (training). A reshape, flatten or inference-time dropout passes the
//! live slice on untouched.

use ei_par::ParPool;
use rand::rngs::StdRng;
use rand::Rng;

use crate::layers::conv::Conv2dGeom;
use crate::layers::pool::{pool_f32, pool_window};
use crate::model::{ForwardCache, Layer, BN_EPS};
use crate::par::{conv2d_forward_auto, dense_forward_auto, depthwise_forward_auto, lowers};
use crate::resolve::{Kernel, Resolved};
use crate::spec::Activation;
use crate::Result;

/// Two activation buffers a walk alternates between: each kernel reads the
/// live one (at first, the caller's input) and writes the other half.
#[derive(Debug, Clone)]
pub struct PingPong<T> {
    buf: Vec<T>,
    half: usize,
    /// Which half is live and its length; `None` while the input is.
    live: Option<(usize, usize)>,
}

impl<T: Copy + Default> PingPong<T> {
    /// Two halves of `max_len` elements: room for any activation of at
    /// most that length.
    pub fn new(max_len: usize) -> PingPong<T> {
        PingPong { buf: vec![T::default(); 2 * max_len], half: max_len, live: None }
    }

    /// The live activation: `input` until a step has written one.
    pub fn live<'a>(&'a self, input: &'a [T]) -> &'a [T] {
        match self.live {
            None => input,
            Some((h, len)) => &self.buf[h * self.half..h * self.half + len],
        }
    }

    /// The live activation and the first `len` elements of the other
    /// half, which the caller writes and which are live from then on.
    ///
    /// # Panics
    ///
    /// Panics if `len` is longer than a half.
    pub fn next<'a>(&'a mut self, input: &'a [T], len: usize) -> (&'a [T], &'a mut [T]) {
        let (a, b) = self.buf.split_at_mut(self.half);
        let (src, dst, next): (&[T], &mut [T], usize) = match self.live {
            None => (input, a, 0),
            Some((0, n)) => (&a[..n], b, 1),
            Some((_, n)) => (&b[..n], a, 0),
        };
        self.live = Some((next, len));
        (src, &mut dst[..len])
    }

    /// Overwrites both halves with `junk`. A walk writes every element it
    /// reads, so this never changes a result; tests use it to show that.
    pub fn fill(&mut self, junk: T) {
        self.buf.fill(junk);
    }
}

/// The f32 kernels' working memory, sized once per model: one buffer,
/// so a run allocates it once.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// The patch matrix of a convolution that [`lowers`], or a depthwise
    /// layer's zero-padded input.
    pub patches: Vec<f32>,
}

impl Scratch {
    /// Enough scratch for every kernel in `kernels`.
    pub fn for_kernels(kernels: impl IntoIterator<Item = Kernel>) -> Scratch {
        let patch_matrix = |g: Conv2dGeom| {
            let (oh, ow, _, _) = g.output();
            if lowers(g) {
                oh * ow * g.window()
            } else {
                0
            }
        };
        let mut patches = 0;
        for kernel in kernels {
            patches = patches.max(match kernel {
                Kernel::Conv2d(g) => patch_matrix(g),
                Kernel::Conv1d(g) => patch_matrix(g.as_2d()),
                Kernel::Depthwise(g) => g.padded_len(),
                _ => 0,
            });
        }
        Scratch { patches: vec![0.0; patches] }
    }

    pub(crate) fn for_layers(layers: &[Layer]) -> Scratch {
        Scratch::for_kernels(layers.iter().filter_map(|l| l.resolve().ok()).map(|r| r.kernel))
    }
}

/// Where a walk keeps the activation boundaries: boundary 0 is the input,
/// boundary `i + 1` layer `i`'s output.
pub(crate) trait Slots {
    /// Boundary `i` and the `len` elements boundary `i + 1` is written to.
    fn io<'a>(&'a mut self, input: &'a [f32], i: usize, len: usize) -> (&'a [f32], &'a mut [f32]);
    /// Makes boundary `i + 1` the same values as boundary `i` (in a
    /// ping-pong walk the live slice just stays live).
    fn pass(&mut self, _i: usize) {}
    /// Boundary `i`, the live one in a ping-pong walk.
    fn get<'a>(&'a self, input: &'a [f32], i: usize) -> &'a [f32];
    /// Keeps the dropout mask layer `i` sampled.
    fn keep_mask(&mut self, _i: usize, _mask: Vec<f32>) {}
}

impl Slots for PingPong<f32> {
    fn io<'a>(&'a mut self, input: &'a [f32], _: usize, len: usize) -> (&'a [f32], &'a mut [f32]) {
        self.next(input, len)
    }
    fn get<'a>(&'a self, input: &'a [f32], _: usize) -> &'a [f32] {
        self.live(input)
    }
}

impl Slots for ForwardCache {
    fn io<'a>(&'a mut self, _: &'a [f32], i: usize, len: usize) -> (&'a [f32], &'a mut [f32]) {
        let (done, rest) = self.activations.split_at_mut(i + 1);
        (&done[i], &mut rest[0][..len])
    }
    fn pass(&mut self, i: usize) {
        let (x, out) = self.io(&[], i, self.activations[i].len());
        out.copy_from_slice(x);
    }
    fn get<'a>(&'a self, _: &'a [f32], i: usize) -> &'a [f32] {
        &self.activations[i]
    }
    fn keep_mask(&mut self, i: usize, mask: Vec<f32>) {
        self.masks[i] = Some(mask);
    }
}

/// Runs layer `r` (a layer that computes, not one that passes its input
/// on) from `x` into all of `out`, with its fused activation.
pub(crate) fn run_layer(
    layer: &Layer,
    r: &Resolved,
    pool: &ParPool,
    x: &[f32],
    out: &mut [f32],
    scratch: &mut Scratch,
) -> Result<()> {
    let d = r.input;
    match r.kernel {
        Kernel::Dense { .. } => {
            let (w, b) = layer.params()?;
            dense_forward_auto(pool, x, w, b, out)
        }
        Kernel::Conv1d(g) => {
            let (w, b) = layer.params()?;
            conv2d_forward_auto(pool, x, w, b, g.as_2d(), scratch, out)
        }
        Kernel::Conv2d(g) => {
            let (w, b) = layer.params()?;
            conv2d_forward_auto(pool, x, w, b, g, scratch, out)
        }
        Kernel::Depthwise(g) => {
            let (w, b) = layer.params()?;
            depthwise_forward_auto(pool, x, w, b, g, scratch, out)
        }
        Kernel::MaxPool { size } => pool_f32(x, d, pool_window(d, size), true, out),
        Kernel::AvgPool { size } => pool_f32(x, d, pool_window(d, size), false, out),
        Kernel::GlobalAvgPool => pool_f32(x, d, (d.h, d.w), false, out),
        Kernel::Identity | Kernel::Dropout { .. } => out.copy_from_slice(x),
        Kernel::BatchNorm => {
            let params = layer.params()?.0;
            let c = d.c;
            let (gamma, rest) = params.split_at(c);
            let (beta, rest) = rest.split_at(c);
            let (mean, var) = rest.split_at(c);
            for (opix, pix) in out.chunks_mut(c).zip(x.chunks(c)) {
                for (ch, (o, &v)) in opix.iter_mut().zip(pix).enumerate() {
                    *o = (v - mean[ch]) / (var[ch] + BN_EPS).sqrt() * gamma[ch] + beta[ch];
                }
            }
        }
        Kernel::Softmax => ei_tensor::ops::softmax(x, out),
    }
    if r.activation != Activation::None {
        for v in out.iter_mut() {
            *v = r.activation.apply(*v);
        }
    }
    Ok(())
}

/// Training-time dropout of `x` into `out`: each element kept (scaled by
/// `1 / (1 - rate)`) or zeroed, as the returned mask records.
pub(crate) fn dropout(rate: f32, rng: &mut StdRng, x: &[f32], out: &mut [f32]) -> Vec<f32> {
    let keep = 1.0 - rate;
    let mask: Vec<f32> =
        (0..x.len()).map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 }).collect();
    for ((o, &v), &k) in out.iter_mut().zip(x).zip(&mask) {
        *o = v * k;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::spec::Dims;
    use crate::Sequential;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn poisoned_buffers_leave_every_preset_output_unchanged() {
        // every kernel writes all of its `out`, and every element of the
        // scratch it reads, so whatever the buffers held before a walk —
        // NaN, junk, another walk's activations and padded images — no
        // boundary of any preset moves by a bit
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
            let n = spec.input.len();
            let x: Vec<f32> = (0..n).map(|i| (i * 37 % 101) as f32 / 50.0 - 1.0).collect();
            let mut want = Vec::new();
            model.forward_observed(&x, |_, act| want.push(bits(act))).unwrap();
            let mut acts = PingPong::new(model.peak_activation_elems());
            let mut scratch = Scratch::for_layers(model.layers());
            acts.fill(f32::NAN);
            scratch.patches.fill(f32::NAN);
            let mut got = Vec::new();
            model.walk(&x, &mut acts, &mut scratch, false, None, |_, a| got.push(bits(a))).unwrap();
            assert_eq!(got, want, "{} after NaN", spec.name);
            // a depthwise layer that left any of its padded image's border
            // to an earlier call would add this junk
            for (i, v) in scratch.patches.iter_mut().enumerate() {
                *v = [1.5, -0.0, f32::INFINITY, -3.25e7, f32::NAN][i % 5];
            }
            let mut fresh = PingPong::new(model.peak_activation_elems());
            got.clear();
            model
                .walk(&x, &mut fresh, &mut scratch, false, None, |_, a| got.push(bits(a)))
                .unwrap();
            assert_eq!(got, want, "{} after junk", spec.name);
            // a second walk over the first one's leftovers, from a fresh
            // ping-pong state
            let mut acts2 = PingPong::new(model.peak_activation_elems());
            acts2.buf.copy_from_slice(&acts.buf);
            got.clear();
            model
                .walk(&x, &mut acts2, &mut scratch, false, None, |_, a| got.push(bits(a)))
                .unwrap();
            assert_eq!(got, want, "{} after a walk", spec.name);
        }
    }
}
