//! Pooling kernels with backward passes.
//!
//! Pooling windows are `size`×`size` with stride `size` (non-overlapping),
//! truncating partial windows — the convention the platform's preset
//! architectures use. A 1-D input (`h == 1`) pools over steps, a `1 ×
//! size` window, and global average pooling is one `h × w` window: every
//! forward pool, float or int8, is [`pool`] over a [`pool_window`].

use crate::spec::Dims;

/// Output spatial size of non-overlapping pooling.
pub fn pool_out(input: usize, size: usize) -> usize {
    input / size
}

/// The `(rows, columns)` window of a `size` pool over `d`.
pub fn pool_window(d: Dims, size: usize) -> (usize, usize) {
    (if d.h == 1 { 1 } else { size }, size)
}

/// Channels whose windows [`pool`] folds side by side: one block of
/// accumulators, walked once per window position.
const CHANNEL_BLOCK: usize = 64;

/// Non-overlapping `kh × kw` pooling of a `(h, w, c)` activation into
/// `out`: each output element folds its window's inputs, in row-major
/// order, into `init` with `fold` and is the `finish`ed result.
///
/// The windows of up to 64 channels (`CHANNEL_BLOCK`) are folded
/// together: at each window position one contiguous run of inputs goes
/// into a block of accumulators, one per channel. That changes which
/// elements are folded side by side, never the order of one element's
/// folds, so the bits are those of a per-element loop.
pub fn pool<T: Copy, A>(
    input: &[T],
    (w, c): (usize, usize),
    (kh, kw): (usize, usize),
    out: &mut [T],
    init: A,
    fold: impl Fn(A, T) -> A,
    finish: impl Fn(A) -> T,
) where
    A: Copy,
{
    let ow = w / kw;
    for (px, opx) in out.chunks_exact_mut(c.max(1)).enumerate() {
        let (oy, ox) = (px / ow, px % ow);
        for (block, oblock) in opx.chunks_mut(CHANNEL_BLOCK).enumerate() {
            let c0 = block * CHANNEL_BLOCK;
            let mut acc = [init; CHANNEL_BLOCK];
            let acc = &mut acc[..oblock.len()];
            for ky in 0..kh {
                let row = ((oy * kh + ky) * w + ox * kw) * c + c0;
                for kx in 0..kw {
                    let x = &input[row + kx * c..][..acc.len()];
                    for (a, &v) in acc.iter_mut().zip(x) {
                        *a = fold(*a, v);
                    }
                }
            }
            for (o, &a) in oblock.iter_mut().zip(&*acc) {
                *o = finish(a);
            }
        }
    }
}

/// f32 max (`is_max`) or average pooling of `input` (`d`) over `window`
/// into `out`.
pub fn pool_f32(input: &[f32], d: Dims, window: (usize, usize), is_max: bool, out: &mut [f32]) {
    let norm = 1.0 / (window.0 * window.1) as f32;
    let wc = (d.w, d.c);
    if is_max {
        pool(input, wc, window, out, f32::NEG_INFINITY, |m, v| if v > m { v } else { m }, |m| m);
    } else {
        pool(input, wc, window, out, 0.0, |s, v| s + v * norm, |s| s);
    }
}

/// Backward pass of 2-D max pooling: gradient routes to the (first) argmax
/// element of each window.
pub fn maxpool2d_backward(
    input: &[f32],
    h: usize,
    w: usize,
    c: usize,
    size: usize,
    grad_out: &[f32],
) -> Vec<f32> {
    let (oh, ow) = (pool_out(h, size), pool_out(w, size));
    let mut grad_in = vec![0.0f32; input.len()];
    for oy in 0..oh {
        for ox in 0..ow {
            let base = (oy * ow + ox) * c;
            for ch in 0..c {
                let mut best_idx = 0usize;
                let mut best = f32::NEG_INFINITY;
                for ky in 0..size {
                    for kx in 0..size {
                        let idx = ((oy * size + ky) * w + ox * size + kx) * c + ch;
                        if input[idx] > best {
                            best = input[idx];
                            best_idx = idx;
                        }
                    }
                }
                grad_in[best_idx] += grad_out[base + ch];
            }
        }
    }
    grad_in
}

/// Backward pass of 2-D average pooling: gradient spreads uniformly.
pub fn avgpool2d_backward(h: usize, w: usize, c: usize, size: usize, grad_out: &[f32]) -> Vec<f32> {
    let (oh, ow) = (pool_out(h, size), pool_out(w, size));
    let norm = 1.0 / (size * size) as f32;
    let mut grad_in = vec![0.0f32; h * w * c];
    for oy in 0..oh {
        for ox in 0..ow {
            let base = (oy * ow + ox) * c;
            for ky in 0..size {
                for kx in 0..size {
                    let in_base = ((oy * size + ky) * w + ox * size + kx) * c;
                    for ch in 0..c {
                        grad_in[in_base + ch] += grad_out[base + ch] * norm;
                    }
                }
            }
        }
    }
    grad_in
}

/// Backward pass of global average pooling.
pub fn global_avg_backward(h: usize, w: usize, c: usize, grad_out: &[f32]) -> Vec<f32> {
    let norm = 1.0 / (h * w) as f32;
    let mut grad_in = vec![0.0f32; h * w * c];
    for pix in grad_in.chunks_mut(c) {
        for (g, &go) in pix.iter_mut().zip(grad_out) {
            *g = go * norm;
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `size`-2 pooling of an `(h, w, c)` input into a fresh output.
    fn pooled(is_max: bool, input: &[f32], (h, w, c): (usize, usize, usize)) -> Vec<f32> {
        let d = Dims::new(h, w, c);
        let mut out = vec![f32::NAN; pool_out(h, 2) * pool_out(w, 2) * c];
        pool_f32(input, d, pool_window(d, 2), is_max, &mut out);
        out
    }

    /// The per-element loop [`pool`] replaced, kept as its oracle: each
    /// output element folds its own window, row-major.
    fn pool_per_element<T: Copy, A: Copy>(
        input: &[T],
        d: Dims,
        (kh, kw): (usize, usize),
        init: A,
        fold: impl Fn(A, T) -> A,
        finish: impl Fn(A) -> T,
    ) -> Vec<T> {
        let (w, c, ow) = (d.w, d.c, d.w / kw);
        (0..(d.h / kh) * ow * c)
            .map(|at| {
                let (ch, oy, ox) = (at % c, at / c / ow, at / c % ow);
                let mut acc = init;
                for ky in 0..kh {
                    let row = ((oy * kh + ky) * w + ox * kw) * c + ch;
                    for kx in 0..kw {
                        acc = fold(acc, input[row + kx * c]);
                    }
                }
                finish(acc)
            })
            .collect()
    }

    /// Inputs of `(h, w, c)` with truncated partial windows, a 1-D input
    /// and a global window, each with its window.
    fn shapes(c: usize) -> [(Dims, (usize, usize)); 4] {
        let one_d = Dims::new(1, 9, c);
        [
            (Dims::new(5, 7, c), (2, 2)),
            (one_d, pool_window(one_d, 2)),
            (Dims::new(3, 5, c), (3, 5)),
            (Dims::new(7, 6, c), (3, 3)),
        ]
    }

    const CHANNELS: [usize; 7] = [1, 3, 8, 63, 64, 65, 130];

    #[test]
    fn channel_blocks_keep_each_elements_fold_order() {
        // an order-sensitive fold: any reordering of one window changes it
        let fold = |a: u64, v: u64| a.wrapping_mul(0x100_0000_01b3) ^ v;
        for c in CHANNELS {
            for (d, window) in shapes(c) {
                let input: Vec<u64> = (0..d.len() as u64).map(|i| i * 0x9e37_79b9 + 7).collect();
                let want = pool_per_element(&input, d, window, 0xcbf2, fold, |a| a);
                let mut got = vec![0u64; want.len()];
                pool(&input, (d.w, d.c), window, &mut got, 0xcbf2, fold, |a| a);
                assert_eq!(got, want, "{d:?} {window:?}");
            }
        }
    }

    #[test]
    fn f32_pools_match_the_per_element_bits_on_nan_and_signed_zeros() {
        let specials = [f32::NAN, 0.0, -0.0, -1.5, 3.25e-3, f32::NEG_INFINITY, 7.0, -0.0, 1e30];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for c in CHANNELS {
            for (d, window) in shapes(c) {
                let input: Vec<f32> = (0..d.len()).map(|i| specials[(i * 7 + i / 5) % 9]).collect();
                let norm = 1.0 / (window.0 * window.1) as f32;
                let max = pool_per_element(
                    &input,
                    d,
                    window,
                    f32::NEG_INFINITY,
                    |m, v| if v > m { v } else { m },
                    |m| m,
                );
                let avg = pool_per_element(&input, d, window, 0.0, |s, v| s + v * norm, |s| s);
                for (is_max, want) in [(true, max), (false, avg)] {
                    let mut got = vec![f32::NAN; want.len()];
                    pool_f32(&input, d, window, is_max, &mut got);
                    assert_eq!(bits(&got), bits(&want), "max {is_max} {d:?} {window:?}");
                }
            }
        }
    }

    #[test]
    fn maxpool_picks_maxima() {
        // 4x4x1, 2x2 pooling
        #[rustfmt::skip]
        let input = vec![
            1.0, 5.0, 2.0, 0.0,
            3.0, 2.0, 8.0, 1.0,
            0.0, 0.0, 1.0, 1.0,
            9.0, 0.0, 1.0, 2.0,
        ];
        let out = pooled(true, &input, (4, 4, 1));
        assert_eq!(out, vec![5.0, 8.0, 9.0, 2.0]);
    }

    #[test]
    fn maxpool_truncates_partial_windows() {
        let input = vec![1.0; 5 * 5];
        let out = pooled(true, &input, (5, 5, 1));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        #[rustfmt::skip]
        let input = vec![
            1.0, 5.0,
            3.0, 2.0,
        ];
        let grad = maxpool2d_backward(&input, 2, 2, 1, 2, &[7.0]);
        assert_eq!(grad, vec![0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_averages() {
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let out = pooled(false, &input, (2, 2, 1));
        assert_eq!(out, vec![2.5]);
        let grad = avgpool2d_backward(2, 2, 1, 2, &[4.0]);
        assert_eq!(grad, vec![1.0; 4]);
    }

    #[test]
    fn pooling_respects_channels() {
        // 2x2x2: channel 0 = [1,2,3,4], channel 1 = [10,20,30,40]
        let input = vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0];
        let mx = pooled(true, &input, (2, 2, 2));
        assert_eq!(mx, vec![4.0, 40.0]);
        let avg = pooled(false, &input, (2, 2, 2));
        assert_eq!(avg, vec![2.5, 25.0]);
    }

    #[test]
    fn global_avg_and_backward() {
        let input = vec![1.0, 10.0, 3.0, 30.0];
        let mut out = [f32::NAN; 2];
        pool_f32(&input, Dims::new(2, 1, 2), (2, 1), false, &mut out);
        assert_eq!(out, [2.0, 20.0]);
        let grad = global_avg_backward(2, 1, 2, &[4.0, 8.0]);
        assert_eq!(grad, vec![2.0, 4.0, 2.0, 4.0]);
    }

    #[test]
    fn avgpool_gradient_conserves_mass() {
        let grad_out = vec![1.0f32; 4];
        let grad_in = avgpool2d_backward(4, 4, 1, 2, &grad_out);
        let total_out: f32 = grad_out.iter().sum();
        let total_in: f32 = grad_in.iter().sum();
        assert!((total_out - total_in).abs() < 1e-6);
    }
}
