//! Pool-gated forward kernels: im2col + blocked GEMM, fanned out over
//! the worker pool.
//!
//! The serial kernels in [`crate::layers`] accumulate each output element
//! over its inputs in a fixed index order, skipping zero inputs; the
//! convolutions' oracles are [`crate::layers::conv::reference`]. The
//! `_auto` variants here lower dense/conv layers onto the cache-blocked
//! GEMM in [`ei_tensor::gemm`] (convolutions via
//! [`crate::layers::im2col`]) and partition the *output* (GEMM rows,
//! dense columns, depthwise row bands) into disjoint chunks, one
//! [`ei_par::ParPool`] task each. The blocked kernel replays the exact
//! per-element accumulation sequence of the naive loops (ascending input
//! index, same `x == 0.0` skip), so every partition — and any
//! `EI_THREADS` — is bitwise-identical to the serial kernel.
//!
//! Small layers are not worth the lowering or the fan-out: anything
//! below [`PAR_MIN_MACS`] multiply–accumulates, and any layer on a
//! serial pool (`EI_THREADS=1`), takes the serial direct kernel.

use crate::layers::conv::{
    conv1d_forward, conv2d_forward, depthwise_forward, depthwise_forward_rows, depthwise_macs,
    Conv1dGeom, Conv2dGeom,
};
use crate::layers::dense::{dense_forward, dense_macs};
use crate::layers::im2col::{im2col_1d, im2col_2d};
use ei_par::ParPool;
use ei_tensor::gemm::{gemm_f32, gemm_f32_acc};

/// Layers below this many multiply–accumulates run serially: the cost of
/// queueing and waking workers would outweigh the arithmetic.
pub const PAR_MIN_MACS: u64 = 131_072;

/// Convolutions below this many multiply–accumulates skip the im2col
/// lowering and run the direct serial kernel.
///
/// The conv gate is much higher than [`PAR_MIN_MACS`] because lowering
/// pays for a full patch-matrix materialization (a `kh·kw`-fold copy of
/// the input) before the GEMM even starts. On TinyML-sized convolutions
/// — e.g. a 49×10×64 keyword-spotting feature map at ~18 M MACs — that
/// gather traffic costs more than the arithmetic saved, and the blocked
/// path benchmarked at 0.88× the naive kernel. Every convolution of the
/// preset KWS, VWW and image models is below this bar, so f32 inference
/// runs the direct kernels of [`crate::layers::conv`], not the GEMM: they
/// skip zero inputs without a branch per input and run at the host's
/// `ei_tensor::simd::F32Level`. Only camera-scale feature maps cross it.
pub const PAR_MIN_IM2COL_MACS: u64 = 33_554_432;

/// Chunk length that splits `len` units of work into one chunk per pool
/// thread (at least 1).
fn chunk_len(len: usize, pool: &ParPool) -> usize {
    len.div_ceil(pool.threads()).max(1)
}

/// Blocked GEMM fanned out over `pool`: row chunks for `m > 1`, column
/// chunks for the matrix–vector case (`m == 1`).
///
/// `out` is `m × n`; rows start from `bias` (or zero). Below
/// [`PAR_MIN_MACS`], or on a serial pool, runs the blocked kernel inline.
/// Every partition is bitwise-identical to [`gemm_f32`] because each
/// output element's accumulation order depends only on its own row.
#[allow(clippy::too_many_arguments)] // the GEMM shape septet + pool
pub fn gemm_f32_auto(
    pool: &ParPool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let macs = (m as u64) * (k as u64) * (n as u64);
    if pool.threads() == 1 || macs < PAR_MIN_MACS {
        gemm_f32(m, k, n, a, b, bias, out);
        return;
    }
    if m == 1 {
        match bias {
            Some(bv) => out.copy_from_slice(bv),
            None => out.fill(0.0),
        }
        let chunk = chunk_len(n, pool);
        pool.scope(|scope| {
            for (c, slice) in out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || gemm_f32_acc(1, k, n, a, b, c * chunk, slice));
            }
        });
        return;
    }
    let rows = chunk_len(m, pool);
    pool.scope(|scope| {
        for (c, slice) in out.chunks_mut(rows * n).enumerate() {
            let r0 = c * rows;
            let rm = slice.len() / n;
            scope.spawn(move || gemm_f32(rm, k, n, &a[r0 * k..(r0 + rm) * k], b, bias, slice));
        }
    });
}

/// [`dense_forward`] lowered to a 1×`units` GEMM, column-partitioned
/// over `pool`.
pub fn dense_forward_auto(
    pool: &ParPool,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    units: usize,
) -> Vec<f32> {
    if pool.threads() == 1 || dense_macs(input.len(), units) < PAR_MIN_MACS {
        return dense_forward(input, weights, bias, units);
    }
    let mut out = vec![0.0f32; units];
    gemm_f32_auto(pool, 1, input.len(), units, input, weights, Some(bias), &mut out);
    out
}

/// [`conv2d_forward`] lowered via im2col to an
/// `(oh·ow) × (kh·kw·in_c) × out_c` GEMM, row-partitioned over `pool`.
pub fn conv2d_forward_auto(
    pool: &ParPool,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv2dGeom,
) -> Vec<f32> {
    if pool.threads() == 1 || g.macs() < PAR_MIN_IM2COL_MACS {
        return conv2d_forward(input, weights, bias, g);
    }
    let (oh, ow, _, _) = g.output();
    let m = oh * ow;
    let window = g.kernel_h * g.kernel_w * g.in_c;
    let patches = im2col_2d(input, g, 0.0f32);
    let mut out = vec![0.0f32; m * g.out_c];
    gemm_f32_auto(pool, m, window, g.out_c, &patches, weights, Some(bias), &mut out);
    out
}

/// [`depthwise_forward`] partitioned into bands of output rows, one pool
/// task per band, each running the serial row kernel directly.
///
/// Depthwise windows are tiny (`kh·kw` taps per channel), so an im2col
/// lowering would gather more bytes than the arithmetic it feeds; the
/// direct kernel is already the fastest serial form and row bands make
/// each output element's computation untouched — parity is structural.
pub fn depthwise_forward_auto(
    pool: &ParPool,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv2dGeom,
) -> Vec<f32> {
    if pool.threads() == 1 || depthwise_macs(g) < PAR_MIN_MACS {
        return depthwise_forward(input, weights, bias, g);
    }
    let (oh, ow, _, _) = g.output();
    let c = g.in_c;
    let band = chunk_len(oh, pool);
    let mut out = vec![0.0f32; oh * ow * c];
    pool.scope(|scope| {
        for (i, slice) in out.chunks_mut(band * ow * c).enumerate() {
            scope.spawn(move || depthwise_forward_rows(input, weights, bias, g, i * band, slice));
        }
    });
    out
}

/// [`conv1d_forward`] lowered via im2col to an
/// `ow × (kernel·in_c) × out_c` GEMM, row-partitioned over `pool`.
pub fn conv1d_forward_auto(
    pool: &ParPool,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv1dGeom,
) -> Vec<f32> {
    if pool.threads() == 1 || g.macs() < PAR_MIN_IM2COL_MACS {
        return conv1d_forward(input, weights, bias, g);
    }
    let (ow, _) = g.output();
    let window = g.kernel * g.in_c;
    let patches = im2col_1d(input, g, 0.0f32);
    let mut out = vec![0.0f32; ow * g.out_c];
    gemm_f32_auto(pool, ow, window, g.out_c, &patches, weights, Some(bias), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Padding;
    use ei_par::Parallelism;

    /// Deterministic ramp with zeros sprinkled in to exercise the
    /// sparsity skip in the kernels.
    fn data(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| if i % 5 == 0 { 0.0 } else { ((i * 13 % 97) as f32 - 48.0) * 0.03 })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dense_auto_is_bitwise_identical() {
        let (inputs, units) = (512, 300);
        let input = data(inputs);
        let weights = data(inputs * units);
        let bias = data(units);
        assert!(dense_macs(inputs, units) >= PAR_MIN_MACS);
        let serial = dense_forward(&input, &weights, &bias, units);
        let pool = ParPool::new(Parallelism::new(4));
        let parallel = dense_forward_auto(&pool, &input, &weights, &bias, units);
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn conv2d_auto_is_bitwise_identical() {
        let g = Conv2dGeom {
            in_h: 48,
            in_w: 32,
            in_c: 48,
            out_c: 64,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
        };
        assert!(g.macs() >= PAR_MIN_IM2COL_MACS);
        let input = data(g.in_h * g.in_w * g.in_c);
        let weights = data(g.kernel_h * g.kernel_w * g.in_c * g.out_c);
        let bias = data(g.out_c);
        let serial = conv2d_forward(&input, &weights, &bias, g);
        let pool = ParPool::new(Parallelism::new(4));
        let parallel = conv2d_forward_auto(&pool, &input, &weights, &bias, g);
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn depthwise_auto_is_bitwise_identical() {
        let g = Conv2dGeom {
            in_h: 40,
            in_w: 40,
            in_c: 16,
            out_c: 16,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
        };
        assert!(depthwise_macs(g) >= PAR_MIN_MACS);
        let input = data(g.in_h * g.in_w * g.in_c);
        let weights = data(g.kernel_h * g.kernel_w * g.in_c);
        let bias = data(g.in_c);
        let serial = depthwise_forward(&input, &weights, &bias, g);
        let pool = ParPool::new(Parallelism::new(4));
        let parallel = depthwise_forward_auto(&pool, &input, &weights, &bias, g);
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn conv1d_auto_is_bitwise_identical() {
        let g = Conv1dGeom {
            in_w: 2000,
            in_c: 32,
            out_c: 64,
            kernel: 9,
            stride: 1,
            padding: Padding::Same,
        };
        assert!(g.macs() >= PAR_MIN_IM2COL_MACS);
        let input = data(g.in_w * g.in_c);
        let weights = data(g.kernel * g.in_c * g.out_c);
        let bias = data(g.out_c);
        let serial = conv1d_forward(&input, &weights, &bias, g);
        let pool = ParPool::new(Parallelism::new(4));
        let parallel = conv1d_forward_auto(&pool, &input, &weights, &bias, g);
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn gemm_auto_matches_serial_at_any_width() {
        let (m, k, n) = (64, 48, 50);
        let a = data(m * k);
        let b = data(k * n);
        let bias = data(n);
        let mut serial = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, Some(&bias), &mut serial);
        for threads in [1usize, 4] {
            let pool = ParPool::new(Parallelism::new(threads));
            let mut parallel = vec![0.0f32; m * n];
            gemm_f32_auto(&pool, m, k, n, &a, &b, Some(&bias), &mut parallel);
            assert_eq!(bits(&serial), bits(&parallel), "threads={threads}");
        }
    }

    #[test]
    fn tinyml_sized_convs_stay_serial() {
        // the keyword-spotting DS-CNN head: ~18 M MACs, below the im2col
        // bar but far above PAR_MIN_MACS — must take the direct path
        let g = Conv2dGeom {
            in_h: 49,
            in_w: 10,
            in_c: 64,
            out_c: 64,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
        };
        assert!(g.macs() >= PAR_MIN_MACS && g.macs() < PAR_MIN_IM2COL_MACS);
        let input = data(g.in_h * g.in_w * g.in_c);
        let weights = data(g.kernel_h * g.kernel_w * g.in_c * g.out_c);
        let bias = data(g.out_c);
        let pool = ParPool::new(Parallelism::new(4));
        let steals_before = pool.steals();
        let out = conv2d_forward_auto(&pool, &input, &weights, &bias, g);
        assert_eq!(bits(&out), bits(&conv2d_forward(&input, &weights, &bias, g)));
        assert_eq!(pool.steals(), steals_before, "no tasks should have been queued");
    }

    #[test]
    fn small_layers_take_the_serial_path() {
        let pool = ParPool::new(Parallelism::new(4));
        let input = data(8);
        let weights = data(8 * 4);
        let bias = data(4);
        let steals_before = pool.steals();
        let out = dense_forward_auto(&pool, &input, &weights, &bias, 4);
        assert_eq!(out, dense_forward(&input, &weights, &bias, 4));
        assert_eq!(pool.steals(), steals_before, "no tasks should have been queued");
    }
}
