//! Pool-gated forward kernels: im2col + blocked GEMM, fanned out over
//! the worker pool.
//!
//! The serial kernels in [`crate::layers`] accumulate each output element
//! over its inputs in a fixed index order, skipping zero inputs; the
//! convolutions' oracles are [`crate::layers::conv::reference`]. The
//! `_auto` variants here lower dense/conv layers onto the cache-blocked
//! GEMM in [`ei_tensor::gemm`] (convolutions via
//! [`crate::layers::im2col`], into the caller's [`Scratch`]) and partition
//! the *output* (GEMM rows, dense columns, depthwise row bands) into
//! disjoint chunks, one [`ei_par::ParPool`] task each. The blocked kernel
//! replays the exact per-element accumulation sequence of the naive loops
//! (ascending input index, same `x == 0.0` skip), and the direct kernels
//! give the reference's bits per element (see [`crate::layers::conv`]), so
//! every partition — and any `EI_THREADS` — is bitwise-identical to the
//! serial kernel. Every variant writes all of the `out` slice it is given.
//!
//! Small layers are not worth the lowering or the fan-out: anything
//! below [`PAR_MIN_MACS`] multiply–accumulates, and any layer on a
//! serial pool (`EI_THREADS=1`), takes the serial direct kernel. A 1-D
//! convolution runs as the 2-D one over a single row
//! ([`Conv1dGeom::as_2d`](crate::layers::conv::Conv1dGeom::as_2d)).

use crate::layers::conv::{
    conv2d_forward_at, depthwise_forward_at, depthwise_macs, Conv2dGeom, DepthwisePass,
};
use crate::layers::dense::{dense_forward, dense_macs};
use crate::layers::im2col::im2col_2d;
use crate::walk::Scratch;
use ei_par::ParPool;
use ei_tensor::gemm::{gemm_f32, gemm_f32_acc};
use ei_tensor::simd::f32_level;

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
/// skip zero inputs without a branch per input, or add them where that
/// cannot change a bit, and run at the host's `ei_tensor::simd::F32Level`.
/// Only camera-scale feature maps cross it.
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

/// Whether a convolution lowers onto im2col + GEMM on a parallel pool:
/// only at [`PAR_MIN_IM2COL_MACS`] and above.
pub fn lowers(g: Conv2dGeom) -> bool {
    g.macs() >= PAR_MIN_IM2COL_MACS
}

/// [`dense_forward`] into `out` (`units` long), lowered to a 1×`units`
/// GEMM and column-partitioned over `pool`.
pub fn dense_forward_auto(
    pool: &ParPool,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let units = out.len();
    if pool.threads() == 1 || dense_macs(input.len(), units) < PAR_MIN_MACS {
        return dense_forward(input, weights, bias, out);
    }
    gemm_f32_auto(pool, 1, input.len(), units, input, weights, Some(bias), out);
}

/// [`conv2d_forward_at`] at the host's level into `out`, or, when it
/// [`lowers`], im2col into `scratch.patches` and an `(oh·ow) ×
/// (kh·kw·in_c) × out_c` GEMM row-partitioned over `pool`.
pub fn conv2d_forward_auto(
    pool: &ParPool,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: Conv2dGeom,
    scratch: &mut Scratch,
    out: &mut [f32],
) {
    if pool.threads() == 1 || !lowers(g) {
        return conv2d_forward_at(f32_level(), input, weights, bias, g, out);
    }
    let (oh, ow, _, _) = g.output();
    let patches = &mut scratch.patches[..oh * ow * g.window()];
    im2col_2d(input, g, 0.0f32, patches);
    gemm_f32_auto(pool, oh * ow, g.window(), g.out_c, patches, weights, Some(bias), out);
}

/// [`depthwise_forward_at`] at the host's level into `out`, partitioned
/// into bands of output rows, one pool task per band, each running the
/// serial row kernel directly. The layer's input is padded once, into
/// `scratch.patches`, and every band reads that copy.
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
    scratch: &mut Scratch,
    out: &mut [f32],
) {
    let padded = &mut scratch.patches;
    if pool.threads() == 1 || depthwise_macs(g) < PAR_MIN_MACS {
        return depthwise_forward_at(f32_level(), input, weights, bias, g, padded, out);
    }
    let (oh, ow, _, _) = g.output();
    let band = chunk_len(oh, pool);
    let layer = DepthwisePass::new(input, weights, bias, g, padded);
    pool.scope(|scope| {
        for (i, slice) in out.chunks_mut(band * ow * g.in_c).enumerate() {
            scope.spawn(move || layer.rows(f32_level(), i * band, slice));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::conv::Conv1dGeom;
    use crate::spec::Padding;
    use crate::walk::Scratch;
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

    /// A convolution's output on `pool` (`None`: the serial kernel).
    fn conv2d(pool: Option<&ParPool>, g: Conv2dGeom) -> Vec<f32> {
        let (oh, ow, _, _) = g.output();
        let input = data(g.in_h * g.in_w * g.in_c);
        let weights = data(g.window() * g.out_c);
        let bias = data(g.out_c);
        let mut out = vec![f32::NAN; oh * ow * g.out_c];
        let mut scratch = Scratch::for_kernels([crate::Kernel::Conv2d(g)]);
        match pool {
            Some(pool) => {
                conv2d_forward_auto(pool, &input, &weights, &bias, g, &mut scratch, &mut out)
            }
            None => conv2d_forward_at(f32_level(), &input, &weights, &bias, g, &mut out),
        }
        out
    }

    /// A dense layer's output on `pool` (`None`: the serial kernel).
    fn dense(pool: Option<&ParPool>, inputs: usize, units: usize) -> Vec<f32> {
        let (input, weights, bias) = (data(inputs), data(inputs * units), data(units));
        let mut out = vec![f32::NAN; units];
        match pool {
            Some(pool) => dense_forward_auto(pool, &input, &weights, &bias, &mut out),
            None => dense_forward(&input, &weights, &bias, &mut out),
        }
        out
    }

    #[test]
    fn dense_auto_is_bitwise_identical() {
        let (inputs, units) = (512, 300);
        assert!(dense_macs(inputs, units) >= PAR_MIN_MACS);
        let pool = ParPool::new(Parallelism::new(4));
        assert_eq!(bits(&dense(None, inputs, units)), bits(&dense(Some(&pool), inputs, units)));
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
        assert!(lowers(g));
        let pool = ParPool::new(Parallelism::new(4));
        assert_eq!(bits(&conv2d(None, g)), bits(&conv2d(Some(&pool), g)));
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
        let mut scratch = Scratch::for_kernels([crate::Kernel::Depthwise(g)]);
        let mut serial = vec![f32::NAN; input.len()];
        depthwise_forward_at(
            f32_level(),
            &input,
            &weights,
            &bias,
            g,
            &mut scratch.patches,
            &mut serial,
        );
        let pool = ParPool::new(Parallelism::new(4));
        let mut parallel = vec![f32::NAN; input.len()];
        depthwise_forward_auto(&pool, &input, &weights, &bias, g, &mut scratch, &mut parallel);
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
        assert!(lowers(g.as_2d()));
        let pool = ParPool::new(Parallelism::new(4));
        assert_eq!(bits(&conv2d(None, g.as_2d())), bits(&conv2d(Some(&pool), g.as_2d())));
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
        assert!(g.macs() >= PAR_MIN_MACS && !lowers(g));
        let pool = ParPool::new(Parallelism::new(4));
        let steals_before = pool.steals();
        assert_eq!(bits(&conv2d(Some(&pool), g)), bits(&conv2d(None, g)));
        assert_eq!(pool.steals(), steals_before, "no tasks should have been queued");
    }

    #[test]
    fn small_layers_take_the_serial_path() {
        let pool = ParPool::new(Parallelism::new(4));
        let steals_before = pool.steals();
        assert_eq!(bits(&dense(Some(&pool), 8, 4)), bits(&dense(None, 8, 4)));
        assert_eq!(pool.steals(), steals_before, "no tasks should have been queued");
    }
}
