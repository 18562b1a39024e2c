//! Cache-blocked GEMM kernels — the workhorse every dense/conv layer in
//! the stack lowers to.
//!
//! Two kernels live here:
//!
//! * [`gemm_f32`] — blocked/tiled `f32` GEMM with an optional per-column
//!   bias init. The inner loops are tiled `MR`×`NR` with `KC`-deep packed
//!   panels of `B`, so `B` is streamed through cache once per K-block
//!   instead of strided column-by-column for every output element (the
//!   naive dot-product loop's failure mode).
//! * [`gemm_i8_fused`] — int8 × int8 → int32 GEMM whose requantization
//!   epilogue (fixed-point multiplier + activation clamp, supplied as a
//!   closure) runs on each output row as it retires: no `m×n` int32
//!   intermediate is ever materialized, which is the fusion TFLM applies
//!   on Cortex-M targets. It packs `B` and runs the host's best integer
//!   dot-product kernel from [`crate::simd`].
//!
//! # Bitwise parity with the naive oracles
//!
//! The naive kernels this crate has always shipped stay available under
//! [`reference`] and remain the ground truth. The blocked kernels are
//! **bitwise-identical** to them, not merely close, because for every
//! output element `c[i][j]`:
//!
//! * the contributions `a[i][p] * b[p][j]` are added in ascending-`p`
//!   order into a single accumulator (M/N tiling never reorders the K
//!   loop, and K-blocks are processed in ascending order, accumulating
//!   into the same output storage);
//! * zero inputs are skipped under exactly the same `a[i][p] == 0.0` test
//!   the reference applies (float adds of `±0.0` and `0.0 * inf` are not
//!   bitwise no-ops, so the skip must match, not approximate).
//!
//! Since float addition is deterministic, an identical operand sequence
//! gives identical bits — at any tiling, and under any row/column
//! partition a thread pool applies on top. The int8 kernels need none of
//! this: integer addition is exact, so any order gives the same bits.

use crate::simd::PackedI8;

/// Register-tile rows (output rows accumulated simultaneously).
pub const MR: usize = 4;
/// Register-tile columns. 8 `f32` lanes keeps the `MR`×`NR` accumulator
/// block within the baseline x86-64 SSE register file.
pub const NR: usize = 8;
/// Depth of one packed K-panel of `B` (`KC * NR * 4` bytes ≈ 8 kB,
/// resident in L1 while a panel is live).
pub const KC: usize = 256;

/// `out[i*w + j] (+)= sum_p a[i*k + p] * b[p*n + col0 + j]` over columns
/// `[col0, col0 + w)` where `w = out.len() / m`, skipping `a` zeros,
/// accumulating into whatever `out` already holds (bias or partial sums).
///
/// This is the accumulate-only core: callers init `out` (zeros or bias)
/// first. Row and column partitions compose freely — each element's
/// accumulation order only depends on `p`.
///
/// # Panics
///
/// Debug-asserts buffer sizes are consistent.
pub fn gemm_f32_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    col0: usize,
    out: &mut [f32],
) {
    let w = out.len().checked_div(m).unwrap_or(0);
    debug_assert_eq!(out.len(), m * w);
    debug_assert!(a.len() >= m * k);
    debug_assert!(b.len() >= k * n);
    debug_assert!(col0 + w <= n);
    if m == 0 || w == 0 || k == 0 {
        return;
    }
    if m < MR {
        // Packing amortizes over MR rows; below that (e.g. single-window
        // dense inference, m == 1) stream B directly.
        gemm_rows_direct(m, k, n, a, b, col0, w, out);
        return;
    }
    let mut panel = [0.0f32; KC * NR];
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let mut jr = 0;
        while jr < w {
            let nr = NR.min(w - jr);
            // pack B[pc..pc+kc][col0+jr..+nr] into a contiguous kc x nr panel
            for p in 0..kc {
                let src = (pc + p) * n + col0 + jr;
                panel[p * nr..p * nr + nr].copy_from_slice(&b[src..src + nr]);
            }
            let mut ir = 0;
            while ir < m {
                let mr = MR.min(m - ir);
                if mr == MR && nr == NR {
                    micro_kernel_f32(kc, &a[ir * k + pc..], k, &panel, &mut out[ir * w + jr..], w);
                } else {
                    micro_kernel_f32_edge(
                        kc,
                        mr,
                        nr,
                        &a[ir * k + pc..],
                        k,
                        &panel,
                        &mut out[ir * w + jr..],
                        w,
                    );
                }
                ir += MR;
            }
            jr += NR;
        }
        pc += KC;
    }
}

/// Full `MR`×`NR` register tile: accumulators live in `acc` across the
/// whole K-panel, loaded/stored from `out` once per panel.
#[inline]
fn micro_kernel_f32(kc: usize, a: &[f32], lda: usize, panel: &[f32], out: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[r * ldc..r * ldc + NR]);
    }
    for p in 0..kc {
        let bp = &panel[p * NR..p * NR + NR];
        for (r, row) in acc.iter_mut().enumerate() {
            let x = a[r * lda + p];
            if x != 0.0 {
                for (o, &bv) in row.iter_mut().zip(bp) {
                    *o += x * bv;
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}

/// Partial tile at the M/N edges; same accumulation order, bounded loops.
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_f32_edge(
    kc: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    lda: usize,
    panel: &[f32],
    out: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&out[r * ldc..r * ldc + nr]);
    }
    for p in 0..kc {
        let bp = &panel[p * nr..p * nr + nr];
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            let x = a[r * lda + p];
            if x != 0.0 {
                for (o, &bv) in row[..nr].iter_mut().zip(bp) {
                    *o += x * bv;
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        out[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

/// Unpacked fallback for tiny row counts: identical operand sequence,
/// just no panel staging.
#[allow(clippy::too_many_arguments)] // mirrors gemm_f32_acc's signature + w
fn gemm_rows_direct(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    col0: usize,
    w: usize,
    out: &mut [f32],
) {
    for i in 0..m {
        let orow = &mut out[i * w..(i + 1) * w];
        for p in 0..k {
            let x = a[i * k + p];
            if x == 0.0 {
                continue;
            }
            let brow = &b[p * n + col0..p * n + col0 + w];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += x * bv;
            }
        }
    }
}

/// Blocked `c = a @ b (+ bias)` for row-major `f32` buffers
/// (`a: m×k`, `b: k×n`, `bias: n` broadcast over rows, `out: m×n`).
///
/// Bitwise-identical to [`reference::matmul_f32`]; see the module docs
/// for why.
///
/// # Panics
///
/// Debug-asserts buffer sizes are consistent.
pub fn gemm_f32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n);
    match bias {
        Some(bias) => {
            debug_assert_eq!(bias.len(), n);
            for row in out.chunks_mut(n) {
                row.copy_from_slice(bias);
            }
        }
        None => out.fill(0.0),
    }
    gemm_f32_acc(m, k, n, a, b, 0, out);
}

/// Fused int8 GEMM: `acc[i][j] = bias[j] + sum_p (a[i*k+p] - a_zp) *
/// b[p*n+j]`, with `epilogue(j, acc)` — requantization plus activation
/// clamp — applied to each output row's accumulators as the row retires,
/// so no `m×n` int32 intermediate ever exists.
///
/// `a` rows are the im2col'd activations (padding positions hold the code
/// `a_zp`, which contributes exactly zero), `b` is `k×n` row-major int8
/// weights (output channel fastest, the layout `ei-quant` stores), and
/// `bias` is the int32 per-column bias at scale `s_in * s_w`.
///
/// This packs `b` for the host's [`crate::simd::level`] on every call and
/// runs [`PackedI8::gemm`]; a caller that multiplies by the same weights
/// again packs them once with [`PackedI8::new`] instead. Accumulation
/// wraps in `i32` at every level, so the result equals
/// [`reference::matmul_i8`] + the same epilogue unconditionally.
///
/// # Panics
///
/// Panics if a buffer is shorter than its shape says.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_fused(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    a_zp: i8,
    b: &[i8],
    bias: &[i32],
    epilogue: impl Fn(usize, i32) -> i8,
    out: &mut [i8],
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    PackedI8::new(k, n, b, bias, a_zp).gemm(m, a, epilogue, out);
}

/// The naive loop nests the blocked kernels are verified against. These
/// are the oracles: slow, obvious, and the definition of correct bits.
pub mod reference {
    /// Textbook `i → j → p` dot-product matmul with bias init and the
    /// `a == 0.0` skip: one accumulator per output element, walking a
    /// strided column of `b` per dot product. Per element this is the
    /// exact operand sequence [`super::gemm_f32`] reproduces (ascending
    /// `p`, same skip) — only the interleaving across elements differs,
    /// which float addition never observes.
    ///
    /// # Panics
    ///
    /// Debug-asserts buffer sizes are consistent.
    pub fn matmul_f32(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = match bias {
                    Some(bias) => bias[j],
                    None => 0.0,
                };
                for p in 0..k {
                    let x = a[i * k + p];
                    if x == 0.0 {
                        continue;
                    }
                    acc += x * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// Naive int8 GEMM accumulators: `j`-outer like the historical
    /// `ei-quant` kernels, one i32 per output element. Each product is
    /// exact; the sum wraps, as `vpdpbusd` does (see [`crate::simd`]).
    ///
    /// # Panics
    ///
    /// Debug-asserts buffer sizes are consistent.
    pub fn matmul_i8(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        a_zp: i8,
        b: &[i8],
        bias: &[i32],
    ) -> Vec<i32> {
        debug_assert!(a.len() >= m * k);
        debug_assert!(b.len() >= k * n);
        debug_assert_eq!(bias.len(), n);
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = bias[j];
                for p in 0..k {
                    let product = (a[i * k + p] as i32 - a_zp as i32) * b[p * n + j] as i32;
                    acc = acc.wrapping_add(product);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic data with zeros, negative zeros and sign changes to
    /// exercise the skip semantics.
    fn data(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
                match h % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((h % 97) as f32 - 48.0) * 0.031,
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_matches_reference_bitwise_over_odd_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (1, 300, 17),
            (5, 1, 9),
            (3, 17, 3),
            (4, 8, 16),
            (13, 33, 7),
            (7, KC + 3, NR + 1),
            (MR + 1, 2 * KC + 1, 2 * NR + 3),
            (31, 64, 1),
        ] {
            let a = data(m * k, 1);
            let b = data(k * n, 2);
            let bias = data(n, 3);
            let mut want = vec![0.0f32; m * n];
            reference::matmul_f32(m, k, n, &a, &b, Some(&bias), &mut want);
            let mut got = vec![0.0f32; m * n];
            gemm_f32(m, k, n, &a, &b, Some(&bias), &mut got);
            assert_eq!(bits(&want), bits(&got), "shape ({m},{k},{n})");
            // and without bias
            reference::matmul_f32(m, k, n, &a, &b, None, &mut want);
            gemm_f32(m, k, n, &a, &b, None, &mut got);
            assert_eq!(bits(&want), bits(&got), "no-bias shape ({m},{k},{n})");
        }
    }

    #[test]
    fn column_partition_composes_bitwise() {
        let (m, k, n) = (9, 70, 29);
        let a = data(m * k, 4);
        let b = data(k * n, 5);
        let bias = data(n, 6);
        let mut whole = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, Some(&bias), &mut whole);
        // compute columns [0, 11) and [11, 29) separately
        for (col0, w) in [(0usize, 11usize), (11, 18)] {
            let mut part = vec![0.0f32; m * w];
            for i in 0..m {
                part[i * w..(i + 1) * w].copy_from_slice(&bias[col0..col0 + w]);
            }
            gemm_f32_acc(m, k, n, &a, &b, col0, &mut part);
            for i in 0..m {
                assert_eq!(
                    bits(&part[i * w..(i + 1) * w]),
                    bits(&whole[i * n + col0..i * n + col0 + w]),
                );
            }
        }
    }

    #[test]
    fn fused_i8_matches_reference_accumulators() {
        for &(m, k, n) in &[(1, 4, 3), (2, 9, 5), (6, 40, 11), (17, 64, NR), (5, 3, 1)] {
            let a: Vec<i8> = (0..m * k).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|i| ((i * 53 + 7) % 251) as i8).collect();
            let bias: Vec<i32> = (0..n).map(|j| j as i32 * 100 - 150).collect();
            let a_zp = -3;
            let want: Vec<i8> = reference::matmul_i8(m, k, n, &a, a_zp, &b, &bias)
                .iter()
                .map(|&acc| (acc >> 4).clamp(-128, 127) as i8)
                .collect();
            let mut got = vec![0i8; m * n];
            gemm_i8_fused(
                m,
                k,
                n,
                &a,
                a_zp,
                &b,
                &bias,
                |_, acc| (acc >> 4).clamp(-128, 127) as i8,
                &mut got,
            );
            assert_eq!(want, got, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn empty_dims_are_no_ops() {
        let mut out: Vec<f32> = vec![];
        gemm_f32(0, 3, 0, &[], &[], None, &mut out);
        let mut out = vec![1.0f32; 4];
        // k == 0: bias init only
        gemm_f32(2, 0, 2, &[], &[], Some(&[0.5, -0.5]), &mut out);
        assert_eq!(out, vec![0.5, -0.5, 0.5, -0.5]);
        let mut out: Vec<i8> = vec![];
        gemm_i8_fused(0, 3, 0, &[], 0, &[], &[], |_, a| a as i8, &mut out);
    }
}
