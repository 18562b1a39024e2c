//! Kernel parity integration: the blocked/fused kernels must be
//! *bitwise*-identical to the naive reference loops — not approximately
//! equal — over awkward shapes, both dtypes, and every pool width.
//!
//! That identity is the contract that lets one set of blocked kernels
//! back both the TFLM-style interpreter and the EON executor (and lets
//! `EI_THREADS` stay a pure wall-clock knob): if the bits ever diverged,
//! engine-parity and determinism guarantees elsewhere in the test suite
//! would silently weaken. Shapes here are deliberately odd — prime dims,
//! partial register tiles, K panels straddling the `KC` boundary, `Same`
//! padding with asymmetric overhang — because that is where tiled
//! kernels break first.
//!
//! The f32 convolutions are checked against `conv::reference`, the loops
//! they were rewritten from, at every `ei_tensor::simd` f32 level the host
//! supports.

use edgelab::nn::layers::conv::reference as conv_reference;
use edgelab::nn::layers::conv::{
    conv2d_forward_at, depthwise_forward_at, depthwise_macs, Conv1dGeom, Conv2dGeom,
};
use edgelab::nn::layers::dense::dense_forward;
use edgelab::nn::par::{
    conv2d_forward_auto, dense_forward_auto, depthwise_forward_auto, gemm_f32_auto, PAR_MIN_MACS,
};
use edgelab::nn::spec::Padding;
use edgelab::nn::walk::Scratch;
use edgelab::nn::Kernel;
use edgelab::par::{ParPool, Parallelism};
use edgelab::tensor::gemm::{gemm_f32, gemm_i8_fused, reference, KC, MR, NR};
use edgelab::tensor::simd::{
    supported_f32_levels, supported_levels, F32Level, I8Scratch, PackedI8,
};

// The kernels write into a slice they are given; these give each a fresh
// NaN-filled one, so an element a kernel failed to write shows as NaN.

fn out2d(g: Conv2dGeom, c: usize) -> Vec<f32> {
    let (oh, ow, _, _) = g.output();
    vec![f32::NAN; oh * ow * c]
}

fn conv2d_at(level: F32Level, x: &[f32], w: &[f32], b: &[f32], g: Conv2dGeom) -> Vec<f32> {
    let mut out = out2d(g, g.out_c);
    conv2d_forward_at(level, x, w, b, g, &mut out);
    out
}

fn conv1d_at(level: F32Level, x: &[f32], w: &[f32], b: &[f32], g: Conv1dGeom) -> Vec<f32> {
    let mut out = out2d(g.as_2d(), g.out_c);
    conv2d_forward_at(level, x, w, b, g.as_2d(), &mut out);
    out
}

// The padded-input scratch starts as NaN, so a depthwise kernel that read
// an element of it that it did not write shows as NaN too.
fn depthwise_at(level: F32Level, x: &[f32], w: &[f32], b: &[f32], g: Conv2dGeom) -> Vec<f32> {
    let (mut out, mut padded) = (out2d(g, g.in_c), vec![f32::NAN; g.padded_len()]);
    depthwise_forward_at(level, x, w, b, g, &mut padded, &mut out);
    out
}

fn conv2d_auto(pool: &ParPool, x: &[f32], w: &[f32], b: &[f32], g: Conv2dGeom) -> Vec<f32> {
    let (mut out, mut scratch) = (out2d(g, g.out_c), Scratch::for_kernels([Kernel::Conv2d(g)]));
    conv2d_forward_auto(pool, x, w, b, g, &mut scratch, &mut out);
    out
}

fn depthwise_auto(pool: &ParPool, x: &[f32], w: &[f32], b: &[f32], g: Conv2dGeom) -> Vec<f32> {
    let mut scratch = Scratch::for_kernels([Kernel::Depthwise(g)]);
    scratch.patches.fill(f32::NAN);
    let mut out = out2d(g, g.in_c);
    depthwise_forward_auto(pool, x, w, b, g, &mut scratch, &mut out);
    out
}

fn dense(pool: Option<&ParPool>, x: &[f32], w: &[f32], b: &[f32], units: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; units];
    match pool {
        Some(pool) => dense_forward_auto(pool, x, w, b, &mut out),
        None => dense_forward(x, w, b, &mut out),
    }
    out
}

/// Deterministic f32 data mixing zeros, negative zeros and sign flips so
/// the kernels' `x == 0.0` skip is exercised, not just dense arithmetic.
fn data(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
            match h % 11 {
                0 => 0.0,
                1 => -0.0,
                _ => ((h % 113) as f32 - 56.0) * 0.017,
            }
        })
        .collect()
}

fn data_i8(n: usize, seed: u64) -> Vec<i8> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
            (h >> 32) as i8
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The pool widths every parity check runs at: serial, a fixed width the
/// CI matrix always covers, and whatever `EI_THREADS` says right now.
fn pools() -> Vec<ParPool> {
    vec![
        ParPool::new(Parallelism::serial()),
        ParPool::new(Parallelism::new(4)),
        ParPool::new(Parallelism::from_env()),
    ]
}

#[test]
fn blocked_gemm_matches_reference_on_odd_shapes() {
    for &(m, k, n) in &[
        (1, 1, 1),
        (1, 257, 19),
        (2, 31, NR - 1),
        (MR - 1, 64, NR + 1),
        (MR + 1, KC - 1, 2 * NR + 3),
        (13, KC + 7, 29),
        (37, 2 * KC + 5, 17),
        (64, 100, 1),
    ] {
        let a = data(m * k, 7);
        let b = data(k * n, 8);
        let bias = data(n, 9);
        let mut want = vec![0.0f32; m * n];
        reference::matmul_f32(m, k, n, &a, &b, Some(&bias), &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, Some(&bias), &mut got);
        assert_eq!(bits(&want), bits(&got), "serial blocked, shape ({m},{k},{n})");
        for pool in pools() {
            let mut auto = vec![0.0f32; m * n];
            gemm_f32_auto(&pool, m, k, n, &a, &b, Some(&bias), &mut auto);
            assert_eq!(
                bits(&want),
                bits(&auto),
                "auto at {} threads, shape ({m},{k},{n})",
                pool.threads()
            );
        }
    }
}

#[test]
fn fused_int8_gemm_matches_two_pass_reference() {
    // zero points at both int8 edges, and a weight column of -128, reach
    // the i16 product bound |(a - a_zp) * b| = 255 * 128
    for a_zp in [-7, -128, 127] {
        for &(m, k, n) in
            &[(1, 9, 5), (1, 130, 33), (3, 64, 7), (MR + 2, KC + 3, NR + 5), (33, 127, 31)]
        {
            let a = data_i8(m * k, 3);
            let mut b = data_i8(k * n, 4);
            for row in b.chunks_mut(n) {
                row[n - 1] = i8::MIN;
            }
            let bias: Vec<i32> = (0..n as i32).map(|j| j * 31 - 400).collect();
            let epi = |j: usize, acc: i32| {
                let scaled = ((acc as i64 * (1_100_000_000 + j as i64)) >> 38) as i32;
                scaled.clamp(-128, 127) as i8
            };
            let want: Vec<i8> = reference::matmul_i8(m, k, n, &a, a_zp, &b, &bias)
                .iter()
                .enumerate()
                .map(|(i, &acc)| epi(i % n, acc))
                .collect();
            let mut got = vec![0i8; m * n];
            gemm_i8_fused(m, k, n, &a, a_zp, &b, &bias, epi, &mut got);
            assert_eq!(want, got, "shape ({m},{k},{n})");
            // and each level's kernel directly, over weights packed once
            for level in supported_levels() {
                let packed = PackedI8::with_level(level, k, n, &b, &bias, a_zp).expect("supported");
                let mut got = vec![0i8; m * n];
                packed.gemm(m, &a, epi, &mut I8Scratch::new(packed.scratch_len()), &mut got);
                assert_eq!(want, got, "{level:?} shape ({m},{k},{n}) zp {a_zp}");
            }
        }
    }
}

#[test]
fn int8_accumulation_wraps_instead_of_overflowing() {
    // a bias at an i32 edge plus a non-zero product: every level wraps,
    // as `vpdpbusd` does, instead of panicking in debug builds
    for bias in [i32::MAX, i32::MIN] {
        let want = bias.wrapping_add(1);
        assert_eq!(reference::matmul_i8(1, 1, 1, &[1], 0, &[1], &[bias]), vec![want]);
        let low_byte = |_: usize, acc: i32| acc as i8;
        let mut out = [0i8];
        gemm_i8_fused(1, 1, 1, &[1], 0, &[1], &[bias], low_byte, &mut out);
        assert_eq!(out[0], want as i8);
        for level in supported_levels() {
            let packed = PackedI8::with_level(level, 1, 1, &[1], &[bias], 0).expect("supported");
            // the top byte shows wrap versus saturation
            let mut scratch = I8Scratch::new(packed.scratch_len());
            packed.gemm(1, &[1], |_, acc| (acc >> 24) as i8, &mut scratch, &mut out);
            assert_eq!(out[0], (want >> 24) as i8, "{level:?} bias {bias}");
        }
    }
}

#[test]
fn conv2d_lowering_is_bitwise_identical_across_pool_widths() {
    for padding in [Padding::Same, Padding::Valid] {
        // 19x11 with stride 2 gives asymmetric Same-padding overhang.
        let g = Conv2dGeom {
            in_h: 19,
            in_w: 11,
            in_c: 13,
            out_c: 17,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding,
        };
        let input = data(g.in_h * g.in_w * g.in_c, 21);
        let weights = data(g.kernel_h * g.kernel_w * g.in_c * g.out_c, 22);
        let bias = data(g.out_c, 23);
        let want = conv_reference::conv2d_forward(&input, &weights, &bias, g);
        for level in supported_f32_levels() {
            let got = conv2d_at(level, &input, &weights, &bias, g);
            assert_eq!(bits(&want), bits(&got), "{padding:?} at {level:?}");
        }
        for pool in pools() {
            let got = conv2d_auto(&pool, &input, &weights, &bias, g);
            assert_eq!(bits(&want), bits(&got), "{padding:?} at {} threads", pool.threads());
        }
    }
}

#[test]
fn depthwise_bands_are_bitwise_identical_across_pool_widths() {
    for padding in [Padding::Same, Padding::Valid] {
        let g = Conv2dGeom {
            in_h: 41,
            in_w: 23,
            in_c: 19,
            out_c: 19,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding,
        };
        let input = data(g.in_h * g.in_w * g.in_c, 31);
        let weights = data(g.kernel_h * g.kernel_w * g.in_c, 32);
        let bias = data(g.in_c, 33);
        let want = conv_reference::depthwise_forward(&input, &weights, &bias, g);
        for level in supported_f32_levels() {
            let got = depthwise_at(level, &input, &weights, &bias, g);
            assert_eq!(bits(&want), bits(&got), "{padding:?} at {level:?}");
        }
        for pool in pools() {
            let got = depthwise_auto(&pool, &input, &weights, &bias, g);
            assert_eq!(bits(&want), bits(&got), "{padding:?} at {} threads", pool.threads());
        }
    }
}

#[test]
fn conv1d_and_dense_lowerings_are_bitwise_identical() {
    let g =
        Conv1dGeom { in_w: 199, in_c: 23, out_c: 29, kernel: 5, stride: 2, padding: Padding::Same };
    let input = data(g.in_w * g.in_c, 41);
    let weights = data(g.kernel * g.in_c * g.out_c, 42);
    let bias = data(g.out_c, 43);
    let want = conv_reference::conv1d_forward(&input, &weights, &bias, g);
    for level in supported_f32_levels() {
        let got = conv1d_at(level, &input, &weights, &bias, g);
        assert_eq!(bits(&want), bits(&got), "conv1d at {level:?}");
    }

    let (inputs, units) = (601, 251);
    let d_in = data(inputs, 44);
    let d_w = data(inputs * units, 45);
    let d_b = data(units, 46);
    let d_want = dense(None, &d_in, &d_w, &d_b, units);

    for pool in pools() {
        let got = conv2d_auto(&pool, &input, &weights, &bias, g.as_2d());
        assert_eq!(bits(&want), bits(&got), "conv1d at {} threads", pool.threads());
        let d_got = dense(Some(&pool), &d_in, &d_w, &d_b, units);
        assert_eq!(bits(&d_want), bits(&d_got), "dense at {} threads", pool.threads());
    }
}

#[test]
fn f32_convolutions_match_the_reference_at_every_level_and_width() {
    // channel counts that hit every register block (64, 32, 16, 8) and a
    // scalar tail, rectangular kernels, and strides past the kernel width
    for &(in_c, out_c) in &[(1, 8), (3, 107), (8, 16), (64, 64), (5, 131), (17, 3)] {
        for &(kernel_h, kernel_w, stride) in &[(1, 1, 1), (3, 3, 2), (4, 2, 3)] {
            for padding in [Padding::Same, Padding::Valid] {
                let g = Conv2dGeom {
                    in_h: 9,
                    in_w: 7,
                    in_c,
                    out_c,
                    kernel_h,
                    kernel_w,
                    stride,
                    padding,
                };
                let input = data(g.in_h * g.in_w * in_c, 51);
                let weights = data(kernel_h * kernel_w * in_c * out_c, 52);
                let dw_weights = data(kernel_h * kernel_w * in_c, 53);
                let (bias, dw_bias) = (data(out_c, 54), data(in_c, 55));
                each_conv_matches(&input, (&weights, &dw_weights), (&bias, &dw_bias), g);
            }
        }
    }
}

/// Every kernel at every level, against its reference: the same bits.
fn each_conv_matches(
    input: &[f32],
    (weights, dw_weights): (&[f32], &[f32]),
    (bias, dw_bias): (&[f32], &[f32]),
    g: Conv2dGeom,
) -> [Vec<f32>; 3] {
    let dw = Conv2dGeom { out_c: g.in_c, ..g };
    let c1 = Conv1dGeom {
        in_w: g.in_h * g.in_w,
        in_c: g.in_c,
        out_c: g.out_c,
        kernel: g.kernel_w,
        stride: g.stride,
        padding: g.padding,
    };
    let c1_weights = &weights[..g.kernel_w * g.in_c * g.out_c];
    let want = [
        conv_reference::conv2d_forward(input, weights, bias, g),
        conv_reference::depthwise_forward(input, dw_weights, dw_bias, dw),
        conv_reference::conv1d_forward(input, c1_weights, bias, c1),
    ];
    for level in supported_f32_levels() {
        let got = [
            conv2d_at(level, input, weights, bias, g),
            depthwise_at(level, input, dw_weights, dw_bias, dw),
            conv1d_at(level, input, c1_weights, bias, c1),
        ];
        for (kernel, (want, got)) in
            ["conv2d", "depthwise", "conv1d"].iter().zip(want.iter().zip(&got))
        {
            assert_eq!(bits(want), bits(got), "{kernel} {g:?} at {level:?}");
        }
    }
    want
}

#[test]
fn f32_convolutions_keep_the_zero_skip_on_special_values() {
    // input channel 0 is ±0.0 everywhere and every weight it meets is ±inf
    // or NaN: a kernel that adds `0.0 * w` instead of skipping it writes
    // NaN. The biases are ±0.0, which an added `+0.0` product would flip.
    let g = Conv2dGeom {
        in_h: 6,
        in_w: 5,
        in_c: 3,
        out_c: 11,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: Padding::Same,
    };
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut input = data(g.in_h * g.in_w * g.in_c, 61);
    for (i, px) in input.chunks_mut(g.in_c).enumerate() {
        px[0] = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    let mut weights = data(g.kernel_h * g.kernel_w * g.in_c * g.out_c, 62);
    for (r, row) in weights.chunks_mut(g.out_c).enumerate() {
        if r % g.in_c == 0 {
            for (j, w) in row.iter_mut().enumerate() {
                *w = specials[j % 3];
            }
        }
    }
    let mut dw_weights = data(g.kernel_h * g.kernel_w * g.in_c, 63);
    for (t, tap) in dw_weights.chunks_mut(g.in_c).enumerate() {
        tap[0] = specials[t % 3];
    }
    let bias: Vec<f32> = (0..g.out_c).map(|j| if j % 2 == 0 { 0.0 } else { -0.0 }).collect();
    let dw_bias = [-0.0, 0.0, -0.0];

    let [conv2d, depthwise, conv1d] =
        each_conv_matches(&input, (&weights, &dw_weights), (&bias, &dw_bias), g);
    for (kernel, out) in [("conv2d", &conv2d), ("depthwise", &depthwise), ("conv1d", &conv1d)] {
        assert!(out.iter().all(|v| !v.is_nan()), "{kernel}: a zero input met a special weight");
    }
    // depthwise channel 0 only ever sees zeros: it is its bias, sign and all
    for px in depthwise.chunks(g.in_c) {
        assert_eq!(px[0].to_bits(), (-0.0f32).to_bits());
    }

    // a NaN input propagates to every output whose window holds it
    let mut nan_input = input.clone();
    let centre = (2 * g.in_w + 2) * g.in_c + 1;
    nan_input[centre] = f32::NAN;
    let [conv2d, depthwise, conv1d] =
        each_conv_matches(&nan_input, (&weights, &dw_weights), (&bias, &dw_bias), g);
    assert!(conv2d.iter().filter(|v| v.is_nan()).count() == 9 * g.out_c, "conv2d");
    assert!(depthwise.iter().filter(|v| v.is_nan()).count() == 9, "depthwise");
    assert!(conv1d.iter().filter(|v| v.is_nan()).count() == 3 * g.out_c, "conv1d");
}

// Where a layer's zero inputs are inert (every weight finite, no bias
// `-0.0` or NaN) the f32 kernels add every tap instead of skipping zeros;
// a layer that fails that check must still give the reference's bits. The
// cases below sit on each side of the check, each through every path: at
// every f32 level directly and through the `_auto` dispatch at every pool
// width.

/// A 2-D convolution (or, with `depthwise`, a depthwise one) at every
/// level and pool width, each against `conv::reference`. Returns the
/// reference output.
fn every_path_matches(x: &[f32], w: &[f32], b: &[f32], g: Conv2dGeom, depthwise: bool) -> Vec<f32> {
    let (name, want) = if depthwise {
        ("depthwise", conv_reference::depthwise_forward(x, w, b, g))
    } else {
        ("conv2d", conv_reference::conv2d_forward(x, w, b, g))
    };
    for level in supported_f32_levels() {
        let got =
            if depthwise { depthwise_at(level, x, w, b, g) } else { conv2d_at(level, x, w, b, g) };
        assert_eq!(bits(&want), bits(&got), "{name} {g:?} at {level:?}");
    }
    for pool in pools() {
        let got = if depthwise {
            depthwise_auto(&pool, x, w, b, g)
        } else {
            conv2d_auto(&pool, x, w, b, g)
        };
        assert_eq!(bits(&want), bits(&got), "{name} {g:?} at {} threads", pool.threads());
    }
    want
}

/// A 3×3 `Same` geometry with `c` channels in and `out_c` out, large
/// enough that the depthwise layer runs in bands on a parallel pool.
fn special_geom(c: usize, out_c: usize) -> Conv2dGeom {
    let g = Conv2dGeom {
        in_h: 40,
        in_w: 37,
        in_c: c,
        out_c,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: Padding::Same,
    };
    assert!(c < 16 || depthwise_macs(Conv2dGeom { out_c: c, ..g }) >= PAR_MIN_MACS);
    g
}

/// `data` with every `-0.0` made `+0.0`: parameters that pass the check
/// as long as the weights are finite.
fn plain(n: usize, seed: u64) -> Vec<f32> {
    data(n, seed).into_iter().map(|v| if v == 0.0 { 0.0 } else { v }).collect()
}

/// Input whose channel 0 is `±0.0` at every pixel.
fn zero_channel_input(g: Conv2dGeom, seed: u64) -> Vec<f32> {
    let mut x = data(g.in_h * g.in_w * g.in_c, seed);
    for (i, px) in x.chunks_mut(g.in_c).enumerate() {
        px[0] = if i % 3 == 0 { -0.0 } else { 0.0 };
    }
    x
}

#[test]
fn a_non_finite_weight_under_a_zero_input_is_skipped() {
    // channel 0 is zero everywhere and meets an `inf` or NaN weight at one
    // tap: adding its product would write NaN where the reference skips it
    for special in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        // depthwise, 16 channels: two 8-lane blocks
        let g = special_geom(16, 16);
        let x = zero_channel_input(g, 71);
        let mut w = plain(9 * g.in_c, 72);
        w[4 * g.in_c] = special;
        let out = every_path_matches(&x, &w, &plain(g.in_c, 73), g, true);
        assert!(out.iter().all(|v| !v.is_nan()), "depthwise {special}");
        // convolutions with few input channels: 3×3×1 → 8 (the VWW
        // stem's shape) and a 1×1 16 → 8 pointwise layer
        for (in_c, k) in [(1, 3), (16, 1)] {
            let g = Conv2dGeom { kernel_h: k, kernel_w: k, ..special_geom(in_c, 8) };
            let x = zero_channel_input(g, 74);
            let mut w = plain(g.window() * g.out_c, 75);
            w[3] = special; // (ky, kx, ci) = (0, 0, 0), output channel 3
            let out = every_path_matches(&x, &w, &plain(g.out_c, 76), g, false);
            assert!(out.iter().all(|v| !v.is_nan()), "conv2d {in_c}x{k} {special}");
        }
    }
}

#[test]
fn a_negative_zero_bias_over_an_all_zero_window_stays_negative_zero() {
    // every input is ±0.0: the reference adds nothing, so each output is
    // its bias, and `-0.0 + (+0.0)` would make a `-0.0` one `+0.0`
    let bias = |n: usize| -> Vec<f32> {
        (0..n).map(|i| if i % 2 == 0 { -0.0 } else { 0.5 * i as f32 }).collect()
    };
    let g = special_geom(24, 24);
    let zeros: Vec<f32> =
        (0..g.in_h * g.in_w * g.in_c).map(|i| if i % 5 == 0 { -0.0 } else { 0.0 }).collect();
    let out = every_path_matches(&zeros, &plain(9 * g.in_c, 81), &bias(g.in_c), g, true);
    for px in out.chunks(g.in_c) {
        assert_eq!(bits(px), bits(&bias(g.in_c)), "depthwise");
    }
    for (in_c, k) in [(1, 3), (8, 1)] {
        let g = Conv2dGeom { kernel_h: k, kernel_w: k, ..special_geom(in_c, 16) };
        let zeros = vec![0.0; g.in_h * g.in_w * in_c];
        let out = every_path_matches(&zeros, &plain(g.window() * 16, 82), &bias(16), g, false);
        for px in out.chunks(16) {
            assert_eq!(bits(px), bits(&bias(16)), "conv2d {in_c}x{k}");
        }
    }
}

#[test]
fn a_nan_bias_keeps_its_bits_where_no_input_is_added() {
    // a quiet NaN bias survives `+ 0.0` unchanged, a signalling one comes
    // out quieted: only where the reference adds nothing is the sNaN kept
    let quiet = f32::from_bits(0x7fc0_0123);
    let signalling = f32::from_bits(0x7f80_0123);
    assert!(signalling.is_nan());
    for nan in [quiet, signalling] {
        let g = special_geom(17, 17);
        let mut bias = plain(g.in_c, 91);
        bias[0] = nan;
        bias[9] = nan;
        let x = zero_channel_input(g, 92);
        let out = every_path_matches(&x, &plain(9 * g.in_c, 93), &bias, g, true);
        // channel 0 only ever sees zeros: it is its bias, bit for bit
        for px in out.chunks(g.in_c) {
            assert_eq!(px[0].to_bits(), nan.to_bits(), "depthwise {:#x}", nan.to_bits());
        }
        for (in_c, k) in [(1, 3), (16, 1)] {
            let g = Conv2dGeom { kernel_h: k, kernel_w: k, ..special_geom(in_c, 8) };
            let mut bias = plain(8, 94);
            bias[2] = nan;
            let zeros = vec![0.0; g.in_h * g.in_w * in_c];
            let out = every_path_matches(&zeros, &plain(g.window() * 8, 95), &bias, g, false);
            assert!(out.chunks(8).all(|px| px[2].to_bits() == nan.to_bits()), "conv2d {in_c}x{k}");
        }
    }
}

#[test]
fn a_window_wider_than_the_non_zero_list_matches_the_reference() {
    // the direct conv2d lists at most 256 non-zero inputs before it adds
    // them: 255–257 input channels fill that list within one pixel's
    // inputs or across taps, and 600 need three parts for one pixel alone
    for in_c in [255, 256, 257, 600] {
        for k in [1, 2] {
            let g = Conv2dGeom {
                in_h: 5,
                in_w: 4,
                in_c,
                out_c: 9,
                kernel_h: k,
                kernel_w: k,
                stride: 1,
                padding: Padding::Same,
            };
            let x = data(g.in_h * g.in_w * in_c, 1100 + in_c as u64);
            for params in [plain, data] {
                let (w, b) = (params(g.window() * g.out_c, 1101), params(g.out_c, 1102));
                every_path_matches(&x, &w, &b, g, false);
            }
        }
    }
}

#[test]
fn f32_convolutions_match_the_reference_on_random_geometries() {
    // channel counts around every block width, rectangular kernels,
    // strides 1–3, both paddings, and outputs narrower than a tile; each
    // layer once with parameters that pass the check and once with `data`'s
    // `-0.0` biases, which fail it
    let mut state = 0x5eed_u64;
    let mut next = |n: usize| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    let channels = (1..=17).chain([24, 63, 64, 65]);
    for (case, c) in channels.enumerate() {
        for _ in 0..3 {
            let (kernel_h, kernel_w, stride) = (1 + next(4), 1 + next(4), 1 + next(3));
            for padding in [Padding::Same, Padding::Valid] {
                let g = Conv2dGeom {
                    in_h: kernel_h + next(14),
                    in_w: kernel_w + next(6),
                    in_c: c,
                    out_c: c,
                    kernel_h,
                    kernel_w,
                    stride,
                    padding,
                };
                let seed = 1000 + case as u64;
                let x = data(g.in_h * g.in_w * c, seed);
                let dw = kernel_h * kernel_w * c;
                let out_c = 1 + next(20);
                let conv = Conv2dGeom { out_c, ..g };
                for params in [plain, data] {
                    every_path_matches(&x, &params(dw, seed + 1), &params(c, seed + 2), g, true);
                    let (w, b) = (params(conv.window() * out_c, seed + 3), params(out_c, seed + 4));
                    every_path_matches(&x, &w, &b, conv, false);
                }
            }
        }
    }
}
