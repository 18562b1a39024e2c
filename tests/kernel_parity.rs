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
    conv1d_forward_at, conv2d_forward_at, depthwise_forward_at, Conv1dGeom, Conv2dGeom,
};
use edgelab::nn::layers::dense::dense_forward;
use edgelab::nn::par::{
    conv1d_forward_auto, conv2d_forward_auto, dense_forward_auto, depthwise_forward_auto,
    gemm_f32_auto,
};
use edgelab::nn::spec::Padding;
use edgelab::par::{ParPool, Parallelism};
use edgelab::tensor::gemm::{gemm_f32, gemm_i8_fused, reference, KC, MR, NR};
use edgelab::tensor::simd::{supported_f32_levels, supported_levels, PackedI8};

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
                packed.gemm(m, &a, epi, &mut got);
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
            packed.gemm(1, &[1], |_, acc| (acc >> 24) as i8, &mut out);
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
            let got = conv2d_forward_at(level, &input, &weights, &bias, g);
            assert_eq!(bits(&want), bits(&got), "{padding:?} at {level:?}");
        }
        for pool in pools() {
            let got = conv2d_forward_auto(&pool, &input, &weights, &bias, g);
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
            let got = depthwise_forward_at(level, &input, &weights, &bias, g);
            assert_eq!(bits(&want), bits(&got), "{padding:?} at {level:?}");
        }
        for pool in pools() {
            let got = depthwise_forward_auto(&pool, &input, &weights, &bias, g);
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
        let got = conv1d_forward_at(level, &input, &weights, &bias, g);
        assert_eq!(bits(&want), bits(&got), "conv1d at {level:?}");
    }

    let (inputs, units) = (601, 251);
    let d_in = data(inputs, 44);
    let d_w = data(inputs * units, 45);
    let d_b = data(units, 46);
    let d_want = dense_forward(&d_in, &d_w, &d_b, units);

    for pool in pools() {
        let got = conv1d_forward_auto(&pool, &input, &weights, &bias, g);
        assert_eq!(bits(&want), bits(&got), "conv1d at {} threads", pool.threads());
        let d_got = dense_forward_auto(&pool, &d_in, &d_w, &d_b, units);
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
            conv2d_forward_at(level, input, weights, bias, g),
            depthwise_forward_at(level, input, dw_weights, dw_bias, dw),
            conv1d_forward_at(level, input, c1_weights, bias, c1),
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
