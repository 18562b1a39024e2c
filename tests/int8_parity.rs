//! int8 byte parity: the quantized forward pass must not change a single
//! output byte when its kernels change.
//!
//! Two gates. The paper's three task models (KWS DS-CNN-64, VWW
//! MobileNetV1-0.25, IC CNN) are quantized from fixed seeds and every
//! layer boundary of `trace_raw` is hashed against constants captured with
//! the earlier tiled-i32 kernels (debug and release agree). And small
//! seeded models of every parameterized layer kind run through naive
//! loops written here — i32 products, per-channel depthwise gathers,
//! [`reference::matmul_i8`] and [`FixedMultiplier::apply`] — compared
//! bitwise with `trace_raw` and `QuantizedModel::forward_quantized`.
//! Both gates run at every `simd` level this host supports, `Baseline`
//! included, through `QuantizedModel::with_kernel_level`.

use edgelab::nn::layers::conv::Conv2dGeom;
use edgelab::nn::presets;
use edgelab::nn::spec::{Activation, Dims, LayerSpec, ModelSpec, Padding};
use edgelab::nn::Sequential;
use edgelab::quant::qmodel::QLayer;
use edgelab::quant::qparams::FixedMultiplier;
use edgelab::quant::{quantize_model, QuantizedModel};
use edgelab::tensor::gemm::reference;
use edgelab::tensor::simd::supported_levels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_inputs(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
}

/// FNV-1a over every layer boundary's length and bytes, for every input.
fn trace_hash(model: &QuantizedModel, inputs: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for x in inputs {
        for boundary in model.trace_raw(x).expect("input fits the model") {
            (boundary.len() as u64).to_le_bytes().into_iter().for_each(&mut eat);
            boundary.iter().for_each(|&v| eat(v as u8));
        }
    }
    h
}

#[test]
fn paper_models_int8_trace_bytes_are_pinned() {
    let cases = [
        ("kws", presets::ds_cnn(Dims::new(99, 10, 1), 4, 64), 0x4022_347b_429f_9a91),
        ("vww", presets::mobilenet_v1(Dims::new(96, 96, 1), 2, 0.25), 0x663e_e8e7_9a94_f501),
        ("ic", presets::cifar_cnn(Dims::new(32, 32, 3), 10), 0x2033_c23d_1d2b_0e12),
    ];
    for (name, spec, want) in cases {
        let len = spec.input.len();
        let model = Sequential::build(&spec, 7).expect("preset builds");
        let quantized = quantize_model(&model, &random_inputs(4, len, 11)).expect("quantizes");
        let mut probes = random_inputs(3, len, 12);
        // far outside the calibrated range: saturating codes everywhere
        probes.push(probes[0].iter().map(|v| v * 8.0).collect());
        for level in supported_levels() {
            let qmodel = quantized.with_kernel_level(level).expect("level is supported");
            let name = format!("{name} at {level:?}");
            let got = trace_hash(&qmodel, &probes);
            assert_eq!(got, want, "{name}: int8 trace bytes moved (got {got:#018x})");
        }
    }
}

/// The oracle's requantization: `FixedMultiplier::apply`, the output zero
/// point (saturating), then the ReLU-family clamp; sigmoid takes the float
/// fallback.
fn requantize(l: &QLayer, act: Activation, ch: usize, acc: i32) -> i8 {
    if act == Activation::Sigmoid {
        let scale = l.w_quant.as_ref().expect("parameterized").scales[ch];
        return l.out_q.quantize(act.apply(acc as f32 * l.in_q.scale * scale));
    }
    let zp = l.out_q.zero_point;
    let (lo, hi) = match act {
        Activation::Relu => (zp, 127),
        Activation::Relu6 => (zp, ((6.0 / l.out_q.scale).round() as i32 + zp).min(127)),
        _ => (-128, 127),
    };
    let mult: FixedMultiplier = l.multipliers.as_ref().expect("parameterized")[ch];
    mult.apply(acc).saturating_add(zp).clamp(lo, hi) as i8
}

/// One row per output pixel of the `(ky, kx, ci)` taps over channels
/// `chans`; out-of-bounds taps hold the zero point `pad`.
fn gather(input: &[i8], g: Conv2dGeom, pad: i8, chans: std::ops::Range<usize>) -> Vec<i8> {
    let (oh, ow, py, px) = g.output();
    let mut rows = Vec::new();
    for oy in 0..oh {
        for ox in 0..ow {
            for ky in 0..g.kernel_h {
                for kx in 0..g.kernel_w {
                    let iy = (oy * g.stride + ky) as isize - py as isize;
                    let ix = (ox * g.stride + kx) as isize - px as isize;
                    let inside =
                        (0..g.in_h as isize).contains(&iy) && (0..g.in_w as isize).contains(&ix);
                    for ci in chans.clone() {
                        rows.push(if inside {
                            input[(iy as usize * g.in_w + ix as usize) * g.in_c + ci]
                        } else {
                            pad
                        });
                    }
                }
            }
        }
    }
    rows
}

/// One layer the naive way; `Flatten` is the identity. Dense is a 1×1
/// convolution over a `1×1×len` input, Conv1d one over a `1×w×c` input.
fn oracle_layer(l: &QLayer, input: &[i8]) -> Vec<i8> {
    let (Some(w), Some(b)) = (&l.weights, &l.bias) else {
        return input.to_vec();
    };
    let zp = l.in_q.zero_point as i8;
    let d = l.input;
    let (d, n, kh, kw, stride, padding, act, depthwise) = match l.spec {
        LayerSpec::Dense { units, activation } => {
            (Dims::new(1, 1, input.len()), units, 1, 1, 1, Padding::Valid, activation, false)
        }
        LayerSpec::Conv1d { filters, kernel, stride, padding, activation } => {
            (d, filters, 1, kernel, stride, padding, activation, false)
        }
        LayerSpec::Conv2d { filters, kernel, stride, padding, activation } => {
            (d, filters, kernel, kernel, stride, padding, activation, false)
        }
        LayerSpec::Conv2dRect { filters, kernel_h, kernel_w, stride, padding, activation } => {
            (d, filters, kernel_h, kernel_w, stride, padding, activation, false)
        }
        LayerSpec::DepthwiseConv2d { kernel, stride, padding, activation } => {
            (d, d.c, kernel, kernel, stride, padding, activation, true)
        }
        ref other => panic!("the oracle does not cover {other:?}"),
    };
    let g = Conv2dGeom {
        in_h: d.h,
        in_w: d.w,
        in_c: d.c,
        out_c: n,
        kernel_h: kh,
        kernel_w: kw,
        stride,
        padding,
    };
    let (oh, ow, _, _) = g.output();
    let m = oh * ow;
    let acc = if depthwise {
        // the per-channel formulation: one single-column GEMM per channel
        let mut acc = vec![0i32; m * n];
        for ch in 0..n {
            let patches = gather(input, g, zp, ch..ch + 1);
            let col: Vec<i8> = (0..kh * kw).map(|t| w[t * n + ch]).collect();
            let out = reference::matmul_i8(m, kh * kw, 1, &patches, zp, &col, &b[ch..=ch]);
            for (pix, v) in out.into_iter().enumerate() {
                acc[pix * n + ch] = v;
            }
        }
        acc
    } else {
        let patches = gather(input, g, zp, 0..d.c);
        reference::matmul_i8(m, kh * kw * d.c, n, &patches, zp, w, b)
    };
    acc.iter().enumerate().map(|(i, &a)| requantize(l, act, i % n, a)).collect()
}

/// A seeded model whose first parameterized layer is `kind`, followed by a
/// one-row dense head.
fn oracle_spec(
    kind: usize,
    padding: Padding,
    stride: usize,
    act: Activation,
    seed: u64,
) -> ModelSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let (h, w, c) = (rng.gen_range(5..11), rng.gen_range(5..11), rng.gen_range(1..6));
    let filters = rng.gen_range(1..13);
    let kernel = rng.gen_range(1..4);
    let layer = match kind {
        0 => LayerSpec::Conv1d { filters, kernel, stride, padding, activation: act },
        1 => LayerSpec::Conv2d { filters, kernel, stride, padding, activation: act },
        2 => LayerSpec::Conv2dRect {
            filters,
            kernel_h: rng.gen_range(1..5),
            kernel_w: kernel,
            stride,
            padding,
            activation: act,
        },
        3 => LayerSpec::DepthwiseConv2d { kernel, stride, padding, activation: act },
        _ => LayerSpec::Dense { units: filters, activation: act },
    };
    let spec = match kind {
        0 => ModelSpec::new(Dims::new(1, h * 2, c)).layer(layer),
        4 => ModelSpec::new(Dims::new(1, h * w, 1)).layer(LayerSpec::Flatten).layer(layer),
        _ => ModelSpec::new(Dims::new(h, w, c)).layer(layer),
    };
    spec.layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
}

#[test]
fn int8_layers_match_naive_oracle_bitwise() {
    let acts = [Activation::Relu, Activation::Relu6, Activation::None, Activation::Sigmoid];
    let geoms = [(Padding::Same, 2), (Padding::Valid, 1), (Padding::Same, 1)];
    let mut seed = 0;
    for kind in 0..5 {
        for (padding, stride) in geoms {
            for act in acts {
                // all-positive calibration puts the input zero point at
                // -128, all-negative at 127
                for (sign, want_zp) in [(1.0f32, -128), (-1.0, 127)] {
                    seed += 1;
                    let spec = oracle_spec(kind, padding, stride, act, seed);
                    let model = Sequential::build(&spec, seed).expect("spec builds");
                    let len = spec.input.len();
                    let calib: Vec<Vec<f32>> = random_inputs(4, len, seed)
                        .into_iter()
                        .map(|x| x.iter().map(|v| v.abs() * sign).collect())
                        .collect();
                    let q = quantize_model(&model, &calib).expect("quantizes");
                    assert_eq!(q.input_qparams().zero_point, want_zp);
                    let inputs = random_inputs(3, len, seed ^ 0x5eed);
                    for (level, x) in supported_levels()
                        .into_iter()
                        .flat_map(|level| inputs.iter().map(move |x| (level, x)))
                    {
                        let q = q.with_kernel_level(level).expect("level is supported");
                        let seed = format!("{seed} at {level:?}");
                        let x: Vec<f32> = x.iter().map(|v| v * 1.5).collect();
                        let trace = q.trace_raw(&x).expect("input fits");
                        let mut act_codes = trace[0].clone();
                        for (i, l) in q.layers().iter().enumerate() {
                            act_codes = oracle_layer(l, &act_codes);
                            assert_eq!(
                                act_codes,
                                trace[i + 1],
                                "seed {seed} layer {i}: {:?}",
                                l.spec
                            );
                        }
                        let out = q.forward_quantized(&trace[0]).expect("input fits");
                        assert_eq!(out, act_codes, "seed {seed}: forward_quantized");
                    }
                }
            }
        }
    }
}
