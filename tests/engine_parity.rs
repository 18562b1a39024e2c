//! Cross-engine and cross-dtype parity: the interpreter and the EON
//! program must be bit-identical for any artifact, and quantized models
//! must track their float counterparts, across randomized architectures.

use edgelab::nn::presets;
use edgelab::nn::spec::{Activation, Dims, LayerSpec, ModelSpec, Padding};
use edgelab::nn::Sequential;
use edgelab::quant::quantize_model;
use edgelab::runtime::{EonProgram, InferenceEngine, Interpreter, ModelArtifact};
use edgelab::tensor::ops::argmax;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a small random conv/pool/dense architecture from a seed.
fn random_spec(seed: u64) -> ModelSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = [6usize, 8, 10][rng.gen_range(0..3)];
    let channels = [1usize, 2, 3][rng.gen_range(0..3)];
    let mut spec = ModelSpec::new(Dims::new(side, side, channels)).named("random");
    let filters = [2usize, 4, 8][rng.gen_range(0..3)];
    spec = spec.layer(LayerSpec::Conv2d {
        filters,
        kernel: 3,
        stride: 1,
        padding: Padding::Same,
        activation: if rng.gen() { Activation::Relu } else { Activation::Relu6 },
    });
    if rng.gen() {
        spec = spec.layer(LayerSpec::MaxPool { size: 2 });
    } else {
        spec = spec.layer(LayerSpec::AvgPool { size: 2 });
    }
    if rng.gen() {
        spec = spec.layer(LayerSpec::DepthwiseConv2d {
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
            activation: Activation::Relu,
        });
    }
    spec.layer(LayerSpec::GlobalAvgPool)
        .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
        .layer(LayerSpec::Softmax)
}

fn random_input(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_bit_identical_on_random_models(seed in 0u64..10_000) {
        let spec = random_spec(seed);
        let model = Sequential::build(&spec, seed).expect("random spec builds");
        let input = random_input(spec.input.len(), seed ^ 0xABCD);
        let artifact = ModelArtifact::Float(model);
        let eon = EonProgram::compile(artifact.clone()).unwrap();
        let interp = Interpreter::new(artifact.clone()).unwrap();
        let reference = artifact.run_reference(&input).unwrap();
        prop_assert_eq!(eon.run(&input).unwrap(), reference.clone());
        prop_assert_eq!(interp.run(&input).unwrap(), reference);
    }

    #[test]
    fn quantized_random_models_track_float(seed in 0u64..10_000) {
        let spec = random_spec(seed);
        let model = Sequential::build(&spec, seed).expect("random spec builds");
        let calib: Vec<Vec<f32>> =
            (0..12).map(|i| random_input(spec.input.len(), seed.wrapping_add(i))).collect();
        let qmodel = quantize_model(&model, &calib).expect("quantizes");
        for x in calib.iter().take(4) {
            let f = model.forward(x).unwrap();
            let q = qmodel.forward(x).unwrap();
            // post-softmax probabilities must be close
            for (a, b) in f.iter().zip(&q) {
                prop_assert!((a - b).abs() < 0.2, "float {a} vs int8 {b} (seed {seed})");
            }
        }
    }

    #[test]
    fn arena_execution_validates_plans_on_random_models(seed in 0u64..10_000) {
        // run_in_arena verifies every buffer read-before-use at the planned
        // offsets; any planner aliasing bug would fail here
        let spec = random_spec(seed);
        let model = Sequential::build(&spec, seed).expect("builds");
        let input = random_input(spec.input.len(), seed ^ 0x5555);
        let artifact = ModelArtifact::Float(model);
        let eon = EonProgram::compile(artifact).unwrap();
        prop_assert_eq!(eon.run_in_arena(&input).unwrap(), eon.run(&input).unwrap());
    }

    #[test]
    fn eon_never_uses_more_memory_than_interpreter(seed in 0u64..10_000) {
        let spec = random_spec(seed);
        let model = Sequential::build(&spec, seed).expect("builds");
        let artifact = ModelArtifact::Float(model);
        let eon = EonProgram::compile(artifact.clone()).unwrap();
        let interp = Interpreter::new(artifact).unwrap();
        prop_assert!(eon.memory().ram_total() <= interp.memory().ram_total());
        prop_assert!(eon.memory().flash_total() <= interp.memory().flash_total());
    }
}

#[test]
fn quantized_argmax_agreement_rate() {
    // across many random models, int8 and float argmax must almost always
    // agree on in-distribution inputs
    let mut agree = 0usize;
    let mut total = 0usize;
    for seed in 0..20u64 {
        let spec = random_spec(seed);
        let model = Sequential::build(&spec, seed).unwrap();
        let calib: Vec<Vec<f32>> =
            (0..16).map(|i| random_input(spec.input.len(), seed * 100 + i)).collect();
        let qmodel = quantize_model(&model, &calib).unwrap();
        for x in calib.iter().take(8) {
            let f = model.forward(x).unwrap();
            let q = qmodel.forward(x).unwrap();
            if argmax(&f) == argmax(&q) {
                agree += 1;
            }
            total += 1;
        }
    }
    assert!(agree as f64 / total as f64 > 0.9, "argmax agreement {agree}/{total} below 90%");
}

/// FNV-1a over the length and bits of every activation boundary
/// `forward_observed` shows, for every input.
fn boundary_hash(model: &Sequential, inputs: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for x in inputs {
        model
            .forward_observed(x, |_, act| {
                (act.len() as u64).to_le_bytes().into_iter().for_each(&mut eat);
                act.iter().flat_map(|v| v.to_bits().to_le_bytes()).for_each(&mut eat);
            })
            .expect("input fits the model");
    }
    h
}

#[test]
fn paper_models_f32_boundary_bits_are_pinned() {
    // captured before the kernels wrote into caller-owned buffers: every
    // boundary of the three task models, bit for bit, on inputs in range,
    // far out of range and with exact and negative zeros
    let cases = [
        ("kws", presets::ds_cnn(Dims::new(99, 10, 1), 4, 64), 0x93e9_84f7_593e_1072),
        ("vww", presets::mobilenet_v1(Dims::new(96, 96, 1), 2, 0.25), 0x928d_e597_b38d_6ce5),
        ("ic", presets::cifar_cnn(Dims::new(32, 32, 3), 10), 0xe9ff_bacf_c501_43e1),
    ];
    let mut moved = Vec::new();
    for (name, spec, want) in cases {
        let len = spec.input.len();
        let model = Sequential::build(&spec, 7).expect("preset builds");
        let x = random_input(len, 21);
        let far: Vec<f32> = x.iter().map(|v| v * 8.0).collect();
        let zeros: Vec<f32> = x.iter().map(|&v| if v < -0.5 { -0.0 } else { v.max(0.0) }).collect();
        let got = boundary_hash(&model, &[x, far, zeros]);
        if got != want {
            moved.push(format!("{name} got {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "f32 boundary bits moved: {moved:?}");
}
