//! The JSON layer (the vendored serde shim's one writer and one reader):
//! the exact bytes of numbers and escapes, the nesting cap at every
//! boundary that parses outside input, and the differential suite that
//! holds the direct paths to the `Value` tree byte for byte.

#[path = "support/json_diff.rs"]
mod json_diff;

use edgelab::core::impulse::{ImpulseDesign, TrainedImpulse};
use edgelab::data::ingest::AcquisitionPayload;
use edgelab::data::{Dataset, Sample, SensorKind};
use edgelab::device::Board;
use edgelab::dist::weight_checksum;
use edgelab::dsp::blocks::PixelNorm;
use edgelab::dsp::{
    DspConfig, ImageConfig, MfccConfig, MfeConfig, RawConfig, SpectralConfig, SpectrogramConfig,
};
use edgelab::faults::{Clock, VirtualClock};
use edgelab::nn::presets;
use edgelab::nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
use edgelab::nn::train::{TrainConfig, Trainer, TrainingReport};
use edgelab::nn::Sequential;
use edgelab::par::{ParPool, Parallelism};
use edgelab::platform::Api;
use edgelab::runtime::EngineKind;
use edgelab::serve::{content_hash, InferenceSpec, Server, ServerConfig};
use edgelab::trace::Tracer;
use json_diff::{check_round_trip, readers_agree, writers_agree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::sync::Arc;

// ------------------------------------------------------------- golden --

/// Every row's bytes were captured from the tree writer before the direct
/// writer existed; both writers must still produce them.
#[test]
fn golden_number_bytes() {
    let f64s: [(f64, &str); 12] = [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (-2.0, "-2.0"),
        (0.5, "0.5"),
        (1e15, "1000000000000000.0"),
        (1e16, "10000000000000000"),
        (1e17, "100000000000000000"),
        (1e-7, "0.0000001"),
        (-1.5e-7, "-0.00000015"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
    ];
    for (x, golden) in f64s {
        assert_eq!(writers_agree(&x), golden, "{x:e}");
        if x.is_finite() {
            assert_eq!(parse_both::<f64>(golden).to_bits(), x.to_bits(), "{golden}");
        }
    }
    assert_eq!(writers_agree(&f64::NEG_INFINITY), "null");
    // 1.7976931348623157e308, all 309 digits
    let max = format!("17976931348623157{}", "0".repeat(292));
    assert_eq!(writers_agree(&f64::MAX), max);
    assert_eq!(parse_both::<f64>(&max), f64::MAX);
    let f32s: [(f32, &str); 5] = [
        (0.1, "0.10000000149011612"),
        (f32::MAX, "340282346638528860000000000000000000000"),
        (f32::MIN_POSITIVE, "0.000000000000000000000000000000000000011754943508222875"),
        (f32::from_bits(1), "0.000000000000000000000000000000000000000000001401298464324817"),
        (f32::NAN, "null"),
    ];
    for (x, golden) in f32s {
        assert_eq!(writers_agree(&x), golden, "{x:e}");
        if x.is_finite() {
            assert_eq!(parse_both::<f32>(golden).to_bits(), x.to_bits(), "{golden}");
        }
    }
    // non-finite values cannot come back as numbers, only as absent ones
    for reader in [direct::<f64>, tree::<f64>] {
        assert!(reader("null").is_err());
    }
    assert_eq!(parse_both::<Option<f64>>("null"), None);
    assert_eq!(writers_agree(&u64::MAX), "18446744073709551615");
    assert_eq!(parse_both::<u64>("18446744073709551615"), u64::MAX);
    assert_eq!(writers_agree(&i64::MIN), "-9223372036854775808");
    assert_eq!(parse_both::<i64>("-9223372036854775808"), i64::MIN);
}

#[test]
fn golden_escape_bytes() {
    let rows = [
        ("a\"b", r#""a\"b""#),
        ("a\\b", r#""a\\b""#),
        ("\u{1f}", r#""\u001f""#),
        ("\u{7f}", "\"\u{7f}\""),
        ("é", "\"é\""),
        ("😀", "\"😀\""),
        ("\n\r\t\u{8}\u{c}\u{0}", r#""\n\r\t\b\f\u0000""#),
    ];
    for (s, golden) in rows {
        assert_eq!(writers_agree(&s), golden, "{s:?}");
        assert_eq!(writers_agree(&s.to_string()), golden, "{s:?}");
        assert_eq!(parse_both::<String>(golden), s);
    }
}

/// The saved-model bytes of the paper's three task models with seed-7
/// initial weights, as their content hash: every weight and bias of every
/// layer and the `"storage":{"F32":[…]}` layout around them.
#[test]
fn golden_untrained_preset_impulse_bytes() {
    let image = |side: usize, channels: usize, norm: PixelNorm| {
        DspConfig::Image(ImageConfig {
            in_width: side,
            in_height: side,
            in_channels: channels,
            out_width: side,
            out_height: side,
            out_channels: channels,
            norm,
        })
    };
    let kws = DspConfig::Mfcc(MfccConfig {
        frame_s: 0.02,
        stride_s: 0.01,
        n_coefficients: 10,
        n_filters: 40,
        sample_rate_hz: 16_000,
    });
    let cases = [
        ("kws", 16_000, kws, 4, 0x2413_6834_e3e9_be9b),
        ("vww", 96 * 96, image(96, 1, PixelNorm::MinusOneToOne), 2, 0x4a43_5485_d145_9614),
        ("ic", 32 * 32 * 3, image(32, 3, PixelNorm::ZeroToOne), 10, 0x679f_6e29_fc93_d7fe),
    ];
    let mut moved = Vec::new();
    for (name, window, dsp, classes, want) in cases {
        let design = ImpulseDesign::new(name, window, dsp).unwrap();
        let dims = design.feature_dims().unwrap();
        let spec = match name {
            "kws" => presets::ds_cnn(dims, classes, 64),
            "vww" => presets::mobilenet_v1(dims, classes, 0.25),
            _ => presets::cifar_cnn(dims, classes),
        };
        let model = Sequential::build(&spec, 7).unwrap();
        let labels = (0..classes).map(|c| format!("class{c}")).collect();
        let impulse = TrainedImpulse::from_parts(
            design,
            labels,
            model,
            TrainingReport::default(),
            Vec::new(),
        );
        let got = content_hash(&impulse.to_json().unwrap());
        if got != want {
            moved.push(format!("{name} got {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "saved model bytes moved: {moved:?}");
}

/// Seeded two-class blobs around `(1, 1)` and `(-1, -1)` in 2-D.
fn seeded_blobs(seed: u64, n_per_class: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n_per_class {
        for (label, centre) in [(0, 1.0f32), (1, -1.0)] {
            inputs.push(vec![centre + rng.gen_range(-0.6..0.6), centre + rng.gen_range(-0.6..0.6)]);
            labels.push(label);
        }
    }
    (inputs, labels)
}

/// The weights and per-epoch losses of a seed-7 classifier (with dropout)
/// and a seed-7 regressor, each trained for 8 epochs with a validation
/// split and best-checkpoint restore: the weight checksum, the restored
/// epoch and the bits of every `train_loss` / `val_loss` entry. Both
/// restore an earlier epoch: the classifier's validation accuracy and loss
/// tie from epoch 2 on, the regressor's validation MSE is lowest at 5.
#[test]
fn golden_trained_weights_and_losses() {
    let config = TrainConfig {
        epochs: 8,
        batch_size: 4,
        learning_rate: 0.2,
        validation_split: 0.25,
        restore_best: true,
        seed: 7,
        ..TrainConfig::default()
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (inputs, labels) = seeded_blobs(3, 16);

    let classifier = ModelSpec::new(Dims::new(1, 2, 1))
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense { units: 8, activation: Activation::Relu })
        .layer(LayerSpec::Dropout { rate: 0.25 })
        .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
        .layer(LayerSpec::Softmax);
    let mut model = Sequential::build(&classifier, 7).unwrap();
    let report = Trainer::new(config.clone()).train(&mut model, &inputs, &labels).unwrap();
    let got = (weight_checksum(&model), report.best_epoch);
    assert_eq!(got, (0xa769_cff0_4e96_a732, 2), "classifier weights");
    let train_loss = [
        1053046357, 1018837519, 1040796083, 1034721558, 841657004, 841657004, 857036120, 1012152173,
    ];
    assert_eq!(bits(&report.train_loss), train_loss, "classifier train_loss");
    assert_eq!(
        bits(&report.val_loss),
        [972535141, 899416090, 0, 0, 0, 0, 0, 0],
        "classifier val_loss"
    );

    let targets: Vec<f32> = inputs.iter().map(|x| 2.0 * x[0] - x[1] + 0.5).collect();
    let regressor = ModelSpec::new(Dims::new(1, 2, 1))
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense { units: 8, activation: Activation::Relu })
        .layer(LayerSpec::Dense { units: 1, activation: Activation::None });
    let mut model = Sequential::build(&regressor, 7).unwrap();
    let report = Trainer::new(config).train_regression(&mut model, &inputs, &targets).unwrap();
    let got = (weight_checksum(&model), report.best_epoch);
    assert_eq!(got, (0x20e6_fa67_13b8_2688, 5), "regressor weights");
    let train_loss = [
        1059144637, 1061996579, 1050798760, 1046650161, 1041648203, 1040087859, 1029173638,
        1026541724,
    ];
    assert_eq!(bits(&report.train_loss), train_loss, "regressor train_loss");
    let val_loss = [
        1066364254, 1058993182, 1053001668, 1041129144, 1044207124, 1033031708, 1037204092,
        1033473625,
    ];
    assert_eq!(bits(&report.val_loss), val_loss, "regressor val_loss");
}

fn direct<T: serde::Deserialize>(doc: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(doc)
}

fn tree<T: serde::Deserialize>(doc: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str::<Value>(doc).and_then(serde_json::from_value)
}

/// Reads `doc` through both readers, which must succeed with equal values.
fn parse_both<T: serde::Deserialize + PartialEq + std::fmt::Debug>(doc: &str) -> T {
    let a = direct::<T>(doc).expect("direct reader");
    assert_eq!(a, tree::<T>(doc).expect("tree reader"), "{doc}");
    a
}

// -------------------------------------------------------- depth cap --

fn unclosed() -> String {
    "[".repeat(200_000)
}

#[test]
fn import_rejects_deep_nesting_without_aborting() {
    assert!(Api::import_json(&unclosed()).is_err());
    let nested = format!(r#"{{"users":{}}}"#, unclosed());
    assert!(Api::import_json(&nested).is_err());
}

#[test]
fn saved_impulse_rejects_deep_nesting_without_aborting() {
    assert!(TrainedImpulse::from_json(&unclosed()).is_err());
    let nested = format!(r#"{{"format_version":1,"design":{}}}"#, unclosed());
    assert!(TrainedImpulse::from_json(&nested).is_err());
}

#[test]
fn a_deeply_nested_upload_fails_its_classify_only() {
    let api = Api::new();
    let u = api.create_user("u");
    let p = api.create_project("hostile", u).unwrap();
    api.upload_model(p, u, "deep", unclosed()).unwrap();
    api.attach_serving(Arc::new(Server::new(
        ServerConfig::default(),
        VirtualClock::shared() as Arc<dyn Clock>,
        Arc::new(ParPool::new(Parallelism::from_env())),
        Tracer::disabled(),
    )))
    .unwrap();
    let spec = InferenceSpec::new("deep", EngineKind::EonCompiled);
    assert!(api.classify(p, u, &spec, vec![0.0; 16]).is_err());
    // the server is still up for the next request
    assert!(api.classify(p, u, &spec, vec![0.0; 16]).is_err());
}

#[test]
fn a_hundred_deep_document_still_parses() {
    let doc = format!("{}7{}", "[".repeat(100), "]".repeat(100));
    let value: Value = serde_json::from_str(&doc).unwrap();
    assert_eq!(writers_agree(&value), doc);
    let objects = format!("{}null{}", r#"{"a":"#.repeat(100), "}".repeat(100));
    assert!(readers_agree::<Value>(&objects));
}

// ------------------------------------------------------ differential --

/// Finite values the formatter and the parser treat specially.
const SPECIAL: [f32; 12] = [
    0.0,
    -0.0,
    1.0,
    -2.0,
    1e-7,
    0.1,
    16_777_216.0,
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    f32::from_bits(1),
    -f32::from_bits(0x007f_ffff),
];

fn float(rng: &mut StdRng) -> f32 {
    if rng.gen_range(0..3) == 0 {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        rng.gen_range(-1.0..1.0)
    }
}

/// Short strings over an alphabet that needs every kind of escape.
fn text(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 12] =
        ['a', 'Z', '"', '\\', '\n', '\u{1f}', '\u{7f}', 'é', '😀', ' ', '/', '0'];
    (0..rng.gen_range(0..8)).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

fn payload(rng: &mut StdRng) -> AcquisitionPayload {
    AcquisitionPayload {
        values: (0..rng.gen_range(0..40)).map(|_| float(rng)).collect(),
        interval_ms: float(rng),
        sensor: text(rng),
        label: rng.gen_bool(0.5).then(|| text(rng)),
    }
}

fn dsp_config(rng: &mut StdRng) -> DspConfig {
    match rng.gen_range(0..7) {
        0 => DspConfig::Mfe(MfeConfig { low_hz: float(rng), ..MfeConfig::default() }),
        1 => DspConfig::Mfcc(MfccConfig { frame_s: float(rng), ..MfccConfig::default() }),
        2 => DspConfig::Spectrogram(SpectrogramConfig::default()),
        3 => DspConfig::Spectral(SpectralConfig::default()),
        4 => DspConfig::Image(ImageConfig {
            norm: if rng.gen_bool(0.5) { PixelNorm::ZeroToOne } else { PixelNorm::MinusOneToOne },
            ..ImageConfig::default()
        }),
        5 => DspConfig::Raw(RawConfig { scale: float(rng), offset: float(rng) }),
        _ => DspConfig::Custom {
            name: text(rng),
            params: (0..rng.gen_range(0..4)).map(|_| (text(rng), float(rng))).collect(),
        },
    }
}

fn board(rng: &mut StdRng) -> Board {
    let all = Board::all();
    Board {
        name: text(rng),
        clock_hz: if rng.gen_bool(0.3) { u64::MAX } else { rng.gen() },
        ..all[rng.gen_range(0..all.len())].clone()
    }
}

fn model_spec(rng: &mut StdRng) -> ModelSpec {
    let classes = rng.gen_range(2..5);
    let spec = match rng.gen_range(0..5) {
        0 => presets::dense_mlp(Dims::new(1, rng.gen_range(4..64), 1), classes, 8),
        1 => presets::ds_cnn(Dims::new(24, 10, 1), classes, 8),
        2 => presets::mobilenet_v1(Dims::new(32, 32, 1), classes, 0.25),
        3 => presets::conv1d_stack(Dims::new(1, 32, 3), classes, 2, 4),
        _ => presets::cifar_cnn(Dims::new(32, 32, 3), classes),
    };
    spec.named(&text(rng))
}

fn dataset(rng: &mut StdRng) -> Dataset {
    let mut ds = Dataset::new(&text(rng));
    for _ in 0..rng.gen_range(0..4) {
        let values = (0..rng.gen_range(1..12)).map(|_| float(rng)).collect();
        let sample = Sample::new(0, values, SensorKind::Inertial)
            .with_label(&text(rng))
            .with_metadata(&text(rng), &text(rng));
        ds.add(sample);
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn direct_paths_match_the_tree(seed in 0u64..1_000_000) {
        let rng = &mut StdRng::seed_from_u64(seed);
        check_round_trip(&payload(rng), seed, 12);
        check_round_trip(&dsp_config(rng), seed, 12);
        check_round_trip(&board(rng), seed, 12);
        check_round_trip(&model_spec(rng), seed, 12);
        let design = ImpulseDesign::new(&text(rng), 1_000, DspConfig::Mfcc(MfccConfig::default()));
        check_round_trip(&design.expect("a valid design"), seed, 12);
        check_round_trip(&dataset(rng), seed, 12);
    }

    #[test]
    fn non_finite_values_write_null_on_both_paths(seed in 0u64..1_000_000) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut p = payload(rng);
        p.values.push([f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)]);
        p.interval_ms = f32::NAN;
        let doc = writers_agree(&p);
        prop_assert!(doc.contains("null"));
        prop_assert!(!readers_agree::<AcquisitionPayload>(&doc));
    }
}

/// The mutations reach both verdicts, so the suite compares real answers,
/// not two rejections.
#[test]
fn mutations_are_accepted_and_rejected() {
    let rng = &mut StdRng::seed_from_u64(7);
    let accepted: usize = (0..8).map(|s| check_round_trip(&board(rng), s, 40)).sum();
    assert!(accepted > 8 && accepted < 8 * 40, "{accepted} of 320 mutations accepted");
}

/// Every shape the derive supports, including those no platform type
/// uses (they read through the tree), against the tree.
#[test]
fn every_derive_shape_matches_the_tree() {
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};

    #[derive(Serialize, Deserialize)]
    struct Unit;
    #[derive(Serialize, Deserialize)]
    struct Pair(u8, String);
    #[derive(Serialize, Deserialize)]
    struct Empty {}
    #[derive(Serialize, Deserialize)]
    enum Shape {
        Point,
        Scale(f32),
        Span(i64, Option<u32>),
        Rect { w: u16, h: u16 },
    }
    #[derive(Serialize, Deserialize)]
    struct All {
        unit: Unit,
        pair: Pair,
        empty: Empty,
        shapes: Vec<Shape>,
        #[serde(default)]
        defaulted: Vec<u8>,
        absent: Option<bool>,
        by_name: HashMap<String, (char, f64)>,
        by_id: BTreeMap<i32, Box<Shape>>,
    }
    let all = All {
        unit: Unit,
        pair: Pair(7, "p\"".into()),
        empty: Empty {},
        shapes: vec![
            Shape::Point,
            Shape::Scale(-0.0),
            Shape::Span(i64::MIN, None),
            Shape::Rect { w: 1, h: u16::MAX },
        ],
        defaulted: vec![1, 2],
        absent: Some(true),
        by_name: [("é".to_string(), ('\n', 1e300)), ("a".into(), ('x', 0.5))].into(),
        by_id: [(-3, Box::new(Shape::Span(4, Some(5)))), (9, Box::new(Shape::Scale(2.0)))].into(),
    };
    let accepted: usize = (0..30).map(|seed| check_round_trip(&all, seed, 20)).sum();
    assert!(accepted > 0);
    // an absent `#[serde(default)]` or `Option` field reads as its default
    let doc = serde_json::to_string(&all).unwrap();
    let trimmed = doc.replace(r#""defaulted":[1,2],"absent":true,"#, "");
    assert_ne!(trimmed, doc);
    assert!(readers_agree::<All>(&trimmed));
    let back: All = serde_json::from_str(&trimmed).unwrap();
    assert!(back.defaulted.is_empty() && back.absent.is_none());
}
