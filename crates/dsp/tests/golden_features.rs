//! Feature bits are pinned: every audio and spectral block's `process`
//! output, hashed over seeded signals, must equal constants captured with
//! the per-call front-end (dense Mel rows, per-frame `cos` DCT, inline
//! twiddle recurrence) that the planned tables replaced, and the audio
//! blocks must give them at every f32 level their `process_at` runs. Any
//! change to windowing, FFT, filterbank, log or DCT arithmetic moves a
//! hash. The keyword-shaped clip golden is a unit test in `blocks.rs`.

use ei_dsp::blocks::FramedBlock;
use ei_dsp::{
    DspBlock, DspConfig, DspCost, DspError, MfccConfig, MfeConfig, SpectralConfig,
    SpectrogramConfig,
};
use ei_tensor::simd::supported_f32_levels;

/// FNV-1a over each output's length and the little-endian bits of every
/// feature.
fn hash_outputs(outputs: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for out in outputs {
        (out.len() as u64).to_le_bytes().into_iter().for_each(&mut eat);
        for v in out {
            v.to_bits().to_le_bytes().into_iter().for_each(&mut eat);
        }
    }
    h
}

/// Seeded xorshift noise under a seed-dependent amplitude ramp; seed 0 is
/// silence. No libm call, so the input bits are the same everywhere.
fn signal(seed: u64, len: usize) -> Vec<f32> {
    if seed == 0 {
        return vec![0.0; len];
    }
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let peak = 0.05 * seed as f32;
    (0..len)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = (s >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
            noise * peak * (1.0 + (i % 97) as f32 / 97.0)
        })
        .collect()
}

/// [`hash_outputs`] of the `process` output of `config`'s block on each
/// input.
fn process_hash(config: &DspConfig, inputs: &[Vec<f32>]) -> u64 {
    let block = config.build().expect("config builds");
    let outputs: Vec<Vec<f32>> =
        inputs.iter().map(|input| block.process(input).expect("signal fits")).collect();
    hash_outputs(&outputs)
}

#[test]
fn audio_feature_bits_are_pinned() {
    let kws = MfccConfig {
        frame_s: 0.02,
        stride_s: 0.01,
        n_coefficients: 10,
        n_filters: 40,
        sample_rate_hz: 16_000,
    };
    let seeded = |len| (0..8).map(|seed| signal(seed, len)).collect::<Vec<_>>();
    let (at_16k, at_4k) = (seeded(16_000), seeded(4_000));
    let cases = [
        ("kws mfcc", DspConfig::Mfcc(kws), &at_16k, 0x60c1_611a_2912_5148),
        ("default mfcc", DspConfig::Mfcc(MfccConfig::default()), &at_16k, 0xe958_aca2_2c79_25f9),
        ("default mfe", DspConfig::Mfe(MfeConfig::default()), &at_16k, 0x409f_3b75_f0cb_70b6),
        (
            "default spectrogram",
            DspConfig::Spectrogram(SpectrogramConfig::default()),
            &at_16k,
            0xd06f_09b7_6523_91e0,
        ),
        (
            "zero-padded spectrogram",
            DspConfig::Spectrogram(SpectrogramConfig { fft_len: 1024, ..Default::default() }),
            &at_16k,
            0xbeaa_69dd_1334_2af6,
        ),
        (
            "4 kHz mfe",
            DspConfig::Mfe(MfeConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_filters: 12,
                sample_rate_hz: 4_000,
                low_hz: 80.0,
                high_hz: 1_800.0,
            }),
            &at_4k,
            0xff71_e94a_98ee_e149,
        ),
        (
            "4 kHz mfcc",
            DspConfig::Mfcc(MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 8,
                n_filters: 16,
                sample_rate_hz: 4_000,
            }),
            &at_4k,
            0xcdde_32f0_842b_d52e,
        ),
    ];
    let mut failures = Vec::new();
    for (name, config, inputs, want) in cases {
        let got = process_hash(&config, inputs);
        if got != want {
            failures.push(format!("{name}: got {got:#018x}"));
        }
        let block = FramedBlock::new(&config).expect("config builds");
        for level in supported_f32_levels() {
            let outputs: Vec<Vec<f32>> =
                inputs.iter().map(|x| block.process_at(level, x).expect("signal fits")).collect();
            let got = hash_outputs(&outputs);
            if got != want {
                failures.push(format!("{name} at {level:?}: got {got:#018x}"));
            }
        }
    }
    assert!(failures.is_empty(), "feature bits moved:\n{}", failures.join("\n"));
}

#[test]
fn spectral_feature_bits_are_pinned() {
    let cases = [
        // 100 samples per axis: zero-padded to the 128-point FFT
        ("default spectral, short", SpectralConfig::default(), 300, 0x6779_33ee_7fba_9e9f),
        // 256 per axis: only the first fft_len samples reach the FFT
        ("default spectral, long", SpectralConfig::default(), 768, 0xf616_8d20_cda2_9513),
        (
            "one axis, 256-point",
            SpectralConfig { axes: 1, fft_len: 256, n_buckets: 32, sample_rate_hz: 100 },
            256,
            0x6858_b567_1453_5c59,
        ),
    ];
    let mut failures = Vec::new();
    for (name, config, len, want) in cases {
        let inputs: Vec<Vec<f32>> = (0..8).map(|seed| signal(seed, len)).collect();
        let got = process_hash(&DspConfig::Spectral(config), &inputs);
        if got != want {
            failures.push(format!("{name}: got {got:#018x}"));
        }
    }
    assert!(failures.is_empty(), "feature bits moved:\n{}", failures.join("\n"));
}

/// What a block reports for `len` samples: output length, output shape
/// and cost.
type Footprint = (usize, (usize, usize, usize), DspCost);

/// [`Footprint`] of `block` at `len`, or the error all three calls agree on.
fn footprint(block: &dyn DspBlock, len: usize) -> Result<Footprint, DspError> {
    let output_len = block.output_len(len);
    let shape = block.output_shape(len);
    let cost = block.cost(len);
    match (output_len, shape, cost) {
        (Ok(n), Ok(s), Ok(c)) => Ok((n, s, c)),
        (Err(a), Err(b), Err(c)) if a == b && b == c => Err(a),
        other => panic!("output_len, output_shape and cost disagree: {other:?}"),
    }
}

#[test]
fn framed_block_costs_are_pinned() {
    // captured while MFE, MFCC and Spectrogram were three block types;
    // `ei-device` turns these numbers into on-board latency and RAM
    let cost =
        |flops, scratch_bytes, output_features| DspCost { flops, scratch_bytes, output_features };
    let kws = MfccConfig { n_coefficients: 10, n_filters: 40, ..MfccConfig::default() };
    // the modeled filterbank MACs do not depend on its band
    let banded = MfeConfig { low_hz: 300.0, high_hz: 6_000.0, ..MfeConfig::default() };
    let gap = MfccConfig {
        frame_s: 0.016,
        stride_s: 0.025,
        n_coefficients: 8,
        n_filters: 16,
        sample_rate_hz: 4_000,
    };
    let cases: [(DspConfig, &str, usize, [Footprint; 2]); 7] = [
        (
            DspConfig::Mfcc(kws),
            "MFCC",
            320,
            [
                (990, (99, 10, 1), cost(2_602_809, 6_564, 990)),
                (760, (76, 10, 1), cost(1_998_116, 6_564, 760)),
            ],
        ),
        (
            DspConfig::Mfcc(MfccConfig::default()),
            "MFCC",
            320,
            [
                (1_287, (99, 13, 1), cost(2_604_393, 6_532, 1_287)),
                (988, (76, 13, 1), cost(1_999_332, 6_532, 988)),
            ],
        ),
        (
            DspConfig::Mfe(MfeConfig::default()),
            "MFE",
            320,
            [
                (3_960, (99, 40, 1), cost(2_523_609, 6_404, 3_960)),
                (3_040, (76, 40, 1), cost(1_937_316, 6_404, 3_040)),
            ],
        ),
        (
            DspConfig::Mfe(banded),
            "MFE",
            320,
            [
                (3_960, (99, 40, 1), cost(2_523_609, 6_404, 3_960)),
                (3_040, (76, 40, 1), cost(1_937_316, 6_404, 3_040)),
            ],
        ),
        (
            DspConfig::Spectrogram(SpectrogramConfig::default()),
            "Spectrogram",
            320,
            [
                (25_443, (99, 257, 1), cost(2_592_513, 5_376, 25_443)),
                (19_532, (76, 257, 1), cost(1_990_212, 5_376, 19_532)),
            ],
        ),
        (
            DspConfig::Spectrogram(SpectrogramConfig { fft_len: 1024, ..Default::default() }),
            "Spectrogram",
            320,
            [
                (50_787, (99, 513, 1), cost(5_659_137, 9_472, 50_787)),
                (38_988, (76, 513, 1), cost(4_344_388, 9_472, 38_988)),
            ],
        ),
        (
            DspConfig::Mfcc(gap),
            "MFCC",
            64,
            [
                (1_280, (160, 8, 1), cost(420_320, 964, 1_280)),
                (984, (123, 8, 1), cost(323_121, 964, 984)),
            ],
        ),
    ];
    let mut failures = Vec::new();
    for (config, name, frame_len, want) in cases {
        let block = config.build().expect("config builds");
        assert_eq!(block.name(), name);
        for (len, want) in [16_000, 12_345].into_iter().zip(want) {
            let got = footprint(block.as_ref(), len);
            if got != Ok(want) {
                failures.push(format!("{} at {len}: got {got:?}", config.summary()));
            }
        }
        assert!(footprint(block.as_ref(), frame_len).is_ok(), "{name}: one frame fits");
        let short = DspError::InputTooShort { required: frame_len, actual: frame_len - 1 };
        assert_eq!(footprint(block.as_ref(), frame_len - 1), Err(short), "{name}");
    }
    assert!(failures.is_empty(), "block footprints moved:\n{}", failures.join("\n"));
}
