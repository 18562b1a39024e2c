//! Feature bits are pinned: every audio and spectral block's `process`
//! output, hashed over seeded signals, must equal constants captured with
//! the per-call front-end (dense Mel rows, per-frame `cos` DCT, inline
//! twiddle recurrence) that the planned tables replaced. Any change to
//! windowing, FFT, filterbank, log or DCT arithmetic moves a hash.

use ei_dsp::{DspConfig, MfccConfig, MfeConfig, SpectralConfig, SpectrogramConfig};

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

fn process_hash(config: &DspConfig, len: usize) -> u64 {
    let block = config.build().expect("config builds");
    let outputs: Vec<Vec<f32>> =
        (0..8).map(|seed| block.process(&signal(seed, len)).expect("signal fits")).collect();
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
    let cases = [
        ("kws mfcc", DspConfig::Mfcc(kws), 16_000, 0x60c1_611a_2912_5148),
        ("default mfcc", DspConfig::Mfcc(MfccConfig::default()), 16_000, 0xe958_aca2_2c79_25f9),
        ("default mfe", DspConfig::Mfe(MfeConfig::default()), 16_000, 0x409f_3b75_f0cb_70b6),
        (
            "default spectrogram",
            DspConfig::Spectrogram(SpectrogramConfig::default()),
            16_000,
            0xd06f_09b7_6523_91e0,
        ),
        (
            "zero-padded spectrogram",
            DspConfig::Spectrogram(SpectrogramConfig { fft_len: 1024, ..Default::default() }),
            16_000,
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
            4_000,
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
            4_000,
            0xcdde_32f0_842b_d52e,
        ),
    ];
    let mut failures = Vec::new();
    for (name, config, len, want) in cases {
        let got = process_hash(&config, len);
        if got != want {
            failures.push(format!("{name}: got {got:#018x}"));
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
        let got = process_hash(&DspConfig::Spectral(config), len);
        if got != want {
            failures.push(format!("{name}: got {got:#018x}"));
        }
    }
    assert!(failures.is_empty(), "feature bits moved:\n{}", failures.join("\n"));
}
