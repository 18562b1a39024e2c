//! Pins `calibrate`'s output bit for bit, so a change to the detection
//! chain, the scoring or the GA that alters which configurations it
//! suggests, or their measured FAR/FRR, fails here.
//!
//! Each row is one Pareto suggestion, lowest FAR first: `mean_filter`,
//! `threshold` bits, `suppression`, hits, misses, false accepts, then the
//! bits of `far_per_1k`, `frr` and `fitness`.

use ei_calibration::{calibrate, GaConfig, ScoredConfig, TraceConfig};

type Row = (usize, u32, usize, usize, usize, usize, u32, u32, u32);

fn rows(suggestions: &[ScoredConfig]) -> Vec<Row> {
    suggestions
        .iter()
        .map(|s| {
            (
                s.config.mean_filter,
                s.config.threshold.to_bits(),
                s.config.suppression,
                s.metrics.hits,
                s.metrics.misses,
                s.metrics.false_accepts,
                s.metrics.far_per_1k.to_bits(),
                s.metrics.frr.to_bits(),
                s.fitness.to_bits(),
            )
        })
        .collect()
}

fn calibrated(trace_config: &TraceConfig) -> Vec<Row> {
    let traces: Vec<_> = (1..=3).map(|seed| trace_config.generate(seed)).collect();
    rows(&calibrate(&traces, &GaConfig::default()))
}

#[test]
fn default_traces_give_the_pinned_suggestions() {
    // one configuration catches every event with no false accept and
    // dominates the rest; the pin is the first one the GA found
    let expected: Vec<Row> =
        vec![(3, 0x3f1e_80ef, 13, 18, 0, 0, 0x0000_0000, 0x0000_0000, 0x8000_0000)];
    assert_eq!(calibrated(&TraceConfig::default()), expected);
}

#[test]
fn noisy_traces_give_the_pinned_front() {
    let noisy = TraceConfig {
        noise: 0.25,
        spike_rate: 0.05,
        event_peak: 0.7,
        background: 0.2,
        ..TraceConfig::default()
    };
    let expected: Vec<Row> = vec![
        (7, 0x3ee9_e346, 16, 3, 15, 0, 0x0000_0000, 0x3f55_5555, 0xc2a6_aaaa),
        (6, 0x3ee9_e346, 18, 5, 13, 1, 0x3f0e_38e4, 0x3f38_e38e, 0xc29b_8e39),
        (6, 0x3ee8_bbab, 7, 6, 12, 2, 0x3f8e_38e4, 0x3f2a_aaab, 0xc28c_0001),
        (5, 0x3ee9_e346, 15, 11, 7, 3, 0x3fd5_5555, 0x3ec7_1c72, 0xc25e_38e4),
        (5, 0x3ee5_b806, 18, 12, 6, 4, 0x400e_38e4, 0x3eaa_aaab, 0xc25e_38e4),
        (7, 0x3ec6_750d, 9, 13, 5, 8, 0x408e_38e4, 0x3e8e_38e4, 0xc224_71c8),
        (6, 0x3eca_3c45, 11, 14, 4, 14, 0x40f8_e38e, 0x3e63_8e39, 0xc236_38e4),
        (6, 0x3ec6_750d, 11, 16, 2, 16, 0x410e_38e4, 0x3de3_8e39, 0xc217_1c72),
        (7, 0x3eba_21b7, 9, 17, 1, 19, 0x4128_e38e, 0x3d63_8e39, 0xc180_e38e),
        (5, 0x3eb4_a494, 12, 18, 0, 30, 0x4185_5555, 0x0000_0000, 0xc185_5555),
    ];
    assert_eq!(calibrated(&noisy), expected);
}
