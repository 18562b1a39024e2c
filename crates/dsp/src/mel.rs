//! Mel scale, triangular filterbanks and the DCT-II used by MFCC.

use crate::fft::{Lanes, LANES};
use crate::{DspError, Result};

/// Converts frequency in hertz to mels (HTK convention).
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mels back to hertz (HTK convention).
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// A bank of triangular Mel filters over FFT power-spectrum bins.
///
/// Each filter keeps only its non-zero support: a triangle spans a few
/// bins of the spectrum, so a dense `n_filters × n_bins` row set is almost
/// all zeros (40 × 257 weights, ≈ 510 of them non-zero, for the 16 kHz
/// defaults).
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    /// Per filter: the first power bin it weighs and its weights from that
    /// bin on, in bin order.
    filters: Vec<(usize, Vec<f32>)>,
    n_bins: usize,
}

impl MelFilterbank {
    /// Builds `n_filters` triangular filters spanning `[low_hz, high_hz]`
    /// over a power spectrum of `n_bins = fft_len / 2 + 1` bins at
    /// `sample_rate_hz`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] when the frequency range is
    /// inverted, NaN or exceeds Nyquist, or there are too many filters for
    /// the number of bins.
    pub fn new(
        n_filters: usize,
        fft_len: usize,
        sample_rate_hz: u32,
        low_hz: f32,
        high_hz: f32,
    ) -> Result<MelFilterbank> {
        let nyquist = sample_rate_hz as f32 / 2.0;
        if n_filters == 0 {
            return Err(DspError::InvalidConfig("need at least one mel filter".into()));
        }
        // written so that a NaN edge fails it
        if !(low_hz >= 0.0 && high_hz > low_hz && high_hz <= nyquist + 1.0) {
            return Err(DspError::InvalidConfig(format!(
                "mel range [{low_hz}, {high_hz}] invalid for nyquist {nyquist}"
            )));
        }
        let n_bins = fft_len / 2 + 1;
        if n_filters > n_bins.saturating_sub(2) {
            return Err(DspError::InvalidConfig(format!(
                "{n_filters} filters need more than {n_bins} spectrum bins"
            )));
        }
        // n_filters + 2 equally spaced points on the mel scale
        let mel_lo = hz_to_mel(low_hz);
        let mel_hi = hz_to_mel(high_hz);
        let points: Vec<f32> = (0..n_filters + 2)
            .map(|i| {
                let mel = mel_lo + (mel_hi - mel_lo) * i as f32 / (n_filters + 1) as f32;
                mel_to_hz(mel)
            })
            .collect();
        let hz_per_bin = sample_rate_hz as f32 / fft_len as f32;
        let mut row = vec![0.0f32; n_bins];
        let mut filters = Vec::with_capacity(n_filters);
        for f in 0..n_filters {
            let (lo, center, hi) = (points[f], points[f + 1], points[f + 2]);
            for (bin, w) in row.iter_mut().enumerate() {
                let hz = bin as f32 * hz_per_bin;
                *w = if hz > lo && hz < hi {
                    if hz <= center {
                        (hz - lo) / (center - lo).max(f32::EPSILON)
                    } else {
                        (hi - hz) / (hi - center).max(f32::EPSILON)
                    }
                } else {
                    0.0
                };
            }
            let first = row.iter().position(|&w| w != 0.0).unwrap_or(0);
            let end = row.iter().rposition(|&w| w != 0.0).map_or(first, |last| last + 1);
            filters.push((first, row[first..end].to_vec()));
        }
        Ok(MelFilterbank { filters, n_bins })
    }

    /// Number of filters in the bank.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` when the bank holds no filters (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Applies the bank to a power spectrum, producing one energy per filter.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputLengthMismatch`] if `power.len()` differs
    /// from the bin count the bank was built for.
    pub fn apply(&self, power: &[f32]) -> Result<Vec<f32>> {
        if power.len() != self.n_bins {
            return Err(DspError::InputLengthMismatch {
                expected: self.n_bins,
                actual: power.len(),
            });
        }
        let mut energies = vec![0.0; self.filters.len()];
        self.apply_into(power, &mut energies);
        Ok(energies)
    }

    /// [`MelFilterbank::apply`] into `energies` (one slot per filter) for a
    /// power spectrum of the planned length.
    ///
    /// Each energy sums `w · p` over the filter's support in bin order,
    /// starting from `+0.0`. A dense row would add `0 · p = +0.0` for every
    /// other bin, which leaves a sum of non-negative terms unchanged, so
    /// for finite power the result is the dense dot product bit for bit.
    /// (A dense row turns an infinite bin into `0 · ∞ = NaN` in *every*
    /// filter; here only the filters that weigh that bin see it.)
    pub(crate) fn apply_into(&self, power: &[f32], energies: &mut [f32]) {
        debug_assert_eq!(power.len(), self.n_bins);
        for ((first, weights), e) in self.filters.iter().zip(energies) {
            *e = weights.iter().zip(&power[*first..]).fold(0.0, |acc, (w, p)| acc + w * p);
        }
    }

    /// [`MelFilterbank::apply_into`] for [`LANES`] power spectra at once,
    /// one per lane: each lane's energy is the same `+0.0`-started fold in
    /// bin order, so it has `apply_into`'s bits.
    #[inline(always)]
    pub(crate) fn apply_lanes(&self, power: &[Lanes], energies: &mut [Lanes]) {
        debug_assert_eq!(power.len(), self.n_bins);
        for ((first, weights), e) in self.filters.iter().zip(energies) {
            let mut acc = [0.0; LANES];
            for (&w, p) in weights.iter().zip(&power[*first..]) {
                for (acc, &p) in acc.iter_mut().zip(p) {
                    *acc += w * p;
                }
            }
            *e = acc;
        }
    }

    /// Approximate multiply–accumulate count of one [`MelFilterbank::apply`].
    pub fn macs(&self) -> u64 {
        // triangular filters touch ~2 * n_bins / n_filters bins each
        (self.filters.len() as u64)
            * (2 * self.n_bins as u64 / self.filters.len().max(1) as u64 + 1)
    }
}

/// A planned DCT-II with orthonormal scaling: the cosine table for `n`
/// inputs and `n_out` outputs, each entry the very f32 expression [`dct2`]
/// would evaluate for it, so applying the table is bitwise [`dct2`].
#[derive(Debug, Clone)]
pub(crate) struct Dct2 {
    n: usize,
    /// Row `k` holds `cos(π (i + ½) k / n)` for inputs `i = 0..n`.
    table: Vec<f32>,
    norm0: f32,
    norm: f32,
}

impl Dct2 {
    /// Tabulates the transform of `n` inputs to its first `n_out`
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `n_out > n`.
    pub(crate) fn new(n: usize, n_out: usize) -> Dct2 {
        debug_assert!(n_out <= n);
        let table = (0..n_out)
            .flat_map(|k| {
                (0..n).map(move |i| {
                    (std::f32::consts::PI * (i as f32 + 0.5) * k as f32 / n as f32).cos()
                })
            })
            .collect();
        Dct2 { n, table, norm0: (1.0 / n as f32).sqrt(), norm: (2.0 / n as f32).sqrt() }
    }

    /// The first `n_out` coefficients of `input` (`n` values).
    pub(crate) fn apply(&self, input: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.n_out());
        self.apply_into(input, &mut out);
        out
    }

    /// [`Dct2::apply`], appending the coefficients to `out`.
    pub(crate) fn apply_into(&self, input: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(input.len(), self.n);
        if self.n == 0 {
            return;
        }
        out.extend(self.table.chunks_exact(self.n).enumerate().map(|(k, row)| {
            let sum: f32 = input.iter().zip(row).map(|(&x, &c)| x * c).sum();
            sum * if k == 0 { self.norm0 } else { self.norm }
        }));
    }

    /// Coefficients per input.
    pub(crate) fn n_out(&self) -> usize {
        self.table.len() / self.n.max(1)
    }

    /// [`Dct2::apply_into`] for [`LANES`] inputs at once, one per lane,
    /// writing coefficient `k` of every lane to `out[k]`.
    ///
    /// Each lane folds its products in input order from the value `f32`'s
    /// `Sum` starts from (`-0.0` on current std; `+0.0` would turn an
    /// all-`-0.0` sum positive), so a lane has `apply_into`'s bits.
    #[inline(always)]
    pub(crate) fn apply_lanes(&self, input: &[Lanes], out: &mut [Lanes]) {
        debug_assert_eq!(input.len(), self.n);
        if self.n == 0 {
            return;
        }
        let start: f32 = std::iter::empty::<f32>().sum();
        for (k, (row, o)) in self.table.chunks_exact(self.n).zip(out).enumerate() {
            let mut acc = [start; LANES];
            for (x, &c) in input.iter().zip(row) {
                for (acc, &x) in acc.iter_mut().zip(x) {
                    *acc += x * c;
                }
            }
            let norm = if k == 0 { self.norm0 } else { self.norm };
            for (o, acc) in o.iter_mut().zip(acc) {
                *o = acc * norm;
            }
        }
    }
}

/// Type-II discrete cosine transform with orthonormal scaling, returning
/// the first `n_out` coefficients — a `Dct2` table planned for this one
/// call.
///
/// # Panics
///
/// Panics (debug assertion) if `n_out > input.len()`.
pub fn dct2(input: &[f32], n_out: usize) -> Vec<f32> {
    Dct2::new(input.len(), n_out).apply(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mel_round_trip() {
        for hz in [0.0f32, 100.0, 1000.0, 4000.0, 8000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 0.5, "{hz} -> {back}");
        }
    }

    #[test]
    fn mel_is_monotone() {
        let mut prev = -1.0;
        for hz in (0..8000).step_by(250) {
            let m = hz_to_mel(hz as f32);
            assert!(m > prev);
            prev = m;
        }
    }

    #[test]
    fn filterbank_shape_and_coverage() {
        let fb = MelFilterbank::new(40, 512, 16_000, 0.0, 8000.0).unwrap();
        assert_eq!(fb.len(), 40);
        // middle filters have non-zero weight somewhere
        let power = vec![1.0f32; 257];
        let energies = fb.apply(&power).unwrap();
        assert!(energies.iter().skip(1).all(|&e| e > 0.0), "every filter should capture energy");
    }

    #[test]
    fn filterbank_rejects_bad_config() {
        assert!(MelFilterbank::new(0, 512, 16_000, 0.0, 8000.0).is_err());
        assert!(MelFilterbank::new(40, 512, 16_000, 4000.0, 1000.0).is_err());
        assert!(MelFilterbank::new(40, 512, 16_000, 0.0, 20_000.0).is_err());
        assert!(MelFilterbank::new(300, 512, 16_000, 0.0, 8000.0).is_err());
    }

    #[test]
    fn filterbank_apply_validates_len() {
        let fb = MelFilterbank::new(10, 256, 16_000, 0.0, 8000.0).unwrap();
        assert!(fb.apply(&vec![0.0; 100]).is_err());
    }

    #[test]
    fn tone_lands_in_matching_filter() {
        let fb = MelFilterbank::new(20, 512, 16_000, 0.0, 8000.0).unwrap();
        // concentrate power near 1 kHz -> bin 32 at 31.25 Hz/bin
        let mut power = vec![0.0f32; 257];
        power[32] = 10.0;
        let energies = fb.apply(&power).unwrap();
        let peak =
            energies.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        // 1 kHz = mel 999.9; filters span 0..2840 mel, so peak should sit in
        // the lower-middle third of the bank
        assert!((3..10).contains(&peak), "peak filter {peak}");
    }

    /// Dense `n_filters × n_bins` rows built and applied the way the bank
    /// did before it kept only each filter's support: the bitwise oracle.
    fn dense_energies(
        (n_filters, fft_len, rate, low_hz, high_hz): (usize, usize, u32, f32, f32),
        power: &[f32],
    ) -> Vec<f32> {
        let (mel_lo, mel_hi) = (hz_to_mel(low_hz), hz_to_mel(high_hz));
        let points: Vec<f32> = (0..n_filters + 2)
            .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f32 / (n_filters + 1) as f32))
            .collect();
        let hz_per_bin = rate as f32 / fft_len as f32;
        (0..n_filters)
            .map(|f| {
                let (lo, center, hi) = (points[f], points[f + 1], points[f + 2]);
                let mut weights = vec![0.0f32; fft_len / 2 + 1];
                for (bin, w) in weights.iter_mut().enumerate() {
                    let hz = bin as f32 * hz_per_bin;
                    if hz > lo && hz < hi {
                        *w = if hz <= center {
                            (hz - lo) / (center - lo).max(f32::EPSILON)
                        } else {
                            (hi - hz) / (hi - center).max(f32::EPSILON)
                        };
                    }
                }
                weights.iter().zip(power).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// The per-call cosine DCT-II [`Dct2`] tabulates: the bitwise oracle.
    fn direct_dct2(input: &[f32], n_out: usize) -> Vec<f32> {
        let n = input.len();
        let norm0 = (1.0 / n as f32).sqrt();
        let norm = (2.0 / n as f32).sqrt();
        (0..n_out)
            .map(|k| {
                let sum: f32 = input
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        x * (std::f32::consts::PI * (i as f32 + 0.5) * k as f32 / n as f32).cos()
                    })
                    .sum();
                sum * if k == 0 { norm0 } else { norm }
            })
            .collect()
    }

    fn to_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Power-spectrum-like values: non-negative, many decades, some zeros.
    fn power_like(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s.is_multiple_of(11) {
                    0.0
                } else {
                    (s >> 40) as f32 / (1u64 << 24) as f32 * 10f32.powi((s % 9) as i32 - 5)
                }
            })
            .collect()
    }

    #[test]
    fn sparse_apply_is_bitwise_equal_to_dense_rows() {
        let configs = [
            (40, 512, 16_000, 0.0, 8_000.0),
            (32, 512, 16_000, 20.0, 8_000.0),
            (12, 128, 4_000, 0.0, 2_000.0),
            (16, 128, 4_000, 80.0, 1_800.0),
            (64, 1024, 16_000, 300.0, 7_600.0),
            (3, 8, 16_000, 0.0, 8_000.0),
        ];
        for config in configs {
            let (n_filters, fft_len, rate, lo, hi) = config;
            let fb = MelFilterbank::new(n_filters, fft_len, rate, lo, hi).unwrap();
            for seed in 0..8 {
                let power = power_like(seed + fft_len as u64, fft_len / 2 + 1);
                assert_eq!(
                    to_bits(&fb.apply(&power).unwrap()),
                    to_bits(&dense_energies(config, &power)),
                    "{config:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn tabulated_dct_is_bitwise_equal_to_per_call_cosines() {
        for (n, n_out) in [(40, 10), (32, 13), (16, 8), (40, 40), (1, 1), (7, 3)] {
            let dct = Dct2::new(n, n_out);
            for seed in 0..6 {
                let input: Vec<f32> =
                    power_like(seed + n as u64, n).iter().map(|p| (p + 1e-10).ln()).collect();
                let want = to_bits(&direct_dct2(&input, n_out));
                assert_eq!(to_bits(&dct.apply(&input)), want, "n {n} n_out {n_out}");
                assert_eq!(to_bits(&dct2(&input, n_out)), want);
            }
        }
    }

    #[test]
    fn filter_count_overflow_is_an_error() {
        assert!(MelFilterbank::new(usize::MAX, 512, 16_000, 0.0, 8000.0).is_err());
        assert!(MelFilterbank::new(1, 1, 16_000, 0.0, 8000.0).is_err());
    }

    #[test]
    fn dct2_of_constant_concentrates_in_dc() {
        let coeffs = dct2(&[1.0; 16], 16);
        assert!((coeffs[0] - 4.0).abs() < 1e-4); // sqrt(16) * 1
        for &c in &coeffs[1..] {
            assert!(c.abs() < 1e-4);
        }
    }

    #[test]
    fn dct2_empty_input() {
        assert!(dct2(&[], 0).is_empty());
    }

    proptest! {
        #[test]
        fn prop_dct2_linear(a in proptest::collection::vec(-2.0f32..2.0, 16)) {
            let doubled: Vec<f32> = a.iter().map(|x| 2.0 * x).collect();
            let ca = dct2(&a, 8);
            let cd = dct2(&doubled, 8);
            for (x, y) in ca.iter().zip(&cd) {
                prop_assert!((2.0 * x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_filterbank_energy_nonnegative(
            power in proptest::collection::vec(0.0f32..10.0, 129)
        ) {
            let fb = MelFilterbank::new(13, 256, 16_000, 20.0, 8000.0).unwrap();
            let e = fb.apply(&power).unwrap();
            prop_assert!(e.iter().all(|&x| x >= 0.0));
        }
    }
}
