//! Radix-2 FFT, planned once per length, and spectra.
//!
//! An `FftPlan` holds everything about an `n`-point transform that does
//! not depend on the data: the bit-reversal permutation and, per butterfly
//! stage, the twiddle factors. The twiddles come from the recurrence the
//! butterfly loop would otherwise run inline (`w ← w·wlen` from `w = 1`,
//! with `wlen = e^{-2πi/len}` rounded from f64), evaluated in the same
//! order, so a planned transform is bit-identical to the inline one; with
//! the twiddles tabulated the butterflies of a stage no longer depend on
//! each other and vectorise. One frame's data and the twiddles live in
//! separate real and imaginary arrays.
//!
//! `FftPlan::power` transforms one frame. `FftPlan::power_lanes`
//! transforms eight frames at once for the framed blocks' batch
//! `process`: lane `l` holds frame `l`, and each bin keeps its real lanes
//! beside its imaginary lanes (`[[f32; 8]; 2]`), so a butterfly reads and
//! writes whole registers of both bins it pairs while the twiddle is
//! broadcast. Every lane runs the operations `power` runs on its frame,
//! in the same order, so the spectra have the same bits. Keeping the real
//! and imaginary lanes in two separate arrays instead made the butterflies
//! slower than one frame at a time.
//!
//! Sized for TinyML frame lengths: a plan refuses lengths above
//! [`MAX_FFT_LEN`] before allocating anything, so a hostile configuration
//! is an error, not an unbounded allocation. The feature blocks build their
//! plan once in `new`; [`fft_in_place`], [`rfft`], [`power_spectrum`] and
//! [`magnitude_spectrum`] are thin wrappers that plan per call.

use crate::{DspError, Result};

/// Longest transform a plan accepts (64 Ki points; the tuner's largest
/// audio FFT is 1 024).
pub const MAX_FFT_LEN: usize = 1 << 16;

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f32, im: f32) -> Complex {
        Complex { re, im }
    }

    /// Squared magnitude `re^2 + im^2`.
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `sqrt(re^2 + im^2)`.
    pub fn abs(self) -> f32 {
        self.norm_sq().sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

/// The data-independent part of an iterative radix-2 Cooley–Tukey FFT of
/// one length.
#[derive(Debug, Clone)]
pub(crate) struct FftPlan {
    /// `rev[i]` is `i` with its `log2 n` bits reversed.
    rev: Vec<u32>,
    /// Twiddles of the stage with half-width `h` at `h - 1 .. 2h - 1`.
    tw_re: Vec<f32>,
    tw_im: Vec<f32>,
}

/// Working buffers of one [`FftPlan`]: the transform's real and imaginary
/// parts and the power spectrum read off them.
#[derive(Debug, Clone)]
pub(crate) struct FftScratch {
    re: Vec<f32>,
    im: Vec<f32>,
    power: Vec<f32>,
}

/// Frames [`FftPlan::power_lanes`] transforms at once: one 256-bit register
/// of `f32`, one frame per lane.
pub(crate) const LANES: usize = 8;

/// One value of each of [`LANES`] frames, lane `l` holding frame `l`'s.
pub(crate) type Lanes = [f32; LANES];

/// Working buffers of [`FftPlan::power_lanes`]: per bin, the real and the
/// imaginary lanes side by side (a butterfly reads both of one bin at
/// once), and the power spectrum's lanes.
pub(crate) struct LaneScratch {
    bins: Vec<[Lanes; 2]>,
    power: Vec<Lanes>,
}

impl FftPlan {
    /// Plans an `n`-point transform (`n = 1` is a no-op).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] when `n` exceeds
    /// [`MAX_FFT_LEN`] and [`DspError::FftLengthNotPowerOfTwo`] unless `n`
    /// is a power of two — both before allocating.
    pub(crate) fn new(n: usize) -> Result<FftPlan> {
        if n > MAX_FFT_LEN {
            return Err(DspError::InvalidConfig(format!(
                "fft length {n} exceeds the {MAX_FFT_LEN}-point maximum"
            )));
        }
        if n == 0 || !n.is_power_of_two() {
            return Err(DspError::FftLengthNotPowerOfTwo(n));
        }
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i: usize| i.reverse_bits().checked_shr(usize::BITS - bits).unwrap_or(0) as u32)
            .collect();
        let mut tw_re = Vec::with_capacity(n - 1);
        let mut tw_im = Vec::with_capacity(n - 1);
        let mut half = 1;
        while half < n {
            let ang = -2.0 * std::f64::consts::PI / (2 * half) as f64;
            let wlen = Complex::new(ang.cos() as f32, ang.sin() as f32);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..half {
                tw_re.push(w.re);
                tw_im.push(w.im);
                w = w * wlen;
            }
            half <<= 1;
        }
        Ok(FftPlan { rev, tw_re, tw_im })
    }

    /// In-place forward transform of natural-order data held as separate
    /// real and imaginary parts, each of the planned length.
    fn fft(&self, re: &mut [f32], im: &mut [f32]) {
        debug_assert!(re.len() == self.rev.len() && im.len() == self.rev.len());
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        self.butterflies(re, im);
    }

    /// The planned transform length.
    pub(crate) fn len(&self) -> usize {
        self.rev.len()
    }

    /// Fresh working buffers for [`FftPlan::power`].
    pub(crate) fn scratch(&self) -> FftScratch {
        let n = self.rev.len();
        FftScratch { re: vec![0.0; n], im: vec![0.0; n], power: vec![0.0; n / 2 + 1] }
    }

    /// Power spectrum `|X_k|^2 / n` (bins `0..=n/2`) of a real `signal`
    /// zero-padded to the planned length; the bit-reversal permutation is
    /// fused into the load. `signal` must not be longer than the plan.
    pub(crate) fn power<'s>(&self, signal: &[f32], scratch: &'s mut FftScratch) -> &'s [f32] {
        debug_assert!(signal.len() <= self.rev.len());
        let FftScratch { re, im, power } = scratch;
        for ((r, i), &src) in re.iter_mut().zip(im.iter_mut()).zip(&self.rev) {
            *r = signal.get(src as usize).copied().unwrap_or(0.0);
            *i = 0.0;
        }
        self.butterflies(re, im);
        let scale = 1.0 / self.rev.len() as f32;
        for ((p, &r), &i) in power.iter_mut().zip(re.iter()).zip(im.iter()) {
            *p = (r * r + i * i) * scale;
        }
        power
    }

    /// Fresh working buffers for [`FftPlan::power_lanes`].
    pub(crate) fn lane_scratch(&self) -> LaneScratch {
        let n = self.rev.len();
        LaneScratch { bins: vec![[[0.0; LANES]; 2]; n], power: vec![[0.0; LANES]; n / 2 + 1] }
    }

    /// [`FftPlan::power`] of [`LANES`] frames at once, frame `l` in lane `l`:
    /// `frames[l]` is frame `l`'s raw samples, multiplied by `window` (one
    /// coefficient per sample, no longer than the plan) as they are loaded.
    ///
    /// Each lane runs exactly the operations [`FftPlan::power`] runs on
    /// `frames[l] · window`, in the same order: the product is the one
    /// `apply_window` writes, the bit-reversed load is the same permutation
    /// (written as a scatter, `rev` being its own inverse), and every
    /// butterfly and power term is the same expression with the twiddle
    /// broadcast across lanes. So lane `l`'s spectrum has `power`'s bits.
    #[inline(always)]
    pub(crate) fn power_lanes<'s>(
        &self,
        frames: &[&[f32]; LANES],
        window: &[f32],
        scratch: &'s mut LaneScratch,
    ) -> &'s mut [Lanes] {
        debug_assert!(window.len() <= self.rev.len());
        let LaneScratch { bins, power } = scratch;
        bins.fill([[0.0; LANES]; 2]);
        let frames = frames.map(|f| &f[..window.len()]);
        for (i, (&w, &dst)) in window.iter().zip(&self.rev).enumerate() {
            let re = &mut bins[dst as usize][0];
            for (r, frame) in re.iter_mut().zip(&frames) {
                *r = frame[i] * w;
            }
        }
        let n = self.rev.len();
        let mut half = 1;
        while half < n {
            let wr = &self.tw_re[half - 1..2 * half - 1];
            let wi = &self.tw_im[half - 1..2 * half - 1];
            for block in bins.chunks_exact_mut(2 * half) {
                let (a, b) = block.split_at_mut(half);
                for (((a, b), &wr), &wi) in a.iter_mut().zip(b).zip(wr).zip(wi) {
                    butterfly_lanes(a, b, wr, wi);
                }
            }
            half <<= 1;
        }
        let scale = 1.0 / n as f32;
        for (p, [re, im]) in power.iter_mut().zip(bins.iter()) {
            for ((p, &r), &i) in p.iter_mut().zip(re).zip(im) {
                *p = (r * r + i * i) * scale;
            }
        }
        power
    }

    /// Every butterfly stage over bit-reversed data.
    fn butterflies(&self, re: &mut [f32], im: &mut [f32]) {
        let n = self.rev.len();
        let mut half = 1;
        while half < n {
            let wr = &self.tw_re[half - 1..2 * half - 1];
            let wi = &self.tw_im[half - 1..2 * half - 1];
            for (block_re, block_im) in
                re.chunks_exact_mut(2 * half).zip(im.chunks_exact_mut(2 * half))
            {
                let (ar, br) = block_re.split_at_mut(half);
                let (ai, bi) = block_im.split_at_mut(half);
                butterfly(ar, ai, br, bi, wr, wi);
            }
            half <<= 1;
        }
    }
}

/// One block of a stage: `(a, b) ← (a + b·w, a − b·w)` lane by lane, with
/// `b·w` expanded exactly as [`Complex`] multiplication does. Every operand
/// is re-sliced to `a`'s length so the loop carries no bounds checks.
#[inline]
fn butterfly(
    ar: &mut [f32],
    ai: &mut [f32],
    br: &mut [f32],
    bi: &mut [f32],
    wr: &[f32],
    wi: &[f32],
) {
    let half = ar.len();
    let (ai, br, bi) = (&mut ai[..half], &mut br[..half], &mut bi[..half]);
    let (wr, wi) = (&wr[..half], &wi[..half]);
    for k in 0..half {
        let (xr, xi) = (br[k], bi[k]);
        let vr = xr * wr[k] - xi * wi[k];
        let vi = xr * wi[k] + xi * wr[k];
        let (ur, ui) = (ar[k], ai[k]);
        ar[k] = ur + vr;
        ai[k] = ui + vi;
        br[k] = ur - vr;
        bi[k] = ui - vi;
    }
}

/// [`butterfly`] on one pair of bins of [`LANES`] frames, lane by lane, with
/// the stage's twiddle `wr + i·wi` shared by every lane.
#[inline(always)]
fn butterfly_lanes(a: &mut [Lanes; 2], b: &mut [Lanes; 2], wr: f32, wi: f32) {
    for l in 0..LANES {
        let (xr, xi) = (b[0][l], b[1][l]);
        let vr = xr * wr - xi * wi;
        let vi = xr * wi + xi * wr;
        let (ur, ui) = (a[0][l], a[1][l]);
        a[0][l] = ur + vr;
        a[1][l] = ui + vi;
        b[0][l] = ur - vr;
        b[1][l] = ui - vi;
    }
}

/// In-place forward FFT of interleaved complex data, planned per call.
///
/// # Errors
///
/// Returns [`DspError::FftLengthNotPowerOfTwo`] unless `buf.len()` is a
/// power of two (length 1 is accepted as a no-op), and
/// [`DspError::InvalidConfig`] above [`MAX_FFT_LEN`].
pub fn fft_in_place(buf: &mut [Complex]) -> Result<()> {
    let plan = FftPlan::new(buf.len())?;
    let mut re: Vec<f32> = buf.iter().map(|c| c.re).collect();
    let mut im: Vec<f32> = buf.iter().map(|c| c.im).collect();
    plan.fft(&mut re, &mut im);
    for (c, (r, i)) in buf.iter_mut().zip(re.into_iter().zip(im)) {
        *c = Complex::new(r, i);
    }
    Ok(())
}

/// Forward FFT of a real signal, zero-padded to `fft_len`.
///
/// Returns the first `fft_len / 2 + 1` bins (the rest are conjugate
/// mirrors for real input).
///
/// # Errors
///
/// Returns [`DspError::FftLengthNotPowerOfTwo`] or (above
/// [`MAX_FFT_LEN`]) [`DspError::InvalidConfig`] for an invalid `fft_len`,
/// or [`DspError::InputLengthMismatch`] when the signal is longer than
/// `fft_len`.
pub fn rfft(signal: &[f32], fft_len: usize) -> Result<Vec<Complex>> {
    let plan = FftPlan::new(fft_len)?;
    if signal.len() > fft_len {
        return Err(DspError::InputLengthMismatch { expected: fft_len, actual: signal.len() });
    }
    let mut re = signal.to_vec();
    re.resize(fft_len, 0.0);
    let mut im = vec![0.0; fft_len];
    plan.fft(&mut re, &mut im);
    Ok(re.into_iter().zip(im).take(fft_len / 2 + 1).map(|(r, i)| Complex::new(r, i)).collect())
}

/// Power spectrum `|X_k|^2 / n` of a real signal.
///
/// # Errors
///
/// Same as [`rfft`].
pub fn power_spectrum(signal: &[f32], fft_len: usize) -> Result<Vec<f32>> {
    let plan = FftPlan::new(fft_len)?;
    if signal.len() > fft_len {
        return Err(DspError::InputLengthMismatch { expected: fft_len, actual: signal.len() });
    }
    let mut scratch = plan.scratch();
    plan.power(signal, &mut scratch);
    Ok(scratch.power)
}

/// Magnitude spectrum `|X_k|` of a real signal.
///
/// # Errors
///
/// Propagates the errors of [`rfft`].
pub fn magnitude_spectrum(signal: &[f32], fft_len: usize) -> Result<Vec<f32>> {
    let spec = rfft(signal, fft_len)?;
    Ok(spec.iter().map(|c| c.abs()).collect())
}

/// Approximate floating-point operation count of one radix-2 FFT of length
/// `n` (used by the device cost model): `5 n log2 n` real ops.
pub fn fft_flops(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    5 * n as u64 * (n as f64).log2().round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dft_reference(signal: &[f32]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (t, &x) in signal.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    acc = acc + Complex::new(x * ang.cos() as f32, x * ang.sin() as f32);
                }
                acc
            })
            .collect()
    }

    /// The inline-recurrence transform the plan replaced, kept verbatim as
    /// the bitwise oracle.
    fn inline_fft(buf: &mut [Complex]) {
        let n = buf.len();
        if n == 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::new(ang.cos() as f32, ang.sin() as f32);
            for start in (0..n).step_by(len) {
                let mut w = Complex::new(1.0, 0.0);
                for k in 0..len / 2 {
                    let u = buf[start + k];
                    let v = buf[start + k + len / 2] * w;
                    buf[start + k] = u + v;
                    buf[start + k + len / 2] = u - v;
                    w = w * wlen;
                }
            }
            len <<= 1;
        }
    }

    /// xorshift64 values in `[-scale, scale)`.
    fn noise(seed: u64, n: usize, scale: f32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
            })
            .collect()
    }

    fn bits(buf: &[Complex]) -> Vec<(u32, u32)> {
        buf.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn plan_is_bitwise_equal_to_the_inline_recurrence() {
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            for (seed, scale) in [(1, 1.0f32), (2, 3.0e4), (3, 1.0e-3)] {
                let re = noise(seed + 10 * log_n as u64, n, scale);
                let im = noise(seed + 100 * log_n as u64, n, scale);
                let input: Vec<Complex> =
                    re.iter().zip(&im).map(|(&r, &i)| Complex::new(r, i)).collect();
                let mut want = input.clone();
                inline_fft(&mut want);
                let mut got = input;
                fft_in_place(&mut got).unwrap();
                assert_eq!(bits(&got), bits(&want), "n = {n}, seed {seed}");
            }
        }
    }

    #[test]
    fn real_power_path_matches_the_complex_transform() {
        // zero-padded and full-length real inputs through the fused load
        for (len, n) in [(1, 1), (3, 8), (320, 512), (512, 512), (100, 128)] {
            let signal = noise(len as u64, len, 0.5);
            let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
            buf.resize(n, Complex::default());
            inline_fft(&mut buf);
            let want: Vec<u32> = buf[..n / 2 + 1]
                .iter()
                .map(|c| (c.norm_sq() * (1.0 / n as f32)).to_bits())
                .collect();
            let got: Vec<u32> =
                power_spectrum(&signal, n).unwrap().iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, want, "signal {len} into {n} points");
        }
    }

    #[test]
    fn oversized_plans_are_refused_before_allocating() {
        assert!(matches!(FftPlan::new(MAX_FFT_LEN * 2), Err(DspError::InvalidConfig(_))));
        assert!(matches!(FftPlan::new(1 << 40), Err(DspError::InvalidConfig(_))));
        assert!(matches!(FftPlan::new(usize::MAX), Err(DspError::InvalidConfig(_))));
        assert!(FftPlan::new(MAX_FFT_LEN).is_ok());
        assert!(rfft(&[0.0; 4], 1 << 40).is_err());
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut buf = vec![Complex::default(); 12];
        assert!(fft_in_place(&mut buf).is_err());
        assert!(fft_in_place(&mut []).is_err());
        assert!(rfft(&[0.0; 4], 12).is_err());
        assert!(rfft(&[0.0; 20], 16).is_err());
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut signal = vec![0.0f32; 64];
        signal[0] = 1.0;
        let spec = rfft(&signal, 64).unwrap();
        for c in &spec {
            assert!((c.re - 1.0).abs() < 1e-4);
            assert!(c.im.abs() < 1e-4);
        }
    }

    #[test]
    fn single_tone_peaks_at_right_bin() {
        let n = 256;
        let bin = 10;
        let signal: Vec<f32> = (0..n)
            .map(|t| (2.0 * std::f32::consts::PI * bin as f32 * t as f32 / n as f32).sin())
            .collect();
        let power = power_spectrum(&signal, n).unwrap();
        let peak = power.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(peak, bin);
    }

    #[test]
    fn matches_naive_dft() {
        let signal: Vec<f32> = (0..32).map(|i| ((i * 7 + 3) % 13) as f32 - 6.0).collect();
        let fast = rfft(&signal, 32).unwrap();
        let slow = dft_reference(&signal);
        for (f, s) in fast.iter().zip(&slow[..17]) {
            assert!((f.re - s.re).abs() < 1e-3, "re {} vs {}", f.re, s.re);
            assert!((f.im - s.im).abs() < 1e-3, "im {} vs {}", f.im, s.im);
        }
    }

    #[test]
    fn zero_padding_allowed() {
        let spec = rfft(&[1.0, 2.0, 3.0], 8).unwrap();
        assert_eq!(spec.len(), 5);
    }

    #[test]
    fn fft_flops_monotone() {
        assert_eq!(fft_flops(1), 0);
        assert!(fft_flops(512) > fft_flops(256));
        assert_eq!(fft_flops(256), 5 * 256 * 8);
    }

    proptest! {
        #[test]
        fn prop_parseval(signal in proptest::collection::vec(-1.0f32..1.0, 64)) {
            // sum(x^2) == (1/n) * sum(|X|^2) over the full symmetric spectrum
            let n = 64usize;
            let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
            fft_in_place(&mut buf).unwrap();
            let time_energy: f32 = signal.iter().map(|x| x * x).sum();
            let freq_energy: f32 = buf.iter().map(|c| c.norm_sq()).sum::<f32>() / n as f32;
            prop_assert!((time_energy - freq_energy).abs() < 1e-2 * time_energy.max(1.0));
        }

        #[test]
        fn prop_linearity(
            a in proptest::collection::vec(-1.0f32..1.0, 32),
            b in proptest::collection::vec(-1.0f32..1.0, 32),
        ) {
            let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let fa = rfft(&a, 32).unwrap();
            let fb = rfft(&b, 32).unwrap();
            let fs = rfft(&sum, 32).unwrap();
            for i in 0..fs.len() {
                prop_assert!((fs[i].re - (fa[i].re + fb[i].re)).abs() < 1e-3);
                prop_assert!((fs[i].im - (fa[i].im + fb[i].im)).abs() < 1e-3);
            }
        }
    }
}
