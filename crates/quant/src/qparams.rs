//! Affine quantization parameters and fixed-point requantization.
//!
//! The int8 scheme follows the convention TFLite Micro ships (Jacob et al.
//! 2017, cited in paper §4.5): `real = scale * (q - zero_point)` with
//! * asymmetric per-tensor activations (`zero_point` free),
//! * symmetric per-channel weights (`zero_point = 0`),
//! * int32 biases at scale `s_input * s_weight`,
//! * requantization by a fixed-point multiplier, since embedded targets
//!   must not depend on floating point in the inner loop.

/// Per-tensor affine quantization: `real = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Step size between adjacent quantized values.
    pub scale: f32,
    /// The int8 value representing real 0.0.
    pub zero_point: i32,
}

impl QuantParams {
    /// Derives parameters covering `[min, max]` over the int8 range.
    ///
    /// The range is widened to always include 0.0 (required so zero padding
    /// is exactly representable) and degenerate ranges get a unit scale.
    pub fn from_range(min: f32, max: f32) -> QuantParams {
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min).max(1e-6);
        let scale = span / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        QuantParams { scale, zero_point }
    }

    /// Symmetric parameters for `[-a, a]` with `zero_point == 0`.
    pub fn symmetric(abs_max: f32) -> QuantParams {
        QuantParams { scale: abs_max.max(1e-6) / 127.0, zero_point: 0 }
    }

    /// Quantizes one real value to int8 with round-to-nearest.
    pub fn quantize(&self, real: f32) -> i8 {
        let q = (real / self.scale).round() as i32 + self.zero_point;
        q.clamp(-128, 127) as i8
    }

    /// Recovers the real value of one int8 code.
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }

    /// Quantizes a slice.
    pub fn quantize_slice(&self, reals: &[f32]) -> Vec<i8> {
        reals.iter().map(|&r| self.quantize(r)).collect()
    }

    /// Dequantizes a slice.
    pub fn dequantize_slice(&self, qs: &[i8]) -> Vec<f32> {
        qs.iter().map(|&q| self.dequantize(q)).collect()
    }
}

impl Default for QuantParams {
    /// Covers `[-1, 1]`.
    fn default() -> Self {
        QuantParams::from_range(-1.0, 1.0)
    }
}

/// Per-channel symmetric weight quantization: one scale per output channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQuant {
    /// Scale per output channel (`zero_point` is 0 for all).
    pub scales: Vec<f32>,
}

impl ChannelQuant {
    /// Derives per-channel scales from weight data laid out with the output
    /// channel as the *fastest* axis (the layout `ei-nn` uses: `[..., out_c]`).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `weights.len()` is a multiple of `out_channels`.
    pub fn from_weights(weights: &[f32], out_channels: usize) -> ChannelQuant {
        debug_assert_eq!(weights.len() % out_channels.max(1), 0);
        let mut abs_max = vec![0.0f32; out_channels];
        for chunk in weights.chunks(out_channels) {
            for (m, &w) in abs_max.iter_mut().zip(chunk) {
                *m = m.max(w.abs());
            }
        }
        ChannelQuant { scales: abs_max.iter().map(|&m| m.max(1e-6) / 127.0).collect() }
    }

    /// Quantizes weights (output-channel-fastest layout) to int8.
    pub fn quantize(&self, weights: &[f32]) -> Vec<i8> {
        let n = self.scales.len();
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| ((w / self.scales[i % n]).round()).clamp(-127.0, 127.0) as i8)
            .collect()
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// `true` when no channels are present.
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }
}

/// A fixed-point multiplier `m * 2^-31 * 2^shift` approximating a positive
/// real multiplier, as used for on-device requantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedMultiplier {
    /// Mantissa in `[2^30, 2^31)` (or 0 for a zero multiplier).
    pub mantissa: i32,
    /// Left shift (negative = right shift) applied after the mantissa.
    pub shift: i32,
}

impl FixedMultiplier {
    /// Encodes a real multiplier (must be finite and non-negative). One
    /// below `2^-32` is the zero multiplier, exactly: every `i32`
    /// accumulator's product is then below `2^31 · 2^-32 = 0.5` in
    /// magnitude and rounds to 0 (and its shift would pass 63 bits).
    pub fn from_real(real: f32) -> FixedMultiplier {
        if !real.is_finite() || real < 2f32.powi(-32) {
            return FixedMultiplier { mantissa: 0, shift: 0 };
        }
        let mut shift = 0i32;
        let mut m = real as f64;
        while m < 0.5 {
            m *= 2.0;
            shift -= 1;
        }
        while m >= 1.0 {
            m /= 2.0;
            shift += 1;
        }
        let mut mantissa = (m * (1i64 << 31) as f64).round() as i64;
        if mantissa == (1i64 << 31) {
            mantissa /= 2;
            shift += 1;
        }
        FixedMultiplier { mantissa: mantissa as i32, shift }
    }

    /// Applies the multiplier to an int32 accumulator with round-to-nearest,
    /// reproducing `(acc as f64 * real).round()` in pure integer math.
    pub fn apply(&self, acc: i32) -> i32 {
        if self.mantissa == 0 {
            return 0;
        }
        // acc * mantissa as i64, rounding doubling-high-mul then shift
        let prod = acc as i64 * self.mantissa as i64;
        let total_shift = 31 - self.shift;
        if total_shift <= 0 {
            return (prod << (-total_shift)).clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        }
        let round = 1i64 << (total_shift - 1);
        let adjusted = if prod >= 0 { prod + round } else { prod + round - 1 };
        (adjusted >> total_shift).clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn range_includes_zero() {
        let q = QuantParams::from_range(2.0, 6.0);
        // min widened to 0, so 0 must map exactly
        assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let q = QuantParams::from_range(-3.0, 5.0);
        for i in 0..100 {
            let v = -3.0 + 8.0 * i as f32 / 99.0;
            let err = (q.dequantize(q.quantize(v)) - v).abs();
            assert!(err <= q.scale / 2.0 + 1e-6, "err {err} at {v}");
        }
    }

    #[test]
    fn saturation_at_extremes() {
        let q = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(q.quantize(100.0), 127);
        assert_eq!(q.quantize(-100.0), -128);
    }

    #[test]
    fn symmetric_zero_point_is_zero() {
        let q = QuantParams::symmetric(2.54);
        assert_eq!(q.zero_point, 0);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(2.54), 127);
    }

    #[test]
    fn degenerate_range_still_works() {
        let q = QuantParams::from_range(0.0, 0.0);
        assert!(q.scale > 0.0);
        let _ = q.quantize(0.0);
    }

    #[test]
    fn channel_quant_separates_channels() {
        // 2 output channels: channel 0 weights tiny, channel 1 large
        let weights = [0.01f32, 10.0, -0.02, 5.0, 0.015, -10.0];
        let cq = ChannelQuant::from_weights(&weights, 2);
        assert!(cq.scales[0] < cq.scales[1] / 100.0);
        let q = cq.quantize(&weights);
        // tiny channel still gets full resolution
        assert!(q[0].abs() > 50, "channel 0 uses the int8 range: {}", q[0]);
        assert_eq!(q[5], -127);
    }

    #[test]
    fn fixed_multiplier_matches_float() {
        for real in [0.0003f32, 0.02, 0.37, 0.99, 1.7] {
            let fm = FixedMultiplier::from_real(real);
            for acc in [-100_000i32, -123, 0, 777, 250_000] {
                let want = (acc as f64 * real as f64).round() as i64;
                let got = fm.apply(acc) as i64;
                assert!((want - got).abs() <= 1, "real {real} acc {acc}: want {want} got {got}");
            }
        }
    }

    #[test]
    fn fixed_multiplier_zero_and_negative() {
        assert_eq!(FixedMultiplier::from_real(0.0).apply(1000), 0);
        assert_eq!(FixedMultiplier::from_real(-1.0).apply(1000), 0);
    }

    #[test]
    fn fixed_multiplier_below_two_to_the_minus_32_is_zero() {
        // a pruned channel's multiplier: the smallest one kept still rounds
        // half away from zero at the i32 edges, anything smaller is zero
        let zero = FixedMultiplier { mantissa: 0, shift: 0 };
        for real in [7.7e-15f32, 1.0e-10, 2f32.powi(-33), 2f32.powi(-32) * 0.999] {
            assert_eq!(FixedMultiplier::from_real(real), zero, "{real:e}");
        }
        let smallest = FixedMultiplier::from_real(2f32.powi(-32));
        assert_eq!(smallest, FixedMultiplier { mantissa: 1 << 30, shift: -31 });
        assert_eq!(smallest.apply(i32::MIN), -1);
        assert_eq!(smallest.apply(i32::MAX), 0);
    }

    proptest! {
        #[test]
        fn prop_quantize_dequantize_error(min in -10.0f32..0.0, span in 0.1f32..20.0, v in 0.0f32..1.0) {
            let max = min + span;
            let q = QuantParams::from_range(min, max);
            let value = min + span * v;
            let err = (q.dequantize(q.quantize(value)) - value).abs();
            prop_assert!(err <= q.scale * 0.5 + 1e-6);
        }

        #[test]
        fn prop_fixed_multiplier_close(real in 1e-4f32..4.0, acc in -1_000_000i32..1_000_000) {
            let fm = FixedMultiplier::from_real(real);
            let want = (acc as f64 * real as f64).round();
            let got = fm.apply(acc) as f64;
            // within 1 LSB plus tiny relative error
            prop_assert!((want - got).abs() <= 1.0 + want.abs() * 1e-6);
        }
    }
}
