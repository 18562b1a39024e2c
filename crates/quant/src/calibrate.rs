//! Activation-range calibration over representative data.
//!
//! [`calibrate`] runs each sample through [`Sequential::forward_observed`]
//! and folds every boundary's `(min, max)` while that activation is still
//! the live one, so no activation outlives the next layer and no cache of
//! a whole pass is built. `fold_range` folds a slice in independent
//! lanes of compare-selects, which ignore NaN exactly as `f32::min` /
//! `f32::max` do; only the sign of a zero bound can differ from a serial
//! `min`/`max` chain, and [`QuantParams::from_range`] maps `-0.0` and
//! `+0.0` to the same parameters (it widens with `min.min(0.0)` and
//! `max.max(0.0)`, and a zero `min` leaves `max - min` and `-128 - min /
//! scale` unchanged).

use crate::qparams::QuantParams;
use crate::{QuantError, Result};
use ei_nn::Sequential;
use ei_tensor::simd::{f32_level, F32Kernel};

/// Observed activation ranges: index 0 is the model input, index `i + 1`
/// the output of layer `i`.
#[derive(Debug, Clone)]
pub struct ActivationRanges {
    ranges: Vec<(f32, f32)>,
}

impl ActivationRanges {
    /// Number of tracked activation boundaries (layers + 1).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when nothing was tracked.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// `(min, max)` observed at boundary `i`.
    pub fn range(&self, i: usize) -> (f32, f32) {
        self.ranges[i]
    }

    /// Quantization parameters for boundary `i`.
    pub fn qparams(&self, i: usize) -> QuantParams {
        let (min, max) = self.ranges[i];
        QuantParams::from_range(min, max)
    }
}

/// Runs `calibration` samples through the float model, recording min/max of
/// every activation boundary.
///
/// # Errors
///
/// Returns [`QuantError::InvalidCalibration`] for an empty calibration set
/// and propagates forward-pass failures (wrong input size).
pub fn calibrate(model: &Sequential, calibration: &[Vec<f32>]) -> Result<ActivationRanges> {
    if calibration.is_empty() {
        return Err(QuantError::InvalidCalibration("calibration set is empty".into()));
    }
    let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); model.layers().len() + 1];
    for sample in calibration {
        model.forward_observed(sample, |i, act| fold_range(&mut ranges[i], act))?;
    }
    Ok(guarded(ranges))
}

/// Independent accumulators per bound in [`fold_range`]: enough to keep
/// both bounds' compare-select chains from waiting on each other.
const LANES: usize = 16;

/// Widens `range` (`(min, max)`) to cover every non-NaN value of `values`,
/// at the host's [`f32_level`].
///
/// NaN values are skipped, as `f32::min` / `f32::max` skip them; the result
/// equals a serial `min`/`max` fold except possibly in the sign of a zero
/// bound.
fn fold_range(range: &mut (f32, f32), values: &[f32]) {
    f32_level().run(Fold { range, values });
}

/// [`fold_range`]'s body, compiled once per [`ei_tensor::simd::F32Level`].
struct Fold<'a> {
    range: &'a mut (f32, f32),
    values: &'a [f32],
}

impl F32Kernel for Fold<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Fold { range, values } = self;
        let mut lo = [range.0; LANES];
        let mut hi = [range.1; LANES];
        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
                widen(lo, hi, v);
            }
        }
        for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(chunks.remainder()) {
            widen(lo, hi, v);
        }
        for (lo, hi) in lo.into_iter().zip(hi) {
            range.0 = if lo < range.0 { lo } else { range.0 };
            range.1 = if hi > range.1 { hi } else { range.1 };
        }
    }
}

/// One compare-select step per bound; a NaN `v` compares false and leaves
/// both bounds as they are.
#[inline(always)]
fn widen(lo: &mut f32, hi: &mut f32, v: f32) {
    *lo = if v < *lo { v } else { *lo };
    *hi = if v > *hi { v } else { *hi };
}

/// Replaces a boundary that saw no finite range (all NaN, or an infinity)
/// with `(-1, 1)`.
fn guarded(mut ranges: Vec<(f32, f32)>) -> ActivationRanges {
    for r in &mut ranges {
        if !r.0.is_finite() || !r.1.is_finite() {
            *r = (-1.0, 1.0);
        }
    }
    ActivationRanges { ranges }
}

/// The reference calibration: every activation of a cached forward pass
/// through a serial `f32::min` / `f32::max` chain, the oracle of
/// [`calibrate`] and `fold_range`.
#[cfg(test)]
pub(crate) fn calibrate_reference(
    model: &Sequential,
    calibration: &[Vec<f32>],
) -> Result<ActivationRanges> {
    if calibration.is_empty() {
        return Err(QuantError::InvalidCalibration("calibration set is empty".into()));
    }
    let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); model.layers().len() + 1];
    for sample in calibration {
        let cache = model.forward_cached(sample, false, None)?;
        for (r, act) in ranges.iter_mut().zip(&cache.activations) {
            reference_fold(r, act);
        }
    }
    Ok(guarded(ranges))
}

#[cfg(test)]
fn reference_fold(r: &mut (f32, f32), values: &[f32]) {
    for &v in values {
        r.0 = r.0.min(v);
        r.1 = r.1.max(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
    use ei_tensor::simd::supported_f32_levels;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model() -> Sequential {
        let spec = ModelSpec::new(Dims::new(1, 3, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 4, activation: Activation::Relu })
            .layer(LayerSpec::Softmax);
        Sequential::build(&spec, 1).unwrap()
    }

    #[test]
    fn rejects_empty_calibration() {
        assert!(calibrate(&model(), &[]).is_err());
    }

    #[test]
    fn tracks_input_range() {
        let m = model();
        let ranges = calibrate(&m, &[vec![-2.0, 0.0, 3.0], vec![1.0, -5.0, 0.5]]).unwrap();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges.range(0), (-5.0, 3.0));
    }

    #[test]
    fn relu_output_nonnegative() {
        let m = model();
        let ranges = calibrate(&m, &[vec![1.0, -1.0, 2.0]]).unwrap();
        let (lo, _) = ranges.range(2);
        assert!(lo >= 0.0, "relu output min must be >= 0, got {lo}");
    }

    #[test]
    fn softmax_output_within_unit_interval() {
        let m = model();
        let ranges = calibrate(&m, &[vec![1.0, -1.0, 2.0]]).unwrap();
        let (lo, hi) = ranges.range(3);
        assert!(lo >= 0.0 && hi <= 1.0);
        let q = ranges.qparams(3);
        assert!(q.scale <= 1.0 / 255.0 + 1e-6);
    }

    #[test]
    fn wrong_input_size_propagates() {
        assert!(calibrate(&model(), &[vec![1.0]]).is_err());
    }

    /// Values that are mostly ordinary but often NaN, an infinity or a
    /// signed zero.
    fn hostile_values(rng: &mut StdRng, len: usize) -> Vec<f32> {
        const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        (0..len)
            .map(|_| match rng.gen_range(0..4) {
                0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                1 => -0.0,
                _ => rng.gen_range(-3.0f32..3.0),
            })
            .collect()
    }

    /// `==` on both bounds, and the same bits unless the bound is a zero.
    fn assert_same_range(got: (f32, f32), want: (f32, f32), what: &str) {
        assert!(got == want, "{what}: {got:?} != {want:?}");
        for (g, w) in [(got.0, want.0), (got.1, want.1)] {
            assert!(g.to_bits() == w.to_bits() || g == 0.0, "{what}: {g:?} vs {w:?}");
        }
    }

    #[test]
    fn lane_fold_matches_the_serial_fold_at_every_length() {
        let mut rng = StdRng::seed_from_u64(40);
        for len in 0..=3 * LANES + 7 {
            for round in 0..24 {
                let values = match round {
                    0 => vec![f32::NAN; len],
                    1 => vec![-0.0; len],
                    _ => hostile_values(&mut rng, len),
                };
                let start =
                    if round % 3 == 2 { (0.25, 0.5) } else { (f32::INFINITY, f32::NEG_INFINITY) };
                let mut want = start;
                reference_fold(&mut want, &values);
                for level in supported_f32_levels() {
                    let mut got = start;
                    level.run(Fold { range: &mut got, values: &values });
                    let what = format!("{level:?}, len {len}, round {round}: {values:?}");
                    assert_same_range(got, want, &what);
                }
            }
        }
    }

    #[test]
    fn streaming_calibration_matches_the_reference_and_guards_degenerate_boundaries() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(41);
        for n in 1..6 {
            let calib: Vec<Vec<f32>> = (0..n).map(|_| hostile_values(&mut rng, 3)).collect();
            let got = calibrate(&m, &calib).unwrap();
            let want = calibrate_reference(&m, &calib).unwrap();
            for i in 0..got.len() {
                assert_same_range(got.range(i), want.range(i), &format!("{calib:?} boundary {i}"));
                assert_eq!(got.qparams(i), want.qparams(i));
            }
        }
        // an all-NaN input makes every boundary NaN; an infinite one makes
        // the input range unbounded: both fall back to (-1, 1)
        for input in [vec![f32::NAN; 3], vec![f32::INFINITY, 0.0, 1.0]] {
            let got = calibrate(&m, std::slice::from_ref(&input)).unwrap();
            let want = calibrate_reference(&m, &[input]).unwrap();
            assert_eq!(got.range(0), (-1.0, 1.0));
            for i in 0..got.len() {
                assert_same_range(got.range(i), want.range(i), &format!("boundary {i}"));
            }
        }
    }

    #[test]
    fn a_zero_bound_of_either_sign_gives_the_same_qparams() {
        for other in [0.0f32, -0.0, 1e-7, 0.5, 3.0, -2.0] {
            let bits = |q: QuantParams| (q.scale.to_bits(), q.zero_point);
            assert_eq!(
                bits(QuantParams::from_range(0.0, other.max(0.0))),
                bits(QuantParams::from_range(-0.0, other.max(0.0)))
            );
            assert_eq!(
                bits(QuantParams::from_range(other.min(0.0), 0.0)),
                bits(QuantParams::from_range(other.min(0.0), -0.0))
            );
        }
    }
}
