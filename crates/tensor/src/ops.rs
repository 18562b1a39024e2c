//! Small slice helpers shared across the workspace: [`argmax`],
//! [`softmax`] and [`squared_distance`]. The matrix products run through
//! the kernels in [`crate::gemm`] and [`crate::simd`].

/// Index of the maximum element of a slice (first occurrence on ties).
///
/// Returns 0 for an empty slice.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Numerically-stable softmax of `logits` into `out`, which is as long.
pub fn softmax(logits: &[f32], out: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (o, &x) in out.iter_mut().zip(logits) {
        *o = (x - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Squared Euclidean distance between equally-long slices.
///
/// # Panics
///
/// Panics (debug assertion) if the slices have different lengths.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn argmax_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    fn softmax_of(logits: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; logits.len()];
        softmax(logits, &mut out);
        out
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax_of(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax_of(&[]).is_empty());
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let p = softmax_of(&[1000.0, 1001.0]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p[0] + p[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[], &[]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_softmax_is_distribution(logits in proptest::collection::vec(-20.0f32..20.0, 1..16)) {
            let p = softmax_of(&logits);
            let sum: f32 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
            // softmax preserves argmax
            prop_assert_eq!(argmax(&p), argmax(&logits));
        }
    }
}
