//! Small dense-math helpers shared across the workspace.
//!
//! [`matmul`] executes through the cache-blocked kernel in [`crate::gemm`]
//! (bitwise-identical to the naive oracle in `gemm::reference`); the
//! quantized integer kernels live in `ei-quant`, and the cost of running
//! either on a device is modeled in `ei-device`.

use crate::{Result, Shape, Tensor, TensorError};

/// `c = a @ b` for 2-D `f32` tensors (`a: MxK`, `b: KxN`).
///
/// # Errors
///
/// Fails when either input is not 2-D or the inner dimensions differ.
///
/// # Example
///
/// ```
/// use ei_tensor::{Shape, Tensor, ops::matmul};
///
/// # fn main() -> Result<(), ei_tensor::TensorError> {
/// let a = Tensor::from_f32(Shape::d2(1, 2), vec![1.0, 2.0])?;
/// let b = Tensor::from_f32(Shape::d2(2, 1), vec![3.0, 4.0])?;
/// assert_eq!(matmul(&a, &b)?.as_f32(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::InvalidShape("matmul requires rank-2 inputs".into()));
    }
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch { expected: vec![m, k], actual: vec![k2, n] });
    }
    let mut out = vec![0.0f32; m * n];
    crate::gemm::gemm_f32(m, k, n, a.as_f32(), b.as_f32(), None, &mut out);
    Tensor::from_f32(Shape::d2(m, n), out)
}

/// Element-wise `a + b` for equally-shaped tensors.
///
/// # Errors
///
/// Fails on shape mismatch.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            expected: a.shape().dims().to_vec(),
            actual: b.shape().dims().to_vec(),
        });
    }
    let out: Vec<f32> = a.as_f32().iter().zip(b.as_f32()).map(|(x, y)| x + y).collect();
    Tensor::from_f32(a.shape().clone(), out)
}

/// Element-wise `a * s` for a tensor and a scalar.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    let mut out = a.clone();
    out.as_f32_mut().iter_mut().for_each(|x| *x *= s);
    out
}

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

/// Mean of a slice (0 for an empty slice).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// Population standard deviation of a slice (0 for slices shorter than 2).
pub fn std_dev(values: &[f32]) -> f32 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|&x| (x - m).powi(2)).sum::<f32>() / values.len() as f32).sqrt()
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

/// Dot product of equally-long slices.
///
/// # Panics
///
/// Panics (debug assertion) if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_f32(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Tensor::from_f32(Shape::d2(2, 2), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(matmul(&a, &i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_f32(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_f32(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_f32(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros_f32(Shape::d2(2, 3));
        let b = Tensor::zeros_f32(Shape::d2(2, 3));
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros_f32(Shape::d1(3));
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor::vector_f32(vec![1.0, 2.0]);
        let b = Tensor::vector_f32(vec![3.0, 5.0]);
        assert_eq!(add(&a, &b).unwrap().as_f32(), &[4.0, 7.0]);
        assert_eq!(scale(&a, 2.0).as_f32(), &[2.0, 4.0]);
        let c = Tensor::zeros_f32(Shape::d1(3));
        assert!(add(&a, &c).is_err());
    }

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
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-6);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
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

        #[test]
        fn prop_matmul_distributes_over_scale(
            m in 1usize..4, k in 1usize..4, n in 1usize..4, s in -3.0f32..3.0
        ) {
            let a = Tensor::from_f32(
                Shape::d2(m, k),
                (0..m * k).map(|i| (i as f32) * 0.25 - 1.0).collect(),
            ).unwrap();
            let b = Tensor::from_f32(
                Shape::d2(k, n),
                (0..k * n).map(|i| 1.0 - (i as f32) * 0.5).collect(),
            ).unwrap();
            let lhs = matmul(&scale(&a, s), &b).unwrap();
            let rhs = scale(&matmul(&a, &b).unwrap(), s);
            for (x, y) in lhs.as_f32().iter().zip(rhs.as_f32()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
