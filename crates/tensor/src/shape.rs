//! Dense tensor shapes with row-major (channels-last) layout.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A dense tensor shape of rank 1–4.
///
/// Layout is always row-major with the last axis contiguous, matching the
/// NHWC / channels-last convention used by embedded inference engines.
///
/// # Example
///
/// ```
/// use ei_tensor::Shape;
///
/// # fn main() -> Result<(), ei_tensor::TensorError> {
/// let s = Shape::new(&[49, 40, 1])?; // 49 MFCC frames x 40 coefficients x 1 channel
/// assert_eq!(s.len(), 49 * 40);
/// assert_eq!(s.dims().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from arbitrary dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `dims` is empty, has more
    /// than four axes, or contains a zero-sized axis.
    pub fn new(dims: &[usize]) -> Result<Self> {
        if dims.is_empty() {
            return Err(TensorError::InvalidShape("shape must have at least one axis".into()));
        }
        if dims.len() > 4 {
            return Err(TensorError::InvalidShape(format!(
                "rank {} exceeds the supported maximum of 4",
                dims.len()
            )));
        }
        if dims.contains(&0) {
            return Err(TensorError::InvalidShape("zero-sized axis".into()));
        }
        Ok(Shape { dims: dims.to_vec() })
    }

    /// 1-D shape of `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn d1(n: usize) -> Self {
        Shape::new(&[n]).expect("d1 dimensions must be non-zero")
    }

    /// The dimensions of this shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total element count (product of all axes).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_zero() {
        assert!(Shape::new(&[]).is_err());
        assert!(Shape::new(&[2, 0]).is_err());
        assert!(Shape::new(&[1, 2, 3, 4, 5]).is_err());
    }

    #[test]
    fn len_and_rank() {
        let s = Shape::new(&[2, 3, 4, 5]).unwrap();
        assert_eq!(s.len(), 120);
        assert_eq!(s.dims(), &[2, 3, 4, 5]);
        assert_eq!(Shape::d1(7).dims(), &[7]);
    }
}
