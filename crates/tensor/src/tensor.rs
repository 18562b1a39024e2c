//! Dense `f32` tensors: what models train and save. Int8 parameters live
//! in `ei-quant`'s quantized layers, built once at deployment.

use crate::{Result, Shape, TensorError};
use serde::{Deserialize, Serialize};

/// Backing storage for a [`Tensor`]: one variant, so a saved tensor
/// keeps its `"storage":{"F32":[…]}` layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Storage {
    F32(Vec<f32>),
}

/// A dense, row-major tensor.
///
/// # Example
///
/// ```
/// use ei_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), ei_tensor::TensorError> {
/// let t = Tensor::from_f32(Shape::new(&[2, 2])?, vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.as_f32()[2], 3.0); // row 1, column 0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    storage: Storage,
}

impl Tensor {
    /// Creates an all-zero tensor.
    pub fn zeros_f32(shape: Shape) -> Tensor {
        let n = shape.len();
        Tensor { shape, storage: Storage::F32(vec![0.0; n]) }
    }

    /// Wraps an `f32` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != shape.len()`.
    pub fn from_f32(shape: Shape, data: Vec<f32>) -> Result<Tensor> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, storage: Storage::F32(data) })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.as_f32().len()
    }

    /// `true` if the tensor has no elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the tensor's payload in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }

    /// Borrows the payload.
    pub fn as_f32(&self) -> &[f32] {
        let Storage::F32(v) = &self.storage;
        v
    }

    /// Mutably borrows the payload.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        let Storage::F32(v) = &mut self.storage;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_length() {
        assert!(Tensor::from_f32(Shape::new(&[2, 2]).unwrap(), vec![0.0; 3]).is_err());
    }

    #[test]
    fn size_bytes_accounts_for_dtype() {
        assert_eq!(Tensor::zeros_f32(Shape::d1(10)).size_bytes(), 40);
    }
}
