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
/// let t = Tensor::from_f32(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get_f32(&[1, 0])?, 3.0);
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

    /// Convenience constructor for a 1-D tensor.
    pub fn vector_f32(data: Vec<f32>) -> Tensor {
        let shape = Shape::d1(data.len().max(1));
        if data.is_empty() {
            return Tensor::zeros_f32(shape);
        }
        Tensor { shape, storage: Storage::F32(data) }
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

    /// Reads one element by multi-axis index.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-bounds index.
    pub fn get_f32(&self, index: &[usize]) -> Result<f32> {
        let off = self.shape.offset(index)?;
        Ok(self.as_f32()[off])
    }

    /// Writes one element by multi-axis index.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-bounds index.
    pub fn set_f32(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.as_f32_mut()[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshaped(&self, shape: Shape) -> Result<Tensor> {
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: self.len() });
        }
        Ok(Tensor { shape, storage: self.storage.clone() })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros_f32(Shape::d1(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_length() {
        assert!(Tensor::from_f32(Shape::d2(2, 2), vec![0.0; 3]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros_f32(Shape::d3(2, 3, 4));
        t.set_f32(&[1, 2, 3], 42.0).unwrap();
        assert_eq!(t.get_f32(&[1, 2, 3]).unwrap(), 42.0);
        assert_eq!(t.get_f32(&[0, 0, 0]).unwrap(), 0.0);
        assert!(t.get_f32(&[2, 0, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_f32(Shape::d2(2, 3), (0..6).map(|x| x as f32).collect()).unwrap();
        let r = t.reshaped(Shape::d3(3, 2, 1)).unwrap();
        assert_eq!(r.as_f32(), t.as_f32());
        assert!(t.reshaped(Shape::d1(5)).is_err());
    }

    #[test]
    fn size_bytes_accounts_for_dtype() {
        assert_eq!(Tensor::zeros_f32(Shape::d1(10)).size_bytes(), 40);
    }

    #[test]
    fn vector_constructor() {
        let t = Tensor::vector_f32(vec![1.0, 2.0]);
        assert_eq!(t.shape().dims(), &[2]);
        let empty = Tensor::vector_f32(vec![]);
        assert_eq!(empty.len(), 1, "empty input falls back to a 1-element zero tensor");
    }
}
