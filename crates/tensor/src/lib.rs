#![warn(missing_docs)]

//! Tensor substrate for the `edgelab` TinyML stack.
//!
//! TinyML targets have kilobytes of SRAM and flat memory hierarchies
//! (paper §2.1). This crate holds:
//!
//! * [`Tensor`] — a dense, row-major (channels-last) `f32` tensor: a float
//!   model's weights and biases, in training and in a saved model. Models
//!   train in `f32` and are quantized once, at deployment (paper §4.5); the
//!   int8 weights and i32 biases that produces are `ei-quant`'s own layers.
//! * [`gemm`] and [`simd`] — the f32 and int8 kernels the float and
//!   quantized models run on.
//! * [`init`] — the seeded weight initializers, and [`ops`] — the argmax,
//!   softmax and distance helpers the layers above share.
//!
//! The tensor arena a deployed model runs in is laid out by `ei-runtime`'s
//! memory planner, not here.
//!
//! # Example
//!
//! ```
//! use ei_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), ei_tensor::TensorError> {
//! let t = Tensor::zeros_f32(Shape::new(&[2, 3])?);
//! assert_eq!(t.len(), 6);
//! assert_eq!(t.shape().dims(), &[2, 3]);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod gemm;
pub mod init;
pub mod ops;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
