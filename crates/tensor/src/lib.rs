#![warn(missing_docs)]

//! Tensor substrate for the `edgelab` TinyML stack.
//!
//! TinyML targets have kilobytes of SRAM and flat memory hierarchies
//! (paper §2.1), so this crate is built around two ideas:
//!
//! * [`Tensor`] — a dense, row-major (channels-last) tensor with a small,
//!   fixed set of element types ([`DType`]) that mirror what embedded
//!   inference engines actually ship: `f32` for reference/float models,
//!   `i8` for quantized weights/activations, and `i32` for accumulators
//!   and biases.
//! * [`Arena`] — a bump allocator over one contiguous byte pool, the same
//!   discipline TFLite-Micro uses for its "tensor arena". The memory
//!   planner in `ei-runtime` assigns offsets into an arena; this crate
//!   provides the pool itself plus high-water-mark accounting so RAM
//!   estimates (paper §4.4) are byte-accurate.
//!
//! # Example
//!
//! ```
//! use ei_tensor::{Shape, Tensor};
//!
//! let t = Tensor::zeros_f32(Shape::d2(2, 3));
//! assert_eq!(t.len(), 6);
//! assert_eq!(t.shape().dims(), &[2, 3]);
//! ```

pub mod arena;
pub mod error;
pub mod gemm;
pub mod init;
pub mod ops;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use arena::{Arena, ArenaHandle};
pub use error::TensorError;
pub use shape::Shape;
pub use tensor::{DType, Tensor};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
