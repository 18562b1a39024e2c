#![warn(missing_docs)]

//! Neural-network definition, training and inference for `edgelab`.
//!
//! Edge Impulse's learn blocks let users assemble models from building
//! blocks, train them with stability helpers (learning-rate finding,
//! classifier bias initialization, best-checkpoint restoration — paper
//! §4.3), and deploy them through the runtime in `ei-runtime`. This crate
//! is that training stack, built from scratch:
//!
//! * [`spec::ModelSpec`] — a serializable sequential architecture
//!   description (the thing the EON Tuner mutates);
//! * [`resolve`] — each layer's output shape, parameter shapes and kernel
//!   geometry, worked out once from its spec and input and read by every
//!   backend;
//! * [`model::Sequential`] — the compiled model: forward pass, backprop,
//!   parameter access, and per-layer MAC/parameter accounting that the
//!   device cost model consumes;
//! * [`train::Trainer`] — minibatch SGD/Adam training with validation
//!   split, early best-checkpoint restore, layer freezing (transfer
//!   learning) and a learning-rate finder;
//! * [`presets`] — the architectures used in the paper's evaluation
//!   (DS-CNN for keyword spotting, MobileNet-style image models, conv1d
//!   stacks explored by the tuner).
//!
//! # Example
//!
//! ```
//! use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
//! use ei_nn::model::Sequential;
//!
//! # fn main() -> Result<(), ei_nn::NnError> {
//! let spec = ModelSpec::new(Dims::new(1, 4, 1))
//!     .layer(LayerSpec::Flatten)
//!     .layer(LayerSpec::Dense { units: 3, activation: Activation::None });
//! let mut model = Sequential::build(&spec, 42)?;
//! let out = model.forward(&[0.1, 0.2, 0.3, 0.4])?;
//! assert_eq!(out.len(), 3);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optimizer;
pub mod par;
pub mod presets;
pub mod resolve;
pub mod spec;
pub mod train;

pub use error::NnError;
pub use model::Sequential;
pub use resolve::{Kernel, Resolved};
pub use spec::{Activation, Dims, LayerSpec, ModelSpec};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
