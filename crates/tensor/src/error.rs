//! Error type shared by all tensor operations.

use std::fmt;

/// Errors produced by tensor construction and manipulation.
///
/// Every public fallible function in this crate returns
/// [`TensorError`] so callers can uniformly propagate
/// failures with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        /// Shape the operation expected.
        expected: Vec<usize>,
        /// Shape the operation received.
        actual: Vec<usize>,
    },
    /// The element count implied by a shape does not match the data length.
    LengthMismatch {
        /// Element count implied by the shape.
        expected: usize,
        /// Length of the provided buffer.
        actual: usize,
    },
    /// An index was outside the bounds of the tensor.
    IndexOutOfBounds {
        /// Offending flat or per-axis index.
        index: usize,
        /// Length of the axis (or of the whole tensor for flat access).
        len: usize,
    },
    /// An arena allocation did not fit in the remaining pool.
    ArenaExhausted {
        /// Bytes requested (after alignment).
        requested: usize,
        /// Bytes remaining in the pool.
        remaining: usize,
    },
    /// A shape with zero dimensions or a zero-sized axis was rejected.
    InvalidShape(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected:?}, got {actual:?}")
            }
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: shape implies {expected}, buffer has {actual}")
            }
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            TensorError::ArenaExhausted { requested, remaining } => {
                write!(f, "arena exhausted: requested {requested} bytes, {remaining} remaining")
            }
            TensorError::InvalidShape(msg) => write!(f, "invalid shape: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = TensorError::ShapeMismatch { expected: vec![2, 3], actual: vec![3, 2] };
        let s = e.to_string();
        assert!(s.starts_with("shape mismatch"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn all_variants_display_nonempty() {
        let variants = vec![
            TensorError::ShapeMismatch { expected: vec![1], actual: vec![2] },
            TensorError::LengthMismatch { expected: 4, actual: 5 },
            TensorError::IndexOutOfBounds { index: 9, len: 3 },
            TensorError::ArenaExhausted { requested: 128, remaining: 64 },
            TensorError::InvalidShape("empty".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
