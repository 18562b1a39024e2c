//! Error type shared by all tensor operations.

use std::fmt;

/// Errors produced by tensor construction and manipulation.
///
/// Every public fallible function in this crate returns
/// [`TensorError`] so callers can uniformly propagate
/// failures with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The element count implied by a shape does not match the data length.
    LengthMismatch {
        /// Element count implied by the shape.
        expected: usize,
        /// Length of the provided buffer.
        actual: usize,
    },
    /// A shape with no axes, more than four, or a zero-sized axis was rejected.
    InvalidShape(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: shape implies {expected}, buffer has {actual}")
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
        let e = TensorError::LengthMismatch { expected: 6, actual: 5 };
        let s = e.to_string();
        assert!(s.starts_with("length mismatch"));
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
            TensorError::LengthMismatch { expected: 4, actual: 5 },
            TensorError::InvalidShape("empty".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
