//! Error type for quantization and fusion passes.

use std::fmt;

/// Errors produced while quantizing, fusing, or running quantized models.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// Calibration data was missing or inconsistent.
    InvalidCalibration(String),
    /// A layer type cannot be quantized (or must be fused away first).
    UnsupportedLayer(String),
    /// The input to a quantized forward pass had the wrong length.
    InputLengthMismatch {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        actual: usize,
    },
    /// An upstream model error.
    Model(String),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidCalibration(msg) => write!(f, "invalid calibration: {msg}"),
            QuantError::UnsupportedLayer(msg) => write!(f, "unsupported layer: {msg}"),
            QuantError::InputLengthMismatch { expected, actual } => {
                write!(f, "input length mismatch: expected {expected}, got {actual}")
            }
            QuantError::Model(msg) => write!(f, "model error: {msg}"),
        }
    }
}

impl std::error::Error for QuantError {}

impl From<ei_nn::NnError> for QuantError {
    fn from(e: ei_nn::NnError) -> Self {
        QuantError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: QuantError = ei_nn::NnError::InvalidTrainingData("x".into()).into();
        assert!(matches!(e, QuantError::Model(_)));
        assert!(!e.to_string().is_empty());
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<QuantError>();
    }
}
