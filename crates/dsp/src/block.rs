//! The processing-block abstraction shared by all DSP front-ends.

use crate::blocks::{
    ImageBlock, ImageConfig, MfccBlock, MfccConfig, MfeBlock, MfeConfig, RawBlock, RawConfig,
    SpectralBlock, SpectralConfig, SpectrogramBlock, SpectrogramConfig,
};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Deterministic resource footprint of one invocation of a DSP block.
///
/// `ei-device` converts `flops` to on-target milliseconds using per-board
/// cycle models, and `scratch_bytes` feeds the RAM estimate (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DspCost {
    /// Floating-point (or equivalent fixed-point) operations per invocation.
    pub flops: u64,
    /// Peak scratch RAM in bytes, excluding input and output buffers.
    pub scratch_bytes: usize,
    /// Number of output features produced.
    pub output_features: usize,
}

/// A signal-preprocessing block: raw samples in, feature vector out.
///
/// Implementations must be deterministic — the same input always produces
/// the same features and the same [`DspCost`] — because the platform caches
/// extracted features across training runs.
pub trait DspBlock: Send + Sync {
    /// Short human-readable block name, e.g. `"MFCC"`.
    fn name(&self) -> &str;

    /// Number of features produced for an input of `input_len` samples.
    ///
    /// # Errors
    ///
    /// Fails when no complete frame fits in `input_len`.
    fn output_len(&self, input_len: usize) -> Result<usize>;

    /// Output layout as `(height, width, channels)` for the learn block.
    ///
    /// Audio blocks return `(frames, coefficients, 1)`; image blocks return
    /// the resized image dimensions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DspBlock::output_len`].
    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)>;

    /// Extracts features from `input`.
    ///
    /// # Errors
    ///
    /// Fails when the input is too short or has the wrong length for the
    /// block's configuration.
    fn process(&self, input: &[f32]) -> Result<Vec<f32>>;

    /// Resource footprint for an input of `input_len` samples.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DspBlock::output_len`].
    fn cost(&self, input_len: usize) -> Result<DspCost>;

    /// The serializable configuration that rebuilds this block.
    fn config(&self) -> DspConfig;
}

/// Serializable configuration covering every built-in processing block.
///
/// This is what projects persist and what the EON Tuner mutates when it
/// searches the DSP side of the design space (paper §4.7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DspConfig {
    /// Mel-filterbank energy block.
    Mfe(MfeConfig),
    /// Mel-frequency cepstral coefficient block.
    Mfcc(MfccConfig),
    /// Linear-frequency log-power spectrogram block.
    Spectrogram(SpectrogramConfig),
    /// Spectral-analysis block for inertial data.
    Spectral(SpectralConfig),
    /// Image resize/normalize block.
    Image(ImageConfig),
    /// Raw pass-through block.
    Raw(RawConfig),
    /// A user-registered block (paper §4.9 extensibility); built through
    /// the [`crate::custom`] registry.
    Custom {
        /// Registered factory name.
        name: String,
        /// Named numeric parameters passed to the factory.
        params: Vec<(String, f32)>,
    },
}

impl DspConfig {
    /// Instantiates the block this configuration describes.
    ///
    /// # Errors
    ///
    /// Fails when any parameter is out of range.
    pub fn build(&self) -> Result<Box<dyn DspBlock>> {
        Ok(match self {
            DspConfig::Mfe(c) => Box::new(MfeBlock::new(c.clone())?),
            DspConfig::Mfcc(c) => Box::new(MfccBlock::new(c.clone())?),
            DspConfig::Spectrogram(c) => Box::new(SpectrogramBlock::new(c.clone())?),
            DspConfig::Spectral(c) => Box::new(SpectralBlock::new(c.clone())?),
            DspConfig::Image(c) => Box::new(ImageBlock::new(c.clone())?),
            DspConfig::Raw(c) => Box::new(RawBlock::new(c.clone())),
            DspConfig::Custom { name, params } => crate::custom::build_custom_block(name, params)?,
        })
    }

    /// Short name matching [`DspBlock::name`].
    pub fn name(&self) -> &'static str {
        match self {
            DspConfig::Mfe(_) => "MFE",
            DspConfig::Mfcc(_) => "MFCC",
            DspConfig::Spectrogram(_) => "Spectrogram",
            DspConfig::Spectral(_) => "Spectral",
            DspConfig::Image(_) => "Image",
            DspConfig::Raw(_) => "Raw",
            DspConfig::Custom { .. } => "Custom",
        }
    }

    /// Compact parameter summary in the paper's Table 3 notation, e.g.
    /// `"MFCC (0.02, 0.01, 40)"`.
    pub fn summary(&self) -> String {
        match self {
            DspConfig::Mfe(c) => {
                format!("MFE ({}, {}, {})", c.frame_s, c.stride_s, c.n_filters)
            }
            DspConfig::Mfcc(c) => {
                format!("MFCC ({}, {}, {})", c.frame_s, c.stride_s, c.n_coefficients)
            }
            DspConfig::Spectrogram(c) => {
                format!("Spectrogram ({}, {}, {})", c.frame_s, c.stride_s, c.fft_len)
            }
            DspConfig::Spectral(c) => format!("Spectral ({} axes)", c.axes),
            DspConfig::Image(c) => {
                format!("Image ({}x{}x{})", c.out_width, c.out_height, c.out_channels)
            }
            DspConfig::Raw(_) => "Raw".to_string(),
            DspConfig::Custom { name, params } => {
                format!("Custom ({name}, {} params)", params.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_every_variant() {
        let configs = vec![
            DspConfig::Mfe(MfeConfig::default()),
            DspConfig::Mfcc(MfccConfig::default()),
            DspConfig::Spectrogram(SpectrogramConfig::default()),
            DspConfig::Spectral(SpectralConfig::default()),
            DspConfig::Image(ImageConfig::default()),
            DspConfig::Raw(RawConfig::default()),
        ];
        for cfg in configs {
            let block = cfg.build().unwrap();
            assert_eq!(block.config().name(), cfg.name());
        }
    }

    #[test]
    fn oversized_frames_and_ffts_are_errors_not_allocations() {
        let hostile = [
            // 1.6e10-sample frames: a 2^34-point FFT and 2^33 bins per filter
            DspConfig::Mfcc(MfccConfig { frame_s: 1e6, ..MfccConfig::default() }),
            DspConfig::Mfe(MfeConfig { frame_s: 1e6, ..MfeConfig::default() }),
            // the frame length saturates usize
            DspConfig::Mfe(MfeConfig { frame_s: 1e30, ..MfeConfig::default() }),
            DspConfig::Spectrogram(SpectrogramConfig {
                fft_len: 1 << 40,
                ..SpectrogramConfig::default()
            }),
            DspConfig::Spectrogram(SpectrogramConfig {
                frame_s: 1e6,
                ..SpectrogramConfig::default()
            }),
            DspConfig::Spectral(SpectralConfig { fft_len: 1 << 40, ..SpectralConfig::default() }),
        ];
        for cfg in hostile {
            assert!(cfg.build().is_err(), "{cfg:?} must be refused");
        }
    }

    #[test]
    fn summary_uses_table3_notation() {
        let cfg = DspConfig::Mfcc(MfccConfig { n_coefficients: 40, ..MfccConfig::default() });
        assert_eq!(cfg.summary(), "MFCC (0.02, 0.01, 40)");
    }
}
