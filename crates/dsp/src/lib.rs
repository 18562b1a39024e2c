#![warn(missing_docs)]

//! Digital signal processing blocks for the `edgelab` TinyML pipeline.
//!
//! Preprocessing is a first-class pipeline stage in Edge Impulse (paper
//! §4.2): an FFT extracts frequency content in `O(n log n)` where a learned
//! 1-D convolution stack would spend `O(n^2)`, so a good DSP front-end
//! shrinks the downstream model. This crate implements the platform's
//! "processing blocks":
//!
//! * [`blocks::FramedBlock`] — the framed audio blocks: Mel-filterbank
//!   energies (MFE), Mel-frequency cepstral coefficients (MFCC) and the
//!   log-power spectrogram,
//! * [`blocks::SpectralBlock`] — spectral analysis (accelerometer/vibration),
//! * [`blocks::ImageBlock`] — image resize/normalize,
//! * [`blocks::RawBlock`] — pass-through with optional scaling,
//!
//! all behind the [`DspBlock`] trait, which also reports a deterministic
//! operation count and peak scratch RAM so `ei-device` can estimate on-target
//! latency and memory (paper §4.4, Tables 2–3).
//!
//! # Example
//!
//! ```
//! use ei_dsp::{blocks::FramedBlock, DspBlock, DspConfig, MfccConfig};
//!
//! # fn main() -> Result<(), ei_dsp::DspError> {
//! let block = FramedBlock::new(&DspConfig::Mfcc(MfccConfig::default()))?;
//! let audio = vec![0.0f32; 16_000]; // one second at 16 kHz
//! let features = block.process(&audio)?;
//! assert_eq!(features.len(), block.output_len(audio.len())?);
//! # Ok(())
//! # }
//! ```

pub mod autotune;
pub mod block;
pub mod blocks;
pub mod custom;
pub mod error;
pub mod fft;
pub mod mel;
pub mod parallel;
pub mod streaming;
pub mod window;

pub use autotune::{autotune_audio, AutotuneGoal};
pub use block::{DspBlock, DspConfig, DspCost};
pub use blocks::{
    ImageConfig, MfccConfig, MfeConfig, RawConfig, SpectralConfig, SpectrogramConfig,
};
pub use custom::{register_custom_block, BlockFactory, CustomParams};
pub use error::DspError;
pub use streaming::StreamingExtractor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DspError>;
