//! Incremental feature extraction for streaming audio.
//!
//! Batch blocks ([`MfeBlock`], [`MfccBlock`], [`SpectrogramBlock`]) take a
//! whole window of samples and recompute every frame inside it. A live
//! stream classifies *overlapping* windows — a 1 s window every 250 ms
//! shares ~75% of its frames with the previous window — so recomputing
//! each window from scratch wastes most of the FFT work. The
//! [`StreamingExtractor`] instead consumes arbitrarily-chunked samples and
//! emits one feature **column** per complete frame, exactly once; a
//! windower (see `ei-stream`) then assembles overlapping windows by
//! concatenating the shared columns.
//!
//! # Bitwise equivalence to batch
//!
//! The per-frame column math is not reimplemented here: the extractor
//! multiplies each frame by the block's own Hann table through the same
//! `apply_window` loop batch `process` runs, then calls the block's
//! `frame_column` — which runs the very column routine batch `process`
//! loops over. Because every audio block's frames depend only on that
//! frame's samples, a column computed incrementally is bit-identical to
//! the one batch recomputation would produce, provided window starts land
//! on frame-stride boundaries. `ei-stream` asserts this with a
//! batch-recompute oracle on every emitted window.

use crate::block::DspConfig;
use crate::blocks::{MfccBlock, MfeBlock, SpectrogramBlock};
use crate::window::{apply_window, Framing};
use crate::{DspError, Result};

/// The audio blocks that support incremental column extraction.
#[derive(Debug, Clone)]
enum ColumnBlock {
    Mfe(MfeBlock),
    Mfcc(MfccBlock),
    Spectrogram(SpectrogramBlock),
}

impl ColumnBlock {
    fn column(&self, windowed: &[f32]) -> Result<Vec<f32>> {
        match self {
            ColumnBlock::Mfe(b) => b.frame_column(windowed),
            ColumnBlock::Mfcc(b) => b.frame_column(windowed),
            ColumnBlock::Spectrogram(b) => b.frame_column(windowed),
        }
    }

    fn window(&self) -> &[f32] {
        match self {
            ColumnBlock::Mfe(b) => b.window(),
            ColumnBlock::Mfcc(b) => b.window(),
            ColumnBlock::Spectrogram(b) => b.window(),
        }
    }
}

/// Incremental per-frame feature extraction over a sample stream.
///
/// Feed samples in any chunking via [`StreamingExtractor::push`]; each
/// call returns the feature columns of every frame completed by those
/// samples. Memory stays bounded: only the samples of the (at most one)
/// partial frame in progress are retained.
///
/// ```
/// use ei_dsp::streaming::StreamingExtractor;
/// use ei_dsp::{DspBlock, DspConfig, MfeConfig};
///
/// # fn main() -> Result<(), ei_dsp::DspError> {
/// let config = DspConfig::Mfe(MfeConfig { sample_rate_hz: 4_000, ..MfeConfig::default() });
/// let signal: Vec<f32> = (0..400).map(|i| (i as f32 * 0.05).sin()).collect();
///
/// let mut ex = StreamingExtractor::new(&config)?;
/// let mut incremental = Vec::new();
/// for chunk in signal.chunks(37) {
///     for col in ex.push(chunk)? {
///         incremental.extend(col);
///     }
/// }
/// assert_eq!(incremental, config.build()?.process(&signal)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingExtractor {
    block: ColumnBlock,
    framing: Framing,
    features_per_frame: usize,
    /// Samples at absolute positions `buf_base..buf_base + buffer.len()`.
    buffer: Vec<f32>,
    /// The frame being windowed, reused for every frame.
    windowed: Vec<f32>,
    /// Absolute sample index of `buffer[0]`.
    buf_base: u64,
    /// Absolute sample index where the next frame starts.
    next_frame_start: u64,
    samples_in: u64,
    frames_out: u64,
}

impl StreamingExtractor {
    /// Builds an extractor for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for blocks without a frame
    /// structure (spectral, image, raw, custom) — those have no
    /// overlapping-window state to share — and propagates the block's own
    /// construction errors.
    pub fn new(config: &DspConfig) -> Result<StreamingExtractor> {
        let (block, framing, features_per_frame) = match config {
            DspConfig::Mfe(c) => {
                let b = MfeBlock::new(c.clone())?;
                let (f, n) = (b.framing(), b.features_per_frame());
                (ColumnBlock::Mfe(b), f, n)
            }
            DspConfig::Mfcc(c) => {
                let b = MfccBlock::new(c.clone())?;
                let (f, n) = (b.framing(), b.features_per_frame());
                (ColumnBlock::Mfcc(b), f, n)
            }
            DspConfig::Spectrogram(c) => {
                let b = SpectrogramBlock::new(c.clone())?;
                let (f, n) = (b.framing(), b.bins());
                (ColumnBlock::Spectrogram(b), f, n)
            }
            other => {
                return Err(DspError::InvalidConfig(format!(
                    "streaming extraction requires a framed audio block, not {}",
                    other.name()
                )))
            }
        };
        Ok(StreamingExtractor {
            block,
            framing,
            features_per_frame,
            buffer: Vec::with_capacity(framing.frame_len),
            windowed: vec![0.0; framing.frame_len],
            buf_base: 0,
            next_frame_start: 0,
            samples_in: 0,
            frames_out: 0,
        })
    }

    /// The frame layout columns are cut on. Window starts must be multiples
    /// of `framing().stride` for incremental columns to line up with batch
    /// recomputation.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Features in each emitted column.
    pub fn features_per_frame(&self) -> usize {
        self.features_per_frame
    }

    /// Total samples consumed so far.
    pub fn samples_in(&self) -> u64 {
        self.samples_in
    }

    /// Total columns emitted so far (column `k` covers absolute samples
    /// `k * stride .. k * stride + frame_len`).
    pub fn frames_out(&self) -> u64 {
        self.frames_out
    }

    /// Consumes one chunk of samples and returns the feature columns of
    /// every frame those samples completed (possibly none, possibly many).
    ///
    /// # Errors
    ///
    /// Propagates block-level failures; the extractor's own bookkeeping
    /// never fails.
    pub fn push(&mut self, samples: &[f32]) -> Result<Vec<Vec<f32>>> {
        self.samples_in += samples.len() as u64;
        self.buffer.extend_from_slice(samples);
        let frame_len = self.framing.frame_len;
        let mut columns = Vec::new();
        // Frames are cut at offsets into the buffer (the next frame starts
        // at most one stride past `buf_base`); everything before the next
        // frame start, gap samples included, is drained once per push, not
        // once per frame.
        loop {
            let start = (self.next_frame_start - self.buf_base) as usize;
            let Some(frame) = self.buffer.get(start..).and_then(|rest| rest.get(..frame_len))
            else {
                break;
            };
            apply_window(frame, self.block.window(), &mut self.windowed);
            columns.push(self.block.column(&self.windowed)?);
            self.frames_out += 1;
            self.next_frame_start += self.framing.stride as u64;
        }
        let consumed = ((self.next_frame_start - self.buf_base) as usize).min(self.buffer.len());
        self.buffer.drain(..consumed);
        self.buf_base += consumed as u64;
        Ok(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{MfccConfig, MfeConfig, RawConfig, SpectrogramConfig};

    fn signal(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin() + 0.2 * (i as f32 * 0.11).cos()).collect()
    }

    fn audio_configs() -> Vec<DspConfig> {
        vec![
            DspConfig::Mfe(MfeConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_filters: 12,
                sample_rate_hz: 4_000,
                low_hz: 0.0,
                high_hz: 0.0,
            }),
            DspConfig::Mfcc(MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 8,
                n_filters: 16,
                sample_rate_hz: 4_000,
            }),
            DspConfig::Spectrogram(SpectrogramConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                fft_len: 128,
                sample_rate_hz: 4_000,
            }),
        ]
    }

    #[test]
    fn incremental_equals_batch_bitwise_for_every_audio_block() {
        let signal = signal(1_379);
        for config in audio_configs() {
            let block = config.build().unwrap();
            let batch = block.process(&signal).unwrap();
            for chunk_len in [1usize, 7, 64, 128, 500, 2_000] {
                let mut ex = StreamingExtractor::new(&config).unwrap();
                let mut incremental = Vec::new();
                for chunk in signal.chunks(chunk_len) {
                    for col in ex.push(chunk).unwrap() {
                        assert_eq!(col.len(), ex.features_per_frame());
                        incremental.extend(col);
                    }
                }
                // bitwise: f32 equality, not tolerance
                assert_eq!(
                    incremental,
                    batch,
                    "{} with chunk_len {chunk_len} must match batch exactly",
                    config.name()
                );
                assert_eq!(ex.frames_out() as usize * ex.features_per_frame(), batch.len());
            }
        }
    }

    #[test]
    fn gap_strides_skip_unused_samples() {
        // stride 100 > frame 64: frames at 0, 100, 200… with 36-sample gaps
        let config = DspConfig::Spectrogram(SpectrogramConfig {
            frame_s: 0.016,
            stride_s: 0.025,
            fft_len: 64,
            sample_rate_hz: 4_000,
        });
        let signal = signal(731);
        let block = config.build().unwrap();
        let batch = block.process(&signal).unwrap();
        for chunk_len in [3usize, 50, 101, 731] {
            let mut ex = StreamingExtractor::new(&config).unwrap();
            assert!(ex.framing().stride > ex.framing().frame_len, "test needs a gap stride");
            let mut incremental = Vec::new();
            for chunk in signal.chunks(chunk_len) {
                for col in ex.push(chunk).unwrap() {
                    incremental.extend(col);
                }
            }
            assert_eq!(incremental, batch, "gap stride, chunk_len {chunk_len}");
        }
    }

    #[test]
    fn partial_frame_is_held_not_emitted() {
        let config = DspConfig::Mfe(MfeConfig {
            frame_s: 0.032, // 128 samples
            stride_s: 0.016,
            n_filters: 8,
            sample_rate_hz: 4_000,
            low_hz: 0.0,
            high_hz: 0.0,
        });
        let mut ex = StreamingExtractor::new(&config).unwrap();
        assert!(ex.push(&signal(127)).unwrap().is_empty(), "127 < frame_len: nothing yet");
        assert_eq!(ex.push(&signal(1)).unwrap().len(), 1, "128th sample completes the frame");
        assert_eq!(ex.frames_out(), 1);
        assert_eq!(ex.samples_in(), 128);
    }

    #[test]
    fn unframed_blocks_are_rejected() {
        let err = StreamingExtractor::new(&DspConfig::Raw(RawConfig::default())).unwrap_err();
        assert!(matches!(err, DspError::InvalidConfig(_)), "{err:?}");
    }
}
