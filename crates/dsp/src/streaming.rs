//! Incremental feature extraction for streaming audio.
//!
//! A batch [`FramedBlock`] (MFE, MFCC or Spectrogram) takes a whole window
//! of samples and recomputes every frame inside it. A live stream
//! classifies *overlapping* windows — a 1 s window every 250 ms shares
//! ~75% of its frames with the previous window — so recomputing each
//! window from scratch wastes most of the FFT work. The
//! [`StreamingExtractor`] instead holds one `FramedBlock`, consumes
//! arbitrarily-chunked samples and emits one feature **column** per
//! complete frame, exactly once; a windower (see `ei-stream`) then
//! assembles overlapping windows by concatenating the shared columns.
//!
//! # Bitwise equivalence to batch
//!
//! The per-frame column math is not reimplemented here: the extractor
//! multiplies each frame by its block's own Hann table through the same
//! `apply_window` loop batch `process` runs, then runs the block's
//! per-frame routine — the one `frame_column` runs, and the oracle every
//! `process` level is tested against bitwise. Because every framed block's
//! frames depend only on that frame's samples, a column computed
//! incrementally is bit-identical to the one batch recomputation would
//! produce, provided window starts land on frame-stride boundaries.
//! `ei-stream` asserts this with a batch-recompute oracle on every emitted
//! window. The routine's working buffers live in the extractor, so a push
//! allocates only the columns it returns and the list holding them.

use crate::block::DspConfig;
use crate::blocks::{ColumnScratch, FramedBlock};
use crate::window::Framing;
use crate::Result;

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
    block: FramedBlock,
    /// Samples at absolute positions `buf_base..buf_base + buffer.len()`.
    buffer: Vec<f32>,
    /// The frame being windowed, reused for every frame.
    windowed: Vec<f32>,
    /// The per-frame routine's working buffers, reused for every frame.
    scratch: ColumnScratch,
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
    /// Returns [`FramedBlock::new`]'s errors, among them
    /// [`crate::DspError::InvalidConfig`] for a block without frames
    /// (spectral, image, raw, custom): it has no overlapping-window state
    /// to share.
    pub fn new(config: &DspConfig) -> Result<StreamingExtractor> {
        let block = FramedBlock::new(config)?;
        let frame_len = block.framing().frame_len;
        Ok(StreamingExtractor {
            scratch: block.scratch(),
            block,
            buffer: Vec::with_capacity(frame_len),
            windowed: vec![0.0; frame_len],
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
        self.block.framing()
    }

    /// Features in each emitted column.
    pub fn features_per_frame(&self) -> usize {
        self.block.features_per_frame()
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
    /// Never fails today: every frame the loop cuts is complete, so the
    /// per-frame routine has nothing to refuse. The `Result` leaves room
    /// for a block that can.
    pub fn push(&mut self, samples: &[f32]) -> Result<Vec<Vec<f32>>> {
        self.samples_in += samples.len() as u64;
        self.buffer.extend_from_slice(samples);
        let framing = self.block.framing();
        let width = self.block.features_per_frame();
        let ready = (self.buf_base + self.buffer.len() as u64)
            .checked_sub(self.next_frame_start)
            .map_or(0, |span| framing.frame_count(span as usize));
        let mut columns = Vec::with_capacity(ready);
        // Frames are cut at offsets into the buffer (the next frame starts
        // at most one stride past `buf_base`); everything before the next
        // frame start, gap samples included, is drained once per push, not
        // once per frame.
        loop {
            let start = (self.next_frame_start - self.buf_base) as usize;
            let Some(frame) =
                self.buffer.get(start..).and_then(|rest| rest.get(..framing.frame_len))
            else {
                break;
            };
            let mut column = Vec::with_capacity(width);
            self.block.push_column(frame, &mut self.windowed, &mut self.scratch, &mut column);
            columns.push(column);
            self.frames_out += 1;
            self.next_frame_start += framing.stride as u64;
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
    use crate::DspError;

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
