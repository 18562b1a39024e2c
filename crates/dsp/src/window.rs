//! Window functions and frame extraction.
//!
//! Audio blocks operate frame-by-frame: the signal is cut into overlapping
//! windows (`frame_length` seconds every `frame_stride` seconds — the
//! hyperparameters users sweep in the Studio and the EON Tuner, paper
//! Table 3), each multiplied by a taper before the FFT.

use crate::{DspError, Result};

/// Taper applied to each frame before the FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// No taper (all ones).
    Rectangular,
    /// Hann window — the default for speech features.
    Hann,
    /// Hamming window.
    Hamming,
}

impl WindowKind {
    /// Generates the window coefficients for `len` samples.
    pub fn coefficients(self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        if len == 1 {
            return vec![1.0];
        }
        let n = (len - 1) as f32;
        (0..len)
            .map(|i| {
                let x = i as f32 / n;
                match self {
                    WindowKind::Rectangular => 1.0,
                    WindowKind::Hann => 0.5 - 0.5 * (2.0 * std::f32::consts::PI * x).cos(),
                    WindowKind::Hamming => 0.54 - 0.46 * (2.0 * std::f32::consts::PI * x).cos(),
                }
            })
            .collect()
    }
}

/// Frame layout over a 1-D signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// Samples per frame.
    pub frame_len: usize,
    /// Samples between successive frame starts.
    pub stride: usize,
}

impl Framing {
    /// Creates a framing from lengths in samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] if either length is zero or the
    /// stride exceeds the frame length by more than the frame itself (gaps
    /// are allowed, zero-length frames are not).
    pub fn new(frame_len: usize, stride: usize) -> Result<Framing> {
        if frame_len == 0 {
            return Err(DspError::InvalidConfig("frame length must be non-zero".into()));
        }
        if stride == 0 {
            return Err(DspError::InvalidConfig("frame stride must be non-zero".into()));
        }
        Ok(Framing { frame_len, stride })
    }

    /// Creates a framing from durations in seconds at `sample_rate_hz`.
    ///
    /// This matches how the platform exposes the parameters (e.g.
    /// `MFCC (0.02, 0.01, 40)` in paper Table 3 means 20 ms frames every
    /// 10 ms with 40 coefficients).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] when the durations round to zero
    /// samples.
    pub fn from_seconds(frame_s: f32, stride_s: f32, sample_rate_hz: u32) -> Result<Framing> {
        let frame_len = (frame_s * sample_rate_hz as f32).round() as usize;
        let stride = (stride_s * sample_rate_hz as f32).round() as usize;
        Framing::new(frame_len, stride)
    }

    /// Number of complete frames obtainable from `signal_len` samples.
    pub fn frame_count(&self, signal_len: usize) -> usize {
        if signal_len < self.frame_len {
            0
        } else {
            (signal_len - self.frame_len) / self.stride + 1
        }
    }

    /// Iterates over frame start offsets.
    pub fn offsets(&self, signal_len: usize) -> impl Iterator<Item = usize> + '_ {
        let count = self.frame_count(signal_len);
        (0..count).map(move |i| i * self.stride)
    }
}

/// Writes `frame[i] * coeffs[i]` into `out[i]` — the one windowing loop
/// batch blocks, [`windowed_frames`] and the streaming extractor share.
pub(crate) fn apply_window(frame: &[f32], coeffs: &[f32], out: &mut [f32]) {
    for ((o, s), w) in out.iter_mut().zip(frame).zip(coeffs) {
        *o = s * w;
    }
}

/// Splits `signal` into windowed frames.
///
/// Each returned frame has `framing.frame_len` samples multiplied by the
/// window coefficients.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] when not even one frame fits.
pub fn windowed_frames(
    signal: &[f32],
    framing: Framing,
    window: WindowKind,
) -> Result<Vec<Vec<f32>>> {
    if framing.frame_count(signal.len()) == 0 {
        return Err(DspError::InputTooShort { required: framing.frame_len, actual: signal.len() });
    }
    let coeffs = window.coefficients(framing.frame_len);
    Ok(framing
        .offsets(signal.len())
        .map(|start| {
            let mut frame = vec![0.0; framing.frame_len];
            apply_window(&signal[start..start + framing.frame_len], &coeffs, &mut frame);
            frame
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn window_endpoints() {
        let hann = WindowKind::Hann.coefficients(8);
        assert!(hann[0].abs() < 1e-6);
        assert!(hann[7].abs() < 1e-6);
        let ham = WindowKind::Hamming.coefficients(8);
        assert!((ham[0] - 0.08).abs() < 1e-6);
        let rect = WindowKind::Rectangular.coefficients(4);
        assert_eq!(rect, vec![1.0; 4]);
    }

    #[test]
    fn window_degenerate_lengths() {
        assert!(WindowKind::Hann.coefficients(0).is_empty());
        assert_eq!(WindowKind::Hann.coefficients(1), vec![1.0]);
    }

    #[test]
    fn hann_is_symmetric_and_peaks_center() {
        let w = WindowKind::Hann.coefficients(64);
        for i in 0..32 {
            assert!((w[i] - w[63 - i]).abs() < 1e-6);
        }
        let peak = w.iter().cloned().fold(0.0f32, f32::max);
        assert!((peak - 1.0).abs() < 1e-3);
    }

    #[test]
    fn framing_counts() {
        let f = Framing::new(400, 160).unwrap();
        // 1 s at 16 kHz with 25 ms frames / 10 ms stride -> 98 frames
        assert_eq!(f.frame_count(16_000), 98);
        assert_eq!(f.frame_count(399), 0);
        assert_eq!(f.frame_count(400), 1);
    }

    #[test]
    fn framing_from_seconds() {
        let f = Framing::from_seconds(0.02, 0.01, 16_000).unwrap();
        assert_eq!(f.frame_len, 320);
        assert_eq!(f.stride, 160);
        assert!(Framing::from_seconds(0.00001, 0.01, 16_000).is_err());
    }

    #[test]
    fn framing_rejects_zero() {
        assert!(Framing::new(0, 1).is_err());
        assert!(Framing::new(1, 0).is_err());
    }

    #[test]
    fn windowed_frames_shape() {
        let signal: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let frames =
            windowed_frames(&signal, Framing::new(20, 10).unwrap(), WindowKind::Rectangular)
                .unwrap();
        assert_eq!(frames.len(), 9);
        assert!(frames.iter().all(|f| f.len() == 20));
        // rectangular window: frame content equals signal slice
        assert_eq!(frames[1][0], 10.0);
    }

    #[test]
    fn windowed_frames_too_short() {
        let err =
            windowed_frames(&[0.0; 5], Framing::new(10, 5).unwrap(), WindowKind::Hann).unwrap_err();
        assert_eq!(err, DspError::InputTooShort { required: 10, actual: 5 });
    }

    // The streaming windower leans on these exact edge behaviors: a window
    // longer than the signal yields zero frames (never a short frame), a
    // negative-overlap stride leaves gaps, and trailing samples that don't
    // fill a frame are dropped, not padded.

    #[test]
    fn window_longer_than_signal_yields_zero_frames() {
        let f = Framing::new(256, 64).unwrap();
        assert_eq!(f.frame_count(255), 0);
        assert_eq!(f.offsets(255).count(), 0);
        let err = windowed_frames(&vec![1.0; 255], f, WindowKind::Rectangular).unwrap_err();
        assert_eq!(err, DspError::InputTooShort { required: 256, actual: 255 });
        // exactly one frame fits once the signal reaches the frame length
        assert_eq!(f.frame_count(256), 1);
    }

    #[test]
    fn negative_overlap_stride_leaves_gaps() {
        // stride 25 > frame 10: frames at 0, 25, 50, 75 with 15-sample gaps
        let f = Framing::new(10, 25).unwrap();
        let signal: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(f.offsets(signal.len()).collect::<Vec<_>>(), vec![0, 25, 50, 75]);
        let frames = windowed_frames(&signal, f, WindowKind::Rectangular).unwrap();
        assert_eq!(frames.len(), 4);
        // each frame starts at its offset; the gap samples appear in none
        for (frame, start) in frames.iter().zip([0usize, 25, 50, 75]) {
            assert_eq!(frame[0], start as f32);
            assert_eq!(frame[9], (start + 9) as f32);
        }
        // zero overlap (stride == frame) tiles the signal exactly
        let tiled = Framing::new(10, 10).unwrap();
        assert_eq!(tiled.frame_count(100), 10);
    }

    #[test]
    fn last_partial_window_is_dropped() {
        // 95 samples, frame 20, stride 15: last full frame starts at 75
        // (75 + 20 = 95); a hypothetical frame at 90 would need 110 samples
        let f = Framing::new(20, 15).unwrap();
        assert_eq!(f.frame_count(95), 6);
        assert_eq!(f.frame_count(109), 6, "14 trailing samples never yield a short frame");
        assert_eq!(f.frame_count(110), 7, "the 110th sample completes the next frame");
        let signal: Vec<f32> = (0..109).map(|i| i as f32).collect();
        let frames = windowed_frames(&signal, f, WindowKind::Rectangular).unwrap();
        assert_eq!(frames.len(), 6);
        assert!(frames.iter().all(|fr| fr.len() == 20), "frames are never padded or truncated");
        assert_eq!(frames[5][19], 94.0, "last emitted sample is 75 + 19");
    }

    proptest! {
        #[test]
        fn prop_frame_count_consistent_with_offsets(
            signal_len in 1usize..5000, frame in 1usize..400, stride in 1usize..400
        ) {
            let f = Framing::new(frame, stride).unwrap();
            let offsets: Vec<usize> = f.offsets(signal_len).collect();
            prop_assert_eq!(offsets.len(), f.frame_count(signal_len));
            for &o in &offsets {
                prop_assert!(o + frame <= signal_len);
            }
        }

        #[test]
        fn prop_window_coeffs_bounded(len in 1usize..512) {
            for kind in [WindowKind::Rectangular, WindowKind::Hann, WindowKind::Hamming] {
                let w = kind.coefficients(len);
                prop_assert!(w.iter().all(|&x| (-1e-6..=1.0 + 1e-6).contains(&x)));
            }
        }
    }
}
