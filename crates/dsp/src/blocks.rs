//! Concrete processing blocks: MFE, MFCC, spectral analysis, image, raw.

use crate::block::{DspBlock, DspConfig, DspCost};
use crate::fft::{fft_flops, FftPlan, FftScratch};
use crate::mel::{Dct2, MelFilterbank};
use crate::window::{apply_window, Framing, WindowKind};
use crate::{DspError, Result};
use serde::{Deserialize, Serialize};

/// Floor applied before `ln` so silent frames stay finite.
const LOG_FLOOR: f32 = 1e-10;

/// `ln` of an energy clamped to `[LOG_FLOOR, f32::MAX]`: silence stays at
/// the floor, a NaN reads as the floor, and an infinite (saturated) energy
/// reads loud at `ln f32::MAX` ≈ 88.72 instead of non-finite.
#[allow(clippy::manual_clamp)] // `clamp` would pass a NaN through
fn log_clamped(e: f32) -> f32 {
    e.max(LOG_FLOOR).min(f32::MAX).ln()
}

/// What a framed audio block plans once in `new`: its frame layout, the
/// Hann table every frame is multiplied by, and the FFT plan.
#[derive(Debug, Clone)]
struct FramePlan {
    framing: Framing,
    window: Vec<f32>,
    fft: FftPlan,
}

impl FramePlan {
    /// Plans the FFT first, so an oversized frame or FFT is refused before
    /// the window table is allocated.
    fn new(framing: Framing, fft_len: usize) -> Result<FramePlan> {
        let fft = FftPlan::new(fft_len)?;
        if fft_len < framing.frame_len {
            return Err(DspError::InvalidConfig(format!(
                "fft length {fft_len} shorter than the {}-sample frame",
                framing.frame_len
            )));
        }
        Ok(FramePlan { framing, window: WindowKind::Hann.coefficients(framing.frame_len), fft })
    }

    fn check_frame(&self, windowed: &[f32]) -> Result<()> {
        if windowed.len() != self.framing.frame_len {
            return Err(DspError::InputLengthMismatch {
                expected: self.framing.frame_len,
                actual: windowed.len(),
            });
        }
        Ok(())
    }

    /// Windows every frame of `input`, in order, into one reused buffer
    /// and hands it to `column`.
    fn each_frame(&self, input: &[f32], mut column: impl FnMut(&[f32])) -> Result<()> {
        let frame_len = self.framing.frame_len;
        if self.framing.frame_count(input.len()) == 0 {
            return Err(DspError::InputTooShort { required: frame_len, actual: input.len() });
        }
        let mut windowed = vec![0.0; frame_len];
        for start in self.framing.offsets(input.len()) {
            apply_window(&input[start..start + frame_len], &self.window, &mut windowed);
            column(&windowed);
        }
        Ok(())
    }
}

/// Working buffers of an MFE column: the FFT's and the filter energies.
struct MfeScratch {
    fft: FftScratch,
    energies: Vec<f32>,
}

// ---------------------------------------------------------------------------
// MFE
// ---------------------------------------------------------------------------

/// Configuration of the Mel-filterbank energy block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MfeConfig {
    /// Frame length in seconds.
    pub frame_s: f32,
    /// Frame stride in seconds.
    pub stride_s: f32,
    /// Number of Mel filters (= features per frame).
    pub n_filters: usize,
    /// Input sample rate in hertz.
    pub sample_rate_hz: u32,
    /// Lowest filter edge in hertz.
    pub low_hz: f32,
    /// Highest filter edge in hertz (0 means Nyquist).
    pub high_hz: f32,
}

impl Default for MfeConfig {
    /// The platform's default for 16 kHz audio: 20 ms frames every 10 ms,
    /// 40 filters (paper Table 3, first row).
    fn default() -> Self {
        MfeConfig {
            frame_s: 0.02,
            stride_s: 0.01,
            n_filters: 40,
            sample_rate_hz: 16_000,
            low_hz: 0.0,
            high_hz: 0.0,
        }
    }
}

/// Mel-filterbank energy extraction: framing → Hann window → power FFT →
/// triangular Mel filters → log.
#[derive(Debug, Clone)]
pub struct MfeBlock {
    config: MfeConfig,
    plan: FramePlan,
    fft_len: usize,
    filterbank: MelFilterbank,
}

impl MfeBlock {
    /// Builds the block, validating every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for zero-length frames, frames
    /// longer than [`crate::fft::MAX_FFT_LEN`], inverted frequency ranges,
    /// or filter counts that exceed the spectrum size.
    pub fn new(config: MfeConfig) -> Result<MfeBlock> {
        let framing =
            Framing::from_seconds(config.frame_s, config.stride_s, config.sample_rate_hz)?;
        let fft_len = framing.frame_len.checked_next_power_of_two().unwrap_or(usize::MAX);
        let plan = FramePlan::new(framing, fft_len)?;
        let high =
            if config.high_hz <= 0.0 { config.sample_rate_hz as f32 / 2.0 } else { config.high_hz };
        let filterbank = MelFilterbank::new(
            config.n_filters,
            fft_len,
            config.sample_rate_hz,
            config.low_hz,
            high,
        )?;
        Ok(MfeBlock { config, plan, fft_len, filterbank })
    }

    /// Number of frames extracted from `input_len` samples.
    pub fn frames(&self, input_len: usize) -> usize {
        self.plan.framing.frame_count(input_len)
    }

    /// The frame layout this block cuts its input into.
    pub fn framing(&self) -> Framing {
        self.plan.framing
    }

    /// The Hann taper each frame is multiplied by before the FFT.
    pub(crate) fn window(&self) -> &[f32] {
        &self.plan.window
    }

    /// Features produced per frame (one Mel filter each).
    pub fn features_per_frame(&self) -> usize {
        self.config.n_filters
    }

    /// One feature column from an already-windowed frame.
    ///
    /// This runs the block's single per-frame routine (power FFT → Mel
    /// filterbank → log), the one batch [`DspBlock::process`] loops over
    /// and the incremental [`crate::streaming::StreamingExtractor`] reaches
    /// through here, which is what makes streaming features bitwise-equal
    /// to batch recomputation: both paths run the very same instructions
    /// on the very same windowed samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputLengthMismatch`] unless `windowed` is
    /// exactly one frame long.
    pub fn frame_column(&self, windowed: &[f32]) -> Result<Vec<f32>> {
        self.plan.check_frame(windowed)?;
        let mut scratch = self.scratch();
        self.log_energies(windowed, &mut scratch);
        Ok(scratch.energies)
    }

    fn scratch(&self) -> MfeScratch {
        MfeScratch { fft: self.plan.fft.scratch(), energies: vec![0.0; self.config.n_filters] }
    }

    /// The per-frame pipeline behind [`MfeBlock::frame_column`] and
    /// `process`: power FFT → Mel filterbank → clamped log, left in
    /// `scratch.energies`.
    fn log_energies(&self, windowed: &[f32], scratch: &mut MfeScratch) {
        let power = self.plan.fft.power(windowed, &mut scratch.fft);
        self.filterbank.apply_into(power, &mut scratch.energies);
        for e in &mut scratch.energies {
            *e = log_clamped(*e);
        }
    }
}

impl DspBlock for MfeBlock {
    fn name(&self) -> &str {
        "MFE"
    }

    fn output_len(&self, input_len: usize) -> Result<usize> {
        let frames = self.frames(input_len);
        if frames == 0 {
            return Err(DspError::InputTooShort {
                required: self.plan.framing.frame_len,
                actual: input_len,
            });
        }
        Ok(frames * self.config.n_filters)
    }

    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
        self.output_len(input_len)?;
        Ok((self.frames(input_len), self.config.n_filters, 1))
    }

    fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut out = Vec::with_capacity(self.frames(input.len()) * self.config.n_filters);
        let mut scratch = self.scratch();
        self.plan.each_frame(input, |windowed| {
            self.log_energies(windowed, &mut scratch);
            out.extend_from_slice(&scratch.energies);
        })?;
        Ok(out)
    }

    fn cost(&self, input_len: usize) -> Result<DspCost> {
        let frames = self.frames(input_len) as u64;
        if frames == 0 {
            return Err(DspError::InputTooShort {
                required: self.plan.framing.frame_len,
                actual: input_len,
            });
        }
        let per_frame = self.plan.framing.frame_len as u64 // windowing
            + fft_flops(self.fft_len)                      // fft
            + (self.fft_len as u64 / 2 + 1) * 3            // power spectrum
            + self.filterbank.macs() * 2                   // filterbank
            + self.config.n_filters as u64 * 8; // log
        let scratch = self.fft_len * 8          // complex fft buffer
            + (self.fft_len / 2 + 1) * 4        // power spectrum
            + self.plan.framing.frame_len * 4; // windowed frame
        Ok(DspCost {
            flops: frames * per_frame,
            scratch_bytes: scratch,
            output_features: frames as usize * self.config.n_filters,
        })
    }

    fn config(&self) -> DspConfig {
        DspConfig::Mfe(self.config.clone())
    }
}

// ---------------------------------------------------------------------------
// Spectrogram
// ---------------------------------------------------------------------------

/// Configuration of the linear-frequency spectrogram block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectrogramConfig {
    /// Frame length in seconds.
    pub frame_s: f32,
    /// Frame stride in seconds.
    pub stride_s: f32,
    /// FFT length (power of two); features per frame = `fft_len / 2 + 1`.
    pub fft_len: usize,
    /// Input sample rate in hertz.
    pub sample_rate_hz: u32,
}

impl Default for SpectrogramConfig {
    /// 20 ms frames every 10 ms with a 512-point FFT at 16 kHz.
    fn default() -> Self {
        SpectrogramConfig { frame_s: 0.02, stride_s: 0.01, fft_len: 512, sample_rate_hz: 16_000 }
    }
}

/// Linear-frequency log-power spectrogram: framing → Hann window → power
/// FFT → log. The platform offers this alongside MFE for non-voice audio
/// where the Mel warp would discard useful high-frequency detail.
#[derive(Debug, Clone)]
pub struct SpectrogramBlock {
    config: SpectrogramConfig,
    plan: FramePlan,
}

impl SpectrogramBlock {
    /// Builds the block.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for invalid framing, an FFT
    /// shorter than the frame or longer than [`crate::fft::MAX_FFT_LEN`],
    /// and [`DspError::FftLengthNotPowerOfTwo`] for a non-power-of-two FFT
    /// length.
    pub fn new(config: SpectrogramConfig) -> Result<SpectrogramBlock> {
        let framing =
            Framing::from_seconds(config.frame_s, config.stride_s, config.sample_rate_hz)?;
        let plan = FramePlan::new(framing, config.fft_len)?;
        Ok(SpectrogramBlock { config, plan })
    }

    /// Frequency bins per frame.
    pub fn bins(&self) -> usize {
        self.config.fft_len / 2 + 1
    }

    /// Number of frames extracted from `input_len` samples.
    pub fn frames(&self, input_len: usize) -> usize {
        self.plan.framing.frame_count(input_len)
    }

    /// The frame layout this block cuts its input into.
    pub fn framing(&self) -> Framing {
        self.plan.framing
    }

    /// The Hann taper each frame is multiplied by before the FFT.
    pub(crate) fn window(&self) -> &[f32] {
        &self.plan.window
    }

    /// One feature column (log-power bins) from an already-windowed frame;
    /// the shared per-frame pipeline batch and streaming extraction both
    /// run (see [`MfeBlock::frame_column`]).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputLengthMismatch`] unless `windowed` is
    /// exactly one frame long.
    pub fn frame_column(&self, windowed: &[f32]) -> Result<Vec<f32>> {
        self.plan.check_frame(windowed)?;
        let mut column = Vec::with_capacity(self.bins());
        self.log_power(windowed, &mut self.plan.fft.scratch(), &mut column);
        Ok(column)
    }

    /// The per-frame pipeline behind [`SpectrogramBlock::frame_column`] and
    /// `process`: power FFT → clamped log, appended to `out`.
    fn log_power(&self, windowed: &[f32], scratch: &mut FftScratch, out: &mut Vec<f32>) {
        out.extend(self.plan.fft.power(windowed, scratch).iter().map(|&p| log_clamped(p)));
    }
}

impl DspBlock for SpectrogramBlock {
    fn name(&self) -> &str {
        "Spectrogram"
    }

    fn output_len(&self, input_len: usize) -> Result<usize> {
        let frames = self.frames(input_len);
        if frames == 0 {
            return Err(DspError::InputTooShort {
                required: self.plan.framing.frame_len,
                actual: input_len,
            });
        }
        Ok(frames * self.bins())
    }

    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
        self.output_len(input_len)?;
        Ok((self.frames(input_len), self.bins(), 1))
    }

    fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut out = Vec::with_capacity(self.frames(input.len()) * self.bins());
        let mut scratch = self.plan.fft.scratch();
        self.plan.each_frame(input, |windowed| self.log_power(windowed, &mut scratch, &mut out))?;
        Ok(out)
    }

    fn cost(&self, input_len: usize) -> Result<DspCost> {
        let frames = self.frames(input_len) as u64;
        if frames == 0 {
            return Err(DspError::InputTooShort {
                required: self.plan.framing.frame_len,
                actual: input_len,
            });
        }
        let per_frame = self.plan.framing.frame_len as u64
            + fft_flops(self.config.fft_len)
            + self.bins() as u64 * 11; // power + log
        Ok(DspCost {
            flops: frames * per_frame,
            scratch_bytes: self.config.fft_len * 8 + self.plan.framing.frame_len * 4,
            output_features: frames as usize * self.bins(),
        })
    }

    fn config(&self) -> DspConfig {
        DspConfig::Spectrogram(self.config.clone())
    }
}

// ---------------------------------------------------------------------------
// MFCC
// ---------------------------------------------------------------------------

/// Configuration of the MFCC block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MfccConfig {
    /// Frame length in seconds.
    pub frame_s: f32,
    /// Frame stride in seconds.
    pub stride_s: f32,
    /// Number of cepstral coefficients kept per frame.
    pub n_coefficients: usize,
    /// Number of Mel filters feeding the DCT.
    pub n_filters: usize,
    /// Input sample rate in hertz.
    pub sample_rate_hz: u32,
}

impl Default for MfccConfig {
    /// 20 ms frames every 10 ms, 13 coefficients over 32 filters at 16 kHz.
    fn default() -> Self {
        MfccConfig {
            frame_s: 0.02,
            stride_s: 0.01,
            n_coefficients: 13,
            n_filters: 32,
            sample_rate_hz: 16_000,
        }
    }
}

/// Mel-frequency cepstral coefficients: an [`MfeBlock`] followed by a
/// DCT-II decorrelation per frame.
#[derive(Debug, Clone)]
pub struct MfccBlock {
    config: MfccConfig,
    mfe: MfeBlock,
    dct: Dct2,
}

impl MfccBlock {
    /// Builds the block.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for invalid framing or when more
    /// coefficients are requested than Mel filters exist.
    pub fn new(config: MfccConfig) -> Result<MfccBlock> {
        if config.n_coefficients == 0 || config.n_coefficients > config.n_filters {
            return Err(DspError::InvalidConfig(format!(
                "n_coefficients {} must be in 1..={}",
                config.n_coefficients, config.n_filters
            )));
        }
        let mfe = MfeBlock::new(MfeConfig {
            frame_s: config.frame_s,
            stride_s: config.stride_s,
            n_filters: config.n_filters,
            sample_rate_hz: config.sample_rate_hz,
            low_hz: 20.0,
            high_hz: 0.0,
        })?;
        let dct = Dct2::new(config.n_filters, config.n_coefficients);
        Ok(MfccBlock { config, mfe, dct })
    }

    /// The frame layout this block cuts its input into.
    pub fn framing(&self) -> Framing {
        self.mfe.framing()
    }

    /// The Hann taper each frame is multiplied by before the FFT.
    pub(crate) fn window(&self) -> &[f32] {
        self.mfe.window()
    }

    /// Cepstral coefficients produced per frame.
    pub fn features_per_frame(&self) -> usize {
        self.config.n_coefficients
    }

    /// One cepstral column from an already-windowed frame: the inner
    /// [`MfeBlock::frame_column`] followed by the per-frame DCT-II — the
    /// identical pipeline batch [`DspBlock::process`] applies frame by
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputLengthMismatch`] unless `windowed` is
    /// exactly one frame long.
    pub fn frame_column(&self, windowed: &[f32]) -> Result<Vec<f32>> {
        let log_energies = self.mfe.frame_column(windowed)?;
        Ok(self.dct.apply(&log_energies))
    }
}

impl DspBlock for MfccBlock {
    fn name(&self) -> &str {
        "MFCC"
    }

    fn output_len(&self, input_len: usize) -> Result<usize> {
        self.mfe.output_len(input_len)?;
        Ok(self.mfe.frames(input_len) * self.config.n_coefficients)
    }

    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
        self.output_len(input_len)?;
        Ok((self.mfe.frames(input_len), self.config.n_coefficients, 1))
    }

    fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut out = Vec::with_capacity(self.mfe.frames(input.len()) * self.config.n_coefficients);
        let mut scratch = self.mfe.scratch();
        self.mfe.plan.each_frame(input, |windowed| {
            self.mfe.log_energies(windowed, &mut scratch);
            self.dct.apply_into(&scratch.energies, &mut out);
        })?;
        Ok(out)
    }

    fn cost(&self, input_len: usize) -> Result<DspCost> {
        let base = self.mfe.cost(input_len)?;
        let frames = self.mfe.frames(input_len) as u64;
        let dct_flops =
            frames * (self.config.n_coefficients as u64 * self.config.n_filters as u64 * 2);
        Ok(DspCost {
            flops: base.flops + dct_flops,
            scratch_bytes: base.scratch_bytes + self.config.n_filters * 4,
            output_features: frames as usize * self.config.n_coefficients,
        })
    }

    fn config(&self) -> DspConfig {
        DspConfig::Mfcc(self.config.clone())
    }
}

// ---------------------------------------------------------------------------
// Spectral analysis (inertial)
// ---------------------------------------------------------------------------

/// Configuration of the spectral-analysis block for accelerometer data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectralConfig {
    /// Number of interleaved sensor axes (3 for an accelerometer).
    pub axes: usize,
    /// FFT length (power of two).
    pub fft_len: usize,
    /// Number of power buckets summarized from the spectrum per axis.
    pub n_buckets: usize,
    /// Sample rate in hertz (used for cost/latency accounting only).
    pub sample_rate_hz: u32,
}

impl Default for SpectralConfig {
    /// 3 axes, 128-point FFT, 16 buckets at 100 Hz — the platform default
    /// for motion workloads.
    fn default() -> Self {
        SpectralConfig { axes: 3, fft_len: 128, n_buckets: 16, sample_rate_hz: 100 }
    }
}

/// Spectral analysis: per axis, time-domain statistics (RMS, mean, std)
/// plus bucketed FFT power.
#[derive(Debug, Clone)]
pub struct SpectralBlock {
    config: SpectralConfig,
    fft: FftPlan,
}

impl SpectralBlock {
    /// Builds the block.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for a zero axis count, an FFT
    /// longer than [`crate::fft::MAX_FFT_LEN`] or more buckets than
    /// spectrum bins, and [`DspError::FftLengthNotPowerOfTwo`] for a
    /// non-power-of-two FFT length.
    pub fn new(config: SpectralConfig) -> Result<SpectralBlock> {
        if config.axes == 0 {
            return Err(DspError::InvalidConfig("axes must be non-zero".into()));
        }
        let fft = FftPlan::new(config.fft_len)?;
        if config.n_buckets == 0 || config.n_buckets > config.fft_len / 2 {
            return Err(DspError::InvalidConfig(format!(
                "n_buckets {} must be in 1..={}",
                config.n_buckets,
                config.fft_len / 2
            )));
        }
        Ok(SpectralBlock { config, fft })
    }

    /// Features per axis: 3 statistics + `n_buckets` power buckets.
    pub fn features_per_axis(&self) -> usize {
        3 + self.config.n_buckets
    }
}

impl DspBlock for SpectralBlock {
    fn name(&self) -> &str {
        "Spectral"
    }

    fn output_len(&self, input_len: usize) -> Result<usize> {
        if input_len == 0 || !input_len.is_multiple_of(self.config.axes) {
            return Err(DspError::InputLengthMismatch {
                expected: self.config.axes,
                actual: input_len,
            });
        }
        Ok(self.config.axes * self.features_per_axis())
    }

    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
        let len = self.output_len(input_len)?;
        Ok((1, len, 1))
    }

    fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
        self.output_len(input.len())?;
        let axes = self.config.axes;
        let per_axis = input.len() / axes;
        let mut out = Vec::with_capacity(self.output_len(input.len())?);
        let mut series = Vec::with_capacity(per_axis);
        let mut scratch = self.fft.scratch();
        for axis in 0..axes {
            series.clear();
            series.extend(input.iter().skip(axis).step_by(axes));
            let mean = series.iter().sum::<f32>() / per_axis as f32;
            let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / per_axis as f32;
            let rms = (series.iter().map(|x| x * x).sum::<f32>() / per_axis as f32).sqrt();
            out.push(rms);
            out.push(mean);
            out.push(var.sqrt());
            // bucketed power spectrum over (up to) the first fft_len samples
            let take = per_axis.min(self.config.fft_len);
            let power = self.fft.power(&series[..take], &mut scratch);
            let bins = power.len() - 1; // skip DC mirror bookkeeping; use 1..=bins
            let per_bucket = (bins / self.config.n_buckets).max(1);
            for b in 0..self.config.n_buckets {
                let lo = 1 + b * per_bucket;
                let hi = if b + 1 == self.config.n_buckets {
                    power.len()
                } else {
                    1 + (b + 1) * per_bucket
                };
                let sum: f32 = power[lo.min(power.len())..hi.min(power.len())].iter().sum();
                out.push(log_clamped(sum));
            }
        }
        Ok(out)
    }

    fn cost(&self, input_len: usize) -> Result<DspCost> {
        let features = self.output_len(input_len)?;
        let per_axis = input_len / self.config.axes;
        let stats = per_axis as u64 * 6;
        let fft = fft_flops(self.config.fft_len) + self.config.fft_len as u64 * 3;
        Ok(DspCost {
            flops: self.config.axes as u64 * (stats + fft),
            scratch_bytes: self.config.fft_len * 8 + per_axis * 4,
            output_features: features,
        })
    }

    fn config(&self) -> DspConfig {
        DspConfig::Spectral(self.config.clone())
    }
}

// ---------------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------------

/// Pixel normalization applied after resizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PixelNorm {
    /// Scale 0–255 to 0–1.
    ZeroToOne,
    /// Scale 0–255 to −1–1 (the convention MobileNet expects).
    MinusOneToOne,
}

/// Configuration of the image block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageConfig {
    /// Source image width in pixels.
    pub in_width: usize,
    /// Source image height in pixels.
    pub in_height: usize,
    /// Source channel count (1 or 3).
    pub in_channels: usize,
    /// Target width after resizing.
    pub out_width: usize,
    /// Target height after resizing.
    pub out_height: usize,
    /// Target channel count; converting 3 → 1 averages RGB.
    pub out_channels: usize,
    /// Normalization applied to the 0–255 pixel range.
    pub norm: PixelNorm,
}

impl Default for ImageConfig {
    /// 96×96 grayscale — the Visual Wake Words input (paper §5.1).
    fn default() -> Self {
        ImageConfig {
            in_width: 96,
            in_height: 96,
            in_channels: 1,
            out_width: 96,
            out_height: 96,
            out_channels: 1,
            norm: PixelNorm::ZeroToOne,
        }
    }
}

/// Image preprocessing: bilinear resize, channel conversion, normalization.
#[derive(Debug, Clone)]
pub struct ImageBlock {
    config: ImageConfig,
}

impl ImageBlock {
    /// Builds the block.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for zero dimensions or channel
    /// counts other than 1 or 3.
    pub fn new(config: ImageConfig) -> Result<ImageBlock> {
        for (label, v) in [
            ("in_width", config.in_width),
            ("in_height", config.in_height),
            ("out_width", config.out_width),
            ("out_height", config.out_height),
        ] {
            if v == 0 {
                return Err(DspError::InvalidConfig(format!("{label} must be non-zero")));
            }
        }
        if ![1, 3].contains(&config.in_channels) || ![1, 3].contains(&config.out_channels) {
            return Err(DspError::InvalidConfig("channels must be 1 or 3".into()));
        }
        if config.in_channels == 1 && config.out_channels == 3 {
            return Err(DspError::InvalidConfig("cannot expand grayscale to rgb".into()));
        }
        Ok(ImageBlock { config })
    }

    fn expected_input(&self) -> usize {
        self.config.in_width * self.config.in_height * self.config.in_channels
    }

    /// Samples the source image bilinearly at fractional coordinates.
    fn sample(&self, input: &[f32], x: f32, y: f32, c: usize) -> f32 {
        let cfg = &self.config;
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(cfg.in_width - 1);
        let y1 = (y0 + 1).min(cfg.in_height - 1);
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let at = |yy: usize, xx: usize| input[(yy * cfg.in_width + xx) * cfg.in_channels + c];
        let top = at(y0, x0) * (1.0 - fx) + at(y0, x1) * fx;
        let bottom = at(y1, x0) * (1.0 - fx) + at(y1, x1) * fx;
        top * (1.0 - fy) + bottom * fy
    }
}

impl DspBlock for ImageBlock {
    fn name(&self) -> &str {
        "Image"
    }

    fn output_len(&self, input_len: usize) -> Result<usize> {
        if input_len != self.expected_input() {
            return Err(DspError::InputLengthMismatch {
                expected: self.expected_input(),
                actual: input_len,
            });
        }
        Ok(self.config.out_width * self.config.out_height * self.config.out_channels)
    }

    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
        self.output_len(input_len)?;
        Ok((self.config.out_height, self.config.out_width, self.config.out_channels))
    }

    fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
        self.output_len(input.len())?;
        let cfg = &self.config;
        let sx = cfg.in_width as f32 / cfg.out_width as f32;
        let sy = cfg.in_height as f32 / cfg.out_height as f32;
        let mut out = Vec::with_capacity(cfg.out_width * cfg.out_height * cfg.out_channels);
        for oy in 0..cfg.out_height {
            for ox in 0..cfg.out_width {
                let x = (ox as f32 + 0.5) * sx - 0.5;
                let y = (oy as f32 + 0.5) * sy - 0.5;
                let x = x.clamp(0.0, (cfg.in_width - 1) as f32);
                let y = y.clamp(0.0, (cfg.in_height - 1) as f32);
                let mut channels = [0.0f32; 3];
                for (c, slot) in channels.iter_mut().take(cfg.in_channels).enumerate() {
                    *slot = self.sample(input, x, y, c);
                }
                let push = |v: f32| match cfg.norm {
                    PixelNorm::ZeroToOne => v / 255.0,
                    PixelNorm::MinusOneToOne => v / 127.5 - 1.0,
                };
                if cfg.out_channels == cfg.in_channels {
                    for &v in channels.iter().take(cfg.out_channels) {
                        out.push(push(v));
                    }
                } else {
                    // 3 -> 1: luminance average
                    let gray = (channels[0] + channels[1] + channels[2]) / 3.0;
                    out.push(push(gray));
                }
            }
        }
        Ok(out)
    }

    fn cost(&self, input_len: usize) -> Result<DspCost> {
        let out = self.output_len(input_len)?;
        // bilinear: ~8 ops per output channel value + normalization
        Ok(DspCost { flops: out as u64 * 9, scratch_bytes: 64, output_features: out })
    }

    fn config(&self) -> DspConfig {
        DspConfig::Image(self.config.clone())
    }
}

// ---------------------------------------------------------------------------
// Raw
// ---------------------------------------------------------------------------

/// Configuration of the raw pass-through block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawConfig {
    /// Multiplier applied to every sample.
    pub scale: f32,
    /// Offset added after scaling.
    pub offset: f32,
}

impl Default for RawConfig {
    fn default() -> Self {
        RawConfig { scale: 1.0, offset: 0.0 }
    }
}

/// Raw block: features are the (optionally affine-mapped) input samples.
#[derive(Debug, Clone, Default)]
pub struct RawBlock {
    config: RawConfig,
}

impl RawBlock {
    /// Builds the block; all parameter values are valid.
    pub fn new(config: RawConfig) -> RawBlock {
        RawBlock { config }
    }
}

impl DspBlock for RawBlock {
    fn name(&self) -> &str {
        "Raw"
    }

    fn output_len(&self, input_len: usize) -> Result<usize> {
        Ok(input_len)
    }

    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
        Ok((1, input_len, 1))
    }

    fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
        Ok(input.iter().map(|&x| x * self.config.scale + self.config.offset).collect())
    }

    fn cost(&self, input_len: usize) -> Result<DspCost> {
        Ok(DspCost { flops: input_len as u64 * 2, scratch_bytes: 0, output_features: input_len })
    }

    fn config(&self) -> DspConfig {
        DspConfig::Raw(self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tone(freq: f32, seconds: f32, rate: u32) -> Vec<f32> {
        let n = (seconds * rate as f32) as usize;
        (0..n).map(|t| (2.0 * std::f32::consts::PI * freq * t as f32 / rate as f32).sin()).collect()
    }

    // --- MFE ---

    #[test]
    fn mfe_output_dimensions() {
        let block = MfeBlock::new(MfeConfig::default()).unwrap();
        // 16 000 samples, 320-frame, 160-stride -> 99 frames x 40 filters
        assert_eq!(block.output_len(16_000).unwrap(), 99 * 40);
        assert_eq!(block.output_shape(16_000).unwrap(), (99, 40, 1));
        let features = block.process(&vec![0.0; 16_000]).unwrap();
        assert_eq!(features.len(), 99 * 40);
    }

    #[test]
    fn mfe_silence_hits_log_floor() {
        let block = MfeBlock::new(MfeConfig::default()).unwrap();
        let features = block.process(&vec![0.0; 16_000]).unwrap();
        assert!(features.iter().all(|&f| (f - LOG_FLOOR.ln()).abs() < 1e-3));
    }

    #[test]
    fn saturated_frames_read_loud_not_silent() {
        // ±1e20 at Nyquist: the top power bins square past f32::MAX to inf
        let loud: Vec<f32> = (0..16_000).map(|i| if i % 2 == 0 { 1e20 } else { -1e20 }).collect();
        let top = f32::MAX.ln();
        let mfe = MfeBlock::new(MfeConfig::default()).unwrap();
        let features = mfe.process(&loud).unwrap();
        assert!(features.iter().all(|f| f.is_finite()));
        assert!(features.iter().all(|&f| f > 0.0), "no filter reads as silence");
        for frame in features.chunks(40) {
            assert_eq!(frame[39], top, "the filter over Nyquist saturates at ln f32::MAX");
        }
        let spectrogram = SpectrogramBlock::new(SpectrogramConfig::default()).unwrap();
        let bins = spectrogram.process(&loud).unwrap();
        assert!(bins.iter().all(|b| b.is_finite()));
        assert!(bins.chunks(257).all(|frame| frame[256] == top));
        let mfcc = MfccBlock::new(MfccConfig::default()).unwrap();
        assert!(mfcc.process(&loud).unwrap().iter().all(|c| c.is_finite()));
        // finite energies are untouched by the clamp
        assert_eq!(log_clamped(2.5), 2.5f32.ln());
        assert_eq!(log_clamped(0.0), LOG_FLOOR.ln());
        assert_eq!(log_clamped(f32::NAN), LOG_FLOOR.ln());
        assert_eq!(log_clamped(f32::INFINITY), top);
    }

    #[test]
    fn mfe_tone_energy_concentrated() {
        let block = MfeBlock::new(MfeConfig::default()).unwrap();
        let audio = tone(1000.0, 1.0, 16_000);
        let features = block.process(&audio).unwrap();
        // per-frame argmax filter should be consistent across frames
        let per_frame: Vec<usize> = features
            .chunks(40)
            .map(|f| f.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0)
            .collect();
        let first = per_frame[0];
        assert!(per_frame.iter().all(|&p| p.abs_diff(first) <= 1));
    }

    #[test]
    fn mfe_too_short_input() {
        let block = MfeBlock::new(MfeConfig::default()).unwrap();
        assert!(block.process(&[0.0; 100]).is_err());
        assert!(block.cost(100).is_err());
    }

    #[test]
    fn mfe_cost_scales_with_length() {
        let block = MfeBlock::new(MfeConfig::default()).unwrap();
        let c1 = block.cost(16_000).unwrap();
        let c2 = block.cost(32_000).unwrap();
        assert!(c2.flops > c1.flops * 3 / 2);
        assert_eq!(c1.output_features, 99 * 40);
    }

    // --- Spectrogram ---

    #[test]
    fn spectrogram_output_dimensions() {
        let block = SpectrogramBlock::new(SpectrogramConfig::default()).unwrap();
        // 99 frames x 257 bins
        assert_eq!(block.output_shape(16_000).unwrap(), (99, 257, 1));
        let features = block.process(&vec![0.0; 16_000]).unwrap();
        assert_eq!(features.len(), 99 * 257);
        assert!(features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn spectrogram_tone_peaks_at_right_bin() {
        let block = SpectrogramBlock::new(SpectrogramConfig::default()).unwrap();
        let audio = tone(1000.0, 1.0, 16_000);
        let features = block.process(&audio).unwrap();
        // 1 kHz at 16 kHz / 512-point fft -> bin 32
        let frame = &features[..257];
        let peak = frame.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(peak.abs_diff(32) <= 1, "peak bin {peak}");
    }

    #[test]
    fn spectrogram_validation() {
        assert!(SpectrogramBlock::new(SpectrogramConfig { fft_len: 100, ..Default::default() })
            .is_err());
        assert!(
            SpectrogramBlock::new(SpectrogramConfig { fft_len: 128, ..Default::default() })
                .is_err(),
            "fft shorter than frame"
        );
        let block = SpectrogramBlock::new(SpectrogramConfig::default()).unwrap();
        assert!(block.process(&[0.0; 10]).is_err());
        assert!(block.cost(10).is_err());
        assert!(block.cost(16_000).unwrap().flops > 0);
    }

    // --- MFCC ---

    #[test]
    fn mfcc_output_dimensions() {
        let block = MfccBlock::new(MfccConfig::default()).unwrap();
        assert_eq!(block.output_shape(16_000).unwrap(), (99, 13, 1));
        let features = block.process(&tone(440.0, 1.0, 16_000)).unwrap();
        assert_eq!(features.len(), 99 * 13);
        assert!(features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn mfcc_rejects_more_coeffs_than_filters() {
        let cfg = MfccConfig { n_coefficients: 64, n_filters: 32, ..MfccConfig::default() };
        assert!(MfccBlock::new(cfg).is_err());
    }

    #[test]
    fn mfcc_costs_more_than_mfe_with_same_filters() {
        let mfcc = MfccBlock::new(MfccConfig::default()).unwrap();
        let mfe = MfeBlock::new(MfeConfig { n_filters: 32, ..MfeConfig::default() }).unwrap();
        assert!(mfcc.cost(16_000).unwrap().flops > mfe.cost(16_000).unwrap().flops);
    }

    #[test]
    fn mfcc_distinguishes_tones() {
        let block = MfccBlock::new(MfccConfig::default()).unwrap();
        let low = block.process(&tone(300.0, 1.0, 16_000)).unwrap();
        let high = block.process(&tone(3000.0, 1.0, 16_000)).unwrap();
        let dist: f32 = low.iter().zip(&high).map(|(a, b)| (a - b).powi(2)).sum();
        assert!(dist > 1.0, "different tones must produce different cepstra");
    }

    // --- Spectral ---

    #[test]
    fn spectral_output_layout() {
        let block = SpectralBlock::new(SpectralConfig::default()).unwrap();
        // 3 axes x (3 stats + 16 buckets) = 57 features
        assert_eq!(block.output_len(300).unwrap(), 57);
        let features = block.process(&vec![0.5; 300]).unwrap();
        assert_eq!(features.len(), 57);
    }

    #[test]
    fn spectral_rejects_unaligned_input() {
        let block = SpectralBlock::new(SpectralConfig::default()).unwrap();
        assert!(block.output_len(301).is_err());
        assert!(block.output_len(0).is_err());
    }

    #[test]
    fn spectral_stats_correct_for_constant_signal() {
        let block =
            SpectralBlock::new(SpectralConfig { axes: 1, ..SpectralConfig::default() }).unwrap();
        let features = block.process(&vec![2.0; 128]).unwrap();
        assert!((features[0] - 2.0).abs() < 1e-5, "rms");
        assert!((features[1] - 2.0).abs() < 1e-5, "mean");
        assert!(features[2].abs() < 1e-5, "std");
    }

    #[test]
    fn spectral_config_validation() {
        assert!(SpectralBlock::new(SpectralConfig { axes: 0, ..Default::default() }).is_err());
        assert!(SpectralBlock::new(SpectralConfig { fft_len: 100, ..Default::default() }).is_err());
        assert!(
            SpectralBlock::new(SpectralConfig { n_buckets: 1000, ..Default::default() }).is_err()
        );
    }

    #[test]
    fn spectral_vibration_frequency_visible() {
        let block = SpectralBlock::new(SpectralConfig {
            axes: 1,
            fft_len: 128,
            n_buckets: 8,
            sample_rate_hz: 100,
        })
        .unwrap();
        let slow: Vec<f32> =
            (0..128).map(|t| (2.0 * std::f32::consts::PI * 2.0 * t as f32 / 100.0).sin()).collect();
        let fast: Vec<f32> = (0..128)
            .map(|t| (2.0 * std::f32::consts::PI * 40.0 * t as f32 / 100.0).sin())
            .collect();
        let fs = block.process(&slow).unwrap();
        let ff = block.process(&fast).unwrap();
        // bucket features start at index 3; slow tone peaks earlier than fast tone
        let peak_slow =
            fs[3..].iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let peak_fast =
            ff[3..].iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(peak_slow < peak_fast);
    }

    // --- Image ---

    #[test]
    fn image_identity_resize() {
        let block = ImageBlock::new(ImageConfig {
            in_width: 4,
            in_height: 4,
            in_channels: 1,
            out_width: 4,
            out_height: 4,
            out_channels: 1,
            norm: PixelNorm::ZeroToOne,
        })
        .unwrap();
        let input: Vec<f32> = (0..16).map(|i| i as f32 * 17.0).collect();
        let out = block.process(&input).unwrap();
        for (o, i) in out.iter().zip(&input) {
            assert!((o - i / 255.0).abs() < 1e-5);
        }
    }

    #[test]
    fn image_downscale_and_grayscale() {
        let block = ImageBlock::new(ImageConfig {
            in_width: 8,
            in_height: 8,
            in_channels: 3,
            out_width: 4,
            out_height: 4,
            out_channels: 1,
            norm: PixelNorm::MinusOneToOne,
        })
        .unwrap();
        let input = vec![255.0f32; 8 * 8 * 3];
        let out = block.process(&input).unwrap();
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|&v| (v - 1.0).abs() < 1e-4));
    }

    #[test]
    fn image_validates_input_len() {
        let block = ImageBlock::new(ImageConfig::default()).unwrap();
        assert!(block.process(&[0.0; 10]).is_err());
    }

    #[test]
    fn image_rejects_gray_to_rgb() {
        let cfg = ImageConfig { in_channels: 1, out_channels: 3, ..ImageConfig::default() };
        assert!(ImageBlock::new(cfg).is_err());
    }

    // --- Raw ---

    #[test]
    fn raw_affine_mapping() {
        let block = RawBlock::new(RawConfig { scale: 2.0, offset: 1.0 });
        assert_eq!(block.process(&[0.0, 1.0]).unwrap(), vec![1.0, 3.0]);
        assert_eq!(block.output_len(7).unwrap(), 7);
        assert_eq!(block.output_shape(7).unwrap(), (1, 7, 1));
    }

    proptest! {
        #[test]
        fn prop_mfe_features_finite(samples in proptest::collection::vec(-1.0f32..1.0, 640..2000)) {
            let block = MfeBlock::new(MfeConfig {
                n_filters: 20, ..MfeConfig::default()
            }).unwrap();
            let features = block.process(&samples).unwrap();
            prop_assert_eq!(features.len(), block.output_len(samples.len()).unwrap());
            prop_assert!(features.iter().all(|f| f.is_finite()));
        }

        #[test]
        fn prop_image_output_in_norm_range(pixels in proptest::collection::vec(0.0f32..255.0, 64)) {
            let block = ImageBlock::new(ImageConfig {
                in_width: 8, in_height: 8, in_channels: 1,
                out_width: 5, out_height: 5, out_channels: 1,
                norm: PixelNorm::ZeroToOne,
            }).unwrap();
            let out = block.process(&pixels).unwrap();
            prop_assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
