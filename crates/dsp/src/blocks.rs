//! Concrete processing blocks: framed audio, spectral analysis, image, raw.
//!
//! The framed audio configs (MFE, MFCC, Spectrogram) build one block type,
//! [`FramedBlock`]: framing → Hann window → power FFT, then the config's
//! stages — the Mel sums, the clamped log and the DCT, as it needs them.
//! Its per-frame routine, `FramePlan::column_into`, is what
//! [`FramedBlock::frame_column`], the streaming extractor and `process` at
//! [`F32Level::Baseline`] run frame by frame, and it is the oracle of the
//! wide path.
//!
//! At a wider level (`F32Level::Avx2`), `process` runs the `FrameLanes`
//! kernel instead: eight frames at once, one per lane. Each lane runs
//! exactly the operations the per-frame routine runs on its own frame, in
//! the same order, so the features have the same bits; `ln` stays std's
//! scalar call, once per value. A clip whose frame count is not a multiple
//! of eight ends in a block whose spare lanes read a silent frame, and
//! nothing of those lanes is written. DESIGN.md ("The audio front-end in
//! lanes") has the layout and the measurements behind it.

use crate::block::{DspBlock, DspConfig, DspCost};
use crate::fft::{fft_flops, FftPlan, FftScratch, LANES};
use crate::mel::{Dct2, MelFilterbank};
use crate::window::{apply_window, Framing, WindowKind};
use crate::{DspError, Result};
use ei_tensor::simd::{f32_level, F32Kernel, F32Level};
use serde::{Deserialize, Serialize};

/// Floor applied before `ln` so silent frames stay finite.
const LOG_FLOOR: f32 = 1e-10;

/// `ln` of an energy clamped to `[LOG_FLOOR, f32::MAX]`: silence stays at
/// the floor, a NaN reads as the floor, and an infinite (saturated) energy
/// reads loud at `ln f32::MAX` ≈ 88.72 instead of non-finite.
#[allow(clippy::manual_clamp)] // `clamp` would pass a NaN through
#[inline(always)]
fn log_clamped(e: f32) -> f32 {
    e.max(LOG_FLOOR).min(f32::MAX).ln()
}

/// What a framed audio block computes from each frame's power spectrum.
#[derive(Debug, Clone)]
pub(crate) enum Stages {
    /// Spectrogram: the clamped log of every power bin.
    LogPower,
    /// MFE: the clamped log of every Mel filter's energy.
    LogMel(MelFilterbank),
    /// MFCC: the DCT of MFE's log energies.
    Cepstra(MelFilterbank, Dct2),
}

impl Stages {
    /// Mel filters the stages sum power through (none for a spectrogram).
    fn filters(&self) -> usize {
        match self {
            Stages::LogPower => 0,
            Stages::LogMel(mel) | Stages::Cepstra(mel, _) => mel.len(),
        }
    }
}

/// What a framed audio block plans once in `new`: its frame layout, the
/// Hann table every frame is multiplied by, and the FFT plan.
#[derive(Debug, Clone)]
pub(crate) struct FramePlan {
    framing: Framing,
    window: Vec<f32>,
    fft: FftPlan,
}

/// Working buffers of the per-frame routine: the FFT's and the filter
/// energies.
#[derive(Debug, Clone)]
pub(crate) struct ColumnScratch {
    fft: FftScratch,
    energies: Vec<f32>,
}

impl FramePlan {
    /// Frames of `frame_s` every `stride_s` seconds at `sample_rate_hz`
    /// through an `fft_len`-point FFT (`None`: the frame's next power of
    /// two). Plans the FFT first, so an oversized frame or FFT is refused
    /// before the window table is allocated.
    fn new(
        frame_s: f32,
        stride_s: f32,
        sample_rate_hz: u32,
        fft_len: Option<usize>,
    ) -> Result<FramePlan> {
        let framing = Framing::from_seconds(frame_s, stride_s, sample_rate_hz)?;
        let fft_len = fft_len
            .unwrap_or_else(|| framing.frame_len.checked_next_power_of_two().unwrap_or(usize::MAX));
        let fft = FftPlan::new(fft_len)?;
        if fft_len < framing.frame_len {
            return Err(DspError::InvalidConfig(format!(
                "fft length {fft_len} shorter than the {}-sample frame",
                framing.frame_len
            )));
        }
        Ok(FramePlan { framing, window: WindowKind::Hann.coefficients(framing.frame_len), fft })
    }

    /// A bank of `n_filters` Mel filters over this plan's power bins,
    /// spanning `low_hz` to `high_hz` (0 or below: Nyquist).
    fn filterbank(
        &self,
        n_filters: usize,
        sample_rate_hz: u32,
        low_hz: f32,
        high_hz: f32,
    ) -> Result<MelFilterbank> {
        let high = if high_hz <= 0.0 { sample_rate_hz as f32 / 2.0 } else { high_hz };
        MelFilterbank::new(n_filters, self.fft.len(), sample_rate_hz, low_hz, high)
    }

    /// Features one frame yields under `stages`.
    fn width(&self, stages: &Stages) -> usize {
        match stages {
            Stages::LogPower => self.fft.len() / 2 + 1,
            Stages::LogMel(mel) => mel.len(),
            Stages::Cepstra(_, dct) => dct.n_out(),
        }
    }

    /// Fresh working buffers for [`FramePlan::column_into`].
    fn scratch(&self, stages: &Stages) -> ColumnScratch {
        ColumnScratch { fft: self.fft.scratch(), energies: vec![0.0; stages.filters()] }
    }

    /// The per-frame routine: appends the feature column of one
    /// already-windowed frame to `out`.
    fn column_into(
        &self,
        stages: &Stages,
        windowed: &[f32],
        scratch: &mut ColumnScratch,
        out: &mut Vec<f32>,
    ) {
        let power = self.fft.power(windowed, &mut scratch.fft);
        match stages {
            Stages::LogPower => out.extend(power.iter().map(|&p| log_clamped(p))),
            Stages::LogMel(mel) => {
                mel.apply_into(power, &mut scratch.energies);
                out.extend(scratch.energies.iter().map(|&e| log_clamped(e)));
            }
            Stages::Cepstra(mel, dct) => {
                mel.apply_into(power, &mut scratch.energies);
                for e in &mut scratch.energies {
                    *e = log_clamped(*e);
                }
                dct.apply_into(&scratch.energies, out);
            }
        }
    }

    /// Frames cut from `input_len` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputTooShort`] when not even one frame fits.
    fn frames(&self, input_len: usize) -> Result<usize> {
        match self.framing.frame_count(input_len) {
            0 => {
                Err(DspError::InputTooShort { required: self.framing.frame_len, actual: input_len })
            }
            frames => Ok(frames),
        }
    }

    /// Every frame's column of `input`, in order: frame by frame through
    /// [`FramePlan::column_into`] at [`F32Level::Baseline`], through the
    /// lane kernel at any wider level.
    fn process_at(&self, level: F32Level, stages: &Stages, input: &[f32]) -> Result<Vec<f32>> {
        let frame_len = self.framing.frame_len;
        let mut out = Vec::with_capacity(self.frames(input.len())? * self.width(stages));
        match level {
            F32Level::Baseline => {
                let mut scratch = self.scratch(stages);
                let mut windowed = vec![0.0; frame_len];
                for start in self.framing.offsets(input.len()) {
                    apply_window(&input[start..start + frame_len], &self.window, &mut windowed);
                    self.column_into(stages, &windowed, &mut scratch, &mut out);
                }
            }
            wide => wide.run(FrameLanes { plan: self, stages, input, out: &mut out }),
        }
        Ok(out)
    }
}

/// [`FramePlan::process_at`]'s body at a wide level: [`LANES`] frames per
/// pass, frame `first + l` in lane `l`, in one set of lane buffers per
/// call. A last pass with fewer live frames fills its spare lanes with a
/// silent frame and appends only the live lanes' columns.
struct FrameLanes<'a> {
    plan: &'a FramePlan,
    stages: &'a Stages,
    input: &'a [f32],
    out: &'a mut Vec<f32>,
}

impl F32Kernel for FrameLanes<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let FrameLanes { plan, stages, input, out } = self;
        let Framing { frame_len, stride } = plan.framing;
        let mut fft = plan.fft.lane_scratch();
        let coefficients = if let Stages::Cepstra(_, dct) = stages { dct.n_out() } else { 0 };
        let mut energies = vec![[0.0; LANES]; stages.filters()];
        let mut cepstra = vec![[0.0; LANES]; coefficients];
        let silence = vec![0.0; frame_len];
        let frames = plan.framing.frame_count(input.len());
        for first in (0..frames).step_by(LANES) {
            let live = (frames - first).min(LANES);
            let lanes: [&[f32]; LANES] = std::array::from_fn(|l| {
                if l < live {
                    let start = (first + l) * stride;
                    &input[start..start + frame_len]
                } else {
                    &silence
                }
            });
            let power = plan.fft.power_lanes(&lanes, &plan.window, &mut fft);
            let logs = match stages {
                Stages::LogPower => power,
                Stages::LogMel(mel) | Stages::Cepstra(mel, _) => {
                    mel.apply_lanes(power, &mut energies);
                    &mut energies[..]
                }
            };
            for v in logs.iter_mut() {
                for v in &mut v[..live] {
                    *v = log_clamped(*v);
                }
            }
            let columns = match stages {
                Stages::Cepstra(_, dct) => {
                    dct.apply_lanes(logs, &mut cepstra);
                    &cepstra[..]
                }
                _ => logs,
            };
            for l in 0..live {
                out.extend(columns.iter().map(|c| c[l]));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Framed audio: MFE, MFCC, Spectrogram
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

/// The framed audio blocks: framing → Hann window → power FFT, then
///
/// * MFE — triangular Mel filters → log;
/// * MFCC — MFE over 20 Hz–Nyquist, then a DCT-II per frame;
/// * Spectrogram — log of every power bin, for non-voice audio where the
///   Mel warp would discard useful high-frequency detail.
#[derive(Debug, Clone)]
pub struct FramedBlock {
    config: DspConfig,
    plan: FramePlan,
    stages: Stages,
}

impl FramedBlock {
    /// Builds the block an MFE, MFCC or Spectrogram config describes,
    /// validating every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for any other config (it has no
    /// frames), zero-length frames, frames or FFTs longer than
    /// [`crate::fft::MAX_FFT_LEN`], an FFT shorter than the frame, an
    /// inverted or NaN frequency range, more filters than the spectrum
    /// has bins, or more cepstral coefficients than Mel filters, and
    /// [`DspError::FftLengthNotPowerOfTwo`] for a Spectrogram FFT length
    /// that is not a power of two.
    pub fn new(config: &DspConfig) -> Result<FramedBlock> {
        let (plan, stages) = match config {
            DspConfig::Mfe(c) => {
                let plan = FramePlan::new(c.frame_s, c.stride_s, c.sample_rate_hz, None)?;
                let mel = plan.filterbank(c.n_filters, c.sample_rate_hz, c.low_hz, c.high_hz)?;
                (plan, Stages::LogMel(mel))
            }
            DspConfig::Mfcc(c) => {
                if c.n_coefficients == 0 || c.n_coefficients > c.n_filters {
                    return Err(DspError::InvalidConfig(format!(
                        "n_coefficients {} must be in 1..={}",
                        c.n_coefficients, c.n_filters
                    )));
                }
                let plan = FramePlan::new(c.frame_s, c.stride_s, c.sample_rate_hz, None)?;
                let mel = plan.filterbank(c.n_filters, c.sample_rate_hz, 20.0, 0.0)?;
                (plan, Stages::Cepstra(mel, Dct2::new(c.n_filters, c.n_coefficients)))
            }
            DspConfig::Spectrogram(c) => {
                let plan =
                    FramePlan::new(c.frame_s, c.stride_s, c.sample_rate_hz, Some(c.fft_len))?;
                (plan, Stages::LogPower)
            }
            other => {
                return Err(DspError::InvalidConfig(format!(
                    "{} is not a framed audio block",
                    other.name()
                )))
            }
        };
        Ok(FramedBlock { config: config.clone(), plan, stages })
    }

    /// The frame layout this block cuts its input into.
    pub fn framing(&self) -> Framing {
        self.plan.framing
    }

    /// Features each frame yields: Mel filters (MFE), cepstral
    /// coefficients (MFCC) or power bins (Spectrogram).
    pub fn features_per_frame(&self) -> usize {
        self.plan.width(&self.stages)
    }

    /// One feature column from an already-windowed frame, in fresh buffers.
    ///
    /// This runs the block's single per-frame routine, the one
    /// [`DspBlock::process`] loops over at [`F32Level::Baseline`] and the
    /// incremental [`crate::streaming::StreamingExtractor`] runs on each
    /// frame, which is what makes streaming features bitwise-equal to
    /// batch recomputation: both paths run the very same instructions on
    /// the very same windowed samples. The wide `process` levels are
    /// tested bitwise against it.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputLengthMismatch`] unless `windowed` is
    /// exactly one frame long.
    pub fn frame_column(&self, windowed: &[f32]) -> Result<Vec<f32>> {
        if windowed.len() != self.plan.framing.frame_len {
            return Err(DspError::InputLengthMismatch {
                expected: self.plan.framing.frame_len,
                actual: windowed.len(),
            });
        }
        let mut column = Vec::with_capacity(self.features_per_frame());
        self.plan.column_into(&self.stages, windowed, &mut self.scratch(), &mut column);
        Ok(column)
    }

    /// Fresh working buffers for [`FramedBlock::push_column`].
    pub(crate) fn scratch(&self) -> ColumnScratch {
        self.plan.scratch(&self.stages)
    }

    /// Multiplies one raw frame by the Hann table into `windowed`, as
    /// `process` at [`F32Level::Baseline`] does, and appends its column to
    /// `out` through the per-frame routine.
    pub(crate) fn push_column(
        &self,
        frame: &[f32],
        windowed: &mut [f32],
        scratch: &mut ColumnScratch,
        out: &mut Vec<f32>,
    ) {
        apply_window(frame, &self.plan.window, windowed);
        self.plan.column_into(&self.stages, windowed, scratch, out);
    }

    /// [`DspBlock::process`] at `level` (which `process` takes from
    /// [`f32_level`]): every level gives the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputTooShort`] when not even one frame fits.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `level`.
    pub fn process_at(&self, level: F32Level, input: &[f32]) -> Result<Vec<f32>> {
        self.plan.process_at(level, &self.stages, input)
    }
}

impl DspBlock for FramedBlock {
    fn name(&self) -> &str {
        self.config.name()
    }

    fn output_len(&self, input_len: usize) -> Result<usize> {
        Ok(self.plan.frames(input_len)? * self.features_per_frame())
    }

    fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
        Ok((self.plan.frames(input_len)?, self.features_per_frame(), 1))
    }

    fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
        self.process_at(f32_level(), input)
    }

    fn cost(&self, input_len: usize) -> Result<DspCost> {
        let frames = self.plan.frames(input_len)?;
        let frame_len = self.plan.framing.frame_len;
        let fft_len = self.plan.fft.len();
        let bins = fft_len / 2 + 1;
        // power spectrum, filterbank and log; the power spectrum's buffer
        let mfe = |mel: &MelFilterbank| {
            (bins as u64 * 3 + mel.macs() * 2 + mel.len() as u64 * 8, bins * 4)
        };
        let (stage_flops, stage_bytes) = match &self.stages {
            Stages::LogPower => (bins as u64 * 11, 0), // power + log
            Stages::LogMel(mel) => mfe(mel),
            Stages::Cepstra(mel, dct) => {
                // MFE's cost plus the DCT and its input buffer
                let (flops, bytes) = mfe(mel);
                (flops + dct.n_out() as u64 * mel.len() as u64 * 2, bytes + mel.len() * 4)
            }
        };
        Ok(DspCost {
            flops: frames as u64 * (frame_len as u64 + fft_flops(fft_len) + stage_flops),
            scratch_bytes: fft_len * 8 + frame_len * 4 + stage_bytes,
            output_features: frames * self.features_per_frame(),
        })
    }

    fn config(&self) -> DspConfig {
        self.config.clone()
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
    use ei_tensor::simd::supported_f32_levels;
    use proptest::prelude::*;

    fn tone(freq: f32, seconds: f32, rate: u32) -> Vec<f32> {
        let n = (seconds * rate as f32) as usize;
        (0..n).map(|t| (2.0 * std::f32::consts::PI * freq * t as f32 / rate as f32).sin()).collect()
    }

    // --- MFE ---

    #[test]
    fn mfe_output_dimensions() {
        let block = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
        // 16 000 samples, 320-frame, 160-stride -> 99 frames x 40 filters
        assert_eq!(block.output_len(16_000).unwrap(), 99 * 40);
        assert_eq!(block.output_shape(16_000).unwrap(), (99, 40, 1));
        let features = block.process(&vec![0.0; 16_000]).unwrap();
        assert_eq!(features.len(), 99 * 40);
    }

    #[test]
    fn mfe_silence_hits_log_floor() {
        let block = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
        let features = block.process(&vec![0.0; 16_000]).unwrap();
        assert!(features.iter().all(|&f| (f - LOG_FLOOR.ln()).abs() < 1e-3));
    }

    #[test]
    fn saturated_frames_read_loud_not_silent() {
        // ±1e20 at Nyquist: the top power bins square past f32::MAX to inf
        let loud: Vec<f32> = (0..16_000).map(|i| if i % 2 == 0 { 1e20 } else { -1e20 }).collect();
        let top = f32::MAX.ln();
        let mfe = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
        let features = mfe.process(&loud).unwrap();
        assert!(features.iter().all(|f| f.is_finite()));
        assert!(features.iter().all(|&f| f > 0.0), "no filter reads as silence");
        for frame in features.chunks(40) {
            assert_eq!(frame[39], top, "the filter over Nyquist saturates at ln f32::MAX");
        }
        let spectrogram =
            FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig::default())).unwrap();
        let bins = spectrogram.process(&loud).unwrap();
        assert!(bins.iter().all(|b| b.is_finite()));
        assert!(bins.chunks(257).all(|frame| frame[256] == top));
        let mfcc = FramedBlock::new(&DspConfig::Mfcc(MfccConfig::default())).unwrap();
        assert!(mfcc.process(&loud).unwrap().iter().all(|c| c.is_finite()));
        // finite energies are untouched by the clamp
        assert_eq!(log_clamped(2.5), 2.5f32.ln());
        assert_eq!(log_clamped(0.0), LOG_FLOOR.ln());
        assert_eq!(log_clamped(f32::NAN), LOG_FLOOR.ln());
        assert_eq!(log_clamped(f32::INFINITY), top);
    }

    #[test]
    fn mfe_tone_energy_concentrated() {
        let block = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
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
        let block = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
        assert!(block.process(&[0.0; 100]).is_err());
        assert!(block.cost(100).is_err());
    }

    #[test]
    fn mfe_cost_scales_with_length() {
        let block = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
        let c1 = block.cost(16_000).unwrap();
        let c2 = block.cost(32_000).unwrap();
        assert!(c2.flops > c1.flops * 3 / 2);
        assert_eq!(c1.output_features, 99 * 40);
    }

    // --- Spectrogram ---

    #[test]
    fn spectrogram_output_dimensions() {
        let block =
            FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig::default())).unwrap();
        // 99 frames x 257 bins
        assert_eq!(block.output_shape(16_000).unwrap(), (99, 257, 1));
        let features = block.process(&vec![0.0; 16_000]).unwrap();
        assert_eq!(features.len(), 99 * 257);
        assert!(features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn spectrogram_tone_peaks_at_right_bin() {
        let block =
            FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig::default())).unwrap();
        let audio = tone(1000.0, 1.0, 16_000);
        let features = block.process(&audio).unwrap();
        // 1 kHz at 16 kHz / 512-point fft -> bin 32
        let frame = &features[..257];
        let peak = frame.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert!(peak.abs_diff(32) <= 1, "peak bin {peak}");
    }

    #[test]
    fn spectrogram_validation() {
        assert!(FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig {
            fft_len: 100,
            ..Default::default()
        }))
        .is_err());
        assert!(
            FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig {
                fft_len: 128,
                ..Default::default()
            }))
            .is_err(),
            "fft shorter than frame"
        );
        let block =
            FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig::default())).unwrap();
        assert!(block.process(&[0.0; 10]).is_err());
        assert!(block.cost(10).is_err());
        assert!(block.cost(16_000).unwrap().flops > 0);
    }

    // --- MFCC ---

    #[test]
    fn mfcc_output_dimensions() {
        let block = FramedBlock::new(&DspConfig::Mfcc(MfccConfig::default())).unwrap();
        assert_eq!(block.output_shape(16_000).unwrap(), (99, 13, 1));
        let features = block.process(&tone(440.0, 1.0, 16_000)).unwrap();
        assert_eq!(features.len(), 99 * 13);
        assert!(features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn mfcc_rejects_more_coeffs_than_filters() {
        let cfg = MfccConfig { n_coefficients: 64, n_filters: 32, ..MfccConfig::default() };
        assert!(FramedBlock::new(&DspConfig::Mfcc(cfg)).is_err());
    }

    #[test]
    fn mfcc_costs_more_than_mfe_with_same_filters() {
        let mfcc = FramedBlock::new(&DspConfig::Mfcc(MfccConfig::default())).unwrap();
        let mfe =
            FramedBlock::new(&DspConfig::Mfe(MfeConfig { n_filters: 32, ..MfeConfig::default() }))
                .unwrap();
        assert!(mfcc.cost(16_000).unwrap().flops > mfe.cost(16_000).unwrap().flops);
    }

    #[test]
    fn mfcc_distinguishes_tones() {
        let block = FramedBlock::new(&DspConfig::Mfcc(MfccConfig::default())).unwrap();
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

    /// `frame_column`'s routine over every windowed frame of `input`,
    /// concatenated: the oracle of every `process` level.
    fn per_frame_oracle(block: &FramedBlock, input: &[f32]) -> Vec<u32> {
        crate::window::windowed_frames(input, block.framing(), WindowKind::Hann)
            .unwrap()
            .iter()
            .flat_map(|frame| block.frame_column(frame).unwrap())
            .map(f32::to_bits)
            .collect()
    }

    /// A signal of exactly `frames` frames plus a few spare samples, with
    /// `special` written at every `every`-th sample; `every == 0` is
    /// silence. Noise from a 64-bit LCG elsewhere.
    fn edge_signal(framing: Framing, frames: usize, special: f32, every: usize) -> Vec<f32> {
        let len = framing.frame_len + (frames - 1) * framing.stride + framing.stride / 3;
        let mut state = (frames as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match every {
                    0 => 0.0,
                    _ if i % every == every / 2 => special,
                    _ => ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.8,
                }
            })
            .collect()
    }

    #[test]
    fn every_level_is_bitwise_equal_to_the_per_frame_routine() {
        let kws = MfccConfig { n_coefficients: 10, n_filters: 40, ..MfccConfig::default() };
        let mfcc = FramedBlock::new(&DspConfig::Mfcc(kws)).unwrap();
        let mfe = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
        let spectrogram =
            FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig::default())).unwrap();
        // an FFT twice the frame: half of every lane's load is padding
        let padded = FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig {
            fft_len: 1024,
            ..Default::default()
        }))
        .unwrap();
        let blocks = [
            ("mfcc", mfcc),
            ("mfe", mfe),
            ("spectrogram", spectrogram),
            ("1024-point spectrogram", padded),
        ];
        let specials = [
            ("silence", 0.0, 0),
            ("noise with +0.0", 0.0, 5),
            ("noise with -0.0", -0.0, 3),
            ("one NaN", f32::NAN, 1_000),
            ("+inf", f32::INFINITY, 700),
            ("-inf", f32::NEG_INFINITY, 900),
            ("f32::MAX", f32::MAX, 450),
        ];
        for (name, block) in blocks {
            let FramedBlock { plan, stages, .. } = &block;
            for frames in 1..=17 {
                for (what, special, every) in specials {
                    let input = edge_signal(block.framing(), frames, special, every);
                    let want = per_frame_oracle(&block, &input);
                    assert_eq!(want.len(), frames * block.features_per_frame());
                    for level in supported_f32_levels() {
                        let got = block.process_at(level, &input).unwrap();
                        let got: Vec<u32> = got.into_iter().map(f32::to_bits).collect();
                        assert!(got == want, "{name}, {frames} frames of {what} at {level:?}");
                    }
                    // the lane body compiled without a target feature, so a
                    // host without AVX2 still runs it
                    let mut lanes = Vec::new();
                    FrameLanes { plan, stages, input: &input, out: &mut lanes }.run();
                    let lanes: Vec<u32> = lanes.into_iter().map(f32::to_bits).collect();
                    assert!(lanes == want, "{name}, {frames} frames of {what}, baseline lanes");
                }
            }
        }
    }

    /// A one-second 16 kHz keyword-shaped clip: a detuned three-harmonic
    /// voice with an onset, a decaying envelope and tremolo, plus uniform
    /// noise, all drawn from `seed` (a 64-bit LCG, top 24 bits per draw).
    fn keyword_clip(class: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ class as u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let f0 = (220.0 + 180.0 * class as f32) * (0.97 + 0.06 * unit());
        let onset = 0.05 + 0.15 * unit();
        let amp = 0.5 + 0.4 * unit();
        (0..16_000)
            .map(|i| {
                let t = i as f32 / 16_000.0;
                let envelope = if t < onset {
                    0.0
                } else {
                    (1.0 - (t - onset)) * (1.0 + 0.5 * (2.0 * std::f32::consts::PI * 5.0 * t).sin())
                };
                let w = 2.0 * std::f32::consts::PI * f0 * t;
                let tone = w.sin() + 0.5 * (2.0 * w).sin() + 0.3 * (3.0 * w).sin();
                (amp * envelope * tone * 0.4 + 0.02 * (2.0 * unit() - 1.0)).clamp(-1.0, 1.0)
            })
            .collect()
    }

    /// FNV-1a over the length and bits of each output.
    fn features_hash(outputs: impl IntoIterator<Item = Vec<f32>>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for features in outputs {
            let len = (features.len() as u64).to_le_bytes();
            for byte in
                len.into_iter().chain(features.iter().flat_map(|v| v.to_bits().to_le_bytes()))
            {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn audio_feature_bits_are_pinned() {
        // captured before the front-end ran eight frames in lanes; a change
        // that moves one feature bit of the audio blocks, by `process` or
        // at any f32 level of `process_at`, fails here
        let clips: Vec<Vec<f32>> = (0..4).map(|i| keyword_clip(i % 3, 40 + i as u64)).collect();
        let mfcc = FramedBlock::new(&DspConfig::Mfcc(MfccConfig::default())).unwrap();
        let mfe = FramedBlock::new(&DspConfig::Mfe(MfeConfig::default())).unwrap();
        let spectrogram =
            FramedBlock::new(&DspConfig::Spectrogram(SpectrogramConfig::default())).unwrap();
        let cases = [
            ("mfcc", mfcc, 0x4625_4906_7c52_14b4),
            ("mfe", mfe, 0xe8d4_3fc9_c0f6_9734),
            ("spectrogram", spectrogram, 0x00ac_5e73_1a3b_d573),
        ];
        let mut moved = Vec::new();
        for (name, block, want) in cases {
            let got = features_hash(clips.iter().map(|clip| block.process(clip).unwrap()));
            if got != want {
                moved.push(format!("{name} got {got:#018x}"));
            }
            for level in supported_f32_levels() {
                let got =
                    features_hash(clips.iter().map(|clip| block.process_at(level, clip).unwrap()));
                if got != want {
                    moved.push(format!("{name} at {level:?} got {got:#018x}"));
                }
            }
        }
        assert!(moved.is_empty(), "feature bits moved: {moved:?}");
    }

    proptest! {
        #[test]
        fn prop_mfe_features_finite(samples in proptest::collection::vec(-1.0f32..1.0, 640..2000)) {
            let block = FramedBlock::new(&DspConfig::Mfe(MfeConfig {
                n_filters: 20, ..MfeConfig::default()
            })).unwrap();
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
