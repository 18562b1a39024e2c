//! Probability-trace synthesis and construction from real classifiers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A per-window probability stream with ground-truth event positions.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityTrace {
    /// Probability of the target class for each classification window.
    pub probs: Vec<f32>,
    /// Window indices at which true events are centered.
    pub truth: Vec<usize>,
}

impl ProbabilityTrace {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }
}

/// Parameters for synthetic trace generation — the "synthetically
/// generated data" input mode of the calibration tool.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Total classification windows.
    pub windows: usize,
    /// Number of true events to embed.
    pub events: usize,
    /// Windows each event's probability bump spans.
    pub event_width: usize,
    /// Peak probability during an event (before noise).
    pub event_peak: f32,
    /// Background probability level (before noise).
    pub background: f32,
    /// Uniform noise amplitude added everywhere.
    pub noise: f32,
    /// Probability that a background window spikes (model false positives).
    pub spike_rate: f32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            windows: 600,
            events: 6,
            event_width: 4,
            event_peak: 0.92,
            background: 0.08,
            noise: 0.06,
            spike_rate: 0.01,
        }
    }
}

impl TraceConfig {
    /// Generates a deterministic trace.
    ///
    /// Events are spread evenly with jitter; each spans `event_width`
    /// windows with a triangular profile peaking at `event_peak`.
    ///
    /// # Panics
    ///
    /// Panics if `windows == 0` while `events > 0`.
    pub fn generate(&self, seed: u64) -> ProbabilityTrace {
        assert!(self.windows > 0 || self.events == 0, "cannot embed events in zero windows");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut probs: Vec<f32> = (0..self.windows)
            .map(|_| {
                let base = if rng.gen::<f32>() < self.spike_rate {
                    self.event_peak // a model false positive
                } else {
                    self.background
                };
                (base + rng.gen_range(-self.noise..=self.noise)).clamp(0.0, 1.0)
            })
            .collect();
        let mut truth = Vec::with_capacity(self.events);
        if self.events > 0 {
            let stride = self.windows / (self.events + 1);
            for e in 1..=self.events {
                let jitter = if stride > 4 {
                    rng.gen_range(0..stride / 4) as isize - (stride / 8) as isize
                } else {
                    0
                };
                let center =
                    ((e * stride) as isize + jitter).clamp(0, self.windows as isize - 1) as usize;
                truth.push(center);
                let half = (self.event_width / 2).max(1) as isize;
                for off in -half..=half {
                    let idx = center as isize + off;
                    if idx < 0 || idx as usize >= self.windows {
                        continue;
                    }
                    let falloff = 1.0 - (off.unsigned_abs() as f32 / (half as f32 + 1.0));
                    let p = self.event_peak * falloff.max(0.4)
                        + rng.gen_range(-self.noise..=self.noise);
                    probs[idx as usize] = p.clamp(0.0, 1.0);
                }
            }
        }
        truth.sort_unstable();
        ProbabilityTrace { probs, truth }
    }
}

/// Builds a trace by sliding a real classifier over a composed raw stream.
///
/// `stream` is the raw signal; `truth_sample_positions` the sample indices
/// where true events start; `window`/`stride` the classification geometry;
/// `classify` returns the target-class probability for one raw window. A
/// `stride` of 0 reads as 1.
///
/// This is the "user-supplied raw data along with the trained model" input
/// mode of the calibration tool.
pub fn trace_from_classifier<F>(
    stream: &[f32],
    truth_sample_positions: &[usize],
    window: usize,
    stride: usize,
    mut classify: F,
) -> ProbabilityTrace
where
    F: FnMut(&[f32]) -> f32,
{
    let stride = stride.max(1);
    let mut probs = Vec::new();
    let mut start = 0usize;
    while start + window <= stream.len() {
        probs.push(classify(&stream[start..start + window]));
        start += stride;
    }
    let truth = truth_sample_positions
        .iter()
        .filter(|&&p| p / stride < probs.len())
        .map(|&p| p / stride)
        .collect();
    ProbabilityTrace { probs, truth }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_deterministic() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.generate(1), cfg.generate(1));
        assert_ne!(cfg.generate(1), cfg.generate(2));
    }

    #[test]
    fn events_embedded_at_truth_positions() {
        let cfg = TraceConfig { noise: 0.0, spike_rate: 0.0, ..TraceConfig::default() };
        let trace = cfg.generate(3);
        assert_eq!(trace.truth.len(), 6);
        for &t in &trace.truth {
            assert!(trace.probs[t] > 0.8, "event at {t} has prob {}", trace.probs[t]);
        }
        // background stays low
        let background_windows = trace
            .probs
            .iter()
            .enumerate()
            .filter(|(i, _)| trace.truth.iter().all(|&t| i.abs_diff(t) > 5))
            .map(|(_, &p)| p);
        for p in background_windows {
            assert!(p < 0.2, "background prob {p}");
        }
    }

    #[test]
    fn zero_events_trace() {
        let cfg = TraceConfig { events: 0, spike_rate: 0.0, ..TraceConfig::default() };
        let trace = cfg.generate(1);
        assert!(trace.truth.is_empty());
        assert_eq!(trace.len(), 600);
    }

    #[test]
    fn classifier_trace_geometry() {
        // fake classifier: probability 1 when the window mean exceeds 0.5
        let mut stream = vec![0.0f32; 1000];
        for v in stream[400..500].iter_mut() {
            *v = 1.0;
        }
        let trace = trace_from_classifier(&stream, &[400], 100, 50, |w| {
            if w.iter().sum::<f32>() / w.len() as f32 > 0.5 {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(trace.len(), (1000 - 100) / 50 + 1);
        assert_eq!(trace.truth, vec![8]);
        assert!(trace.probs[8] > 0.5);
        assert!(trace.probs[0] < 0.5);
    }

    #[test]
    fn zero_stride_gives_the_stride_one_trace() {
        let stream: Vec<f32> = (0..40).map(|i| (i as f32 * 0.3).sin()).collect();
        let mean = |w: &[f32]| w.iter().sum::<f32>() / w.len() as f32;
        let zero = trace_from_classifier(&stream, &[5, 31, 39], 8, 0, mean);
        let one = trace_from_classifier(&stream, &[5, 31, 39], 8, 1, mean);
        assert_eq!(zero, one);
        assert_eq!(zero.len(), 33);
        assert_eq!(zero.truth, vec![5, 31]);
    }
}
