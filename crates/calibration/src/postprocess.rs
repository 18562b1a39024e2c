//! The streaming post-processing chain and its FAR/FRR metrics.

use std::collections::VecDeque;

/// Post-processing applied to the per-window probability of the target
/// class before declaring an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostProcessConfig {
    /// Moving-average length over consecutive window probabilities
    /// (1 disables smoothing).
    pub mean_filter: usize,
    /// Detection threshold on the smoothed probability.
    pub threshold: f32,
    /// Windows to suppress after a detection (debounce).
    pub suppression: usize,
}

impl Default for PostProcessConfig {
    fn default() -> Self {
        PostProcessConfig { mean_filter: 3, threshold: 0.8, suppression: 5 }
    }
}

impl PostProcessConfig {
    /// Clamps all fields into their valid domains (used after mutation).
    pub fn clamped(self) -> PostProcessConfig {
        PostProcessConfig {
            mean_filter: self.mean_filter.clamp(1, 32),
            threshold: self.threshold.clamp(0.05, 0.999),
            suppression: self.suppression.min(64),
        }
    }
}

/// Runs a [`PostProcessConfig`] over a probability stream, one window at
/// a time.
///
/// The same detector serves calibration and deployment: [`detect`] scores
/// a whole recorded trace for the genetic algorithm, and [`push`] takes a
/// live stream's probabilities as they arrive (for example each
/// `ei_stream::WindowVerdict`'s target-class probability). `detect` is a
/// fold of `push` over a fresh detector, so both fire on the same windows
/// with the same smoothed probabilities, bit for bit.
///
/// [`detect`]: EventDetector::detect
/// [`push`]: EventDetector::push
#[derive(Debug, Clone)]
pub struct EventDetector {
    config: PostProcessConfig,
    /// The last `mean_filter` probabilities, oldest first; suppressed
    /// windows are recorded too.
    recent: VecDeque<f32>,
    /// Windows still suppressed after the last event.
    suppressed: usize,
}

impl EventDetector {
    /// Creates a detector (config is clamped to valid ranges).
    pub fn new(config: PostProcessConfig) -> EventDetector {
        let config = config.clamped();
        EventDetector { config, recent: VecDeque::with_capacity(config.mean_filter), suppressed: 0 }
    }

    /// The active configuration.
    pub fn config(&self) -> PostProcessConfig {
        self.config
    }

    /// Takes the next window's probability; returns the smoothed
    /// probability when an event fires on this window.
    pub fn push(&mut self, prob: f32) -> Option<f32> {
        if self.recent.len() == self.config.mean_filter {
            self.recent.pop_front();
        }
        self.recent.push_back(prob);
        if self.suppressed > 0 {
            self.suppressed -= 1;
            return None;
        }
        // summed oldest first, as over a slice of the trace, so the mean
        // has the same bits whichever way the windows arrived
        let mean = self.recent.iter().sum::<f32>() / self.recent.len() as f32;
        if mean >= self.config.threshold {
            self.suppressed = self.config.suppression;
            Some(mean)
        } else {
            None
        }
    }

    /// Returns the window indices at which events fire, from a fresh
    /// detector with this configuration.
    pub fn detect(&self, probs: &[f32]) -> Vec<usize> {
        let mut live = EventDetector::new(self.config);
        probs.iter().enumerate().filter_map(|(i, &p)| live.push(p).map(|_| i)).collect()
    }
}

/// FAR/FRR metrics of one detector run against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectionMetrics {
    /// True events detected.
    pub hits: usize,
    /// True events missed.
    pub misses: usize,
    /// Detections with no matching true event.
    pub false_accepts: usize,
    /// False-acceptance rate: false accepts per 1000 windows.
    pub far_per_1k: f32,
    /// False-rejection rate: fraction of true events missed (0–1).
    pub frr: f32,
}

/// Scores detections against ground-truth event positions.
///
/// A detection within `tolerance` windows of a true event counts as a hit
/// for that event (each event matches at most one detection; extra
/// detections are false accepts).
pub fn score_detections(
    detections: &[usize],
    truth: &[usize],
    tolerance: usize,
    total_windows: usize,
) -> DetectionMetrics {
    let mut matched_truth = vec![false; truth.len()];
    let mut false_accepts = 0usize;
    for &d in detections {
        let hit = truth
            .iter()
            .enumerate()
            .find(|(ti, &t)| !matched_truth[*ti] && d.abs_diff(t) <= tolerance);
        match hit {
            Some((ti, _)) => matched_truth[ti] = true,
            None => false_accepts += 1,
        }
    }
    let hits = matched_truth.iter().filter(|&&m| m).count();
    let misses = truth.len() - hits;
    DetectionMetrics {
        hits,
        misses,
        false_accepts,
        far_per_1k: if total_windows == 0 {
            0.0
        } else {
            false_accepts as f32 * 1000.0 / total_windows as f32
        },
        frr: if truth.is_empty() { 0.0 } else { misses as f32 / truth.len() as f32 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Detection as a slice computation over the whole trace: the mean of
    /// up to `mean_filter` probabilities ending at each window, skipping
    /// `suppression` windows after each event. Returns each event's window
    /// and the bits of its smoothed probability.
    fn slice_detect(config: PostProcessConfig, probs: &[f32]) -> Vec<(usize, u32)> {
        let mut events = Vec::new();
        let mut suppressed_until = 0usize;
        for i in 0..probs.len() {
            if i < suppressed_until {
                continue;
            }
            let window = &probs[(i + 1).saturating_sub(config.mean_filter)..=i];
            let mean = window.iter().sum::<f32>() / window.len() as f32;
            if mean >= config.threshold {
                events.push((i, mean.to_bits()));
                suppressed_until = i + 1 + config.suppression;
            }
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn push_fires_where_detect_does_on_every_prefix(
            mean_filter in 0usize..=40,
            threshold in -0.5f32..1.5,
            suppression in 0usize..=80,
            // a draw tagged 0 is the threshold itself
            draws in proptest::collection::vec((0u8..4, 0.0f32..1.0), 0..120),
        ) {
            let config = PostProcessConfig { mean_filter, threshold, suppression };
            let at = config.clamped().threshold;
            let probs: Vec<f32> =
                draws.iter().map(|&(tag, p)| if tag == 0 { at } else { p }).collect();
            let batch = EventDetector::new(config);
            let mut live = EventDetector::new(config);
            let mut fired = Vec::new();
            for (i, &p) in probs.iter().enumerate() {
                if let Some(mean) = live.push(p) {
                    fired.push((i, mean.to_bits()));
                }
                let prefix = &probs[..=i];
                let expected = slice_detect(config.clamped(), prefix);
                prop_assert_eq!(&fired, &expected, "live events on prefix {}", i + 1);
                let indices: Vec<usize> = expected.iter().map(|&(w, _)| w).collect();
                prop_assert_eq!(batch.detect(prefix), indices, "detect on prefix {}", i + 1);
            }
        }
    }

    #[test]
    fn threshold_controls_firing() {
        let probs = vec![0.1, 0.2, 0.95, 0.1, 0.1];
        let strict = EventDetector::new(PostProcessConfig {
            mean_filter: 1,
            threshold: 0.9,
            suppression: 0,
        });
        assert_eq!(strict.detect(&probs), vec![2]);
        let lax = EventDetector::new(PostProcessConfig {
            mean_filter: 1,
            threshold: 0.15,
            suppression: 0,
        });
        assert_eq!(lax.detect(&probs), vec![1, 2], "0.2 and 0.95 clear the 0.15 threshold");
    }

    #[test]
    fn mean_filter_suppresses_single_spikes() {
        // one-window spike in noise
        let probs = vec![0.1, 0.1, 0.99, 0.1, 0.1, 0.1];
        let smoothed = EventDetector::new(PostProcessConfig {
            mean_filter: 3,
            threshold: 0.6,
            suppression: 0,
        });
        assert!(smoothed.detect(&probs).is_empty(), "spike must be averaged away");
        // a sustained event survives smoothing
        let sustained = vec![0.1, 0.9, 0.95, 0.9, 0.1];
        assert!(!smoothed.detect(&sustained).is_empty());
    }

    #[test]
    fn suppression_debounces() {
        let probs = vec![0.95; 10];
        let detector = EventDetector::new(PostProcessConfig {
            mean_filter: 1,
            threshold: 0.5,
            suppression: 4,
        });
        // fires at 0, suppressed until 5, fires at 5
        assert_eq!(detector.detect(&probs), vec![0, 5]);
    }

    #[test]
    fn clamping_repairs_degenerate_configs() {
        let cfg = PostProcessConfig { mean_filter: 0, threshold: 7.0, suppression: 1000 }.clamped();
        assert_eq!(cfg.mean_filter, 1);
        assert!(cfg.threshold <= 0.999);
        assert_eq!(cfg.suppression, 64);
    }

    #[test]
    fn scoring_hits_and_false_accepts() {
        let metrics = score_detections(&[10, 50, 80], &[11, 48], 3, 1000);
        assert_eq!(metrics.hits, 2);
        assert_eq!(metrics.misses, 0);
        assert_eq!(metrics.false_accepts, 1);
        assert!((metrics.far_per_1k - 1.0).abs() < 1e-6);
        assert_eq!(metrics.frr, 0.0);
    }

    #[test]
    fn scoring_counts_misses() {
        let metrics = score_detections(&[], &[5, 10], 2, 100);
        assert_eq!(metrics.misses, 2);
        assert_eq!(metrics.frr, 1.0);
        assert_eq!(metrics.false_accepts, 0);
    }

    #[test]
    fn one_event_matches_one_detection() {
        // two detections near the same truth: second is a false accept
        let metrics = score_detections(&[10, 12], &[11], 3, 100);
        assert_eq!(metrics.hits, 1);
        assert_eq!(metrics.false_accepts, 1);
    }

    #[test]
    fn empty_cases() {
        let metrics = score_detections(&[], &[], 2, 0);
        assert_eq!(metrics.far_per_1k, 0.0);
        assert_eq!(metrics.frr, 0.0);
    }
}
