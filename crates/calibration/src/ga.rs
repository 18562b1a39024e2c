//! The genetic algorithm that searches post-processing configurations.

use crate::postprocess::{score_detections, DetectionMetrics, EventDetector, PostProcessConfig};
use crate::stream::ProbabilityTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Genetic-algorithm hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f32,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Window tolerance when matching detections to truth.
    pub match_tolerance: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 24,
            generations: 20,
            mutation_rate: 0.3,
            tournament: 3,
            match_tolerance: 4,
            seed: 11,
        }
    }
}

/// A configuration with its measured trade-off point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredConfig {
    /// The post-processing configuration.
    pub config: PostProcessConfig,
    /// Aggregate metrics over all calibration traces.
    pub metrics: DetectionMetrics,
    /// Scalar fitness (higher is better) under the weighting it was
    /// evolved with.
    pub fitness: f32,
}

/// Evaluates one configuration over all traces.
pub fn evaluate(
    config: PostProcessConfig,
    traces: &[ProbabilityTrace],
    tolerance: usize,
) -> DetectionMetrics {
    let detector = EventDetector::new(config);
    let mut agg = DetectionMetrics::default();
    let mut total_windows = 0usize;
    let mut total_truth = 0usize;
    for trace in traces {
        let detections = detector.detect(&trace.probs);
        let m = score_detections(&detections, &trace.truth, tolerance, trace.len());
        agg.hits += m.hits;
        agg.misses += m.misses;
        agg.false_accepts += m.false_accepts;
        total_windows += trace.len();
        total_truth += trace.truth.len();
    }
    agg.far_per_1k = if total_windows == 0 {
        0.0
    } else {
        agg.false_accepts as f32 * 1000.0 / total_windows as f32
    };
    agg.frr = if total_truth == 0 { 0.0 } else { agg.misses as f32 / total_truth as f32 };
    agg
}

/// Scalar fitness: negative weighted cost of FAR and FRR.
fn fitness(metrics: DetectionMetrics, far_weight: f32, frr_weight: f32) -> f32 {
    -(far_weight * metrics.far_per_1k + frr_weight * metrics.frr * 100.0)
}

fn random_config(rng: &mut StdRng) -> PostProcessConfig {
    PostProcessConfig {
        mean_filter: rng.gen_range(1..=8),
        threshold: rng.gen_range(0.2f32..0.95),
        suppression: rng.gen_range(0..=16),
    }
}

fn mutate(config: PostProcessConfig, rate: f32, rng: &mut StdRng) -> PostProcessConfig {
    let mut c = config;
    if rng.gen::<f32>() < rate {
        c.mean_filter = (c.mean_filter as i64 + rng.gen_range(-2i64..=2)).max(1) as usize;
    }
    if rng.gen::<f32>() < rate {
        c.threshold += rng.gen_range(-0.1f32..=0.1);
    }
    if rng.gen::<f32>() < rate {
        c.suppression = (c.suppression as i64 + rng.gen_range(-3i64..=3)).max(0) as usize;
    }
    c.clamped()
}

fn crossover(a: PostProcessConfig, b: PostProcessConfig, rng: &mut StdRng) -> PostProcessConfig {
    PostProcessConfig {
        mean_filter: if rng.gen() { a.mean_filter } else { b.mean_filter },
        threshold: if rng.gen() { a.threshold } else { b.threshold },
        suppression: if rng.gen() { a.suppression } else { b.suppression },
    }
}

/// Runs the GA once with a fixed FAR/FRR weighting, returning the best
/// configuration found and the full evaluation archive.
fn evolve(
    traces: &[ProbabilityTrace],
    config: &GaConfig,
    far_weight: f32,
    frr_weight: f32,
    seed: u64,
    archive: &mut Vec<ScoredConfig>,
) -> ScoredConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut population: Vec<PostProcessConfig> =
        (0..config.population).map(|_| random_config(&mut rng)).collect();
    let score = |c: PostProcessConfig, archive: &mut Vec<ScoredConfig>| -> ScoredConfig {
        let metrics = evaluate(c, traces, config.match_tolerance);
        let scored =
            ScoredConfig { config: c, metrics, fitness: fitness(metrics, far_weight, frr_weight) };
        archive.push(scored.clone());
        scored
    };
    let mut best = score(population[0], archive);
    for _gen in 0..config.generations {
        let scored: Vec<ScoredConfig> = population.iter().map(|&c| score(c, archive)).collect();
        for s in &scored {
            if s.fitness > best.fitness {
                best = s.clone();
            }
        }
        // tournament selection + crossover + mutation, with elitism
        let mut next = vec![best.config];
        while next.len() < config.population {
            let pick = |rng: &mut StdRng| -> PostProcessConfig {
                let mut champion = &scored[rng.gen_range(0..scored.len())];
                for _ in 1..config.tournament {
                    let challenger = &scored[rng.gen_range(0..scored.len())];
                    if challenger.fitness > champion.fitness {
                        champion = challenger;
                    }
                }
                champion.config
            };
            let a = pick(&mut rng);
            let b = pick(&mut rng);
            next.push(mutate(crossover(a, b, &mut rng), config.mutation_rate, &mut rng));
        }
        population = next;
    }
    best
}

/// Calibrates post-processing for a set of traces: evolves configurations
/// under several FAR/FRR weightings and returns the Pareto-optimal
/// suggestions (sorted from lowest FAR to lowest FRR) — the list of
/// configurations the tool presents to the user.
pub fn calibrate(traces: &[ProbabilityTrace], config: &GaConfig) -> Vec<ScoredConfig> {
    let mut archive: Vec<ScoredConfig> = Vec::new();
    // sweep the trade-off: FAR-averse ... balanced ... FRR-averse
    let weightings = [(10.0, 1.0), (3.0, 1.0), (1.0, 1.0), (1.0, 3.0), (1.0, 10.0)];
    for (i, &(fw, rw)) in weightings.iter().enumerate() {
        evolve(traces, config, fw, rw, config.seed.wrapping_add(i as u64), &mut archive);
    }
    // pareto-filter the archive on (far, frr)
    let mut front: Vec<ScoredConfig> = Vec::new();
    for s in &archive {
        let dominated = archive.iter().any(|o| {
            (o.metrics.far_per_1k < s.metrics.far_per_1k && o.metrics.frr <= s.metrics.frr)
                || (o.metrics.far_per_1k <= s.metrics.far_per_1k && o.metrics.frr < s.metrics.frr)
        });
        if !dominated
            && !front.iter().any(|f| {
                f.metrics.far_per_1k == s.metrics.far_per_1k && f.metrics.frr == s.metrics.frr
            })
        {
            front.push(s.clone());
        }
    }
    // both rates are finite and never -0.0 (their divisions are guarded),
    // so the total order is the numeric one
    front.sort_by(|a, b| {
        a.metrics
            .far_per_1k
            .total_cmp(&b.metrics.far_per_1k)
            .then(a.metrics.frr.total_cmp(&b.metrics.frr))
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceConfig;

    fn traces() -> Vec<ProbabilityTrace> {
        (0..3).map(|s| TraceConfig::default().generate(s)).collect()
    }

    #[test]
    fn evaluate_aggregates_across_traces() {
        let ts = traces();
        let metrics = evaluate(PostProcessConfig::default(), &ts, 4);
        let total_truth: usize = ts.iter().map(|t| t.truth.len()).sum();
        assert_eq!(metrics.hits + metrics.misses, total_truth);
    }

    #[test]
    fn degenerate_thresholds_behave() {
        let ts = traces();
        // threshold ~0: everything fires -> no misses, many false accepts
        let lax =
            evaluate(PostProcessConfig { mean_filter: 1, threshold: 0.05, suppression: 0 }, &ts, 4);
        assert_eq!(lax.frr, 0.0);
        assert!(lax.far_per_1k > 50.0);
        // threshold ~1: nothing fires -> FRR = 1, FAR = 0
        let strict = evaluate(
            PostProcessConfig { mean_filter: 1, threshold: 0.999, suppression: 0 },
            &ts,
            4,
        );
        assert_eq!(strict.frr, 1.0);
        assert_eq!(strict.far_per_1k, 0.0);
    }

    #[test]
    fn calibrate_returns_pareto_front() {
        // on the default traces one configuration dominates every other,
        // so the front would have one member and the loops compare nothing
        let noisy = TraceConfig {
            noise: 0.25,
            spike_rate: 0.05,
            event_peak: 0.7,
            background: 0.2,
            ..TraceConfig::default()
        };
        let ts: Vec<ProbabilityTrace> = (0..3).map(|s| noisy.generate(s)).collect();
        let cfg = GaConfig { population: 12, generations: 8, ..GaConfig::default() };
        let suggestions = calibrate(&ts, &cfg);
        assert!(suggestions.len() >= 2, "front of {}", suggestions.len());
        // no member dominates another
        for a in &suggestions {
            for b in &suggestions {
                let dominates =
                    a.metrics.far_per_1k < b.metrics.far_per_1k && a.metrics.frr < b.metrics.frr;
                assert!(!dominates, "pareto front contains dominated member");
            }
        }
        // sorted by far ascending
        for pair in suggestions.windows(2) {
            assert!(pair[0].metrics.far_per_1k <= pair[1].metrics.far_per_1k);
        }
    }

    #[test]
    fn ga_finds_good_operating_point() {
        let ts = traces();
        let cfg = GaConfig { population: 16, generations: 12, ..GaConfig::default() };
        let suggestions = calibrate(&ts, &cfg);
        // on clean synthetic traces a balanced config should get most
        // events with few false accepts
        let best_balanced = suggestions
            .iter()
            .min_by(|a, b| {
                let ca = a.metrics.far_per_1k + a.metrics.frr * 100.0;
                let cb = b.metrics.far_per_1k + b.metrics.frr * 100.0;
                ca.partial_cmp(&cb).unwrap()
            })
            .unwrap();
        assert!(best_balanced.metrics.frr < 0.35, "frr {}", best_balanced.metrics.frr);
        assert!(
            best_balanced.metrics.far_per_1k < 20.0,
            "far {}",
            best_balanced.metrics.far_per_1k
        );
    }

    #[test]
    fn calibrate_deterministic() {
        let ts = traces();
        let cfg = GaConfig { population: 8, generations: 4, ..GaConfig::default() };
        let a = calibrate(&ts, &cfg);
        let b = calibrate(&ts, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.config, y.config);
        }
    }
}
