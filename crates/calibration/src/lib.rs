#![warn(missing_docs)]

//! Performance calibration for streaming event detection (paper §4.4).
//!
//! A deployed keyword spotter classifies overlapping windows continuously;
//! raw per-window probabilities must be post-processed (smoothed,
//! thresholded, debounced) before they become *events*. The calibration
//! tool "accepts an input of user-supplied raw data or synthetically
//! generated data along with the trained model. Using a genetic algorithm,
//! it suggests a number of optimal post-processing configurations that
//! trade off false acceptance rate (FAR) and false rejection rate (FRR)."
//!
//! * [`postprocess::PostProcessConfig`] / [`postprocess::EventDetector`] —
//!   the on-device post-processing chain;
//! * [`stream`] — synthetic probability-trace generation with known ground
//!   truth, plus a builder that runs a real classifier over a composed
//!   stream;
//! * [`ga`] — the genetic algorithm and the FAR/FRR Pareto suggestions.
//!
//! Deployment runs the same [`EventDetector`]: a live stream (an
//! `ei_stream::StreamSession`) classifies each window, and each verdict's
//! target-class probability goes into [`EventDetector::push`], which fires
//! on exactly the windows [`EventDetector::detect`] would pick from the
//! recorded trace. An event on window `seq` starts at sample
//! `seq * hop_samples`.

pub mod ga;
pub mod postprocess;
pub mod stream;

pub use ga::{calibrate, GaConfig, ScoredConfig};
pub use postprocess::{DetectionMetrics, EventDetector, PostProcessConfig};
pub use stream::{ProbabilityTrace, TraceConfig};
