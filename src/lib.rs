#![warn(missing_docs)]

//! # edgelab
//!
//! A TinyML MLOps platform in Rust — a from-scratch reproduction of the
//! system described in *Edge Impulse: An MLOps Platform for Tiny Machine
//! Learning* (MLSys 2023).
//!
//! This facade crate re-exports every subsystem so downstream users can
//! depend on one crate:
//!
//! | Module | Crate | What it is |
//! |---|---|---|
//! | [`tensor`] | `ei-tensor` | f32 tensors + the f32/int8 GEMM and SIMD kernels |
//! | [`dsp`] | `ei-dsp` | MFE/MFCC/spectral/image processing blocks |
//! | [`nn`] | `ei-nn` | model specs, training, preset architectures |
//! | [`quant`] | `ei-quant` | int8 quantization + operator fusion |
//! | [`runtime`] | `ei-runtime` | TFLM-style interpreter vs EON compiler |
//! | [`device`] | `ei-device` | board models + latency/memory estimation |
//! | [`data`] | `ei-data` | datasets, ingestion, synthetic workloads |
//! | [`dist`] | `ei-dist` | fault-tolerant data-parallel distributed training |
//! | [`core`] | `ei-core` | the impulse pipeline + deployment + firmware SDK |
//! | [`tuner`] | `ei-tuner` | the EON Tuner (AutoML) |
//! | [`calibration`] | `ei-calibration` | streaming performance calibration |
//! | [`anomaly`] | `ei-anomaly` | K-means / GMM anomaly detection |
//! | [`active`] | `ei-active` | embeddings, 2-D projection, auto-labeling |
//! | [`platform`] | `ei-platform` | projects, API facade, job scheduler |
//! | [`serve`] | `ei-serve` | multi-tenant inference serving + artifact cache |
//! | [`stream`] | `ei-stream` | streaming ingestion + continuous inference sessions |
//! | [`faults`] | `ei-faults` | retry policies, mock clock, fault injection |
//! | [`trace`] | `ei-trace` | structured spans, metrics, trace exporters |
//! | [`obs`] | `ei-obs` | production telemetry: SLO monitors + flight recorder |
//! | [`par`] | `ei-par` | deterministic work-stealing thread pool |
//!
//! # Quickstart
//!
//! ```no_run
//! use edgelab::core::impulse::ImpulseDesign;
//! use edgelab::data::synth::KwsGenerator;
//! use edgelab::dsp::{DspConfig, MfccConfig};
//! use edgelab::nn::{presets, train::TrainConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = KwsGenerator::default().dataset(30, 42);
//! let design = ImpulseDesign::new("kws", 16_000, DspConfig::Mfcc(MfccConfig::default()))?;
//! let spec = presets::ds_cnn(design.feature_dims()?, 4, 64);
//! let trained = design.train(&spec, &dataset, &TrainConfig::default())?;
//! let result = trained.classify(&KwsGenerator::default().generate(0, 7))?;
//! println!("heard: {} ({:.1}%)", result.label, result.confidence * 100.0);
//! # Ok(())
//! # }
//! ```

pub use ei_active as active;
pub use ei_anomaly as anomaly;
pub use ei_calibration as calibration;
pub use ei_core as core;
pub use ei_data as data;
pub use ei_device as device;
pub use ei_dist as dist;
pub use ei_dsp as dsp;
pub use ei_faults as faults;
pub use ei_nn as nn;
pub use ei_obs as obs;
pub use ei_par as par;
pub use ei_platform as platform;
pub use ei_quant as quant;
pub use ei_runtime as runtime;
pub use ei_serve as serve;
pub use ei_stream as stream;
pub use ei_tensor as tensor;
pub use ei_trace as trace;
pub use ei_tuner as tuner;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // touch one symbol per subsystem so a broken re-export fails to compile
        let _ = crate::tensor::Shape::d1(1);
        let _ = crate::dsp::MfccConfig::default();
        let _ = crate::nn::spec::Dims::new(1, 1, 1);
        let _ = crate::device::Board::nano33_ble_sense();
        let _ = crate::data::Dataset::new("t");
        let _ = crate::platform::Api::new();
        let _ = crate::calibration::PostProcessConfig::default();
        let _ = crate::faults::RetryPolicy::default();
        let _ = crate::trace::Tracer::disabled();
        let _ = crate::obs::SloSpec::latency("t", 100.0, 0.99);
        let _ = crate::par::Parallelism::serial();
        let _ = crate::stream::MajorityVote::new(3);
    }
}
