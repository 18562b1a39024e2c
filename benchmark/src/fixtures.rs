//! The benchmark's own fixtures: the paper's three task configurations
//! (§5.1), seeded models and seeded inputs.
//!
//! Defined here rather than imported from `ei-bench`, so a later PR can
//! edit that crate without moving this benchmark's baseline. Models carry
//! seeded *initial* weights (only `design_cycle` trains): the serving
//! path's cost depends on tensor shapes, not on what the weights learned,
//! and every output is still checked bitwise against a reference computed
//! from the same weights.

use ei_core::{Classification, ImpulseDesign, TrainedImpulse};
use ei_data::cbor::CborValue;
use ei_data::synth::{CifarGenerator, KwsGenerator, VwwGenerator};
use ei_dsp::blocks::PixelNorm;
use ei_dsp::{DspConfig, ImageConfig, MfccConfig};
use ei_nn::spec::ModelSpec;
use ei_nn::train::TrainingReport;
use ei_nn::{presets, Sequential};
use ei_runtime::{EngineKind, ModelArtifact};
use ei_trace::json::Json;

/// One of the paper's three evaluation tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Keyword spotting: 1 s @ 16 kHz → MFCC → DS-CNN (64 channels).
    Kws,
    /// Visual wake words: 96×96×1 → MobileNetV1-0.25.
    Vww,
    /// Image classification: 32×32×3 → small CNN.
    Ic,
}

impl Task {
    pub const ALL: [Task; 3] = [Task::Kws, Task::Vww, Task::Ic];

    pub fn name(self) -> &'static str {
        match self {
            Task::Kws => "kws",
            Task::Vww => "vww",
            Task::Ic => "ic",
        }
    }

    fn window(self) -> usize {
        match self {
            Task::Kws => 16_000,
            Task::Vww => 96 * 96,
            Task::Ic => 32 * 32 * 3,
        }
    }

    fn dsp(self) -> DspConfig {
        let image = |side: usize, channels: usize, norm: PixelNorm| {
            DspConfig::Image(ImageConfig {
                in_width: side,
                in_height: side,
                in_channels: channels,
                out_width: side,
                out_height: side,
                out_channels: channels,
                norm,
            })
        };
        match self {
            Task::Kws => DspConfig::Mfcc(MfccConfig {
                frame_s: 0.02,
                stride_s: 0.01,
                n_coefficients: 10,
                n_filters: 40,
                sample_rate_hz: 16_000,
            }),
            Task::Vww => image(96, 1, PixelNorm::MinusOneToOne),
            Task::Ic => image(32, 3, PixelNorm::ZeroToOne),
        }
    }

    pub fn labels(self) -> Vec<String> {
        match self {
            Task::Kws => KwsGenerator::default().classes,
            Task::Vww => vec!["no_person".into(), "person".into()],
            Task::Ic => (0..10).map(|c| format!("class{c}")).collect(),
        }
    }

    pub fn design(self) -> ImpulseDesign {
        ImpulseDesign::new(self.name(), self.window(), self.dsp())
            .expect("task designs are valid by construction")
    }

    /// The paper's model for the task; `width` only applies to the KWS
    /// DS-CNN (64 in the paper, smaller for the `design_cycle` project).
    pub fn model_spec(self, width: usize) -> ModelSpec {
        let dims = self.design().feature_dims().expect("valid design");
        let classes = self.labels().len();
        match self {
            Task::Kws => presets::ds_cnn(dims, classes, width),
            Task::Vww => presets::mobilenet_v1(dims, classes, 0.25),
            Task::Ic => presets::cifar_cnn(dims, classes),
        }
    }

    /// One seeded raw input window (class cycles with `index`).
    pub fn input(self, seed: u64, index: usize) -> Vec<f32> {
        let s = input_seed(seed, index);
        match self {
            Task::Kws => KwsGenerator::default().generate(index % 4, s),
            Task::Vww => VwwGenerator::default().generate(index.is_multiple_of(2), s),
            Task::Ic => CifarGenerator::default().generate(index % 10, s),
        }
    }

    pub fn inputs(self, seed: u64, count: usize) -> Vec<Vec<f32>> {
        (0..count).map(|i| self.input(seed, i)).collect()
    }

    /// DSP features of `count` seeded inputs: what int8 quantization
    /// calibrates on.
    pub fn calibration(self, seed: u64, count: usize) -> Vec<Vec<f32>> {
        let block = self.design().dsp_block().expect("valid dsp");
        self.inputs(seed ^ 0xCA11_B8A7, count)
            .iter()
            .map(|raw| block.process(raw).expect("window fits"))
            .collect()
    }

    /// A servable impulse with seeded initial weights.
    pub fn impulse(self, seed: u64, calibration: Vec<Vec<f32>>) -> TrainedImpulse {
        let model = Sequential::build(&self.model_spec(64), seed).expect("preset builds");
        TrainedImpulse::from_parts(
            self.design(),
            self.labels(),
            model,
            TrainingReport::default(),
            calibration,
        )
    }
}

/// Calibration windows per impulse: enough that quantization costs what
/// it does on a small real project (`int8_artifact` runs each through
/// the float model).
pub const CALIBRATION: usize = 16;

/// Spreads `(seed, index)` over the generators' seed space.
fn input_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64)
}

/// The deployment artifact `classify`/`stream` calls resolve to.
pub fn artifact(impulse: &TrainedImpulse, quantized: bool) -> ModelArtifact {
    if quantized {
        impulse.int8_artifact().expect("quantizable")
    } else {
        impulse.float_artifact()
    }
}

/// Reference outputs for `inputs`, computed outside the serving path
/// with the reference kernels.
pub fn references(
    impulse: &TrainedImpulse,
    quantized: bool,
    inputs: &[Vec<f32>],
) -> Vec<Classification> {
    let artifact = artifact(impulse, quantized);
    inputs
        .iter()
        .map(|raw| impulse.classify_with(&artifact, raw).expect("reference classifies"))
        .collect()
}

/// Bitwise equality of two classifications (label, index and every
/// probability's bit pattern).
pub fn same_bits(a: &Classification, b: &Classification) -> bool {
    a.label == b.label
        && a.label_index == b.label_index
        && a.probabilities.len() == b.probabilities.len()
        && a.probabilities.iter().zip(&b.probabilities).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn engine_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::EonCompiled => "eon",
        EngineKind::TflmInterpreter => "tflm",
    }
}

/// The ingestion API's JSON acquisition payload for one audio clip.
pub fn acquisition_json(clip: &[f32]) -> String {
    let values = Json::Array(clip.iter().map(|&v| Json::Float(f64::from(v))).collect());
    format!(r#"{{"values":{},"interval_ms":0.0625,"sensor":"audio"}}"#, values.to_json())
}

pub fn acquisition_cbor(clip: &[f32]) -> CborValue {
    CborValue::Map(vec![
        (
            "values".into(),
            CborValue::Array(clip.iter().map(|&v| CborValue::Float(f64::from(v))).collect()),
        ),
        ("interval_ms".into(), CborValue::Float(0.0625)),
        ("sensor".into(), CborValue::Text("audio".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_are_byte_identical_across_calls() {
        for task in Task::ALL {
            let (a, b) = (task.inputs(9, 3), task.inputs(9, 3));
            assert!(a
                .iter()
                .flatten()
                .zip(b.iter().flatten())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            assert_ne!(task.input(9, 0), task.input(10, 0), "the seed must matter");
        }
        let clip = Task::Kws.input(5, 1);
        assert_eq!(acquisition_json(&clip), acquisition_json(&Task::Kws.input(5, 1)));
    }
}
