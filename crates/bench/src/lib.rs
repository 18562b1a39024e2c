//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§5). Each table/figure has a binary under `src/bin/`:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — evaluation boards |
//! | `table2` | Table 2 — end-to-end latency, 3 tasks × 3 boards × 2 dtypes |
//! | `table3` | Table 3 — EON Tuner exploration for keyword spotting |
//! | `table4` | Table 4 — RAM/flash/accuracy, TFLM vs EON × float vs int8 |
//! | `table5` | Table 5 — MLOps platform feature matrix |
//! | `figure1` | Fig. 1 — workflow stages ↔ challenges |
//! | `figure3` | Fig. 3 — tuner result cards with stacked resource bars |
//! | `ablations` | §5.3-adjacent design ablations (overhead decomposition, fusion, resolver, planner) |
//!
//! Set `EDGELAB_QUICK=1` to shrink workloads (fewer samples/epochs) for
//! smoke-testing the harness.
//!
//! Besides the prose `results/*.txt` the binaries print, each can emit
//! machine-readable rows through [`ResultsWriter`] into `results/*.json`
//! (JSON Lines, one object per row, every row stamped with
//! [`RESULTS_SCHEMA_VERSION`]) so the perf trajectory can be tracked
//! across PRs.

use ei_core::impulse::{ImpulseDesign, TrainedImpulse};
use ei_data::synth::{CifarGenerator, KwsGenerator, VwwGenerator};
use ei_data::Dataset;
use ei_dsp::blocks::PixelNorm;
use ei_dsp::{DspConfig, DspCost, ImageConfig, MfccConfig};
use ei_nn::presets;
use ei_nn::spec::ModelSpec;
use ei_nn::train::TrainConfig;
use ei_nn::Sequential;
use ei_runtime::ModelArtifact;
use ei_trace::json::{Json, JsonObject};

/// `true` when `EDGELAB_QUICK=1` (smaller datasets and fewer epochs).
pub fn quick_mode() -> bool {
    std::env::var("EDGELAB_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// One of the paper's three evaluation tasks (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Keyword spotting: 1 s @ 16 kHz → MFCC → DS-CNN.
    KeywordSpotting,
    /// Visual wake words: 96×96×1 → MobileNetV1-0.25.
    VisualWakeWords,
    /// Image classification: 32×32×3 → small CNN.
    ImageClassification,
}

impl Task {
    /// All tasks in Table 2 order.
    pub fn all() -> [Task; 3] {
        [Task::KeywordSpotting, Task::VisualWakeWords, Task::ImageClassification]
    }

    /// Display name with the paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            Task::KeywordSpotting => "Keyword Spotting (KWS)",
            Task::VisualWakeWords => "Visual Wake Words (VWW)",
            Task::ImageClassification => "Image Classification (IC)",
        }
    }

    /// Raw window size in samples/pixels.
    pub fn window(self) -> usize {
        match self {
            Task::KeywordSpotting => 16_000,
            Task::VisualWakeWords => 96 * 96,
            Task::ImageClassification => 32 * 32 * 3,
        }
    }

    /// The task's DSP configuration.
    pub fn dsp(self) -> DspConfig {
        match self {
            Task::KeywordSpotting => DspConfig::Mfcc(MfccConfig {
                frame_s: 0.02,
                stride_s: 0.01,
                n_coefficients: 10,
                n_filters: 40,
                sample_rate_hz: 16_000,
            }),
            Task::VisualWakeWords => DspConfig::Image(ImageConfig {
                in_width: 96,
                in_height: 96,
                in_channels: 1,
                out_width: 96,
                out_height: 96,
                out_channels: 1,
                norm: PixelNorm::MinusOneToOne,
            }),
            Task::ImageClassification => DspConfig::Image(ImageConfig {
                in_width: 32,
                in_height: 32,
                in_channels: 3,
                out_width: 32,
                out_height: 32,
                out_channels: 3,
                norm: PixelNorm::ZeroToOne,
            }),
        }
    }

    /// Number of classes.
    pub fn classes(self) -> usize {
        match self {
            Task::KeywordSpotting => 4,
            Task::VisualWakeWords => 2,
            Task::ImageClassification => 10,
        }
    }

    /// The impulse design (window + DSP).
    ///
    /// # Panics
    ///
    /// Panics only on internal configuration bugs.
    pub fn design(self) -> ImpulseDesign {
        ImpulseDesign::new(self.name(), self.window(), self.dsp())
            .expect("task designs are valid by construction")
    }

    /// The paper's model for this task.
    pub fn model_spec(self) -> ModelSpec {
        let dims = self.design().feature_dims().expect("valid design");
        match self {
            Task::KeywordSpotting => presets::ds_cnn(dims, self.classes(), 64),
            Task::VisualWakeWords => presets::mobilenet_v1(dims, self.classes(), 0.25),
            Task::ImageClassification => presets::cifar_cnn(dims, self.classes()),
        }
    }

    /// Synthetic dataset for this task.
    pub fn dataset(self, per_class: usize, seed: u64) -> Dataset {
        match self {
            Task::KeywordSpotting => KwsGenerator::default().dataset(per_class, seed),
            Task::VisualWakeWords => VwwGenerator::default().dataset(per_class, seed),
            Task::ImageClassification => CifarGenerator::default().dataset(per_class, seed),
        }
    }

    /// The DSP cost of one window.
    ///
    /// # Panics
    ///
    /// Panics only on internal configuration bugs.
    pub fn dsp_cost(self) -> DspCost {
        let design = self.design();
        let block = design.dsp_block().expect("valid dsp");
        block.cost(self.window()).expect("window fits")
    }

    /// Builds untrained float + int8 artifacts (weights don't affect the
    /// latency/memory numbers of Tables 1–3).
    ///
    /// # Panics
    ///
    /// Panics only on internal configuration bugs.
    pub fn untrained_artifacts(self) -> (ModelArtifact, ModelArtifact) {
        let spec = self.model_spec();
        let model = Sequential::build(&spec, 42).expect("preset builds");
        let dims = self.design().feature_dims().expect("valid design");
        let probe = vec![vec![0.05f32; dims.len()], vec![-0.05f32; dims.len()]];
        let qmodel = ei_quant::quantize_model(&model, &probe).expect("quantizable");
        (ModelArtifact::Float(model), ModelArtifact::Int8(qmodel))
    }

    /// A learning rate known to train the task's (deep) preset stably.
    pub fn learning_rate(self) -> f32 {
        match self {
            // MobileNetV1 is 27 layers without batch norm: it needs a
            // conservative rate to train stably
            Task::VisualWakeWords => 0.0005,
            _ => 0.005,
        }
    }

    /// Trains the task's model on synthetic data (used where accuracy is
    /// reported, i.e. Table 4).
    ///
    /// # Panics
    ///
    /// Panics only on internal pipeline bugs.
    pub fn train(self, per_class: usize, epochs: usize, seed: u64) -> TrainedImpulse {
        let dataset = self.dataset(per_class, seed);
        let design = self.design();
        let spec = self.model_spec();
        let config = TrainConfig {
            epochs,
            batch_size: 16,
            learning_rate: self.learning_rate(),
            seed,
            ..TrainConfig::default()
        };
        design.train(&spec, &dataset, &config).expect("training succeeds on synthetic data")
    }
}

/// Schema version stamped into every machine-readable results row.
///
/// Bump it whenever a bench changes the meaning or set of its row fields,
/// so downstream trajectory tooling can tell comparable rows apart.
pub const RESULTS_SCHEMA_VERSION: u64 = 1;

/// How a results file's numbers were obtained — stamped on every row so a
/// modeled figure can never be mistaken for a measured one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measurement {
    /// Computed by the device cycle/memory model (the paper's hardware,
    /// substituted): identical on every host.
    Model,
    /// Wall-clock time (or a checksum of real work) on the host that ran
    /// the bench: moves with the machine.
    Wall,
}

impl Measurement {
    fn as_str(self) -> &'static str {
        match self {
            Measurement::Model => "model",
            Measurement::Wall => "wall",
        }
    }
}

/// Collects machine-readable benchmark rows and writes them as JSON Lines
/// to `results/<bench>.json`, alongside the prose table the binary prints.
///
/// Rows are built on the deterministic [`ei_trace::json`] writer: start
/// each one with [`ResultsWriter::stamp`] (which prefixes the
/// `schema_version`, `bench` and `measurement` fields), extend it with
/// [`JsonObject::field`], and [`ResultsWriter::push`] it.
#[derive(Debug, Clone)]
pub struct ResultsWriter {
    bench: String,
    measurement: Measurement,
    rows: Vec<JsonObject>,
}

impl ResultsWriter {
    /// A writer for one bench binary (e.g. `"table2"`) whose rows are all
    /// of one [`Measurement`] kind.
    pub fn new(bench: &str, measurement: Measurement) -> ResultsWriter {
        ResultsWriter { bench: bench.to_string(), measurement, rows: Vec::new() }
    }

    /// Starts a row pre-stamped with `schema_version`, `bench` and
    /// `measurement`.
    pub fn stamp(&self) -> JsonObject {
        JsonObject::new()
            .field("schema_version", Json::Uint(RESULTS_SCHEMA_VERSION))
            .field("bench", Json::Str(self.bench.clone()))
            .field("measurement", Json::Str(self.measurement.as_str().into()))
    }

    /// Appends a finished row.
    pub fn push(&mut self, row: JsonObject) {
        self.rows.push(row);
    }

    /// Number of rows collected so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were collected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows as JSON Lines (one compact object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the rows to `results/<bench>.json` (creating `results/` if
    /// needed) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.bench));
        std::fs::write(&path, self.to_jsonl())?;
        Ok(path)
    }

    /// [`ResultsWriter::write`] plus the standard stderr report every bench
    /// binary prints — one shared exit path instead of a per-binary `match`.
    pub fn write_and_report(&self) {
        match self.write() {
            Ok(path) => eprintln!("wrote {} json rows to {}", self.len(), path.display()),
            Err(e) => eprintln!("could not write results json: {e}"),
        }
    }
}

/// Formats a byte count as `xx.x` kB (Table 4 unit).
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Formats milliseconds with two decimals (Table 2 unit).
pub fn ms(v: f64) -> String {
    format!("{v:.2}")
}

/// Renders a proportional ASCII bar of `value` against `max` (Fig. 3).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 { 0 } else { ((value / max) * width as f64).round() as usize };
    let filled = filled.min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tasks_build_artifacts() {
        for task in Task::all() {
            let (float_a, int8_a) = task.untrained_artifacts();
            assert_eq!(float_a.input_len(), int8_a.input_len());
            assert!(float_a.weight_bytes() > int8_a.weight_bytes());
            assert!(task.dsp_cost().flops > 0);
        }
    }

    #[test]
    fn kws_feature_shape_matches_dscnn_input() {
        let design = Task::KeywordSpotting.design();
        let dims = design.feature_dims().unwrap();
        assert_eq!((dims.w, dims.c), (10, 1));
        assert_eq!(dims.h, 99);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(1024), "1.0");
        assert_eq!(ms(1.239), "1.24");
        assert_eq!(bar(5.0, 10.0, 10), "#####.....");
        assert_eq!(bar(0.0, 0.0, 4), "....");
        assert_eq!(bar(20.0, 10.0, 4), "####");
    }

    #[test]
    fn results_rows_are_stamped_and_deterministic() {
        let mut w = ResultsWriter::new("demo", Measurement::Model);
        assert!(w.is_empty());
        w.push(w.stamp().field("task", Json::Str("kws".into())).field("ms", Json::Float(1.5)));
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.to_jsonl(),
            "{\"schema_version\":1,\"bench\":\"demo\",\"measurement\":\"model\",\
             \"task\":\"kws\",\"ms\":1.5}\n"
        );
    }

    #[test]
    fn quick_mode_reads_env() {
        // do not mutate the environment; just exercise the code path
        let _ = quick_mode();
    }
}
