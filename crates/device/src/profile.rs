//! The profiler: latency, RAM and flash estimates plus capacity gating.
//!
//! This is the estimation service behind the Studio's on-page numbers and
//! the EON Tuner's constraint filtering (paper §4.4, Fig. 3): given a
//! board, a DSP block cost and a deployed model, it predicts preprocessing
//! and inference milliseconds and checks whether the deployment fits the
//! board at all — the source of the "-" cells in paper Table 2.

use crate::boards::{Accelerator, Board};
use crate::cycles::{
    cycles_per_dsp_flop, cycles_per_float_mac, cycles_per_int8_mac, EON_DISPATCH_CYCLES,
    INVOKE_OVERHEAD_CYCLES, TFLM_DISPATCH_CYCLES,
};
use ei_dsp::DspCost;
use ei_runtime::{EngineKind, InferenceEngine, MemoryReport, ModelArtifact};
use ei_trace::Tracer;

/// RAM the application firmware needs outside the model (stack, sensor
/// driver buffers, SDK state).
pub const APP_RAM_OVERHEAD_BYTES: usize = 16 * 1024;

/// Flash the base firmware occupies outside the model and engine (HAL,
/// drivers, SDK glue).
pub const APP_FLASH_OVERHEAD_BYTES: usize = 96 * 1024;

/// Result of checking a deployment against a board's capacities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitCheck {
    /// `true` when both RAM and flash fit.
    pub fits: bool,
    /// Human-readable reasons when it does not.
    pub reasons: Vec<String>,
}

/// Complete pre-deployment estimate for one board.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Board name the estimate is for.
    pub board: String,
    /// Preprocessing latency in milliseconds.
    pub dsp_ms: f64,
    /// Model inference latency in milliseconds.
    pub inference_ms: f64,
    /// End-to-end latency including invoke overhead.
    pub total_ms: f64,
    /// DSP scratch RAM in bytes.
    pub dsp_ram_bytes: usize,
    /// Model RAM (arena + runtime state) in bytes.
    pub model_ram_bytes: usize,
    /// Model flash (weights + format + code) in bytes.
    pub model_flash_bytes: usize,
    /// Capacity check against the board.
    pub fit: FitCheck,
}

impl ProfileReport {
    /// Total RAM the deployment needs (model + DSP + application).
    pub fn total_ram_bytes(&self) -> usize {
        self.model_ram_bytes + self.dsp_ram_bytes + APP_RAM_OVERHEAD_BYTES
    }

    /// Total flash the deployment needs (model + application).
    pub fn total_flash_bytes(&self) -> usize {
        self.model_flash_bytes + APP_FLASH_OVERHEAD_BYTES
    }
}

/// One row of the per-layer latency breakdown on a specific board.
///
/// Rows come from [`InferenceEngine::op_profile`] (MACs, weight and
/// planned arena bytes) costed with the board's cycle model plus the
/// engine's per-op dispatch overhead. [`Profiler::inference_ms`] is
/// *defined* as the sum of `ms` over these rows, so the breakdown always
/// adds up exactly to the end-to-end estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Kernel-style op name.
    pub name: &'static str,
    /// Multiply–accumulate count of the op.
    pub macs: u64,
    /// Modeled cycles on this board, including per-op dispatch.
    pub cycles: f64,
    /// Modeled milliseconds on this board.
    pub ms: f64,
    /// Planned output activation buffer size in bytes.
    pub arena_bytes: usize,
    /// Parameter bytes the op reads from flash.
    pub weight_bytes: usize,
}

/// Latency/memory estimator for one board (optionally with an accelerator).
#[derive(Debug, Clone)]
pub struct Profiler {
    board: Board,
    accelerator: Option<Accelerator>,
}

impl Profiler {
    /// Creates a profiler for a board.
    pub fn new(board: Board) -> Profiler {
        Profiler { board, accelerator: None }
    }

    /// Attaches a neural accelerator (builder style).
    #[must_use]
    pub fn with_accelerator(mut self, accelerator: Accelerator) -> Profiler {
        self.accelerator = Some(accelerator);
        self
    }

    /// The profiled board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Estimates preprocessing latency for a DSP cost.
    pub fn dsp_ms(&self, cost: DspCost) -> f64 {
        let cycles = cost.flops as f64 * cycles_per_dsp_flop(self.board.arch);
        cycles / self.board.clock_hz as f64 * 1_000.0
    }

    /// Effective cycles per MAC for an artifact on this board, after any
    /// attached accelerator.
    fn effective_cycles_per_mac(&self, artifact: &ModelArtifact) -> f64 {
        let per_mac = if artifact.is_quantized() {
            cycles_per_int8_mac(self.board.arch)
        } else {
            cycles_per_float_mac(self.board.arch)
        };
        match &self.accelerator {
            Some(acc) if artifact.is_quantized() || !acc.int8_only => {
                per_mac / acc.mac_speedup as f64
            }
            _ => per_mac,
        }
    }

    /// Per-op dispatch overhead of an engine, in cycles.
    fn dispatch_cycles(kind: EngineKind) -> f64 {
        match kind {
            EngineKind::TflmInterpreter => TFLM_DISPATCH_CYCLES,
            EngineKind::EonCompiled => EON_DISPATCH_CYCLES,
        }
    }

    /// Estimates inference latency for an engine-bound model.
    ///
    /// Defined as the sum of [`Profiler::per_layer_profile`] row latencies,
    /// so the per-layer breakdown always sums exactly to this estimate.
    pub fn inference_ms(&self, engine: &dyn InferenceEngine) -> f64 {
        self.per_layer_profile(engine).iter().map(|l| l.ms).sum()
    }

    /// Checks a memory report (plus DSP scratch) against the board.
    pub fn fit(&self, memory: MemoryReport, dsp_scratch_bytes: usize) -> FitCheck {
        let ram_needed = memory.ram_total() + dsp_scratch_bytes + APP_RAM_OVERHEAD_BYTES;
        let flash_needed = memory.flash_total() + APP_FLASH_OVERHEAD_BYTES;
        let mut reasons = Vec::new();
        if ram_needed > self.board.ram_bytes {
            reasons.push(format!(
                "needs {} kB RAM, board has {} kB",
                ram_needed / 1024,
                self.board.ram_bytes / 1024
            ));
        }
        if flash_needed > self.board.flash_bytes {
            reasons.push(format!(
                "needs {} kB flash, board has {} kB",
                flash_needed / 1024,
                self.board.flash_bytes / 1024
            ));
        }
        FitCheck { fits: reasons.is_empty(), reasons }
    }

    /// Full per-layer breakdown of a model on this board — the per-layer
    /// timing view the Studio shows next to the overall estimate.
    ///
    /// Rows are in execution order; each carries the op's MACs, modeled
    /// cycles and milliseconds (including the engine's per-op dispatch
    /// overhead), its planned arena bytes and its weight bytes.
    /// [`Profiler::inference_ms`] is the exact sum of the `ms` column.
    pub fn per_layer_profile(&self, engine: &dyn InferenceEngine) -> Vec<LayerProfile> {
        let per_mac = self.effective_cycles_per_mac(engine.artifact());
        let dispatch = Self::dispatch_cycles(engine.kind());
        engine
            .op_profile()
            .into_iter()
            .map(|op| {
                let cycles = op.macs as f64 * per_mac + dispatch;
                LayerProfile {
                    name: op.name,
                    macs: op.macs,
                    cycles,
                    ms: cycles / self.board.clock_hz as f64 * 1_000.0,
                    arena_bytes: op.arena_bytes,
                    weight_bytes: op.weight_bytes,
                }
            })
            .collect()
    }

    /// Per-op latency breakdown as `(op name, estimated milliseconds)` in
    /// execution order — a thin view over [`Profiler::per_layer_profile`].
    pub fn per_op_profile(&self, engine: &dyn InferenceEngine) -> Vec<(&'static str, f64)> {
        self.per_layer_profile(engine).into_iter().map(|l| (l.name, l.ms)).collect()
    }

    /// Emits the per-layer breakdown through a tracer and returns it.
    ///
    /// Opens a `profile` span carrying the board and engine, emits one
    /// `profile.layer` event per row plus a closing `profile.total` event,
    /// and sets the `profile.inference_ms` gauge. The total equals the sum
    /// of the emitted rows exactly.
    pub fn emit_profile(&self, tracer: &Tracer, engine: &dyn InferenceEngine) -> Vec<LayerProfile> {
        let layers = self.per_layer_profile(engine);
        let total_ms: f64 = layers.iter().map(|l| l.ms).sum();
        let span = tracer.span_with(
            "profile",
            vec![
                ("board", self.board.name.as_str().into()),
                ("engine", engine.kind().to_string().into()),
                ("ops", layers.len().into()),
            ],
        );
        for layer in &layers {
            span.event(
                "profile.layer",
                vec![
                    ("op", layer.name.into()),
                    ("macs", layer.macs.into()),
                    ("cycles", layer.cycles.into()),
                    ("ms", layer.ms.into()),
                    ("arena_bytes", layer.arena_bytes.into()),
                    ("weight_bytes", layer.weight_bytes.into()),
                ],
            );
        }
        span.event("profile.total", vec![("inference_ms", total_ms.into())]);
        tracer.gauge("profile.inference_ms").set(total_ms);
        layers
    }

    /// Produces the full pre-deployment estimate for a DSP block + engine
    /// pair — what the Studio shows per target and what the EON Tuner
    /// filters on.
    pub fn profile(
        &self,
        dsp_cost: Option<DspCost>,
        engine: &dyn InferenceEngine,
    ) -> ProfileReport {
        let dsp_ms = dsp_cost.map_or(0.0, |c| self.dsp_ms(c));
        let inference_ms = self.inference_ms(engine);
        let overhead_ms = INVOKE_OVERHEAD_CYCLES / self.board.clock_hz as f64 * 1_000.0;
        let memory = engine.memory();
        let dsp_scratch = dsp_cost.map_or(0, |c| c.scratch_bytes);
        ProfileReport {
            board: self.board.name.clone(),
            dsp_ms,
            inference_ms,
            total_ms: dsp_ms + inference_ms + overhead_ms,
            dsp_ram_bytes: dsp_scratch,
            model_ram_bytes: memory.ram_total(),
            model_flash_bytes: memory.flash_total(),
            fit: self.fit(memory, dsp_scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_dsp::{blocks::MfccBlock, DspBlock, MfccConfig};
    use ei_nn::presets;
    use ei_nn::spec::Dims;
    use ei_nn::Sequential;
    use ei_runtime::{EonProgram, Interpreter, ModelArtifact};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kws_artifacts() -> (ModelArtifact, ModelArtifact) {
        let spec = presets::ds_cnn(Dims::new(49, 13, 1), 12, 64);
        let model = Sequential::build(&spec, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let calib: Vec<Vec<f32>> =
            (0..4).map(|_| (0..49 * 13).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let qmodel = ei_quant::quantize_model(&model, &calib).unwrap();
        (ModelArtifact::Float(model), ModelArtifact::Int8(qmodel))
    }

    #[test]
    fn int8_speedup_large_on_m4_small_on_lx6() {
        let (float_a, int8_a) = kws_artifacts();
        let float_eon = EonProgram::compile(float_a).unwrap();
        let int8_eon = EonProgram::compile(int8_a).unwrap();
        let m4 = Profiler::new(Board::nano33_ble_sense());
        let lx6 = Profiler::new(Board::esp_eye());
        let m4_gain = m4.inference_ms(&float_eon) / m4.inference_ms(&int8_eon);
        let lx6_gain = lx6.inference_ms(&float_eon) / lx6.inference_ms(&int8_eon);
        assert!(m4_gain > 4.0, "m4 gain {m4_gain}");
        assert!(lx6_gain < 2.5, "lx6 gain {lx6_gain}");
        assert!(m4_gain > lx6_gain);
    }

    #[test]
    fn pico_slowest_in_absolute_terms() {
        let (float_a, _) = kws_artifacts();
        let eon = EonProgram::compile(float_a).unwrap();
        let nano = Profiler::new(Board::nano33_ble_sense()).inference_ms(&eon);
        let esp = Profiler::new(Board::esp_eye()).inference_ms(&eon);
        let pico = Profiler::new(Board::raspberry_pi_pico()).inference_ms(&eon);
        assert!(pico > nano && pico > esp, "pico {pico} nano {nano} esp {esp}");
    }

    #[test]
    fn dsp_latency_ranks_by_arch() {
        let block = MfccBlock::new(MfccConfig::default()).unwrap();
        let cost = block.cost(16_000).unwrap();
        let nano = Profiler::new(Board::nano33_ble_sense()).dsp_ms(cost);
        let esp = Profiler::new(Board::esp_eye()).dsp_ms(cost);
        let pico = Profiler::new(Board::raspberry_pi_pico()).dsp_ms(cost);
        // table 2: nano fastest at preprocessing, pico slowest
        assert!(nano < esp, "nano {nano} vs esp {esp}");
        assert!(esp < pico, "esp {esp} vs pico {pico}");
        // plausible magnitudes: tens to hundreds of ms
        assert!(nano > 10.0 && pico < 5_000.0);
    }

    #[test]
    fn kws_preprocessing_significant_share_of_int8_total() {
        let (_, int8_a) = kws_artifacts();
        let eon = EonProgram::compile(int8_a).unwrap();
        let profiler = Profiler::new(Board::nano33_ble_sense());
        let block = MfccBlock::new(MfccConfig::default()).unwrap();
        let report = profiler.profile(Some(block.cost(16_000).unwrap()), &eon);
        assert!(
            report.dsp_ms > 0.2 * report.total_ms,
            "dsp {} of total {}",
            report.dsp_ms,
            report.total_ms
        );
    }

    #[test]
    fn vww_float_does_not_fit_nano33() {
        let spec = presets::mobilenet_v1(Dims::new(96, 96, 1), 2, 0.25);
        let model = Sequential::build(&spec, 3).unwrap();
        let eon = EonProgram::compile(ModelArtifact::Float(model)).unwrap();
        let profiler = Profiler::new(Board::nano33_ble_sense());
        let report = profiler.profile(None, &eon);
        assert!(!report.fit.fits, "VWW float must not fit the Nano 33 (Table 2 '-')");
        assert!(report.fit.reasons.iter().any(|r| r.contains("RAM")));
        // but it fits the ESP-EYE with 8 MB
        let esp = Profiler::new(Board::esp_eye()).profile(None, &eon);
        assert!(esp.fit.fits, "{:?}", esp.fit.reasons);
    }

    #[test]
    fn interpreter_dispatch_slower_than_eon() {
        let (float_a, _) = kws_artifacts();
        let interp = Interpreter::new(float_a.clone()).unwrap();
        let eon = EonProgram::compile(float_a).unwrap();
        let profiler = Profiler::new(Board::nano33_ble_sense());
        assert!(profiler.inference_ms(&interp) > profiler.inference_ms(&eon));
    }

    #[test]
    fn accelerator_speeds_up_int8_only() {
        let (float_a, int8_a) = kws_artifacts();
        let feon = EonProgram::compile(float_a).unwrap();
        let qeon = EonProgram::compile(int8_a).unwrap();
        let plain = Profiler::new(Board::nano33_ble_sense());
        let boosted =
            Profiler::new(Board::nano33_ble_sense()).with_accelerator(Accelerator::syntiant_like());
        assert!(boosted.inference_ms(&qeon) < plain.inference_ms(&qeon) / 5.0);
        // int8-only accelerator leaves float untouched
        assert!((boosted.inference_ms(&feon) - plain.inference_ms(&feon)).abs() < 1e-9);
    }

    #[test]
    fn per_op_profile_sums_to_inference_estimate() {
        let (float_a, _) = kws_artifacts();
        let eon = EonProgram::compile(float_a).unwrap();
        let profiler = Profiler::new(Board::nano33_ble_sense());
        let breakdown = profiler.per_op_profile(&eon);
        assert!(!breakdown.is_empty());
        let sum: f64 = breakdown.iter().map(|(_, ms)| ms).sum();
        let total = profiler.inference_ms(&eon);
        // bitwise equal: inference_ms is defined as this very sum
        assert_eq!(sum, total, "breakdown {sum} vs total {total}");
        // the conv ops dominate a DS-CNN
        let heaviest = breakdown.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        assert!(heaviest.0.contains("conv"), "heaviest op {heaviest:?}");
    }

    #[test]
    fn per_layer_profile_carries_memory_columns() {
        let (_, int8_a) = kws_artifacts();
        let eon = EonProgram::compile(int8_a).unwrap();
        let profiler = Profiler::new(Board::nano33_ble_sense());
        let layers = profiler.per_layer_profile(&eon);
        assert_eq!(layers.len(), eon.artifact().ops().len());
        assert!(layers.iter().all(|l| l.arena_bytes > 0));
        // parameterized layers report their flash weights
        assert!(layers.iter().any(|l| l.weight_bytes > 0));
        // cycles and ms agree with the board clock
        let clock_hz = profiler.board().clock_hz as f64;
        for l in &layers {
            assert_eq!(l.ms, l.cycles / clock_hz * 1_000.0);
        }
    }

    #[test]
    fn emit_profile_streams_one_event_per_layer() {
        let (float_a, _) = kws_artifacts();
        let eon = EonProgram::compile(float_a).unwrap();
        let profiler = Profiler::new(Board::esp_eye());
        let clock = ei_faults::VirtualClock::shared();
        let (tracer, collector) = ei_trace::Tracer::collecting(clock);
        let layers = profiler.emit_profile(&tracer, &eon);
        let records = collector.records();
        let layer_events = records.iter().filter(|r| r.name() == "profile.layer").count();
        assert_eq!(layer_events, layers.len());
        // the profile span opens and closes
        assert_eq!(records.iter().filter(|r| r.name() == "profile").count(), 2);
        let gauge = tracer.registry().unwrap().gauge("profile.inference_ms", "");
        assert_eq!(gauge, Some(profiler.inference_ms(&eon)));
    }

    #[test]
    fn report_totals_include_overheads() {
        let (_, int8_a) = kws_artifacts();
        let eon = EonProgram::compile(int8_a).unwrap();
        let profiler = Profiler::new(Board::nano33_ble_sense());
        let report = profiler.profile(None, &eon);
        assert!(report.total_ram_bytes() >= report.model_ram_bytes + APP_RAM_OVERHEAD_BYTES);
        assert!(report.total_flash_bytes() >= report.model_flash_bytes + APP_FLASH_OVERHEAD_BYTES);
        assert!(report.total_ms > report.inference_ms);
    }
}
