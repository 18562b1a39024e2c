//! EON-style compiled executor: static dispatch, no interpreter, no
//! serialized schema, dead-kernel elimination.
//!
//! Arithmetic is shared with the TFLM-style interpreter: both run the
//! model's one walk ([`ModelArtifact::run_reference`]), so engine choice
//! changes dispatch overhead and memory shape, never the numerics. `run`
//! does not read the planned offsets yet; [`EonProgram::run_in_arena`]
//! checks the plan against the same walk. Float convolutions run
//! the direct kernels of `ei_nn::layers::conv` at the host's f32 SIMD
//! level (every preset convolution is below `ei_nn::par`'s im2col + GEMM
//! threshold), float dense layers a zero-skipping row kernel (the
//! blocked GEMM only above `ei_nn::par::PAR_MIN_MACS` on a parallel
//! pool); quantized layers run `ei_quant`'s fused requantizing int8
//! GEMM and depthwise kernels over weights packed once per model.

use crate::costs;
use crate::engine::{op_profiles, EngineKind, InferenceEngine, MemoryReport, OpProfile};
use crate::ir::{ModelArtifact, OpInfo};
use crate::planner::{plan_model, MemoryPlan};
use crate::{Result, RuntimeError};

/// One compiled execution step: the op and its static arena offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EonStep {
    /// Op metadata.
    pub op: OpInfo,
    /// Arena offset of the input buffer.
    pub input_offset: usize,
    /// Arena offset of the output buffer (same as input for in-place ops).
    pub output_offset: usize,
}

/// An ahead-of-time compiled program for one model artifact.
///
/// Compilation resolves every buffer to a static arena offset and records
/// the exact kernel sequence, so "execution" is a straight-line walk with
/// no per-node lookups — the same structure the EON Compiler emits as C++
/// (paper §4.5; see [`crate::codegen::emit_c_source`] for the source form).
#[derive(Debug, Clone)]
pub struct EonProgram {
    artifact: ModelArtifact,
    steps: Vec<EonStep>,
    plan: MemoryPlan,
}

impl EonProgram {
    /// Compiles the artifact: plans the arena and assigns each op its
    /// static input/output offsets.
    ///
    /// # Errors
    ///
    /// Propagates memory-planning failures.
    pub fn compile(artifact: ModelArtifact) -> Result<EonProgram> {
        let plan = plan_model(&artifact)?;
        Ok(Self::on_plan(artifact, plan))
    }

    /// Assigns each op its input and output offsets in `plan`, walking the
    /// buffers the way `activation_requests` does: the buffer index
    /// advances only on non-in-place ops.
    fn on_plan(artifact: ModelArtifact, plan: MemoryPlan) -> EonProgram {
        let ops = artifact.ops();
        let mut steps = Vec::with_capacity(ops.len());
        let mut buf_idx = 0usize;
        for op in ops {
            let input_offset = plan.buffers[buf_idx].offset;
            let output_offset = if op.in_place {
                input_offset
            } else {
                buf_idx += 1;
                plan.buffers[buf_idx].offset
            };
            steps.push(EonStep { op, input_offset, output_offset });
        }
        EonProgram { artifact, steps, plan }
    }

    /// The compiled step sequence.
    pub fn steps(&self) -> &[EonStep] {
        &self.steps
    }

    /// The planned arena.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Kernels actually linked after dead-code elimination.
    pub fn linked_kernels(&self) -> Vec<&'static str> {
        self.artifact.op_kinds()
    }

    /// Executes through the planned arena: each boundary the walk shows
    /// (either dtype) is written to its static offset in one contiguous
    /// buffer, and once a step's output is in place its input must still
    /// be intact, since a kernel reads its input while it writes. A planner
    /// bug that aliased two live buffers surfaces here as
    /// [`RuntimeError::InvalidPlan`]: the runtime check that the
    /// compile-time memory plan is sound on real data.
    ///
    /// Returns the same output as [`EonProgram::run`].
    ///
    /// # Errors
    ///
    /// Fails for wrongly sized input, or with
    /// [`RuntimeError::InvalidPlan`] if a live buffer was overwritten or a
    /// buffer overruns the arena.
    pub fn run_in_arena(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut arena = vec![0u8; self.plan.arena_bytes];
        let (mut prev, mut checked) = (Vec::new(), Ok(()));
        let mut place = |i: usize, bytes: Vec<u8>| {
            if checked.is_ok() {
                checked = self.place(&mut arena, i, &prev, &bytes);
                prev = bytes;
            }
        };
        let output = match &self.artifact {
            ModelArtifact::Float(m) => m.forward_observed(input, |i, act| {
                place(i, act.iter().flat_map(|v| v.to_le_bytes()).collect())
            })?,
            ModelArtifact::Int8(m) => m.forward_observed(input, |i, codes| {
                place(i, codes.iter().map(|&v| v as u8).collect())
            })?,
        };
        checked.map(|()| output)
    }

    /// Writes boundary `i` to the arena: the input at buffer 0's offset, or
    /// step `i - 1`'s output at its output offset (an in-place step writes
    /// nothing), after which that step's input, `prev`, must be intact.
    fn place(&self, arena: &mut [u8], i: usize, prev: &[u8], bytes: &[u8]) -> Result<()> {
        let Some(step) = i.checked_sub(1).map(|s| &self.steps[s]) else {
            return put(arena, self.plan.buffers[0].offset, bytes);
        };
        if !step.op.in_place {
            put(arena, step.output_offset, bytes)?;
        }
        let at = step.input_offset;
        if arena.get(at..at + prev.len()) != Some(prev) {
            let name = step.op.name;
            return Err(RuntimeError::InvalidPlan(format!(
                "input of step {} ({name}) was overwritten while live",
                i - 1
            )));
        }
        Ok(())
    }
}

/// Copies `bytes` into `arena` at `offset`.
fn put(arena: &mut [u8], offset: usize, bytes: &[u8]) -> Result<()> {
    let len = arena.len();
    let dst = arena.get_mut(offset..offset + bytes.len()).ok_or_else(|| {
        RuntimeError::InvalidPlan(format!("a buffer at {offset} overruns the {len}-byte arena"))
    })?;
    dst.copy_from_slice(bytes);
    Ok(())
}

impl InferenceEngine for EonProgram {
    fn kind(&self) -> EngineKind {
        EngineKind::EonCompiled
    }

    fn run(&self, input: &[f32]) -> Result<Vec<f32>> {
        // static dispatch: the step sequence was resolved at compile time,
        // so execution needs no registry lookups
        self.artifact.run_reference(input)
    }

    fn memory(&self) -> MemoryReport {
        let kernel_code: usize =
            self.linked_kernels().iter().map(|op| costs::kernel_code_bytes(op)).sum();
        MemoryReport {
            arena_bytes: costs::padded_arena_bytes(self.plan.arena_bytes),
            runtime_ram_bytes: costs::EON_STATIC_RAM_BYTES,
            weight_bytes: self.artifact.weight_bytes(),
            model_format_bytes: 0, // the graph is compiled into code
            code_bytes: costs::EON_GLUE_CODE_BYTES + kernel_code,
        }
    }

    fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    fn op_profile(&self) -> Vec<OpProfile> {
        op_profiles(&self.artifact, &self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::Interpreter;
    use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec, Padding};
    use ei_nn::Sequential;

    fn conv_artifact() -> ModelArtifact {
        let spec = ModelSpec::new(Dims::new(8, 8, 1))
            .named("eon-test")
            .layer(LayerSpec::Conv2d {
                filters: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::MaxPool { size: 2 })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        ModelArtifact::Float(Sequential::build(&spec, 21).unwrap())
    }

    #[test]
    fn output_identical_to_interpreter() {
        let artifact = conv_artifact();
        let eon = EonProgram::compile(artifact.clone()).unwrap();
        let interp = Interpreter::new(artifact).unwrap();
        let input: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.02).collect();
        assert_eq!(eon.run(&input).unwrap(), interp.run(&input).unwrap());
    }

    #[test]
    fn eon_uses_less_ram_and_flash() {
        let artifact = conv_artifact();
        let eon = EonProgram::compile(artifact.clone()).unwrap();
        let interp = Interpreter::new(artifact).unwrap();
        let em = eon.memory();
        let im = interp.memory();
        assert!(em.ram_total() < im.ram_total(), "{} vs {}", em.ram_total(), im.ram_total());
        assert!(em.flash_total() < im.flash_total());
        // identical arenas — both use the same planner
        assert_eq!(em.arena_bytes, im.arena_bytes);
        // identical weights
        assert_eq!(em.weight_bytes, im.weight_bytes);
    }

    #[test]
    fn in_place_ops_share_offsets() {
        let eon = EonProgram::compile(conv_artifact()).unwrap();
        let flatten = &eon.steps()[2];
        assert_eq!(flatten.op.name, "flatten");
        assert_eq!(flatten.input_offset, flatten.output_offset);
        // non-in-place conv must not (its input and output are both live)
        let conv = &eon.steps()[0];
        assert_ne!(conv.input_offset, conv.output_offset);
    }

    #[test]
    fn linked_kernels_deduplicated() {
        let eon = EonProgram::compile(conv_artifact()).unwrap();
        let kernels = eon.linked_kernels();
        assert!(kernels.contains(&"conv2d"));
        assert_eq!(kernels.len(), 5);
    }

    #[test]
    fn arena_execution_matches_direct_run_float() {
        let artifact = conv_artifact();
        let eon = EonProgram::compile(artifact).unwrap();
        let input: Vec<f32> = (0..64).map(|i| ((i * 13) % 29) as f32 * 0.03 - 0.4).collect();
        assert_eq!(eon.run_in_arena(&input).unwrap(), eon.run(&input).unwrap());
    }

    #[test]
    fn arena_execution_matches_direct_run_int8() {
        let spec = ModelSpec::new(Dims::new(6, 6, 1))
            .layer(LayerSpec::Conv2d {
                filters: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::MaxPool { size: 2 })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 3, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        let model = Sequential::build(&spec, 8).unwrap();
        let calib = vec![vec![0.2f32; 36], vec![-0.5f32; 36]];
        let qmodel = ei_quant::quantize_model(&model, &calib).unwrap();
        let eon = EonProgram::compile(ModelArtifact::Int8(qmodel)).unwrap();
        let input = vec![0.1f32; 36];
        let direct = eon.run(&input).unwrap();
        let arena = eon.run_in_arena(&input).unwrap();
        assert_eq!(direct, arena);
    }

    #[test]
    fn arena_execution_rejects_a_plan_that_aliases_a_live_input() {
        let eon = EonProgram::compile(conv_artifact()).unwrap();
        let input: Vec<f32> = (0..64).map(|i| ((i * 7) % 19) as f32 * 0.05 - 0.3).collect();
        assert!(eon.run_in_arena(&input).is_ok());
        // the conv's input (buffer 0) moved under its own output (buffer
        // 1): the conv would overwrite what it still reads
        let mut plan = eon.plan().clone();
        plan.buffers[0].offset = plan.buffers[1].offset;
        let eon = EonProgram::on_plan(conv_artifact(), plan);
        match eon.run_in_arena(&input) {
            Err(RuntimeError::InvalidPlan(msg)) => assert!(msg.contains("conv2d"), "{msg}"),
            other => panic!("an aliased plan ran: {other:?}"),
        }
        // a buffer that starts past the arena is a plan error, not a panic
        let mut plan = EonProgram::compile(conv_artifact()).unwrap().plan().clone();
        plan.buffers[1].offset = plan.arena_bytes;
        let eon = EonProgram::on_plan(conv_artifact(), plan);
        match eon.run_in_arena(&input) {
            Err(RuntimeError::InvalidPlan(msg)) => assert!(msg.contains("overruns"), "{msg}"),
            other => panic!("an overrunning plan ran: {other:?}"),
        }
    }

    #[test]
    fn op_profile_rows_follow_the_planned_buffers() {
        let artifact = conv_artifact();
        let eon = EonProgram::compile(artifact.clone()).unwrap();
        let interp = Interpreter::new(artifact).unwrap();
        // both engines share the planner, so the rows are identical
        let rows = eon.op_profile();
        assert_eq!(rows, interp.op_profile());
        assert_eq!(rows.len(), eon.steps().len());
        for (row, step) in rows.iter().zip(eon.steps()) {
            assert_eq!(row.name, step.op.name);
            assert_eq!(row.macs, step.op.macs);
            assert_eq!(row.in_place, step.op.in_place);
        }
        // conv output: 8×8×4 float activations
        assert_eq!(rows[0].arena_bytes, 8 * 8 * 4 * 4);
        // in-place flatten aliases the pool's output buffer
        assert_eq!(rows[2].name, "flatten");
        assert_eq!(rows[2].arena_bytes, rows[1].arena_bytes);
    }

    #[test]
    fn quantized_artifact_shrinks_arena() {
        let spec = ModelSpec::new(Dims::new(8, 8, 1))
            .layer(LayerSpec::Conv2d {
                filters: 4,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::GlobalAvgPool)
            .layer(LayerSpec::Softmax);
        let model = Sequential::build(&spec, 3).unwrap();
        let calib = vec![vec![0.1f32; 64], vec![-0.4f32; 64]];
        let qmodel = ei_quant::quantize_model(&model, &calib).unwrap();
        let float_eon = EonProgram::compile(ModelArtifact::Float(model)).unwrap();
        let int8_eon = EonProgram::compile(ModelArtifact::Int8(qmodel)).unwrap();
        assert!(int8_eon.memory().arena_bytes < float_eon.memory().arena_bytes / 2);
    }
}
