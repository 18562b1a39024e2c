//! TFLite-Micro-style interpreter: op registry, dynamic dispatch, and the
//! RAM/flash overheads that come with interpreting a serialized graph.
//!
//! Arithmetic is shared with the EON executor: both run the model's one
//! walk, so engine choice changes dispatch overhead and memory shape, never
//! the numerics. See [`crate::eon`] for which kernels run. An op the
//! registry lacks is found when the interpreter is built, and every `run`
//! reports it as [`RuntimeError::MissingKernel`].

use std::collections::BTreeSet;

use crate::costs;
use crate::engine::{op_profiles, EngineKind, InferenceEngine, MemoryReport, OpProfile};
use crate::ir::ModelArtifact;
use crate::planner::{plan_model, MemoryPlan};
use crate::{Result, RuntimeError};

/// A TFLM-style interpreter bound to one model artifact.
///
/// The registry models the op-resolver: only registered kernels can run,
/// and every registered kernel costs flash whether or not the model uses
/// it (the `AllOpsResolver` failure mode EON avoids).
#[derive(Debug, Clone)]
pub struct Interpreter {
    artifact: ModelArtifact,
    registry: BTreeSet<&'static str>,
    plan: MemoryPlan,
    /// The first op in graph order that the registry lacks.
    missing: Option<&'static str>,
}

/// Every op name the full resolver registers.
const ALL_OPS: &[&str] = &[
    "conv2d",
    "depthwise_conv2d",
    "conv1d",
    "dense",
    "max_pool",
    "avg_pool",
    "global_avg_pool",
    "softmax",
    "batch_norm",
    "reshape",
    "flatten",
    "dropout",
];

impl Interpreter {
    /// Creates an interpreter registering exactly the ops the model uses
    /// (the `MutableOpResolver` best practice).
    ///
    /// # Errors
    ///
    /// Propagates memory-planning failures.
    pub fn new(artifact: ModelArtifact) -> Result<Interpreter> {
        let registry = artifact.op_kinds().into_iter().collect();
        Self::build(artifact, registry)
    }

    /// Creates an interpreter with every kernel registered (the
    /// `AllOpsResolver` convenience that wastes flash).
    ///
    /// # Errors
    ///
    /// Propagates memory-planning failures.
    pub fn with_all_ops(artifact: ModelArtifact) -> Result<Interpreter> {
        Self::build(artifact, ALL_OPS.iter().copied().collect())
    }

    /// Creates an interpreter with an explicit registry (for testing the
    /// missing-kernel path).
    ///
    /// # Errors
    ///
    /// Propagates memory-planning failures.
    pub fn with_ops(artifact: ModelArtifact, ops: &[&'static str]) -> Result<Interpreter> {
        Self::build(artifact, ops.iter().copied().collect())
    }

    fn build(artifact: ModelArtifact, registry: BTreeSet<&'static str>) -> Result<Interpreter> {
        let plan = plan_model(&artifact)?;
        let missing = artifact.ops().into_iter().map(|op| op.name).find(|n| !registry.contains(n));
        Ok(Interpreter { artifact, registry, plan, missing })
    }

    /// The planned activation arena.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }
}

impl InferenceEngine for Interpreter {
    fn kind(&self) -> EngineKind {
        EngineKind::TflmInterpreter
    }

    fn run(&self, input: &[f32]) -> Result<Vec<f32>> {
        if let Some(op) = self.missing {
            return Err(RuntimeError::MissingKernel(op.to_string()));
        }
        self.artifact.run_reference(input)
    }

    fn memory(&self) -> MemoryReport {
        let ops = self.artifact.ops();
        // tensor structs: one per activation buffer plus two per
        // parameterized op (weights + bias)
        let n_tensors =
            self.plan.buffers.len() + ops.iter().filter(|o| o.weight_bytes > 0).count() * 2;
        let runtime_ram = costs::TFLM_INTERPRETER_RAM_BYTES
            + n_tensors * costs::TFLM_TENSOR_STRUCT_BYTES
            + ops.len() * costs::TFLM_NODE_STRUCT_BYTES
            + costs::TFLM_SCRATCH_RAM_BYTES;
        let weight_bytes = self.artifact.weight_bytes();
        let model_format = (weight_bytes as f64 * costs::TFLM_SCHEMA_OVERHEAD_RATIO) as usize
            + costs::TFLM_SCHEMA_FIXED_BYTES;
        let kernel_code: usize = self
            .registry
            .iter()
            .map(|op| {
                (costs::kernel_code_bytes(op) as f64 * costs::TFLM_KERNEL_CODE_FACTOR) as usize
            })
            .sum();
        MemoryReport {
            arena_bytes: costs::padded_arena_bytes(self.plan.arena_bytes),
            runtime_ram_bytes: runtime_ram,
            weight_bytes,
            model_format_bytes: model_format,
            code_bytes: costs::TFLM_INTERPRETER_CODE_BYTES + kernel_code,
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
    use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
    use ei_nn::Sequential;

    fn artifact() -> ModelArtifact {
        let spec = ModelSpec::new(Dims::new(1, 8, 1))
            .named("kws-mini")
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 6, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        ModelArtifact::Float(Sequential::build(&spec, 3).unwrap())
    }

    #[test]
    fn runs_and_matches_reference() {
        let a = artifact();
        let interp = Interpreter::new(a.clone()).unwrap();
        let input = vec![0.1f32; 8];
        assert_eq!(interp.run(&input).unwrap(), a.run_reference(&input).unwrap());
        assert_eq!(interp.kind(), EngineKind::TflmInterpreter);
    }

    #[test]
    fn missing_kernel_detected() {
        let interp = Interpreter::with_ops(artifact(), &["dense", "flatten"]).unwrap();
        let err = interp.run(&[0.0; 8]).unwrap_err();
        assert_eq!(err, RuntimeError::MissingKernel("softmax".to_string()));
    }

    #[test]
    fn all_ops_resolver_costs_more_flash() {
        let minimal = Interpreter::new(artifact()).unwrap();
        let full = Interpreter::with_all_ops(artifact()).unwrap();
        assert!(full.memory().code_bytes > minimal.memory().code_bytes);
        // but identical RAM
        assert_eq!(full.memory().ram_total(), minimal.memory().ram_total());
    }

    #[test]
    fn memory_report_structure() {
        let interp = Interpreter::new(artifact()).unwrap();
        let m = interp.memory();
        assert!(m.arena_bytes > 0);
        assert!(m.runtime_ram_bytes >= costs::TFLM_INTERPRETER_RAM_BYTES);
        assert!(m.code_bytes >= costs::TFLM_INTERPRETER_CODE_BYTES);
        assert!(m.model_format_bytes >= costs::TFLM_SCHEMA_FIXED_BYTES);
        assert_eq!(m.weight_bytes, interp.artifact().weight_bytes());
    }
}
