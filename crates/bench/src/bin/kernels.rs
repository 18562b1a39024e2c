//! Kernel-layer benchmark: naive reference loops vs the cache-blocked
//! GEMM (and its im2col conv lowerings) vs the fused int8 epilogue, over
//! the three shape classes the paper's models hit hardest — MLP dense
//! layers, KWS DS-CNN convolutions, and vision depthwise stacks.
//!
//! Every variant must produce *byte-identical* outputs to the naive
//! reference at any pool width (that is the contract that lets the
//! blocked kernels back both engines), so this binary asserts bitwise
//! equality before it reports a single number, then asserts the blocked
//! kernel is at least 2x the naive one on the large-GEMM shape. The int8
//! GEMM also runs at every `ei_tensor::simd` level the host supports, on
//! the dense and KWS-conv shapes; the best level must be at least 3x the
//! `Baseline` one on the dense shape. The f32 direct convolutions run at
//! every f32 level on the KWS-conv and vision-depthwise shapes, and on two
//! layers of the seed-7 presets on their real inputs (the KWS depthwise
//! layer and the VWW stem), against the frozen `conv::reference` loops
//! they were rewritten from. int8
//! calibration of the KWS preset runs twice, through the serial per-element
//! fold over cached activations and through the streaming `calibrate`; its
//! rows are bitwise-equal when both give the same `QuantParams` bits. The
//! KWS pointwise layer's requantization epilogue runs one element at a time
//! through `Requantizer::apply` and a row at a time at every level; the best
//! level must be at least 2x `apply`. The KWS MFCC front-end runs frame by frame (`per_frame`, the one-frame
//! routine) and at every f32 level through `process_at`, each checked
//! against the concatenated `frame_column` outputs; the best level must be
//! at least 2x `per_frame`.
//!
//! ```bash
//! cargo run --release -p ei-bench --bin kernels
//! ```
//!
//! Writes machine-readable rows to `results/kernels.json`.

use ei_bench::{quick_mode, Measurement, ResultsWriter, Task};
use ei_data::synth::{KwsGenerator, VwwGenerator};
use ei_dsp::blocks::FramedBlock;
use ei_dsp::window::{windowed_frames, WindowKind};
use ei_dsp::DspConfig;
use ei_nn::layers::conv::{self, conv2d_forward_at, depthwise_forward_at, Conv2dGeom};
use ei_nn::layers::im2col::im2col_2d;
use ei_nn::par::{conv2d_forward_auto, depthwise_forward_auto, gemm_f32_auto};
use ei_nn::spec::LayerSpec;
use ei_nn::spec::Padding;
use ei_nn::walk::Scratch;
use ei_nn::Kernel;
use ei_nn::Sequential;
use ei_par::{ParPool, Parallelism};
use ei_quant::calibrate::calibrate;
use ei_quant::fusion::fold_batch_norm;
use ei_quant::qmodel::quantize_model;
use ei_quant::QuantParams;
use ei_tensor::gemm::{gemm_f32, gemm_i8_fused, reference};
use ei_tensor::simd::{
    supported_f32_levels, supported_levels, F32Level, I8Scratch, Level, PackedI8, RowEpilogue,
};
use ei_trace::json::Json;
use std::time::Instant;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Deterministic pseudo-random f32 in roughly [-1, 1], never exactly zero
/// (so the `x == 0.0` skip in the kernels doesn't flatter either side).
fn fill_f32(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((state >> 40) as f32) / ((1u32 << 24) as f32); // [0, 1)
        *v = (u - 0.5) * 2.0 + 1.0e-3;
    }
}

/// Deterministic i8 fill over the full quantized range.
fn fill_i8(buf: &mut [i8], mut state: u64) {
    for v in buf.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = (state >> 40) as i8;
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One shape's row: the shape, its `(m, k, n)` and the naive reference's
/// wall time, then the kernel's name, threads, wall time and bitwise
/// verdict, and for a per-level row the `Baseline` level's wall time.
type Shape<'a> = (&'a str, (usize, usize, usize), f64);
type Run<'a> = (&'a str, usize, f64, bool);

fn push_row(writer: &mut ResultsWriter, shape: Shape<'_>, run: Run<'_>, baseline_ms: Option<f64>) {
    let ((shape, (m, k, n), naive_ms), (kernel, threads, wall_ms, equal)) = (shape, run);
    let mut json = writer
        .stamp()
        .field("shape", Json::Str(shape.to_string()))
        .field("kernel", Json::Str(kernel.to_string()))
        .field("m", Json::Uint(m as u64))
        .field("k", Json::Uint(k as u64))
        .field("n", Json::Uint(n as u64))
        .field("threads", Json::Uint(threads as u64))
        .field("wall_ms", Json::Float(wall_ms))
        .field("speedup_vs_naive", Json::Float(naive_ms / wall_ms));
    if let Some(baseline_ms) = baseline_ms {
        json = json.field("speedup_vs_baseline", Json::Float(baseline_ms / wall_ms));
    }
    writer.push(json.field("bitwise_equal", Json::Bool(equal)));
    let verdict = if equal { "bitwise-equal" } else { "MISMATCH" };
    let speedup = naive_ms / wall_ms;
    println!(
        "{shape:<18} {kernel:<14} {m:>4}x{k:<4}x{n:<4} threads={threads} {wall_ms:>9.3} ms  {speedup:>5.2}x  {verdict}"
    );
}

/// [`push_row`] for each of `runs`, none of them per level.
fn push_rows(writer: &mut ResultsWriter, shape: Shape<'_>, runs: &[Run<'_>]) {
    for &run in runs {
        push_row(writer, shape, run, None);
    }
}

/// MLP dense shape class: one big float GEMM (batch x in x out).
/// Returns (serial blocked speedup, min speedup) for the final asserts.
fn dense_mlp(writer: &mut ResultsWriter, reps: usize, pool4: &ParPool) -> (f64, f64) {
    let (m, k, n) = (256, 512, 512);
    let mut a = vec![0.0f32; m * k];
    let mut b = vec![0.0f32; k * n];
    let mut bias = vec![0.0f32; n];
    fill_f32(&mut a, 1);
    fill_f32(&mut b, 2);
    fill_f32(&mut bias, 3);

    let mut naive = vec![0.0f32; m * n];
    reference::matmul_f32(m, k, n, &a, &b, Some(&bias), &mut naive);
    let mut blocked = vec![0.0f32; m * n];
    gemm_f32(m, k, n, &a, &b, Some(&bias), &mut blocked);
    let mut par = vec![0.0f32; m * n];
    gemm_f32_auto(pool4, m, k, n, &a, &b, Some(&bias), &mut par);
    let blocked_equal = naive == blocked;
    let par_equal = naive == par;

    let mut scratch = vec![0.0f32; m * n];
    let naive_ms =
        time_ms(reps, || reference::matmul_f32(m, k, n, &a, &b, Some(&bias), &mut scratch));
    let blocked_ms = time_ms(reps, || gemm_f32(m, k, n, &a, &b, Some(&bias), &mut blocked));
    let par_ms = time_ms(reps, || gemm_f32_auto(pool4, m, k, n, &a, &b, Some(&bias), &mut par));

    let rows = [
        ("naive", 1, naive_ms, true),
        ("blocked", 1, blocked_ms, blocked_equal),
        ("blocked_par", pool4.threads(), par_ms, par_equal),
    ];
    push_rows(writer, ("dense_mlp", (m, k, n), naive_ms), &rows);
    assert!(blocked_equal && par_equal, "dense_mlp outputs must be bitwise-identical");
    ((naive_ms / blocked_ms), (naive_ms / blocked_ms).min(naive_ms / par_ms))
}

/// A per-column requantize+ReLU of the kind ei-quant's epilogue applies.
fn requantize_relu(j: usize, acc: i32) -> i8 {
    let scaled = ((acc as i64 * (1_500_000_000 + j as i64)) >> 40) as i32;
    scaled.clamp(0, 127) as i8
}

/// The int8 GEMM at every level this host supports, over weights packed
/// once: one `int8_<level>` row each, timed against `naive_ms` and the
/// `Baseline` level (the first). Returns the best level's speedup over
/// `Baseline`.
#[allow(clippy::too_many_arguments)]
fn int8_levels(
    writer: &mut ResultsWriter,
    reps: usize,
    shape: &str,
    (m, k, n): (usize, usize, usize),
    (a, a_zp): (&[i8], i8),
    (b, bias): (&[i8], &[i32]),
    naive: &[i8],
    naive_ms: f64,
) -> f64 {
    let mut baseline_ms = None;
    let mut best = 0.0f64;
    for level in supported_levels() {
        let packed = PackedI8::with_level(level, k, n, b, bias, a_zp).expect("level is supported");
        let mut out = vec![0i8; m * n];
        let mut scratch = I8Scratch::new(packed.scratch_len());
        packed.gemm(m, a, requantize_relu, &mut scratch, &mut out);
        let equal = out == naive;
        let wall_ms = time_ms(reps, || packed.gemm(m, a, requantize_relu, &mut scratch, &mut out));
        let base = *baseline_ms.get_or_insert(wall_ms);
        best = best.max(base / wall_ms);
        let kernel = format!("int8_{}", level.name());
        push_row(writer, (shape, (m, k, n), naive_ms), (&kernel, 1, wall_ms, equal), Some(base));
        assert!(equal, "{shape} at {level:?} must be bitwise-identical to the naive reference");
    }
    best
}

/// Fused int8 shape class: the same GEMM through the quantized kernel,
/// with requantize+ReLU fused into the epilogue vs applied in a second
/// pass over an i32 buffer (what the engines did before fusion), then at
/// every level over pre-packed weights. Returns the fused speedup over
/// naive and the best level's over `Baseline`.
fn dense_mlp_int8(writer: &mut ResultsWriter, reps: usize) -> (f64, f64) {
    let (m, k, n) = (256, 512, 512);
    let mut a = vec![0i8; m * k];
    let mut b = vec![0i8; k * n];
    fill_i8(&mut a, 11);
    fill_i8(&mut b, 12);
    let bias: Vec<i32> = (0..n as i32).map(|j| j * 7 - 512).collect();
    let a_zp = 3i8;
    let epi = requantize_relu;

    let naive_once = || {
        let acc = reference::matmul_i8(m, k, n, &a, a_zp, &b, &bias);
        let mut out = vec![0i8; m * n];
        for (i, v) in acc.iter().enumerate() {
            out[i] = epi(i % n, *v);
        }
        out
    };

    let naive = naive_once();
    let mut fused = vec![0i8; m * n];
    gemm_i8_fused(m, k, n, &a, a_zp, &b, &bias, epi, &mut fused);
    let equal = naive == fused;

    let naive_ms = time_ms(reps, || {
        std::hint::black_box(naive_once());
    });
    let fused_ms = time_ms(reps, || gemm_i8_fused(m, k, n, &a, a_zp, &b, &bias, epi, &mut fused));

    let dims = (m, k, n);
    let rows = [("naive", 1, naive_ms, true), ("blocked_fused", 1, fused_ms, equal)];
    push_rows(writer, ("dense_mlp_int8", dims, naive_ms), &rows);
    assert!(equal, "int8 fused output must be bitwise-identical to requantize-after");
    let best = int8_levels(
        writer,
        reps,
        "dense_mlp_int8",
        dims,
        (&a, a_zp),
        (&b, &bias),
        &naive,
        naive_ms,
    );
    (naive_ms / fused_ms, best)
}

/// The KWS conv shape in int8: the im2col patches of a 49×10×64 input
/// through the naive GEMM + epilogue and through every level.
fn kws_conv_int8(writer: &mut ResultsWriter, reps: usize) {
    let g = Conv2dGeom {
        in_h: 49,
        in_w: 10,
        in_c: 64,
        out_c: 64,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: Padding::Same,
    };
    let (oh, ow, _, _) = g.output();
    let (m, k, n) = (oh * ow, g.kernel_h * g.kernel_w * g.in_c, g.out_c);
    let mut input = vec![0i8; g.in_h * g.in_w * g.in_c];
    let mut b = vec![0i8; k * n];
    fill_i8(&mut input, 41);
    fill_i8(&mut b, 42);
    let bias: Vec<i32> = (0..n as i32).map(|j| j * 11 - 300).collect();
    let a_zp = -128i8;
    let mut a = vec![0i8; m * k];
    im2col_2d(&input, g, a_zp, &mut a);
    let naive_once = || -> Vec<i8> {
        let acc = reference::matmul_i8(m, k, n, &a, a_zp, &b, &bias);
        acc.iter().enumerate().map(|(i, &v)| requantize_relu(i % n, v)).collect()
    };
    let naive = naive_once();
    let naive_ms = time_ms(reps, || {
        std::hint::black_box(naive_once());
    });
    push_rows(writer, ("kws_conv", (m, k, n), naive_ms), &[("naive_int8", 1, naive_ms, true)]);
    int8_levels(writer, reps, "kws_conv", (m, k, n), (&a, a_zp), (&b, &bias), &naive, naive_ms);
}

/// The int8 requantization epilogue on its own, over the KWS preset's
/// first pointwise layer (a 1×1 convolution, 64 → 64 channels at 250
/// pixels): its accumulators, formed by `reference::matmul_i8` from the
/// layer's input codes on one feature window, go through
/// `Requantizer::apply` one element at a time (`apply`, the oracle) and a
/// row at a time through the layer's `Requantizer` at every level
/// (`int8_<level>`). `m`, `k`, `n` are the GEMM's. Returns the best level's
/// speedup over `apply`.
fn int8_requantize(writer: &mut ResultsWriter, reps: usize) -> Result<f64> {
    let task = Task::KeywordSpotting;
    let model = Sequential::build(&task.model_spec(), 7)?;
    let block = task.design().dsp_block()?;
    let generator = KwsGenerator::default();
    let calibration = (0..4)
        .map(|i| block.process(&generator.generate(i, 100 + i as u64)))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let quantized = quantize_model(&model, &calibration)?;
    let trace = quantized.trace_raw(&calibration[0])?;
    let (i, layer) = quantized
        .layers()
        .iter()
        .enumerate()
        .find(|(_, l)| matches!(l.spec, LayerSpec::Conv2d { kernel: 1, .. }))
        .ok_or("the KWS preset has no pointwise layer")?;
    let (m, k, n) = (layer.input.h * layer.input.w, layer.input.c, layer.output.c);
    let (weights, bias) = layer.weights.as_ref().zip(layer.bias.as_ref()).ok_or("no weights")?;
    let in_zp = layer.in_q.zero_point as i8;
    let acc = reference::matmul_i8(m, k, n, &trace[i], in_zp, weights, bias);
    let oracle = layer.requantizer(Level::Baseline).ok_or("no integer requantizer")?;
    let mut out = vec![0i8; m * n];
    let apply = |out: &mut [i8]| {
        for (row, orow) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            for (j, (o, &v)) in orow.iter_mut().zip(row).enumerate() {
                *o = oracle.apply(j, v);
            }
        }
    };
    apply(&mut out);
    let naive = out.clone();
    let naive_ms = time_ms(reps, || {
        apply(&mut out);
        std::hint::black_box(&out);
    });
    let shape = ("int8_requantize", (m, k, n), naive_ms);
    push_row(writer, shape, ("apply", 1, naive_ms, true), None);
    let (mut baseline_ms, mut best) = (None, 0.0f64);
    for level in supported_levels() {
        let rq = layer.requantizer(level).ok_or("level is supported")?;
        let retire = |out: &mut [i8]| {
            for (row, orow) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
                (&rq).retire(row, orow);
            }
        };
        out.fill(0x5a);
        retire(&mut out);
        let equal = out == naive;
        let wall_ms = time_ms(reps, || {
            retire(&mut out);
            std::hint::black_box(&out);
        });
        let base = *baseline_ms.get_or_insert(wall_ms);
        best = best.max(naive_ms / wall_ms);
        let kernel = format!("int8_{}", level.name());
        push_row(writer, shape, (&kernel, 1, wall_ms, equal), Some(base));
        if !equal {
            return Err(format!("int8_requantize at {level:?} differs from apply").into());
        }
    }
    Ok(best)
}

/// An f32 kernel at every f32 level this host supports: one
/// `f32_<level>` row each, timed against `naive_ms` and the `Baseline`
/// level (the first), and bitwise-checked against `naive`. Returns the
/// best level's speedup over `naive_ms`.
fn f32_levels(
    writer: &mut ResultsWriter,
    reps: usize,
    (shape, dims): (&str, (usize, usize, usize)),
    (naive, naive_ms): (&[f32], f64),
    mut run: impl FnMut(F32Level, &mut [f32]),
) -> f64 {
    let mut baseline_ms = None;
    let mut best = 0.0f64;
    let mut out = vec![f32::NAN; naive.len()];
    for level in supported_f32_levels() {
        run(level, &mut out);
        let equal = out.iter().map(|v| v.to_bits()).eq(naive.iter().map(|v| v.to_bits()));
        let wall_ms = time_ms(reps, || {
            run(level, &mut out);
            std::hint::black_box(&out);
        });
        let base = *baseline_ms.get_or_insert(wall_ms);
        best = best.max(naive_ms / wall_ms);
        let kernel = format!("f32_{}", level.name());
        push_row(writer, (shape, dims, naive_ms), (&kernel, 1, wall_ms, equal), Some(base));
        assert!(equal, "{shape} at {level:?} must be bitwise-identical to the naive reference");
    }
    best
}

/// One f32 convolution shape class: the frozen reference loop (`naive`),
/// the pool-dispatched kernel on `pool4` (`blocked_par`, which
/// `serial_on_pool4` says must queue no task) and on a serial pool, and the
/// direct kernel at every f32 level, each bitwise-checked against the
/// reference. Returns the `blocked_par` speedup.
#[allow(clippy::too_many_arguments)]
fn conv_shape(
    writer: &mut ResultsWriter,
    reps: usize,
    (shape, dims): (&str, (usize, usize, usize)),
    (pool1, pool4, serial_on_pool4): (&ParPool, &ParPool, bool),
    naive: impl Fn() -> Vec<f32>,
    mut auto: impl FnMut(&ParPool, &mut [f32]),
    at: impl FnMut(F32Level, &mut [f32]),
) -> f64 {
    let want = naive();
    let mut out = vec![f32::NAN; want.len()];
    auto(pool1, &mut out);
    let serial_equal = want == out;
    let steals_before = pool4.steals();
    auto(pool4, &mut out);
    let par_equal = want == out;
    if serial_on_pool4 {
        let msg = "is below PAR_MIN_IM2COL_MACS and must dispatch serially";
        assert_eq!(pool4.steals(), steals_before, "{shape} {msg}");
    }
    let naive_ms = time_ms(reps, || {
        std::hint::black_box(naive());
    });
    let par_ms = time_ms(reps, || auto(pool4, std::hint::black_box(&mut out)));
    let rows =
        [("naive", 1, naive_ms, serial_equal), ("blocked_par", pool4.threads(), par_ms, par_equal)];
    push_rows(writer, (shape, dims, naive_ms), &rows);
    assert!(serial_equal && par_equal, "{shape} outputs must be bitwise-identical");
    f32_levels(writer, reps, (shape, dims), (&want, naive_ms), at);
    naive_ms / par_ms
}

/// KWS conv shape class: a mid-stack DS-CNN conv2d. At ~18 M MACs this
/// sits below `PAR_MIN_IM2COL_MACS`, so the auto path must stay on the
/// direct serial kernel — the reported speedup hovers at 1.0 instead of
/// the 0.88x regression the im2col lowering used to cost here.
fn kws_conv(writer: &mut ResultsWriter, reps: usize, pool1: &ParPool, pool4: &ParPool) -> f64 {
    let g = Conv2dGeom {
        in_h: 49,
        in_w: 10,
        in_c: 64,
        out_c: 64,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: Padding::Same,
    };
    let (oh, ow, _, _) = g.output();
    let dims = (oh * ow, g.window(), g.out_c);
    let mut input = vec![0.0f32; g.in_h * g.in_w * g.in_c];
    let mut weights = vec![0.0f32; g.window() * g.out_c];
    let mut bias = vec![0.0f32; g.out_c];
    fill_f32(&mut input, 21);
    fill_f32(&mut weights, 22);
    fill_f32(&mut bias, 23);
    let (x, w, b) = (&input[..], &weights[..], &bias[..]);
    let mut scratch = Scratch::for_kernels([Kernel::Conv2d(g)]);
    conv_shape(
        writer,
        reps,
        ("kws_conv", dims),
        (pool1, pool4, true),
        || conv::reference::conv2d_forward(x, w, b, g),
        |pool, out| conv2d_forward_auto(pool, x, w, b, g, &mut scratch, out),
        |level, out| conv2d_forward_at(level, x, w, b, g, out),
    )
}

/// Vision depthwise shape class: 96x96x24, 3x3 per-channel filters.
fn vision_depthwise(
    writer: &mut ResultsWriter,
    reps: usize,
    pool1: &ParPool,
    pool4: &ParPool,
) -> f64 {
    let g = Conv2dGeom {
        in_h: 96,
        in_w: 96,
        in_c: 24,
        out_c: 24,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: Padding::Same,
    };
    let (oh, ow, _, _) = g.output();
    let dims = (oh * ow, g.kernel_h * g.kernel_w, g.in_c);
    let mut input = vec![0.0f32; g.in_h * g.in_w * g.in_c];
    let mut weights = vec![0.0f32; g.kernel_h * g.kernel_w * g.in_c];
    let mut bias = vec![0.0f32; g.in_c];
    fill_f32(&mut input, 31);
    fill_f32(&mut weights, 32);
    fill_f32(&mut bias, 33);
    let (x, w, b) = (&input[..], &weights[..], &bias[..]);
    let mut scratch = Scratch::for_kernels([Kernel::Depthwise(g)]);
    let mut padded = scratch.patches.clone();
    conv_shape(
        writer,
        reps,
        ("vision_depthwise", dims),
        (pool1, pool4, false),
        || conv::reference::depthwise_forward(x, w, b, g),
        |pool, out| depthwise_forward_auto(pool, x, w, b, g, &mut scratch, out),
        |level, out| depthwise_forward_at(level, x, w, b, g, &mut padded, out),
    )
}

/// A layer of `task`'s seed-7 f32 preset, the first whose kernel `pick`
/// maps to a geometry, on its real input: the activation that reaches it
/// from one DSP feature window. Returns the geometry, that input, and the
/// layer's weights and biases.
type PresetLayer = (Conv2dGeom, Vec<f32>, Vec<f32>, Vec<f32>);

fn preset_layer(task: Task, pick: impl Fn(Kernel) -> Option<Conv2dGeom>) -> Result<PresetLayer> {
    let model = Sequential::build(&task.model_spec(), 7)?;
    let raw = match task {
        Task::VisualWakeWords => VwwGenerator::default().generate(true, 7),
        _ => KwsGenerator::default().generate(1, 7),
    };
    let features = task.design().dsp_block()?.process(&raw)?;
    let (i, g) = model
        .layers()
        .iter()
        .enumerate()
        .find_map(|(i, l)| Some((i, pick(l.resolve().ok()?.kernel)?)))
        .ok_or("the preset has no such layer")?;
    let mut input = Vec::new();
    model.forward_observed(&features, |at, act| {
        if at == i {
            input = act.to_vec();
        }
    })?;
    let (weights, bias) = model.layers()[i].params()?;
    Ok((g, input, weights.to_vec(), bias.to_vec()))
}

/// The KWS preset's first depthwise layer (50×5×64, 3×3) on its real
/// input, which is about half ReLU zeros.
fn kws_depthwise(
    writer: &mut ResultsWriter,
    reps: usize,
    pool1: &ParPool,
    pool4: &ParPool,
) -> Result<f64> {
    let depthwise = |k| match k {
        Kernel::Depthwise(g) => Some(g),
        _ => None,
    };
    let (g, input, weights, bias) = preset_layer(Task::KeywordSpotting, depthwise)?;
    let (oh, ow, _, _) = g.output();
    let dims = (oh * ow, g.kernel_h * g.kernel_w, g.in_c);
    let (x, w, b) = (&input[..], &weights[..], &bias[..]);
    let mut scratch = Scratch::for_kernels([Kernel::Depthwise(g)]);
    let mut padded = scratch.patches.clone();
    Ok(conv_shape(
        writer,
        reps,
        ("kws_depthwise", dims),
        (pool1, pool4, false),
        || conv::reference::depthwise_forward(x, w, b, g),
        |pool, out| depthwise_forward_auto(pool, x, w, b, g, &mut scratch, out),
        |level, out| depthwise_forward_at(level, x, w, b, g, &mut padded, out),
    ))
}

/// The VWW preset's stem (96×96×1 → 8, 3×3, stride 2) on its real input,
/// one preprocessed image: one input channel, so the direct kernel adds
/// every tap.
fn vww_stem(
    writer: &mut ResultsWriter,
    reps: usize,
    pool1: &ParPool,
    pool4: &ParPool,
) -> Result<f64> {
    let conv = |k| match k {
        Kernel::Conv2d(g) => Some(g),
        _ => None,
    };
    let (g, input, weights, bias) = preset_layer(Task::VisualWakeWords, conv)?;
    let (oh, ow, _, _) = g.output();
    let dims = (oh * ow, g.window(), g.out_c);
    let (x, w, b) = (&input[..], &weights[..], &bias[..]);
    let mut scratch = Scratch::for_kernels([Kernel::Conv2d(g)]);
    Ok(conv_shape(
        writer,
        reps,
        ("vww_stem", dims),
        (pool1, pool4, true),
        || conv::reference::conv2d_forward(x, w, b, g),
        |pool, out| conv2d_forward_auto(pool, x, w, b, g, &mut scratch, out),
        |level, out| conv2d_forward_at(level, x, w, b, g, out),
    ))
}

/// The reference calibration: a serial `f32::min` / `f32::max` fold over
/// every activation of a cached forward pass per sample. Boundaries with no
/// finite range fall back to `(-1, 1)`, as in `calibrate`.
fn reference_ranges(model: &Sequential, calibration: &[Vec<f32>]) -> Result<Vec<(f32, f32)>> {
    let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); model.layers().len() + 1];
    for sample in calibration {
        let cache = model.forward_cached(sample, false, None)?;
        for (r, act) in ranges.iter_mut().zip(&cache.activations) {
            for &v in act {
                r.0 = r.0.min(v);
                r.1 = r.1.max(v);
            }
        }
    }
    for r in &mut ranges {
        if !r.0.is_finite() || !r.1.is_finite() {
            *r = (-1.0, 1.0);
        }
    }
    Ok(ranges)
}

/// int8 calibration of the KWS preset (`BatchNorm` folded, as
/// `quantize_model` calibrates it) over 16 DSP feature windows: the
/// reference fold above against the streaming `calibrate`. The rows are
/// bitwise-equal when every boundary's `QuantParams` has the same bits;
/// their `m`, `k`, `n` are windows, boundaries and values per window.
fn quant_calibrate(writer: &mut ResultsWriter, reps: usize) -> Result<()> {
    let task = Task::KeywordSpotting;
    let (model, _) = fold_batch_norm(&Sequential::build(&task.model_spec(), 7)?)?;
    let block = task.design().dsp_block()?;
    let generator = KwsGenerator::default();
    let calibration = (0..16)
        .map(|i| block.process(&generator.generate(i % 4, 100 + i as u64)))
        .collect::<std::result::Result<Vec<_>, _>>()?;

    let qbits = |q: QuantParams| (q.scale.to_bits(), q.zero_point);
    let reference: Vec<_> = reference_ranges(&model, &calibration)?
        .into_iter()
        .map(|(lo, hi)| qbits(QuantParams::from_range(lo, hi)))
        .collect();
    let ranges = calibrate(&model, &calibration)?;
    let streamed: Vec<_> = (0..ranges.len()).map(|i| qbits(ranges.qparams(i))).collect();
    let equal = streamed == reference;

    let naive_ms = time_ms(reps, || {
        std::hint::black_box(reference_ranges(&model, &calibration).ok());
    });
    let wall_ms = time_ms(reps, || {
        std::hint::black_box(calibrate(&model, &calibration).ok());
    });
    let values: usize = model.layers().iter().map(|l| l.output.len()).sum();
    let dims = (calibration.len(), ranges.len(), model.input_dims().len() + values);
    let threads = ParPool::global().threads();
    let rows =
        [("reference_fold", threads, naive_ms, true), ("streaming", threads, wall_ms, equal)];
    push_rows(writer, ("quant_calibrate", dims, naive_ms), &rows);
    if equal {
        Ok(())
    } else {
        Err("streaming calibration's QuantParams differ from the reference fold's".into())
    }
}

/// The KWS MFCC front-end on one keyword clip: `process_at` at
/// `F32Level::Baseline`, which runs the one-frame routine frame by frame,
/// as `per_frame`, then one `f32_<level>` row per level. The oracle is
/// `frame_column` over each windowed frame, concatenated. `m`, `k`, `n`
/// are frames, FFT length and coefficients per frame. Returns the best
/// level's speedup over `per_frame`.
fn dsp_mfcc(writer: &mut ResultsWriter, reps: usize) -> Result<f64> {
    let config = Task::KeywordSpotting.dsp();
    if !matches!(config, DspConfig::Mfcc(_)) {
        return Err("the KWS task's DSP block is not MFCC".into());
    }
    let block = FramedBlock::new(&config)?;
    let clip = KwsGenerator::default().generate(1, 7);
    let framing = block.framing();
    let mut oracle = Vec::new();
    for frame in windowed_frames(&clip, framing, WindowKind::Hann)? {
        oracle.extend(block.frame_column(&frame)?);
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let per_frame = block.process_at(F32Level::Baseline, &clip)?;
    let per_frame_equal = bits(&per_frame) == bits(&oracle);
    let per_frame_ms = time_ms(reps, || {
        std::hint::black_box(block.process_at(F32Level::Baseline, &clip).ok());
    });
    let dims = (framing.frame_count(clip.len()), 512, block.features_per_frame());
    let shape = ("dsp_mfcc", dims, per_frame_ms);
    push_row(writer, shape, ("per_frame", 1, per_frame_ms, per_frame_equal), None);
    if !per_frame_equal {
        return Err("per-frame MFCC differs from its frame_column oracle".into());
    }
    let best =
        f32_levels(writer, reps, ("dsp_mfcc", dims), (&oracle, per_frame_ms), |level, out| {
            match block.process_at(level, &clip) {
                Ok(features) => out.copy_from_slice(&features),
                Err(_) => out.fill(f32::NAN), // fails the bitwise check
            }
        });
    Ok(best)
}

fn main() {
    let reps = if quick_mode() { 5 } else { 10 };
    let pool1 = ParPool::new(Parallelism::serial());
    let pool4 = ParPool::new(Parallelism::new(4));
    let mut writer = ResultsWriter::new("kernels", Measurement::Wall);

    println!("kernel layer: naive reference vs blocked/fused (best of {reps} reps)");
    println!();
    let (dense_speedup, dense_min) = dense_mlp(&mut writer, reps, &pool4);
    let (int8_speedup, best_level) = dense_mlp_int8(&mut writer, reps);
    let kws_speedup = kws_conv(&mut writer, reps, &pool1, &pool4);
    kws_conv_int8(&mut writer, reps);
    let depthwise_speedup = vision_depthwise(&mut writer, reps, &pool1, &pool4);
    // a preset layer takes tens of microseconds: 10x the reps
    let preset_speedups = kws_depthwise(&mut writer, 10 * reps, &pool1, &pool4)
        .and_then(|kws| Ok(kws.min(vww_stem(&mut writer, 10 * reps, &pool1, &pool4)?)))
        .unwrap_or_else(|e| {
            eprintln!("preset layers: {e}");
            std::process::exit(1);
        });
    if let Err(e) = quant_calibrate(&mut writer, reps) {
        eprintln!("quant_calibrate: {e}");
        std::process::exit(1);
    }
    // one layer's epilogue takes tens of microseconds: 100x the reps
    let requantize_speedup = int8_requantize(&mut writer, 100 * reps).unwrap_or_else(|e| {
        eprintln!("int8_requantize: {e}");
        std::process::exit(1);
    });
    // a clip takes well under a millisecond: 20x the reps for a stable best
    let mfcc_speedup = dsp_mfcc(&mut writer, 20 * reps).unwrap_or_else(|e| {
        eprintln!("dsp_mfcc: {e}");
        std::process::exit(1);
    });

    println!();
    println!("dense_mlp blocked speedup over naive: {dense_speedup:.2}x");
    assert!(
        dense_speedup >= 2.0,
        "blocked GEMM must be at least 2x the naive reference on the large shape \
         (measured {dense_speedup:.2}x)"
    );
    println!("dense_mlp_int8 best level over Baseline: {best_level:.2}x");
    if supported_levels().len() > 1 {
        assert!(
            best_level >= 3.0,
            "the best int8 level must be at least 3x Baseline on dense_mlp_int8 \
             (measured {best_level:.2}x)"
        );
    }
    println!("int8_requantize best level over apply: {requantize_speedup:.2}x");
    if supported_levels().len() > 1 {
        assert!(
            requantize_speedup >= 2.0,
            "the best int8 level must retire rows at least 2x faster than apply \
             (measured {requantize_speedup:.2}x)"
        );
    }
    println!("dsp_mfcc best level over per_frame: {mfcc_speedup:.2}x");
    if supported_f32_levels().len() > 1 {
        assert!(
            mfcc_speedup >= 2.0,
            "the best f32 level of the KWS MFCC must be at least 2x per_frame \
             (measured {mfcc_speedup:.2}x)"
        );
    }
    // no shape may regress below the naive reference: shapes the auto
    // gate keeps serial measure ~1.0, and the 0.92 floor absorbs timer
    // noise while still catching the 0.88x im2col regression this gate
    // was added for
    let min_speedup =
        dense_min.min(int8_speedup).min(kws_speedup).min(depthwise_speedup).min(preset_speedups);
    println!("minimum non-naive speedup: {min_speedup:.2}x");
    assert!(
        min_speedup >= 0.92,
        "a kernel variant regressed below the naive reference (measured {min_speedup:.2}x)"
    );

    writer.write_and_report();
}
