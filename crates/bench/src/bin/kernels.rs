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
//! every f32 level on the KWS-conv and vision-depthwise shapes, against
//! the frozen `conv::reference` loops they were rewritten from.
//!
//! ```bash
//! cargo run --release -p ei-bench --bin kernels
//! ```
//!
//! Writes machine-readable rows to `results/kernels.json`.

use ei_bench::{quick_mode, Measurement, ResultsWriter};
use ei_nn::layers::conv::{self, conv2d_forward_at, depthwise_forward_at, Conv2dGeom};
use ei_nn::layers::im2col::im2col_2d;
use ei_nn::par::{conv2d_forward_auto, depthwise_forward_auto, gemm_f32_auto};
use ei_nn::spec::Padding;
use ei_par::{ParPool, Parallelism};
use ei_tensor::gemm::{gemm_f32, gemm_i8_fused, reference};
use ei_tensor::simd::{supported_f32_levels, supported_levels, F32Level, PackedI8};
use ei_trace::json::Json;
use std::time::Instant;

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

struct Row<'a> {
    shape: &'a str,
    kernel: &'a str,
    dims: (usize, usize, usize),
    threads: usize,
    wall_ms: f64,
    naive_ms: f64,
    bitwise_equal: bool,
    /// Wall time of the `Baseline` level, on the per-level rows.
    baseline_ms: Option<f64>,
}

fn push_row(writer: &mut ResultsWriter, row: &Row<'_>) {
    let (m, k, n) = row.dims;
    let mut json = writer
        .stamp()
        .field("shape", Json::Str(row.shape.to_string()))
        .field("kernel", Json::Str(row.kernel.to_string()))
        .field("m", Json::Uint(m as u64))
        .field("k", Json::Uint(k as u64))
        .field("n", Json::Uint(n as u64))
        .field("threads", Json::Uint(row.threads as u64))
        .field("wall_ms", Json::Float(row.wall_ms))
        .field("speedup_vs_naive", Json::Float(row.naive_ms / row.wall_ms));
    if let Some(baseline_ms) = row.baseline_ms {
        json = json.field("speedup_vs_baseline", Json::Float(baseline_ms / row.wall_ms));
    }
    writer.push(json.field("bitwise_equal", Json::Bool(row.bitwise_equal)));
    println!(
        "{:<18} {:<14} {:>4}x{:<4}x{:<4} threads={} {:>9.3} ms  {:>5.2}x  {}",
        row.shape,
        row.kernel,
        m,
        k,
        n,
        row.threads,
        row.wall_ms,
        row.naive_ms / row.wall_ms,
        if row.bitwise_equal { "bitwise-equal" } else { "MISMATCH" }
    );
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

    let dims = (m, k, n);
    push_row(
        writer,
        &Row {
            shape: "dense_mlp",
            kernel: "naive",
            dims,
            threads: 1,
            wall_ms: naive_ms,
            naive_ms,
            bitwise_equal: true,
            baseline_ms: None,
        },
    );
    push_row(
        writer,
        &Row {
            shape: "dense_mlp",
            kernel: "blocked",
            dims,
            threads: 1,
            wall_ms: blocked_ms,
            naive_ms,
            bitwise_equal: blocked_equal,
            baseline_ms: None,
        },
    );
    push_row(
        writer,
        &Row {
            shape: "dense_mlp",
            kernel: "blocked_par",
            dims,
            threads: pool4.threads(),
            wall_ms: par_ms,
            naive_ms,
            bitwise_equal: par_equal,
            baseline_ms: None,
        },
    );
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
        packed.gemm(m, a, requantize_relu, &mut out);
        let equal = out == naive;
        let wall_ms = time_ms(reps, || packed.gemm(m, a, requantize_relu, &mut out));
        let base = *baseline_ms.get_or_insert(wall_ms);
        best = best.max(base / wall_ms);
        push_row(
            writer,
            &Row {
                shape,
                kernel: &format!("int8_{}", level.name()),
                dims: (m, k, n),
                threads: 1,
                wall_ms,
                naive_ms,
                bitwise_equal: equal,
                baseline_ms: Some(base),
            },
        );
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
    push_row(
        writer,
        &Row {
            shape: "dense_mlp_int8",
            kernel: "naive",
            dims,
            threads: 1,
            wall_ms: naive_ms,
            naive_ms,
            bitwise_equal: true,
            baseline_ms: None,
        },
    );
    push_row(
        writer,
        &Row {
            shape: "dense_mlp_int8",
            kernel: "blocked_fused",
            dims,
            threads: 1,
            wall_ms: fused_ms,
            naive_ms,
            bitwise_equal: equal,
            baseline_ms: None,
        },
    );
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
    let a = im2col_2d(&input, g, a_zp);
    let naive_once = || -> Vec<i8> {
        let acc = reference::matmul_i8(m, k, n, &a, a_zp, &b, &bias);
        acc.iter().enumerate().map(|(i, &v)| requantize_relu(i % n, v)).collect()
    };
    let naive = naive_once();
    let naive_ms = time_ms(reps, || {
        std::hint::black_box(naive_once());
    });
    push_row(
        writer,
        &Row {
            shape: "kws_conv",
            kernel: "naive_int8",
            dims: (m, k, n),
            threads: 1,
            wall_ms: naive_ms,
            naive_ms,
            bitwise_equal: true,
            baseline_ms: None,
        },
    );
    int8_levels(writer, reps, "kws_conv", (m, k, n), (&a, a_zp), (&b, &bias), &naive, naive_ms);
}

/// An f32 direct kernel at every f32 level this host supports: one
/// `f32_<level>` row each, timed against `naive_ms` and the `Baseline`
/// level (the first), and bitwise-checked against `naive`.
fn f32_levels(
    writer: &mut ResultsWriter,
    reps: usize,
    (shape, dims): (&str, (usize, usize, usize)),
    (naive, naive_ms): (&[f32], f64),
    run: impl Fn(F32Level) -> Vec<f32>,
) {
    let mut baseline_ms = None;
    for level in supported_f32_levels() {
        let equal = run(level).iter().map(|v| v.to_bits()).eq(naive.iter().map(|v| v.to_bits()));
        let wall_ms = time_ms(reps, || {
            std::hint::black_box(run(level));
        });
        let base = *baseline_ms.get_or_insert(wall_ms);
        push_row(
            writer,
            &Row {
                shape,
                kernel: &format!("f32_{}", level.name()),
                dims,
                threads: 1,
                wall_ms,
                naive_ms,
                bitwise_equal: equal,
                baseline_ms: Some(base),
            },
        );
        assert!(equal, "{shape} at {level:?} must be bitwise-identical to the naive reference");
    }
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
    let dims = (oh * ow, g.kernel_h * g.kernel_w * g.in_c, g.out_c);
    let mut input = vec![0.0f32; g.in_h * g.in_w * g.in_c];
    let mut weights = vec![0.0f32; g.kernel_h * g.kernel_w * g.in_c * g.out_c];
    let mut bias = vec![0.0f32; g.out_c];
    fill_f32(&mut input, 21);
    fill_f32(&mut weights, 22);
    fill_f32(&mut bias, 23);

    let naive = conv::reference::conv2d_forward(&input, &weights, &bias, g);
    let serial = conv2d_forward_auto(pool1, &input, &weights, &bias, g);
    let steals_before = pool4.steals();
    let par = conv2d_forward_auto(pool4, &input, &weights, &bias, g);
    assert_eq!(
        pool4.steals(),
        steals_before,
        "kws_conv is below PAR_MIN_IM2COL_MACS and must dispatch serially"
    );
    let serial_equal = naive == serial;
    let par_equal = naive == par;

    let naive_ms = time_ms(reps, || {
        std::hint::black_box(conv::reference::conv2d_forward(&input, &weights, &bias, g));
    });
    let par_ms = time_ms(reps, || {
        std::hint::black_box(conv2d_forward_auto(pool4, &input, &weights, &bias, g));
    });

    push_row(
        writer,
        &Row {
            shape: "kws_conv",
            kernel: "naive",
            dims,
            threads: 1,
            wall_ms: naive_ms,
            naive_ms,
            bitwise_equal: serial_equal,
            baseline_ms: None,
        },
    );
    push_row(
        writer,
        &Row {
            shape: "kws_conv",
            kernel: "blocked_par",
            dims,
            threads: pool4.threads(),
            wall_ms: par_ms,
            naive_ms,
            bitwise_equal: par_equal,
            baseline_ms: None,
        },
    );
    assert!(serial_equal && par_equal, "kws_conv outputs must be bitwise-identical");
    f32_levels(writer, reps, ("kws_conv", dims), (&naive, naive_ms), |level| {
        conv2d_forward_at(level, &input, &weights, &bias, g)
    });
    naive_ms / par_ms
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

    let naive = conv::reference::depthwise_forward(&input, &weights, &bias, g);
    let serial = depthwise_forward_auto(pool1, &input, &weights, &bias, g);
    let par = depthwise_forward_auto(pool4, &input, &weights, &bias, g);
    let serial_equal = naive == serial;
    let par_equal = naive == par;

    let naive_ms = time_ms(reps, || {
        std::hint::black_box(conv::reference::depthwise_forward(&input, &weights, &bias, g));
    });
    let par_ms = time_ms(reps, || {
        std::hint::black_box(depthwise_forward_auto(pool4, &input, &weights, &bias, g));
    });

    push_row(
        writer,
        &Row {
            shape: "vision_depthwise",
            kernel: "naive",
            dims,
            threads: 1,
            wall_ms: naive_ms,
            naive_ms,
            bitwise_equal: serial_equal,
            baseline_ms: None,
        },
    );
    push_row(
        writer,
        &Row {
            shape: "vision_depthwise",
            kernel: "blocked_par",
            dims,
            threads: pool4.threads(),
            wall_ms: par_ms,
            naive_ms,
            bitwise_equal: par_equal,
            baseline_ms: None,
        },
    );
    assert!(serial_equal && par_equal, "depthwise outputs must be bitwise-identical");
    f32_levels(writer, reps, ("vision_depthwise", dims), (&naive, naive_ms), |level| {
        depthwise_forward_at(level, &input, &weights, &bias, g)
    });
    naive_ms / par_ms
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
    // no shape may regress below the naive reference: shapes the auto
    // gate keeps serial measure ~1.0, and the 0.92 floor absorbs timer
    // noise while still catching the 0.88x im2col regression this gate
    // was added for
    let min_speedup = dense_min.min(int8_speedup).min(kws_speedup).min(depthwise_speedup);
    println!("minimum non-naive speedup: {min_speedup:.2}x");
    assert!(
        min_speedup >= 0.92,
        "a kernel variant regressed below the naive reference (measured {min_speedup:.2}x)"
    );

    writer.write_and_report();
}
