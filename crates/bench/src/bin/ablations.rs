//! Design ablations beyond the paper's headline tables:
//!
//! 1. **EON overhead decomposition** — where exactly the RAM/flash savings
//!    of Table 4 come from (interpreter structs, schema, kernel code);
//! 2. **Operator fusion** — conv+BatchNorm folding: op count, MACs, and
//!    output equivalence;
//! 3. **Op resolver** — minimal vs all-ops kernel registration flash cost;
//! 4. **Memory planner** — greedy lifetime-sharing arena vs naive
//!    no-sharing allocation;
//! 5. **Fixed-point requantization** — integer multiplier error vs the
//!    float reference.

use ei_bench::{kb, Task};
use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec, Padding};
use ei_nn::Sequential;
use ei_quant::fusion::fold_batch_norm;
use ei_quant::qparams::FixedMultiplier;
use ei_runtime::planner::{activation_requests, plan_memory, PLAN_ALIGN};
use ei_runtime::{EonProgram, InferenceEngine, Interpreter};

fn main() {
    ablation_overhead();
    ablation_fusion();
    ablation_resolver();
    ablation_planner();
    ablation_requantization();
}

fn ablation_overhead() {
    println!("Ablation 1: EON vs TFLM overhead decomposition (KWS int8)");
    let (_, int8_a) = Task::KeywordSpotting.untrained_artifacts();
    let interp = Interpreter::new(int8_a.clone()).expect("builds");
    let eon = EonProgram::compile(int8_a).expect("compiles");
    let im = interp.memory();
    let em = eon.memory();
    println!("{:<28} {:>12} {:>12}", "", "TFLM", "EON");
    for (label, t, e) in [
        ("arena (kB)", im.arena_bytes, em.arena_bytes),
        ("runtime state RAM (kB)", im.runtime_ram_bytes, em.runtime_ram_bytes),
        ("weights flash (kB)", im.weight_bytes, em.weight_bytes),
        ("model format flash (kB)", im.model_format_bytes, em.model_format_bytes),
        ("code flash (kB)", im.code_bytes, em.code_bytes),
        ("TOTAL RAM (kB)", im.ram_total(), em.ram_total()),
        ("TOTAL flash (kB)", im.flash_total(), em.flash_total()),
    ] {
        println!("{label:<28} {:>12} {:>12}", kb(t), kb(e));
    }
    println!();
}

fn ablation_fusion() {
    println!("Ablation 2: conv + BatchNorm operator fusion");
    let spec = ModelSpec::new(Dims::new(16, 16, 1))
        .named("fusion-probe")
        .layer(LayerSpec::Conv2d {
            filters: 8,
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
            activation: Activation::None,
        })
        .layer(LayerSpec::BatchNorm)
        .layer(LayerSpec::Conv2d {
            filters: 8,
            kernel: 3,
            stride: 2,
            padding: Padding::Same,
            activation: Activation::None,
        })
        .layer(LayerSpec::BatchNorm)
        .layer(LayerSpec::GlobalAvgPool)
        .layer(LayerSpec::Dense { units: 4, activation: Activation::None })
        .layer(LayerSpec::Softmax);
    let model = Sequential::build(&spec, 3).expect("builds");
    let (fused, n) = fold_batch_norm(&model).expect("fuses");
    let input: Vec<f32> = (0..256).map(|i| ((i % 17) as f32 - 8.0) * 0.05).collect();
    let a = model.forward(&input).expect("runs");
    let b = fused.forward(&input).expect("runs");
    let max_err = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
    println!("  batch-norm ops folded:   {n}");
    println!("  ops before -> after:     {} -> {}", model.layers().len(), fused.layers().len());
    println!("  MACs before -> after:    {} -> {}", model.macs(), fused.macs());
    println!("  max output deviation:    {max_err:.2e}");
    println!();
}

fn ablation_resolver() {
    println!("Ablation 3: op resolver registration (flash)");
    let (float_a, _) = Task::ImageClassification.untrained_artifacts();
    let minimal = Interpreter::new(float_a.clone()).expect("builds");
    let all = Interpreter::with_all_ops(float_a).expect("builds");
    println!("  minimal resolver code:   {} kB", kb(minimal.memory().code_bytes));
    println!("  all-ops resolver code:   {} kB", kb(all.memory().code_bytes));
    println!(
        "  wasted by all-ops:       {} kB",
        kb(all.memory().code_bytes - minimal.memory().code_bytes)
    );
    println!();
}

fn ablation_planner() {
    println!("Ablation 4: arena memory planner (greedy lifetime sharing vs none)");
    for task in Task::all() {
        let (float_a, int8_a) = task.untrained_artifacts();
        for artifact in [float_a, int8_a] {
            let requests = activation_requests(&artifact);
            let plan = plan_memory(&requests).expect("plans");
            let naive: usize =
                requests.iter().map(|r| r.size.max(1).next_multiple_of(PLAN_ALIGN)).sum();
            println!(
                "  {:<28} {:>5}: planned {:>8} kB vs naive {:>8} kB  (-{:.0}%)",
                task.name(),
                if artifact.is_quantized() { "int8" } else { "f32" },
                kb(plan.arena_bytes),
                kb(naive),
                100.0 * (naive - plan.arena_bytes) as f64 / naive as f64
            );
        }
    }
    println!();
}

fn ablation_requantization() {
    println!("Ablation 5: fixed-point requantization error vs float reference");
    let mut worst: f64 = 0.0;
    let mut samples = 0u64;
    for &real in &[0.00037f32, 0.0041, 0.062, 0.33, 0.87, 1.9] {
        let fm = FixedMultiplier::from_real(real);
        for acc in (-200_000i32..200_000).step_by(7919) {
            let want = (acc as f64 * real as f64).round();
            let got = fm.apply(acc) as f64;
            worst = worst.max((want - got).abs());
            samples += 1;
        }
    }
    println!("  multipliers tested:      6");
    println!("  accumulators tested:     {samples}");
    println!("  worst absolute error:    {worst} LSB");
    println!();
}
