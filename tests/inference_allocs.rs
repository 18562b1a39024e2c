//! One inference allocates a fixed handful of buffers, whatever the
//! model's depth: every kernel writes into a slice the walk hands it, so a
//! steady-state `run` of either engine allocates its ping-pong activations
//! and kernel scratch once and the returned output once.
//!
//! One test in its own binary: the counting allocator below sees every
//! thread of the process, so nothing else may run beside it. The global
//! pool is made serial before its first use, so no task is ever queued.

use edgelab::nn::presets;
use edgelab::nn::spec::{Dims, ModelSpec};
use edgelab::nn::Sequential;
use edgelab::par::config::THREADS_ENV;
use edgelab::quant::quantize_model;
use edgelab::runtime::{EonProgram, InferenceEngine, Interpreter, ModelArtifact};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation calls and bytes requested so far, over all threads.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn input(len: usize, seed: usize) -> Vec<f32> {
    (0..len).map(|i| ((i * 37 + seed * 11) % 101) as f32 / 50.0 - 1.0).collect()
}

/// Allocation calls and bytes of one `run`, after a first run has warmed
/// every lazily initialised global.
fn one_run(engine: &dyn InferenceEngine, x: &[f32]) -> (usize, usize) {
    engine.run(x).expect("runs");
    let (calls, bytes) = (CALLS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let out = engine.run(x).expect("runs");
    let counted = (CALLS.load(Ordering::SeqCst) - calls, BYTES.load(Ordering::SeqCst) - bytes);
    drop(out);
    counted
}

#[test]
fn a_steady_state_run_allocates_a_fixed_handful() {
    std::env::set_var(THREADS_ENV, "1");
    let cases: [(&str, ModelSpec); 3] = [
        ("kws", presets::ds_cnn(Dims::new(99, 10, 1), 4, 64)),
        ("vww", presets::mobilenet_v1(Dims::new(96, 96, 1), 2, 0.25)),
        ("ic", presets::cifar_cnn(Dims::new(32, 32, 3), 10)),
    ];
    let mut rows = Vec::new();
    let mut over = Vec::new();
    for (name, spec) in cases {
        let len = spec.input.len();
        let model = Sequential::build(&spec, 7).expect("preset builds");
        let calib: Vec<Vec<f32>> = (0..2).map(|s| input(len, s)).collect();
        let quantized = quantize_model(&model, &calib).expect("quantizes");
        let x = input(len, 5);
        for (dtype, artifact, limit) in [
            ("f32", ModelArtifact::Float(model.clone()), 3),
            ("int8", ModelArtifact::Int8(quantized), 6),
        ] {
            let eon = EonProgram::compile(artifact.clone()).expect("compiles");
            let tflm = Interpreter::new(artifact).expect("builds");
            let engines: [(&str, &dyn InferenceEngine); 2] = [("eon", &eon), ("tflm", &tflm)];
            for (engine_name, engine) in engines {
                let (calls, bytes) = one_run(engine, &x);
                let row = format!("{name}_{dtype}_{engine_name}: {calls} allocations, {bytes} B");
                if calls > limit {
                    over.push(format!("{row} (limit {limit})"));
                }
                rows.push(row);
            }
        }
    }
    println!("{}", rows.join("\n"));
    assert!(over.is_empty(), "over the allocation limit: {over:#?}");
}
