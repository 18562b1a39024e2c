//! The hit path does no model-sized work: once a registry model's
//! artifact is cached, an `Api::classify` request carries the stored
//! blob by pointer — it neither copies nor re-hashes the model JSON — so
//! what a request allocates does not depend on how large the model is.
//!
//! One test in its own binary: the counting allocator below sees every
//! thread of the process, so nothing else may run beside it.

use edgelab::core::impulse::ImpulseDesign;
use edgelab::data::synth::KwsGenerator;
use edgelab::dsp::{DspConfig, MfccConfig};
use edgelab::faults::{Clock, VirtualClock};
use edgelab::nn::{presets, train::TrainConfig};
use edgelab::par::{ParPool, Parallelism};
use edgelab::platform::Api;
use edgelab::runtime::EngineKind;
use edgelab::serve::{InferenceSpec, Server, ServerConfig};
use edgelab::trace::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes requested from the allocator so far, over all threads.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_cache_hit_allocates_nothing_model_sized() {
    const MB: usize = 1 << 20;
    let generator = KwsGenerator {
        classes: vec!["go".into(), "stop".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    };
    let design = ImpulseDesign::new(
        "model-bytes",
        1_000,
        DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 8,
            n_filters: 16,
            sample_rate_hz: 4_000,
        }),
    )
    .unwrap();
    let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
    let config = TrainConfig { epochs: 2, seed: 11, ..TrainConfig::default() };
    let json = design.train(&spec, &generator.dataset(4, 11), &config).unwrap().to_json().unwrap();
    // the same model at two registry sizes: whitespace is part of the
    // bytes the registry stores, hashes and would have to copy
    let padded = |len: usize| format!("{json}{}", " ".repeat(len - json.len()));

    let api = Api::new();
    let user = api.create_user("u");
    let project = api.create_project("model-bytes", user).unwrap();
    api.attach_serving(Arc::new(Server::new(
        ServerConfig::default(),
        VirtualClock::shared() as Arc<dyn Clock>,
        Arc::new(ParPool::new(Parallelism::serial())),
        Tracer::disabled(),
    )))
    .unwrap();
    api.upload_model(project, user, "one", padded(MB)).unwrap();
    api.upload_model(project, user, "two", padded(2 * MB)).unwrap();

    let clip = generator.generate(0, 3);
    let hit_bytes = |model: &str| {
        let spec = InferenceSpec::new(model, EngineKind::EonCompiled);
        // the warm-up request compiles and caches the artifact
        let cold = api.classify(project, user, &spec, clip.clone()).unwrap();
        let window = clip.clone();
        let before = ALLOCATED.load(Ordering::Relaxed);
        let hit = api.classify(project, user, &spec, window).unwrap();
        let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
        assert_eq!(hit, cold, "a hit answers as the cold compile did");
        bytes
    };
    let (one, two) = (hit_bytes("one"), hit_bytes("two"));
    assert!(one < MB, "a hit on a {MB}-byte model allocated {one} bytes");
    assert!(
        one.abs_diff(two) <= 4096,
        "hit-path allocation follows model size: {one} bytes at 1 MB, {two} at 2 MB"
    );
}
