//! The per-layer probes of the traced run: direct, timed calls into each
//! crate's public functions on the standard fixtures.
//!
//! The same suite runs whatever the workload, so a layer's number means
//! the same thing in every traced run; what a *workload* spends per layer
//! comes from its spans (`share.*`). Every time is the median of the
//! stated number of calls.

use crate::clock::WallClock;
use crate::fixtures::{
    acquisition_cbor, acquisition_json, artifact, engine_name, Task, CALIBRATION,
};
use crate::harness::{default_cache_capacity, server_config, Stack};
use crate::stats;
use ei_core::TrainedImpulse;
use ei_data::cbor::{encode, parse_cbor};
use ei_data::ingest::{parse_json, parse_wav, to_wav_bytes};
use ei_data::Split;
use ei_device::{Board, Profiler};
use ei_dsp::StreamingExtractor;
use ei_nn::train::{TrainConfig, Trainer};
use ei_platform::{InferenceSpec, JobScheduler, ProjectId};
use ei_runtime::{EngineKind, EonProgram, InferenceEngine, Interpreter};
use ei_serve::{
    content_hash, ArtifactKey, CompiledArtifact, CompiledArtifactCache, InferenceRequest,
    ModelSource, Server,
};
use ei_shard::{QuotaLedger, ShardMap};
use ei_stream::{SessionConfig, StreamSession};
use ei_tensor::gemm::{gemm_f32, gemm_i8_fused};
use ei_trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One per-layer measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Timed calls (or, for a count, observations) behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// Median seconds of `reps` calls of `f` on inputs `prepare` builds
/// outside the timer (for calls that consume their argument).
fn median_s<I, R>(reps: usize, mut prepare: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let samples = (0..reps)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            black_box(f(black_box(input)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(samples)
}

struct Suite {
    metrics: Vec<Metric>,
}

impl Suite {
    /// Records the median of `reps` calls of `f`, scaled to `unit`
    /// (`"ms"`, `"us"` or `"ns"`), and returns it in seconds.
    fn time<R>(
        &mut self,
        name: &str,
        unit: &'static str,
        reps: usize,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        self.time_with(name, unit, reps, || (), |()| f())
    }

    fn time_with<I, R>(
        &mut self,
        name: &str,
        unit: &'static str,
        reps: usize,
        prepare: impl FnMut() -> I,
        f: impl FnMut(I) -> R,
    ) -> f64 {
        let seconds = median_s(reps, prepare, f);
        self.push(name, seconds * per_second(unit), unit, reps);
        seconds
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }
}

fn per_second(unit: &str) -> f64 {
    match unit {
        "ms" => 1e3,
        "us" => 1e6,
        "ns" => 1e9,
        other => unreachable!("no time unit {other}"),
    }
}

/// A task's impulse with everything the probes run on.
struct Fixture {
    task: Task,
    impulse: TrainedImpulse,
    json: String,
    window: Vec<f32>,
    features: Vec<f32>,
}

impl Fixture {
    fn new(task: Task, seed: u64) -> Fixture {
        let impulse = task.impulse(seed, task.calibration(seed, CALIBRATION));
        let window = task.input(seed, 0);
        let block = impulse.design().dsp_block().expect("valid dsp");
        Fixture {
            task,
            json: impulse.to_json().expect("impulse serializes"),
            features: block.process(&window).expect("window fits"),
            impulse,
            window,
        }
    }
}

fn engine_for(
    artifact: ei_runtime::ModelArtifact,
    kind: EngineKind,
) -> Box<dyn InferenceEngine + Send + Sync> {
    match kind {
        EngineKind::EonCompiled => Box::new(EonProgram::compile(artifact).expect("compiles")),
        EngineKind::TflmInterpreter => Box::new(Interpreter::new(artifact).expect("builds")),
    }
}

/// Runs the whole suite on fixtures built from `seed`.
pub fn layer_probes(seed: u64, clients: usize) -> Vec<Metric> {
    let mut suite = Suite { metrics: Vec::new() };
    let fixtures: Vec<Fixture> = Task::ALL.iter().map(|&t| Fixture::new(t, seed)).collect();
    let kws = &fixtures[0];

    runtime_probes(&mut suite, &fixtures);
    dsp_probes(&mut suite, &fixtures);
    compile_probes(&mut suite, kws);
    serve_probes(&mut suite, kws, clients);
    platform_probes(&mut suite, kws, clients);
    stream_probes(&mut suite, kws, clients);
    tensor_probes(&mut suite, seed);
    nn_probes(&mut suite, kws);
    shard_probes(&mut suite, clients);
    data_probes(&mut suite, kws);
    suite.metrics
}

/// `runtime.run_us.<task>_<dtype>_<engine>` over the full matrix.
fn runtime_probes(suite: &mut Suite, fixtures: &[Fixture]) {
    for f in fixtures {
        for quantized in [false, true] {
            let model = artifact(&f.impulse, quantized);
            for kind in [EngineKind::EonCompiled, EngineKind::TflmInterpreter] {
                let engine = engine_for(model.clone(), kind);
                let dtype = if quantized { "int8" } else { "f32" };
                let name =
                    format!("runtime.run_us.{}_{dtype}_{}", f.task.name(), engine_name(kind));
                suite.time(&name, "us", 15, || engine.run(&f.features));
            }
        }
    }
    let int8 = artifact(&fixtures[0].impulse, true);
    suite.time_with("runtime.eon_compile_us", "us", 20, || int8.clone(), EonProgram::compile);
    suite.time_with("runtime.interp_new_us", "us", 20, || int8.clone(), Interpreter::new);
    let engine = engine_for(int8, EngineKind::EonCompiled);
    let design = fixtures[0].impulse.design();
    let cost = design.dsp_block().and_then(|b| Ok(b.cost(design.window_samples)?)).expect("cost");
    let profiler = Profiler::new(Board::nano33_ble_sense());
    suite.time("device.profile_us", "us", 50, || profiler.profile(Some(cost), &*engine));
}

/// `dsp.process_us.<task>` times what the server runs per request — it
/// builds the block, then processes the window.
fn dsp_probes(suite: &mut Suite, fixtures: &[Fixture]) {
    for f in fixtures {
        let design = f.impulse.design();
        let name = format!("dsp.process_us.{}", f.task.name());
        suite.time(&name, "us", 20, || design.dsp_block().and_then(|b| Ok(b.process(&f.window)?)));
    }
    let kws_fixture = &fixtures[0];
    let mut dataset = ei_data::Dataset::new("probe").with_test_percent(0);
    for i in 0..12 {
        let clip = kws_fixture.task.input(7, i);
        dataset.add(ei_data::Sample::new(0, clip, ei_data::SensorKind::Audio).with_label("yes"));
    }
    let design = kws_fixture.impulse.design();
    suite.time("dsp.extract_features_ms", "ms", 5, || {
        design.extract_features(&dataset, Split::Training)
    });
    let mut extractor = StreamingExtractor::new(&design.dsp).expect("MFCC streams");
    let chunk = &kws_fixture.window[..8_000];
    suite.time("dsp.stream_push_us", "us", 20, || extractor.push(chunk));
}

/// The steps of a cold compile, one by one and as `CompiledArtifact`.
fn compile_probes(suite: &mut Suite, kws: &Fixture) {
    suite.time("core.from_json_ms", "ms", 5, || TrainedImpulse::from_json(&kws.json));
    suite.time("core.to_json_ms", "ms", 5, || kws.impulse.to_json());
    suite.time("quant.int8_artifact_ms", "ms", 5, || kws.impulse.int8_artifact());
    let key = kws_key(kws);
    suite.time("serve.compile_miss_ms", "ms", 5, || {
        CompiledArtifact::compile(key.clone(), &kws.json)
    });
    suite.time_with(
        "serve.model_source_us",
        "us",
        20,
        || kws.json.clone(),
        |json| ModelSource::new("model", json),
    );
    let cache = CompiledArtifactCache::new(8, Tracer::disabled());
    let lookup = || {
        cache.get_or_insert_with("tenant", &key, || {
            CompiledArtifact::compile(key.clone(), &kws.json)
        })
    };
    lookup().expect("compiles");
    const LOOKUPS: usize = 1_000;
    let seconds = median_s(
        5,
        || (),
        |()| {
            for _ in 0..LOOKUPS {
                black_box(lookup().expect("resident"));
            }
        },
    );
    suite.push("serve.cache_lookup_hit_ns", seconds * 1e9 / LOOKUPS as f64, "ns", 5 * LOOKUPS);
}

fn kws_key(kws: &Fixture) -> ArtifactKey {
    ArtifactKey {
        content_hash: content_hash(&kws.json),
        board: String::new(),
        engine: EngineKind::EonCompiled,
        quantized: true,
    }
}

fn kws_spec() -> InferenceSpec {
    InferenceSpec::new("model", EngineKind::EonCompiled).quantized(true)
}

/// Stores the KWS model in a new project of `stack`.
fn kws_project(stack: &Stack, kws: &Fixture) -> ProjectId {
    let project = stack.api.create_project("kws", stack.user).expect("user exists");
    stack.api.upload_model(project, stack.user, "model", kws.json.clone()).expect("project exists");
    project
}

/// Admission, dispatch and the endpoint's own overhead on cache hits,
/// each against the DSP and kernel time of the same request, taken in
/// the same loop so that drift on the host moves all of them alike.
fn serve_probes(suite: &mut Suite, kws: &Fixture, clients: usize) {
    let stack = Stack::new(clients, default_cache_capacity());
    let project = kws_project(&stack, kws);
    let spec = kws_spec();
    let source = ModelSource::new("model", kws.json.clone());
    let tenant = format!("project-{project}");
    let design = kws.impulse.design();
    let engine = engine_for(artifact(&kws.impulse, true), EngineKind::EonCompiled);
    let classify =
        || stack.api.classify(project, stack.user, &spec, kws.window.clone()).expect("classifies");
    classify();
    const REPS: usize = 30;
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(classify());
        let endpoint = start.elapsed();
        let request =
            InferenceRequest::from_spec(&spec, source.clone(), kws.window.clone(), &tenant);
        let start = Instant::now();
        let ticket = stack.server.submit(request).expect("admitted");
        let submit = start.elapsed();
        black_box(stack.server.resolve(ticket).expect("completes"));
        let resolve = start.elapsed() - submit;
        let start = Instant::now();
        let features = design.dsp_block().and_then(|b| Ok(b.process(&kws.window)?)).expect("fits");
        black_box(engine.run(&features).expect("runs"));
        let inference = start.elapsed();
        for (samples, taken) in samples.iter_mut().zip([endpoint, submit, resolve, inference]) {
            samples.push(taken.as_secs_f64() * 1e6);
        }
    }
    let [endpoint, submit, resolve, inference] = samples.map(stats::median);
    suite.push("serve.submit_us", submit, "us", REPS);
    suite.push("serve.resolve_hit_us", resolve, "us", REPS);
    suite.push("serve.dispatch_overhead_us", submit + resolve - inference, "us", REPS);
    suite.push("platform.classify_overhead_us", endpoint - submit - resolve, "us", REPS);

    // the same requests with always-on telemetry wired as in production:
    // the server records through the hub's tracer and feeds its registry
    let obs = ei_obs::Obs::new(Arc::new(WallClock::new()));
    let server = Server::new(
        server_config(default_cache_capacity()),
        Arc::new(WallClock::new()),
        Arc::clone(&stack.pool),
        obs.tracer().clone(),
    )
    .with_obs(Arc::clone(&obs));
    let observed = Stack::on(Arc::clone(&stack.pool), Arc::new(server));
    let observed_project = kws_project(&observed, kws);
    let classify_observed = || {
        observed
            .api
            .classify(observed_project, observed.user, &spec, kws.window.clone())
            .expect("classifies")
    };
    classify_observed();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(classify());
        plain.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(classify_observed());
        traced.push(start.elapsed().as_secs_f64());
    }
    suite.push(
        "obs.telemetry_overhead_ratio",
        stats::median(traced) / stats::median(plain),
        "ratio",
        REPS,
    );
}

/// The store and scheduler endpoints the serving and design paths call.
fn platform_probes(suite: &mut Suite, kws: &Fixture, clients: usize) {
    let stack = Stack::new(clients, default_cache_capacity());
    let project = kws_project(&stack, kws);
    let (api, user) = (&stack.api, stack.user);
    suite.time("platform.download_model_us", "us", 50, || {
        api.download_model(project, user, "model")
    });
    suite.time_with(
        "platform.upload_model_us",
        "us",
        50,
        || kws.json.clone(),
        |json| api.upload_model(project, user, "model", json),
    );
    let wav = to_wav_bytes(16_000, &kws.window);
    let json = acquisition_json(&kws.window);
    suite.time("platform.ingest_wav_us", "us", 12, || {
        api.ingest(project, user, "wav", &wav, Some("yes"))
    });
    suite.time("platform.ingest_json_us", "us", 12, || {
        api.ingest(project, user, "json", json.as_bytes(), Some("no"))
    });
    suite.time("platform.snapshot_us", "us", 20, || api.snapshot(project, user, "probe"));
    suite.time("platform.export_json_ms", "ms", 5, || api.export_json());
    let scheduler = JobScheduler::with_sharded_pool(Arc::clone(&stack.pool), clients);
    suite.time("platform.job_roundtrip_us", "us", 50, || {
        let job = scheduler.submit_keyed(project.0, 1, || Ok(String::new())).expect("accepted");
        scheduler.wait(job)
    });
    suite.time("par.par_map_overhead_us", "us", 200, || {
        stack.pool.par_map(&[1u64, 2, 3, 4, 5], |x| x + 1)
    });
}

/// `StreamSession::push` / `poll` on a session of their own.
fn stream_probes(suite: &mut Suite, kws: &Fixture, clients: usize) {
    let stack = Stack::new(clients, default_cache_capacity());
    let config = SessionConfig { verify_features: false, ..SessionConfig::new("probe", 1_600) };
    let source = ModelSource::new("model", kws.json.clone());
    let mut session = StreamSession::open(stack.server.clone(), source, config).expect("opens");
    let audio: Vec<f32> = (0..4).flat_map(|i| kws.task.input(11, i)).collect();
    let chunks: Vec<&[f32]> = audio.chunks(8_000).collect();
    // the first second only fills the window: time pushes that classify
    for chunk in &chunks[..2] {
        session.push(chunk).expect("pushes");
        session.poll();
    }
    let (mut push, mut poll) = (Vec::new(), Vec::new());
    for round in 0..16 {
        let chunk = chunks[(2 + round) % chunks.len()];
        let start = Instant::now();
        session.push(black_box(chunk)).expect("pushes");
        let pushed = Instant::now();
        black_box(session.poll());
        push.push((pushed - start).as_secs_f64());
        poll.push(pushed.elapsed().as_secs_f64());
    }
    session.close();
    suite.push("stream.push_us", stats::median(push) * 1e6, "us", 16);
    suite.push("stream.poll_us", stats::median(poll) * 1e6, "us", 16);
}

/// GEMM rates at the DS-CNN pointwise shape (250 output positions, 64 →
/// 64 channels) and at 256×512×512. Bytes moved are computed from the
/// operand sizes, not measured: each operand read once, the output
/// written once.
fn tensor_probes(suite: &mut Suite, seed: u64) {
    let mut rng = ei_shard::SplitMix64::new(seed);
    for (tag, m, k, n, reps) in [("pointwise", 250, 64, 64, 200), ("large", 256, 512, 512, 5)] {
        // no zeros: the f32 kernel skips them
        let a: Vec<f32> = (0..m * k).map(|_| rng.next_f64() as f32 + 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next_f64() as f32 - 0.5).collect();
        let mut out = vec![0.0f32; m * n];
        let ops = 2.0 * (m * k * n) as f64;
        let seconds =
            median_s(reps, || (), |()| gemm_f32(m, k, n, &a, &b, None, black_box(&mut out)));
        suite.push(&format!("tensor.gemm_f32_gflops.{tag}"), ops / seconds / 1e9, "GFLOP/s", reps);
        suite.push(
            &format!("tensor.gemm_f32_bytes.{tag}"),
            (4 * (m * k + k * n + m * n)) as f64,
            "B",
            1,
        );
        let a8: Vec<i8> = (0..m * k).map(|_| (rng.next_u64() % 255) as i8).collect();
        let b8: Vec<i8> = (0..k * n).map(|_| (rng.next_u64() % 255) as i8).collect();
        let bias = vec![0i32; n];
        let mut out8 = vec![0i8; m * n];
        let seconds = median_s(
            reps,
            || (),
            |()| {
                gemm_i8_fused(
                    m,
                    k,
                    n,
                    &a8,
                    0,
                    &b8,
                    &bias,
                    |_, acc| (acc >> 8).clamp(-128, 127) as i8,
                    black_box(&mut out8),
                );
            },
        );
        suite.push(&format!("tensor.gemm_i8_gops.{tag}"), ops / seconds / 1e9, "GOP/s", reps);
        suite.push(
            &format!("tensor.gemm_i8_bytes.{tag}"),
            (m * k + k * n + 4 * n + m * n) as f64,
            "B",
            1,
        );
    }
}

/// Training rate and forward time of the KWS DS-CNN.
fn nn_probes(suite: &mut Suite, kws: &Fixture) {
    let features = kws.task.calibration(3, 8);
    let labels: Vec<usize> = (0..features.len()).map(|i| i % 4).collect();
    let config =
        TrainConfig { epochs: 1, batch_size: 8, validation_split: 0.0, ..TrainConfig::default() };
    let trainer = Trainer::new(config);
    let seconds = median_s(
        3,
        || kws.impulse.model().clone(),
        |mut model| trainer.train(&mut model, &features, &labels),
    );
    suite.push("nn.train_samples_per_s", features.len() as f64 / seconds, "1/s", 3);
    suite.time("nn.forward_us.kws", "us", 15, || kws.impulse.model().forward(&kws.features));
}

/// Per-key cost of the striped store and ledger over 10 k keys, with one
/// sweeping thread and with one per client.
fn shard_probes(suite: &mut Suite, clients: usize) {
    const KEYS: u64 = 10_000;
    let map: ShardMap<u64, u64> = ShardMap::new(ei_platform::api::DEFAULT_SHARDS);
    for key in 0..KEYS {
        map.insert(key, key);
    }
    let read = || (0..KEYS).map(|k| map.with(&k, |v| *v).unwrap_or(0)).sum::<u64>();
    let write = || (0..KEYS).map(|k| map.with_mut(&k, |v| *v ^= 1).map_or(0, |()| 1)).sum::<u64>();
    for (tag, threads) in [("t1", 1), ("tn", clients)] {
        let mut sweep = |name: &str, f: &(dyn Fn() -> u64 + Sync)| {
            let seconds = median_s(
                5,
                || (),
                |()| {
                    std::thread::scope(|scope| {
                        for _ in 1..threads {
                            scope.spawn(|| black_box(f()));
                        }
                        black_box(f());
                    });
                },
            );
            suite.push(
                &format!("{name}.{tag}"),
                seconds * 1e9 / KEYS as f64,
                "ns",
                5 * KEYS as usize,
            );
        };
        sweep("shard.map_with_ns", &read);
        sweep("shard.map_with_mut_ns", &write);
    }
    let ledger: QuotaLedger<u64> = QuotaLedger::new(ei_platform::api::DEFAULT_SHARDS, u64::MAX);
    let seconds =
        median_s(5, || (), |()| (0..KEYS).filter(|k| ledger.charge(k, 1).is_admitted()).count());
    suite.push("shard.quota_charge_ns", seconds * 1e9 / KEYS as f64, "ns", 5 * KEYS as usize);
}

/// The ingestion parsers on one 1 s clip.
fn data_probes(suite: &mut Suite, kws: &Fixture) {
    let wav = to_wav_bytes(16_000, &kws.window);
    let json = acquisition_json(&kws.window);
    let cbor = encode(&acquisition_cbor(&kws.window));
    suite.time("data.parse_wav_us", "us", 20, || parse_wav(&wav));
    suite.time("data.parse_json_us", "us", 20, || parse_json(&json, 0));
    suite.time("data.parse_cbor_us", "us", 20, || parse_cbor(&cbor, 0));
}
