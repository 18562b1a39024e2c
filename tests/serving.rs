//! Serving integration: the multi-tenant inference front-end end to end —
//! artifact-cache correctness, admission control under overload, deadline
//! propagation through the fault layer, and the platform API path.
//!
//! `scripts/check.sh` runs this suite under both `EI_THREADS=1` and `4`:
//! the server only reads the injected clock (it never sleeps or charges
//! service time), so results and latencies must not depend on the pool
//! width. Wall-clock serving numbers live in `benchmark/`.

use edgelab::core::impulse::ImpulseDesign;
use edgelab::data::synth::KwsGenerator;
use edgelab::dsp::{DspConfig, MfccConfig};
use edgelab::faults::{CancelToken, Clock, VirtualClock};
use edgelab::nn::{presets, train::TrainConfig};
use edgelab::par::{ParPool, Parallelism};
use edgelab::platform::{Api, PlatformError};
use edgelab::runtime::EngineKind;
use edgelab::serve::{
    content_hash, ArtifactKey, CompiledArtifact, CompiledArtifactCache, InferenceRequest,
    InferenceSpec, ModelSource, Outcome, Rejected, Server, ServerConfig,
};
use edgelab::trace::Tracer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["go".into(), "stop".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
}

fn design() -> ImpulseDesign {
    ImpulseDesign::new(
        "serve-kws",
        1_000,
        DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 8,
            n_filters: 16,
            sample_rate_hz: 4_000,
        }),
    )
    .expect("valid design")
}

/// Trains a small model and returns its registry JSON.
fn model_json(hidden: usize, seed: u64) -> String {
    let d = design();
    let spec = presets::dense_mlp(d.feature_dims().expect("valid design"), 2, hidden);
    let config = TrainConfig {
        epochs: 6,
        batch_size: 8,
        learning_rate: 0.01,
        seed,
        ..TrainConfig::default()
    };
    d.train(&spec, &generator().dataset(6, seed), &config)
        .expect("training succeeds")
        .to_json()
        .expect("serializes")
}

fn server(config: ServerConfig) -> (Arc<VirtualClock>, Server) {
    let clock = VirtualClock::shared();
    let pool = Arc::new(ParPool::new(Parallelism::from_env()));
    let srv = Server::new(config, clock.clone() as Arc<dyn Clock>, pool, Tracer::disabled());
    (clock, srv)
}

fn request(
    tenant: &str,
    model: &ModelSource,
    engine: EngineKind,
    window: Vec<f32>,
) -> InferenceRequest {
    InferenceRequest {
        tenant: tenant.to_string(),
        model: model.clone(),
        board: String::new(),
        engine,
        quantized: false,
        window,
        deadline_ms: 0,
        precomputed: false,
    }
}

/// A clock that moves 150 ms on every read: the only way time passes
/// *inside* a batch, since the server never advances the clock it is given.
#[derive(Default)]
struct SteppingClock(AtomicU64);

impl Clock for SteppingClock {
    fn now_ms(&self) -> u64 {
        self.0.fetch_add(150, Ordering::SeqCst)
    }
    fn sleep_ms(&self, _ms: u64, _cancel: Option<&CancelToken>) -> bool {
        false
    }
}

/// Tentpole: a cache hit is indistinguishable from a cold compile —
/// byte-identical classification and memory plan. (How much faster the
/// hit is gets measured, not asserted: `serve.compile_miss_ms` vs
/// `serve.resolve_hit_us` in `benchmark/`.)
#[test]
fn cache_hit_is_byte_identical_to_cold_compile() {
    let json = model_json(16, 7);
    let model = ModelSource::new("kws", json.clone());
    let clip = generator().generate(0, 42);

    // an independent cold compile is the ground truth
    let key = ArtifactKey {
        content_hash: model.blob.content_hash(),
        board: String::new(),
        engine: EngineKind::EonCompiled,
        quantized: false,
    };
    let ground_truth = CompiledArtifact::compile(key.clone(), &json).expect("compiles");

    let (_clock, srv) = server(ServerConfig::default());
    let t = srv.submit(request("a", &model, EngineKind::EonCompiled, clip.clone())).unwrap();
    let cold = srv.resolve(t).expect("completed");
    let t = srv.submit(request("a", &model, EngineKind::EonCompiled, clip.clone())).unwrap();
    let hit = srv.resolve(t).expect("completed");

    assert!(!cold.cache_hit && hit.cache_hit);
    assert_eq!(cold.outcome, hit.outcome, "hit must be byte-identical to cold compile");
    let Outcome::Classified(served) = &hit.outcome else { panic!("classified: {hit:?}") };
    assert_eq!(
        served,
        &ground_truth.classify(&clip).expect("runs"),
        "served result must match an independent cold compile byte for byte"
    );

    // the memoized memory plan is the one a fresh compile produces
    let cache = CompiledArtifactCache::new(4, Tracer::disabled());
    let (first, was_hit) = cache
        .get_or_insert_with("a", &key, || CompiledArtifact::compile(key.clone(), &json))
        .unwrap();
    assert!(!was_hit);
    let (second, was_hit) =
        cache.get_or_insert_with("a", &key, || panic!("hit path must not rebuild")).unwrap();
    assert!(was_hit);
    assert_eq!(first.plan(), ground_truth.plan());
    assert_eq!(second.plan(), first.plan(), "hit serves the identical plan");
}

/// Tentpole: content-hash keying — re-uploading changed bytes under the
/// same model name never serves the stale artifact, even at capacity 1.
#[test]
fn one_entry_cache_never_serves_stale_model_after_reupload() {
    let old_json = model_json(16, 7);
    let new_json = model_json(24, 8);
    assert_ne!(old_json, new_json);
    let clip = generator().generate(1, 5);

    let (_clock, srv) = server(ServerConfig { cache_capacity: 1, ..ServerConfig::default() });
    let old = ModelSource::new("kws", old_json.clone());
    let new = ModelSource::new("kws", new_json.clone());
    let t = srv.submit(request("a", &old, EngineKind::EonCompiled, clip.clone())).unwrap();
    let before = srv.resolve(t).expect("completed");
    let t = srv.submit(request("a", &new, EngineKind::EonCompiled, clip.clone())).unwrap();
    let after = srv.resolve(t).expect("completed");

    let Outcome::Classified(before) = &before.outcome else { panic!("classified") };
    let Outcome::Classified(after) = &after.outcome else { panic!("classified") };
    assert_ne!(
        before.probabilities, after.probabilities,
        "the re-uploaded model must actually run, not the stale entry"
    );
    let key = ArtifactKey {
        content_hash: new.blob.content_hash(),
        board: String::new(),
        engine: EngineKind::EonCompiled,
        quantized: false,
    };
    let ground_truth = CompiledArtifact::compile(key, &new_json).unwrap();
    assert_eq!(after, &ground_truth.classify(&clip).unwrap());
    let stats = srv.cache_stats();
    assert_eq!((stats.misses, stats.evictions, stats.entries), (2, 1, 1));
}

/// Tentpole: bounded memory under overload — submissions past the queue
/// bound are rejected with `Overloaded` (no queue growth), while every
/// admitted request still completes within its deadline. The overload
/// check runs before the token bucket, so a bounced request costs no
/// quota, and a zero bound is clamped to one.
#[test]
fn overload_rejects_past_queue_bound_while_inflight_complete() {
    let json = model_json(16, 7);
    let model = ModelSource::new("kws", json);
    let clip = generator().generate(0, 3);

    let config = ServerConfig { queue_capacity: 4, quota_capacity: 100, ..ServerConfig::default() };
    let (_clock, srv) = server(config);
    let mut admitted = 0;
    let mut rejected = 0;
    for i in 0..12 {
        let tenant = format!("tenant-{}", i % 3);
        match srv.submit(request(&tenant, &model, EngineKind::EonCompiled, clip.clone())) {
            Ok(_) => admitted += 1,
            Err(Rejected::Overloaded { queue_depth }) => {
                assert_eq!(queue_depth, 4, "rejection reports the configured bound");
                rejected += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
        assert!(srv.queue_depth() <= 4, "queue must never grow past its bound");
    }
    assert_eq!((admitted, rejected), (4, 8));
    let completions = srv.drain();
    assert_eq!(completions.len(), 4);
    for c in &completions {
        assert!(
            matches!(c.outcome, Outcome::Classified(_)),
            "admitted request must complete within its deadline: {c:?}"
        );
    }
    assert_eq!(srv.queue_depth(), 0);

    // an `Overloaded` rejection takes no token: two tokens buy two
    // admissions around it, and only the third admission is refused
    let config = ServerConfig { queue_capacity: 1, quota_capacity: 2, ..ServerConfig::default() };
    let (_clock, srv) = server(config);
    let req = || request("a", &model, EngineKind::EonCompiled, clip.clone());
    assert!(srv.submit(req()).is_ok());
    assert_eq!(srv.submit(req()), Err(Rejected::Overloaded { queue_depth: 1 }));
    assert_eq!(srv.drain().len(), 1);
    assert!(srv.submit(req()).is_ok(), "the bounced request left its token");
    assert_eq!(srv.drain().len(), 1);
    assert_eq!(srv.submit(req()), Err(Rejected::QuotaExceeded { tenant: "a".into() }));

    // a zero bound admits exactly one request
    let config = ServerConfig { queue_capacity: 0, ..ServerConfig::default() };
    let (_clock, srv) = server(config);
    assert!(srv.submit(req()).is_ok());
    assert_eq!(srv.submit(req()), Err(Rejected::Overloaded { queue_depth: 1 }));
}

/// Per-tenant token buckets: an exhausted tenant is rejected without
/// affecting others, and recovers as the (virtual) clock refills it.
#[test]
fn quota_exhausts_per_tenant_and_refills_on_the_clock() {
    let json = model_json(16, 7);
    let model = ModelSource::new("kws", json);
    let clip = generator().generate(0, 3);
    let config = ServerConfig {
        quota_capacity: 2,
        quota_refill_per_sec: 1_000.0,
        ..ServerConfig::default()
    };
    let (clock, srv) = server(config);

    let req = |t: &str| request(t, &model, EngineKind::EonCompiled, clip.clone());
    assert!(srv.submit(req("a")).is_ok());
    assert!(srv.submit(req("a")).is_ok());
    assert_eq!(srv.submit(req("a")), Err(Rejected::QuotaExceeded { tenant: "a".into() }));
    assert!(srv.submit(req("b")).is_ok(), "quota is per tenant");
    clock.advance_ms(2); // 1000 tokens/s -> 2 ms buys back a token
    assert!(srv.submit(req("a")).is_ok());
}

/// Deadlines propagate into the fault layer: a request whose deadline
/// passes while queued never runs, one whose slack runs out inside the
/// batch is cut off by the `ei_faults` timeout, and the largest budget
/// (`u64::MAX`, "never time out") saturates instead of wrapping into the
/// past.
#[test]
fn deadlines_propagate_into_fault_layer_timeouts() {
    let json = model_json(16, 7);
    let model = ModelSource::new("kws", json);
    let clip = generator().generate(0, 3);

    // expired while queued: completed without compiling anything
    let (clock, srv) = server(ServerConfig::default());
    let mut req = request("a", &model, EngineKind::EonCompiled, clip.clone());
    req.deadline_ms = 10;
    let ticket = srv.submit(req).unwrap();
    clock.advance_ms(50);
    let completion = srv.resolve(ticket).expect("completed");
    assert_eq!(completion.outcome, Outcome::DeadlineExceeded { waited_ms: 50 });
    assert_eq!(srv.cache_stats().misses, 0, "expired requests must not compile");

    // slack runs out inside the batch: the retry timeout fires
    let srv = Server::new(
        ServerConfig::default(),
        Arc::new(SteppingClock::default()),
        Arc::new(ParPool::new(Parallelism::from_env())),
        Tracer::disabled(),
    );
    let mut req = request("a", &model, EngineKind::EonCompiled, clip.clone());
    req.deadline_ms = 200; // admission fits, two more 150 ms reads do not
    let ticket = srv.submit(req).unwrap();
    let completion = srv.resolve(ticket).expect("completed");
    assert!(
        matches!(completion.outcome, Outcome::DeadlineExceeded { .. }),
        "batch overrun must surface as DeadlineExceeded: {completion:?}"
    );

    // the largest budget is the most patient one, at any admission time
    let (clock, srv) = server(ServerConfig::default());
    clock.advance_ms(5);
    let mut req = request("a", &model, EngineKind::EonCompiled, clip);
    req.deadline_ms = u64::MAX;
    let ticket = srv.submit(req).unwrap();
    let completion = srv.resolve(ticket).expect("completed");
    assert!(
        matches!(completion.outcome, Outcome::Classified(_)),
        "a u64::MAX deadline must never expire: {completion:?}"
    );
}

/// The server only reads the clock it was given: cold compiles, hits and
/// estimates leave a `VirtualClock` where the test put it, so every
/// latency under virtual time is exactly what the test advanced.
#[test]
fn server_never_moves_the_clock_it_was_given() {
    let model = ModelSource::new("kws", model_json(16, 7));
    let clip = generator().generate(0, 3);
    let (clock, srv) = server(ServerConfig::default());
    clock.advance_ms(7);

    for expect_hit in [false, true] {
        let t = srv.submit(request("a", &model, EngineKind::EonCompiled, clip.clone())).unwrap();
        let done = srv.resolve(t).expect("completed");
        assert_eq!(done.cache_hit, expect_hit);
        assert_eq!((done.latency_ms, done.queued_ms), (0, 0), "no time was advanced: {done:?}");
    }
    let estimate =
        srv.estimate(&model, "nano 33", EngineKind::TflmInterpreter, false).expect("estimates");
    assert!(!estimate.cache_hit, "a new (board, engine) key compiles cold");
    assert_eq!(clock.now_ms(), 7, "the server must never advance its clock");
}

/// `max_batch: 0` is clamped to 1 where it is read (like the queue bound
/// and the cache capacity); unclamped, dispatch took nothing per round and spun
/// forever. The resolve runs on its own thread so a regression fails the
/// test instead of hanging the suite.
#[test]
fn zero_max_batch_still_dispatches() {
    let model = ModelSource::new("kws", model_json(16, 7));
    let clip = generator().generate(0, 3);
    let (_clock, srv) = server(ServerConfig { max_batch: 0, ..ServerConfig::default() });
    let ticket = srv.submit(request("a", &model, EngineKind::EonCompiled, clip)).unwrap();
    let (tx, rx) = mpsc::channel();
    // detached on purpose: a livelocked resolver can never be joined
    std::thread::spawn(move || {
        let _ = tx.send(srv.resolve(ticket));
    });
    let completion = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("resolve must return with max_batch: 0")
        .expect("completed");
    assert!(matches!(completion.outcome, Outcome::Classified(_)), "{completion:?}");
    assert_eq!(completion.batch_size, 1);
}

/// Same-artifact requests coalesce into one micro-batch; results and
/// latencies are byte-identical across pool widths and repeated runs.
#[test]
fn micro_batched_trace_is_deterministic_across_thread_counts() {
    let kws = model_json(16, 7);
    let vww = model_json(24, 8);
    let gen = generator();

    let run = |threads: Parallelism| {
        let clock = VirtualClock::shared();
        let pool = Arc::new(ParPool::new(threads));
        let srv = Server::new(
            ServerConfig::default(),
            clock.clone() as Arc<dyn Clock>,
            pool,
            Tracer::disabled(),
        );
        let a = ModelSource::new("kws", kws.clone());
        let b = ModelSource::new("vww", vww.clone());
        let mut log = Vec::new();
        for round in 0..3u64 {
            for (tenant, model, engine) in [
                ("alpha", &a, EngineKind::EonCompiled),
                ("beta", &a, EngineKind::EonCompiled),
                ("gamma", &b, EngineKind::TflmInterpreter),
            ] {
                let clip = gen.generate((round % 2) as usize, round * 10 + 1);
                srv.submit(request(tenant, model, engine, clip)).unwrap();
            }
            for c in srv.drain() {
                assert!(matches!(c.outcome, Outcome::Classified(_)), "{c:?}");
                if c.tenant == "alpha" || c.tenant == "beta" {
                    assert_eq!(c.batch_size, 2, "same-artifact requests share a batch");
                }
                log.push(format!("{c:?}"));
            }
        }
        (log, clock.now_ms())
    };

    let (serial, t_serial) = run(Parallelism::serial());
    let (four, t_four) = run(Parallelism::new(4));
    let (env, t_env) = run(Parallelism::from_env());
    assert_eq!(serial, four, "pool width must not change completions");
    assert_eq!(serial, env, "EI_THREADS must not change completions");
    assert_eq!(t_serial, t_four);
    assert_eq!(t_serial, t_env);
}

/// The platform API path: registry models classify and estimate through
/// the attached serving layer, with project-scoped tenancy and access
/// control intact.
#[test]
fn api_classify_and_estimate_run_through_serving() {
    let api = Api::new();
    let owner = api.create_user("owner");
    let outsider = api.create_user("outsider");
    let project = api.create_project("serving", owner).unwrap();
    let json = model_json(16, 7);
    api.upload_model(project, owner, "kws-v1", json.clone()).unwrap();

    let clock = VirtualClock::shared();
    let srv = Arc::new(Server::new(
        ServerConfig::default(),
        clock.clone() as Arc<dyn Clock>,
        Arc::new(ParPool::new(Parallelism::from_env())),
        Tracer::disabled(),
    ));
    api.attach_serving(Arc::clone(&srv)).unwrap();
    assert!(api.attach_serving(srv).is_err(), "the serving layer attaches once");

    let clip = generator().generate(0, 9);
    let eon_spec = InferenceSpec::new("kws-v1", EngineKind::EonCompiled);
    let eon = api.classify(project, owner, &eon_spec, clip.clone()).unwrap();
    let tflm_spec = InferenceSpec::new("kws-v1", EngineKind::TflmInterpreter);
    let tflm = api.classify(project, owner, &tflm_spec, clip.clone()).unwrap();
    assert_eq!(eon.probabilities, tflm.probabilities, "engines agree bit for bit");
    assert_eq!(eon.label_index, tflm.label_index);

    // estimation keys the cache per board and reports deployment fit
    let estimate = api.estimate(project, owner, &eon_spec.clone().on_board("nano 33")).unwrap();
    assert_eq!(estimate.board, "Arduino Nano 33 BLE Sense");
    assert!(estimate.total_ms > 0.0);
    assert!(estimate.ram_bytes > 0 && estimate.flash_bytes > 0);
    assert!(estimate.fits, "a tiny MLP fits the Nano 33");

    // errors stay platform-shaped
    assert!(matches!(
        api.classify(
            project,
            owner,
            &InferenceSpec::new("missing", EngineKind::EonCompiled),
            clip.clone()
        ),
        Err(PlatformError::NotFound { .. })
    ));
    assert!(matches!(
        api.estimate(project, owner, &eon_spec.clone().on_board("no-such-board")),
        Err(PlatformError::BadRequest(_))
    ));
    assert!(
        api.classify(project, outsider, &eon_spec, clip).is_err(),
        "access control guards serving too"
    );
}

/// A serving config that never refuses the racing tests' load.
fn roomy() -> ServerConfig {
    ServerConfig { queue_capacity: 1_024, quota_capacity: u32::MAX, ..ServerConfig::default() }
}

/// Many callers may `submit` + `resolve` on one server at once: a ticket
/// that another caller's dispatch pass took off the queue is waited for,
/// never reported lost, and each completion goes to exactly its own
/// resolver.
#[test]
fn racing_resolvers_never_lose_a_ticket() {
    const THREADS: usize = 4;
    const REQUESTS: usize = 3_000;
    let model = ModelSource::new("kws", model_json(16, 7));
    let clip = generator().generate(0, 3);
    let (_clock, srv) = server(roomy());
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (srv, model, clip, start) = (&srv, &model, &clip, &start);
            scope.spawn(move || {
                let tenant = format!("racer-{t}");
                start.wait();
                for i in 0..REQUESTS {
                    let req = request(&tenant, model, EngineKind::EonCompiled, clip.clone());
                    let ticket = srv.submit(req).expect("admitted");
                    let done = srv.resolve(ticket);
                    let done = done.unwrap_or_else(|| panic!("{tenant} lost ticket {ticket}"));
                    assert_eq!((done.ticket, done.tenant.as_str()), (ticket, tenant.as_str()));
                    assert!(
                        matches!(done.outcome, Outcome::Classified(_)),
                        "request {i}: {done:?}"
                    );
                }
            });
        }
    });
    assert!(srv.drain().is_empty(), "every completion was collected by its own resolver");
    assert_eq!(srv.resolve(u64::MAX), None, "a ticket never issued is still None");
}

/// Callers racing on one never-seen model compile it once between them
/// (the artifact cache is single-flight per key), and each is served
/// exactly what a serial cold compile answers.
#[test]
fn racing_cold_misses_compile_once() {
    const THREADS: usize = 4;
    let json = model_json(16, 11);
    let model = ModelSource::new("kws", json.clone());
    let clip = generator().generate(1, 9);
    let key = ArtifactKey {
        content_hash: model.blob.content_hash(),
        board: String::new(),
        engine: EngineKind::EonCompiled,
        quantized: false,
    };
    let serial = CompiledArtifact::compile(key, &json).unwrap().classify(&clip).unwrap();
    let (_clock, srv) = server(roomy());
    let start = Barrier::new(THREADS);
    let served: Vec<Outcome> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (srv, model, clip, start) = (&srv, &model, &clip, &start);
                scope.spawn(move || {
                    let req = request(
                        &format!("racer-{t}"),
                        model,
                        EngineKind::EonCompiled,
                        clip.clone(),
                    );
                    start.wait();
                    let ticket = srv.submit(req).expect("admitted");
                    srv.resolve(ticket).expect("completed").outcome
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().expect("racer finished")).collect()
    });
    assert_eq!(srv.cache_stats().misses, 1, "one compile for every racer");
    for outcome in served {
        assert_eq!(outcome, Outcome::Classified(serial.clone()), "byte-identical to serial");
    }
}

/// A clock that panics on every read once armed: the way to make a
/// dispatch pass unwind after it has taken a batch off the queue.
#[derive(Default)]
struct TrippingClock(AtomicBool);

impl Clock for TrippingClock {
    fn now_ms(&self) -> u64 {
        assert!(!self.0.load(Ordering::SeqCst), "tripped");
        0
    }
    fn sleep_ms(&self, _ms: u64, _cancel: Option<&CancelToken>) -> bool {
        false
    }
}

/// A dispatch pass that unwinds gives its tickets up: a later `resolve`
/// reports them gone instead of waiting for a completion nobody will push.
#[test]
fn unwound_dispatch_pass_releases_its_tickets() {
    let model = ModelSource::new("kws", model_json(16, 7));
    let clock = Arc::new(TrippingClock::default());
    let pool = Arc::new(ParPool::new(Parallelism::serial()));
    let srv = Server::new(roomy(), clock.clone() as Arc<dyn Clock>, pool, Tracer::disabled());
    let req = request("acme", &model, EngineKind::EonCompiled, generator().generate(0, 3));
    let ticket = srv.submit(req).expect("admitted");
    clock.0.store(true, Ordering::SeqCst);
    let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| srv.resolve(ticket)));
    assert!(pass.is_err(), "the batch read the tripped clock");
    clock.0.store(false, Ordering::SeqCst);
    assert_eq!(srv.resolve(ticket), None, "returns, and says the ticket is gone");
}

/// A model re-uploaded while it is being classified: each request runs
/// exactly one of the two versions — cache key and bytes always come from
/// the same stored blob, so no answer mixes them.
#[test]
fn reupload_during_classify_serves_one_version_or_the_other() {
    const CLASSIFIERS: usize = 3;
    const REQUESTS: usize = 40;
    let versions = [model_json(16, 7), model_json(24, 8)];
    let clip = generator().generate(1, 5);
    let references: Vec<_> = versions
        .iter()
        .map(|json| {
            let key = ArtifactKey {
                content_hash: content_hash(json),
                board: String::new(),
                engine: EngineKind::EonCompiled,
                quantized: false,
            };
            CompiledArtifact::compile(key, json).unwrap().classify(&clip).unwrap()
        })
        .collect();
    assert_ne!(references[0], references[1], "the versions must be told apart");

    let api = Api::new();
    let owner = api.create_user("owner");
    let project = api.create_project("churn", owner).unwrap();
    api.upload_model(project, owner, "kws", versions[0].clone()).unwrap();
    api.attach_serving(Arc::new(server(roomy()).1)).unwrap();
    let spec = InferenceSpec::new("kws", EngineKind::EonCompiled);

    // the uploader keeps alternating until the last classifier is done
    let classifying = AtomicU64::new(CLASSIFIERS as u64);
    let start = Barrier::new(CLASSIFIERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..CLASSIFIERS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..REQUESTS {
                    let served = api.classify(project, owner, &spec, clip.clone()).unwrap();
                    assert!(references.contains(&served), "a mixed-version answer: {served:?}");
                }
                classifying.fetch_sub(1, Ordering::SeqCst);
            });
        }
        scope.spawn(|| {
            start.wait();
            for version in versions.iter().cycle().skip(1) {
                if classifying.load(Ordering::SeqCst) == 0 {
                    break;
                }
                api.upload_model(project, owner, "kws", version.clone()).unwrap();
            }
        });
    });
}
