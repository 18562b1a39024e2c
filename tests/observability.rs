//! Cross-crate observability guarantees: the per-layer profile sums
//! exactly to the end-to-end estimate on every paper board and engine, a
//! disabled subscriber changes nothing, traces under a [`VirtualClock`]
//! are byte-for-byte deterministic across runs, and the `ei-obs` layer's
//! flight recorder cuts byte-identical causal dumps for every fault
//! class — deadline overruns, dead letters and dist worker crashes — at
//! any pool width.
//!
//! `scripts/check.sh` runs this suite under both `EI_THREADS=1` and `4`.

use edgelab::core::impulse::ImpulseDesign;
use edgelab::core::workflow::{FlowRunner, FlowStage};
use edgelab::data::synth::KwsGenerator;
use edgelab::device::{Board, Profiler};
use edgelab::dist::{DistConfig, DistFaultPlan, DistTrainer, WorkerFault};
use edgelab::dsp::{DspConfig, MfccConfig};
use edgelab::faults::{CancelToken, Clock, RetryPolicy, VirtualClock};
use edgelab::nn::spec::{Activation, Dims, LayerSpec, ModelSpec};
use edgelab::nn::{presets, train::TrainConfig, Sequential};
use edgelab::obs::{FlightDump, Obs, SloSpec};
use edgelab::par::{ParPool, Parallelism};
use edgelab::platform::JobScheduler;
use edgelab::runtime::{EngineKind, EonProgram, InferenceEngine, Interpreter};
use edgelab::serve::{InferenceRequest, ModelSource, Outcome, Server, ServerConfig};
use edgelab::trace::{CollectingSubscriber, Registry, Tracer, OTHER_LABEL};
use ei_bench::Task;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn per_layer_rows_sum_exactly_to_the_estimate_on_every_board_and_engine() {
    let (float_a, int8_a) = Task::KeywordSpotting.untrained_artifacts();
    let engines: Vec<Box<dyn InferenceEngine>> = vec![
        Box::new(Interpreter::new(float_a.clone()).unwrap()),
        Box::new(EonProgram::compile(float_a).unwrap()),
        Box::new(Interpreter::new(int8_a.clone()).unwrap()),
        Box::new(EonProgram::compile(int8_a).unwrap()),
    ];
    for board in Board::paper_boards() {
        let profiler = Profiler::new(board.clone());
        for engine in &engines {
            let layers = profiler.per_layer_profile(engine.as_ref());
            assert!(!layers.is_empty());
            // bitwise equality: the estimate is defined as this sum
            let ms_sum: f64 = layers.iter().map(|l| l.ms).sum();
            let estimate = profiler.inference_ms(engine.as_ref());
            assert_eq!(
                ms_sum,
                estimate,
                "{} {}: breakdown {ms_sum} vs estimate {estimate}",
                board.name,
                engine.kind()
            );
            // the MAC column is the artifact's op MACs, untouched
            let macs: u64 = layers.iter().map(|l| l.macs).sum();
            let op_macs: u64 = engine.artifact().ops().iter().map(|o| o.macs).sum();
            assert_eq!(macs, op_macs);
            // every row carries a planned arena buffer
            assert!(layers.iter().all(|l| l.arena_bytes > 0));
        }
    }
}

/// A small, fully seeded traced pipeline: a flow with a degraded optional
/// stage, a short training run, and a per-layer profile on one board.
/// Returns the JSONL trace, the Chrome-trace export and the Prometheus
/// exposition.
fn traced_pipeline(tracer: &Tracer) -> edgelab::core::workflow::FlowReport {
    let runner = FlowRunner::with_clock(
        RetryPolicy::default().with_seed(9).with_max_attempts(2),
        VirtualClock::shared(),
    )
    .with_tracer(tracer.clone());
    let flow = runner
        .run(vec![
            FlowStage::required("ingest", |_| Ok("32 samples".into())),
            FlowStage::optional("enrich", |_| Err("service down".into())),
        ])
        .unwrap();

    let generator = KwsGenerator {
        classes: vec!["yes".into(), "no".into()],
        sample_rate_hz: 8_000,
        duration_s: 0.25,
        noise: 0.02,
    };
    let dataset = generator.dataset(6, 3);
    let design = ImpulseDesign::new(
        "obs-test",
        2_000,
        DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 8,
            n_filters: 20,
            sample_rate_hz: 8_000,
        }),
    )
    .unwrap();
    let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 16);
    let config = TrainConfig { epochs: 3, learning_rate: 0.01, ..TrainConfig::default() };
    let trained = design.train_traced(&spec, &dataset, &config, tracer.clone()).unwrap();

    let engine = EonProgram::compile(trained.int8_artifact().unwrap()).unwrap();
    Profiler::new(Board::nano33_ble_sense()).emit_profile(tracer, &engine);
    flow
}

#[test]
fn disabled_subscriber_changes_no_behaviour_and_records_nothing() {
    let disabled = Tracer::disabled();
    let clock = VirtualClock::shared();
    let (enabled, collector) = Tracer::collecting(clock);

    let silent = traced_pipeline(&disabled);
    let observed = traced_pipeline(&enabled);

    // identical flow outcomes, stage by stage (including retry histories)
    assert_eq!(silent.stages, observed.stages);
    // the disabled tracer recorded and registered nothing
    assert!(disabled.registry().is_none());
    assert_eq!(disabled.prometheus(), "");
    // while the enabled one saw the whole pipeline
    assert!(!collector.is_empty());
    let records = collector.records();
    for name in ["flow", "flow.stage", "stage.degraded", "train", "train.epoch", "profile.layer"] {
        assert!(records.iter().any(|r| r.name() == name), "missing {name}");
    }
    assert!(enabled.registry().unwrap().gauge("profile.inference_ms", "").is_some());
}

#[test]
fn traces_under_virtual_clock_are_byte_for_byte_deterministic() {
    let run = || {
        let (tracer, collector) = Tracer::collecting(VirtualClock::shared());
        traced_pipeline(&tracer);
        (collector.jsonl(), collector.chrome_trace(), tracer.prometheus())
    };
    let (jsonl_a, chrome_a, prom_a) = run();
    let (jsonl_b, chrome_b, prom_b) = run();
    assert!(!jsonl_a.is_empty());
    assert_eq!(jsonl_a, jsonl_b, "JSONL trace must be deterministic");
    assert_eq!(chrome_a, chrome_b, "Chrome trace must be deterministic");
    assert_eq!(prom_a, prom_b, "Prometheus exposition must be deterministic");
}

// --- ei-obs: flight recorder + SLO + sharded registry, end to end ---

/// A tiny served model (two classes, small MLP) for the serving paths.
fn served_model_json() -> String {
    let generator = KwsGenerator {
        classes: vec!["go".into(), "stop".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    };
    let design = ImpulseDesign::new(
        "obs-serve",
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
    let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 16);
    let config =
        TrainConfig { epochs: 4, batch_size: 8, learning_rate: 0.01, ..TrainConfig::default() };
    design.train(&spec, &generator.dataset(6, 7), &config).unwrap().to_json().unwrap()
}

fn serve_request(tenant: &str, model: &ModelSource, deadline_ms: u64) -> InferenceRequest {
    InferenceRequest {
        tenant: tenant.to_string(),
        model: model.clone(),
        board: String::new(),
        engine: EngineKind::EonCompiled,
        quantized: false,
        window: KwsGenerator {
            classes: vec!["go".into(), "stop".into()],
            sample_rate_hz: 4_000,
            duration_s: 0.25,
            noise: 0.02,
        }
        .generate(0, 3),
        deadline_ms,
        precomputed: false,
    }
}

/// A clock that moves 150 ms on every read, so a deadline can blow
/// *inside* a batch: the server never advances time itself. It reads its
/// clock only on the resolving thread, so the read count — and every
/// latency derived from it — is the same at any pool width.
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

/// Tentpole: a deadline overrun inside a micro-batch trips the flight
/// recorder, and the capture holds the complete causal chain — request
/// span, batch span, and the parallel scope that ran it — byte for byte
/// identical at every pool width.
#[test]
fn deadline_dump_captures_the_request_chain_at_any_pool_width() {
    let json = served_model_json();
    let run = |threads: Parallelism| -> Vec<FlightDump> {
        let obs = Obs::builder(VirtualClock::shared() as Arc<dyn Clock>).build();
        let srv = Server::new(
            ServerConfig::default(),
            // only the server steps: spans and SLO windows stay on the
            // hub's virtual clock, and the 200 ms deadline blows in-batch
            Arc::new(SteppingClock::default()),
            Arc::new(ParPool::with_tracer(threads, obs.tracer().clone())),
            obs.tracer().clone(),
        )
        .with_obs(Arc::clone(&obs));
        let model = ModelSource::new("kws", json.clone());
        let ticket = srv.submit(serve_request("alpha", &model, 200)).unwrap();
        let completion = srv.resolve(ticket).expect("completed");
        assert!(
            matches!(completion.outcome, Outcome::DeadlineExceeded { .. }),
            "the batch must overrun: {completion:?}"
        );
        obs.dumps()
    };

    let serial = run(Parallelism::serial());
    assert_eq!(serial.len(), 1, "exactly one deadline dump");
    let dump = &serial[0];
    assert_eq!(dump.trigger, "serve.deadline_exceeded");
    assert!(dump.trace.is_some(), "the trigger must resolve to a causal trace");
    for name in ["serve.request", "serve.batch", "par.scope", "serve.deadline_exceeded"] {
        assert!(
            dump.jsonl.contains(&format!("\"name\":\"{name}\"")),
            "dump must hold {name}:\n{}",
            dump.jsonl
        );
    }
    assert_eq!(serial, run(Parallelism::new(4)), "dumps must not depend on pool width");
    assert_eq!(serial, run(Parallelism::from_env()), "dumps must not depend on EI_THREADS");
}

/// A job that exhausts its retries dead-letters, and the dump chains
/// back through the `job` span to the submitter's ambient request span.
#[test]
fn dead_letter_dump_chains_back_to_the_submitting_request() {
    let run = || -> Vec<FlightDump> {
        let clock = VirtualClock::shared();
        let obs = Obs::builder(clock.clone() as Arc<dyn Clock>).build();
        let scheduler =
            JobScheduler::with_clock_and_tracer(1, clock as Arc<dyn Clock>, obs.tracer().clone());
        let root = obs.tracer().span("pipeline.request");
        let id = {
            let _ambient = root.enter();
            scheduler.submit(2, || Err("disk full".into())).unwrap()
        };
        assert!(scheduler.wait(id).is_err(), "the job must exhaust its retries");
        drop(root);
        obs.dumps()
    };

    let dumps = run();
    assert_eq!(dumps.len(), 1, "one dead letter, one dump");
    let dump = &dumps[0];
    assert_eq!(dump.trigger, "job.dead_letter");
    assert!(dump.trace.is_some());
    for name in ["pipeline.request", "job", "job.queued", "job.running", "job.dead_letter"] {
        assert!(
            dump.jsonl.contains(&format!("\"name\":\"{name}\"")),
            "dump must chain back through {name}:\n{}",
            dump.jsonl
        );
    }
    assert_eq!(dumps, run(), "the dead-letter dump must be byte-identical across runs");
}

/// An injected dist worker crash trips the recorder, and the capture
/// chains the crash back through `dist.train` to the training request.
#[test]
fn dist_crash_dump_chains_back_to_the_training_request() {
    let spec = ModelSpec::new(Dims::new(1, 6, 1))
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense { units: 8, activation: Activation::Relu })
        .layer(LayerSpec::Dense { units: 2, activation: Activation::None })
        .layer(LayerSpec::Softmax);
    let inputs: Vec<Vec<f32>> =
        (0..24).map(|i| vec![if i % 2 == 0 { 1.0 } else { -1.0 }; 6]).collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();

    let run = || -> Vec<FlightDump> {
        let clock = VirtualClock::shared();
        let obs = Obs::builder(clock.clone() as Arc<dyn Clock>).build();
        let root = obs.tracer().span("train.request");
        // one partition per worker: the doomed worker receives exactly one
        // command in the fatal step, so the coordinator never races its
        // thread exit on a second send and detection is always via the
        // heartbeat deadline (cause "missed_heartbeat"), never the closed
        // channel — keeping the dump byte-identical across runs
        let trainer = DistTrainer::new(
            DistConfig::new(2).with_partitions(2).with_timeout_ms(50),
            TrainConfig {
                epochs: 2,
                batch_size: 6,
                learning_rate: 0.01,
                validation_split: 0.0,
                seed: 7,
                ..TrainConfig::default()
            },
        )
        .with_clock(clock as Arc<dyn Clock>)
        .with_tracer(obs.tracer().clone())
        .with_faults(DistFaultPlan::new().inject(1, 1, 0, WorkerFault::Crash));
        let mut model = Sequential::build(&spec, 7).unwrap();
        let report = {
            let _ambient = root.enter();
            trainer.train(&mut model, &inputs, &labels).unwrap()
        };
        assert_eq!(report.crashes_detected, 1);
        drop(root);
        obs.dumps()
    };

    let dumps = run();
    assert_eq!(dumps.len(), 1, "one crash, one dump");
    let dump = &dumps[0];
    assert_eq!(dump.trigger, "dist.crash_detected");
    assert!(dump.trace.is_some());
    // the capture is cut at trigger time, so it ends at the crash event
    for name in ["train.request", "dist.train", "dist.epoch", "dist.crash_detected"] {
        assert!(
            dump.jsonl.contains(&format!("\"name\":\"{name}\"")),
            "dump must chain back through {name}:\n{}",
            dump.jsonl
        );
    }
    assert_eq!(dumps, run(), "the crash dump must be byte-identical across runs");
}

/// Satellite: N threads hammering M tenant series concurrently merge to
/// exactly the snapshot a serial run produces — counters, histograms
/// (integer-valued observations, so sums are exact) and gauges.
#[test]
fn concurrent_metric_recording_merges_to_the_serial_reference() {
    const THREADS: usize = 8;
    const TENANTS: usize = 16;
    const ROUNDS: usize = 50;
    const BOUNDS: [f64; 3] = [1.0, 5.0, 10.0];

    let record = |registry: &Registry| {
        for round in 0..ROUNDS {
            for t in 0..TENANTS {
                let tenant = format!("tenant-{t}");
                registry.add("hammer.requests", &tenant, 1);
                registry.observe("hammer.latency_ms", &tenant, (round % 12) as f64, &BOUNDS);
                // same value from every thread: last-write-wins is stable
                registry.set_gauge("hammer.inflight", &tenant, t as f64);
            }
        }
    };

    let serial = Registry::new(1, 64);
    for _ in 0..THREADS {
        record(&serial);
    }

    let hammered = Arc::new(Registry::new(4, 64));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&hammered);
            std::thread::spawn(move || record(&registry))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(hammered.counter("hammer.requests", "tenant-0"), Some((THREADS * ROUNDS) as u64));
    assert_eq!(
        hammered.snapshot(),
        serial.snapshot(),
        "concurrent merge must equal the serial reference"
    );
    assert_eq!(hammered.to_prometheus(), serial.to_prometheus());
}

/// A default-config server on `tracer`, and one classified request for
/// each of `tenant-0..tenants` through it, each left queued for 5 ms of
/// test-driven time.
fn serve_tenants(clock: Arc<VirtualClock>, tracer: Tracer, obs: Option<&Arc<Obs>>, tenants: usize) {
    let pool = Arc::new(ParPool::new(Parallelism::from_env()));
    let mut srv = Server::new(ServerConfig::default(), clock.clone(), pool, tracer);
    if let Some(obs) = obs {
        srv = srv.with_obs(Arc::clone(obs));
    }
    let model = ModelSource::new("kws", served_model_json());
    for t in 0..tenants {
        let ticket = srv.submit(serve_request(&format!("tenant-{t}"), &model, 0)).unwrap();
        clock.advance_ms(5);
        let completion = srv.resolve(ticket).expect("completed");
        assert!(matches!(completion.outcome, Outcome::Classified(_)), "{completion:?}");
        assert_eq!(completion.latency_ms, 5, "latency is exactly what the test advanced");
    }
}

/// Satellite: served traffic breaching a latency SLO leaves a breach
/// dump, while the label-cardinality cap folds overflow tenants into
/// `__other__` instead of growing the registry.
#[test]
fn served_slo_breach_dumps_and_overflow_tenants_fold() {
    let clock = VirtualClock::shared();
    let obs = Obs::builder(clock.clone() as Arc<dyn Clock>)
        .label_cap(2)
        // every request waits 5 ms of advanced time against 1 ms
        .slo(SloSpec::latency("serve-p99", 1.0, 0.99).with_min_samples(3).with_cooldown_ms(0))
        .build();
    serve_tenants(clock, obs.tracer().clone(), Some(&obs), 4);

    assert!(
        obs.dumps().iter().any(|d| d.trigger == "slo.breach"),
        "slow traffic must breach the 1 ms objective: {:?}",
        obs.dumps().iter().map(|d| d.trigger.clone()).collect::<Vec<_>>()
    );
    assert!(obs.registry().folded() > 0, "tenants past the cap of 2 must fold");
    let prometheus = obs.prometheus();
    assert!(prometheus.contains("tenant=\"tenant-0\""), "admitted tenants keep their series");
    assert!(
        prometheus.contains(&format!("tenant=\"{OTHER_LABEL}\"")),
        "folded tenants must surface as {OTHER_LABEL}:\n{prometheus}"
    );
}

/// Tentpole: one registry, one renderer. A server wired to a hub the
/// usual way declares every `# TYPE` family once, keeps each family's
/// samples contiguous, and counts each request once.
#[test]
fn hub_exposition_declares_each_family_once_and_counts_each_request_once() {
    let clock = VirtualClock::shared();
    let obs = Obs::builder(clock.clone() as Arc<dyn Clock>).build();
    serve_tenants(clock, obs.tracer().clone(), Some(&obs), 2);

    let text = obs.prometheus();
    let mut families: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(declared) = line.strip_prefix("# TYPE ") {
            let family = declared.split(' ').next().unwrap();
            assert!(!families.contains(&family), "{family} declared twice:\n{text}");
            families.push(family);
        } else {
            let name = line.split(['{', ' ']).next().unwrap();
            let suffix = name.strip_prefix(families.last().copied().unwrap_or("# no family"));
            let in_family = suffix.is_some_and(|s| ["", "_bucket", "_sum", "_count"].contains(&s));
            assert!(in_family, "{line:?} is outside the family declared above it:\n{text}");
        }
    }
    for tenant in ["tenant-0", "tenant-1"] {
        let once = format!("serve_latency_ms_count{{tenant=\"{tenant}\"}} 1\n");
        assert!(text.contains(&once), "{tenant} must be counted exactly once:\n{text}");
        assert_eq!(obs.registry().counter("serve.ok", tenant), Some(1));
    }
}

/// Tentpole: the label cap needs no hub. A server on a plain tracer
/// records the same capped series — tenant ids only in labels, tenants
/// past the cap folded — and a hub of the same shape adds nothing.
#[test]
fn plain_tracer_server_folds_tenants_past_the_label_cap() {
    let clock = VirtualClock::shared();
    let registry = Arc::new(Registry::new(4, 2));
    let sink = Arc::new(CollectingSubscriber::new());
    let tracer = Tracer::with_registry(sink, clock.clone(), Arc::clone(&registry));
    serve_tenants(clock, tracer, None, 6);

    let snapshot = registry.snapshot();
    let labels = snapshot.keys().filter(|(metric, _)| metric == "serve.latency_ms");
    let labels: Vec<&str> = labels.map(|(_, label)| label.as_str()).collect();
    assert_eq!(labels, [OTHER_LABEL, "tenant-0", "tenant-1"]);
    let leaked: Vec<_> = snapshot.keys().filter(|(metric, _)| metric.contains("tenant-")).collect();
    assert!(leaked.is_empty(), "tenant ids belong in labels, not metric names: {leaked:?}");
    assert!(registry.folded() > 0, "tenants past the cap of 2 must fold");

    let clock = VirtualClock::shared();
    let obs = Obs::builder(clock.clone() as Arc<dyn Clock>).shards(4).label_cap(2).build();
    serve_tenants(clock, obs.tracer().clone(), Some(&obs), 6);
    assert_eq!(obs.prometheus(), registry.to_prometheus(), "a hub must not change any series");
}
