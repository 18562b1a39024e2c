//! `design_cycle`: the paper's design loop, one project per cycle.

use super::Counters;
use crate::fixtures::{acquisition_cbor, acquisition_json, Task};
use crate::harness::{default_cache_capacity, server_config, Probe, Stack, Workload};
use crate::spans::{stage, Recorder};
use ei_core::TrainedImpulse;
use ei_data::cbor::encode;
use ei_data::ingest::to_wav_bytes;
use ei_data::{Dataset, Split};
use ei_nn::train::{TrainConfig, Trainer};
use ei_nn::Sequential;
use ei_par::{ParPool, Parallelism};
use ei_platform::{Api, InferenceSpec, JobScheduler, PlatformError, ProjectId, UserId};
use ei_runtime::{EngineKind, EonProgram};
use ei_serve::{content_hash, ArtifactKey, CompiledArtifact, Server};
use ei_trace::Tracer;
use std::sync::Arc;

const MODEL: &str = "model";
const TASK: Task = Task::Kws;

/// The project is sized so that a cycle takes about a tenth of a second:
/// a run then completes the few hundred cycles a p95 needs. The shapes
/// are the paper's KWS task (1 s @ 16 kHz → MFCC → DS-CNN); the data set
/// is small and the DS-CNN a quarter as wide.
const CLIPS_PER_CLASS: usize = 3;
const MODEL_WIDTH: usize = 16;
const EPOCHS: usize = 3;

const BOARDS: [&str; 3] = ["nano 33", "esp-eye", "pico"];

/// One upload to the ingestion API.
struct Payload {
    format: &'static str,
    span: &'static str,
    bytes: Vec<u8>,
    label: String,
}

pub struct DesignCycle {
    seed: u64,
    server: Arc<Server>,
    pool: Arc<ParPool>,
    scheduler: JobScheduler,
    /// One data set per client (WAV, plus one JSON and one CBOR clip).
    payloads: Vec<Vec<Payload>>,
}

pub struct DesignClient {
    index: usize,
    cycles: u64,
    /// The client's data set as the store holds it, for the probes.
    dataset: Option<Dataset>,
}

/// What a cycle leaves behind for the checks.
struct Cycle {
    model_json: String,
    export: String,
    /// Estimates the artifact cache served without compiling.
    estimate_hits: usize,
}

fn payloads(seed: u64, client: usize) -> Vec<Payload> {
    let labels = TASK.labels();
    (0..CLIPS_PER_CLASS * labels.len())
        .map(|i| {
            let clip = TASK.input(seed, client * 1_000 + i);
            let label = labels[i % labels.len()].clone();
            let (format, span, bytes) = match i {
                0 => ("json", "platform.ingest_json", acquisition_json(&clip).into_bytes()),
                1 => ("cbor", "platform.ingest_cbor", encode(&acquisition_cbor(&clip))),
                _ => ("wav", "platform.ingest_wav", to_wav_bytes(16_000, &clip)),
            };
            Payload { format, span, bytes, label }
        })
        .collect()
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig { epochs: EPOCHS, batch_size: 8, seed, ..TrainConfig::default() }
}

fn estimate_spec(board: &str) -> InferenceSpec {
    InferenceSpec::new(MODEL, EngineKind::EonCompiled).quantized(true).on_board(board)
}

impl DesignCycle {
    pub fn setup(seed: u64, clients: usize) -> DesignCycle {
        let pool = Arc::new(ParPool::new(Parallelism::new(clients)));
        let server = Arc::new(Server::new(
            server_config(default_cache_capacity()),
            Arc::new(crate::clock::WallClock::new()),
            Arc::clone(&pool),
            Tracer::disabled(),
        ));
        let workload = DesignCycle {
            seed,
            scheduler: JobScheduler::with_sharded_pool(Arc::clone(&pool), clients),
            server,
            pool,
            payloads: (0..clients).map(|c| payloads(seed, c)).collect(),
        };
        workload.cycle(0, seed, &mut None).expect("warm-up cycle succeeds");
        workload
    }

    /// Distinct per (client, cycle), so that every cycle trains a model
    /// the artifact cache has not seen.
    fn next_train_seed(&self, client: &mut DesignClient) -> u64 {
        client.cycles += 1;
        self.seed
            .wrapping_mul(1_000_003)
            .wrapping_add(((client.index as u64 + 1) << 32) | client.cycles)
    }

    /// A timed cycle designs a new model, so its estimates must compile.
    fn fresh(cycle: Cycle) -> Result<Cycle, String> {
        match cycle.estimate_hits {
            0 => Ok(cycle),
            hits => Err(format!("{hits} estimates of a new model hit the artifact cache")),
        }
    }

    /// A project in a store of its own, the client's data set ingested.
    fn new_project(
        &self,
        client: usize,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<(Api, UserId, ProjectId), PlatformError> {
        let api = Stack::api_on(&self.server);
        let user = api.create_user("designer");
        let project = stage(rec, "platform.create_project", || api.create_project("kws", user))?;
        for p in &self.payloads[client] {
            stage(rec, p.span, || api.ingest(project, user, p.format, &p.bytes, Some(&p.label)))?;
        }
        Ok((api, user, project))
    }

    /// One pass of the design loop for a new project. The store has no
    /// delete endpoint, and `export_json` serializes the whole store, so
    /// each cycle's project lives in a store of its own on the shared
    /// `Server`, `JobScheduler` and `ParPool`: the work per cycle stays
    /// the same however long the run is.
    fn cycle(
        &self,
        client: usize,
        train_seed: u64,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<Cycle, String> {
        let e = |e: PlatformError| e.to_string();
        let (api, user, project) = self.new_project(client, rec).map_err(e)?;
        stage(rec, "platform.set_impulse", || api.set_impulse(project, user, TASK.design()))
            .map_err(e)?;
        let job = stage(rec, "platform.submit_training", || {
            api.submit_training(
                &self.scheduler,
                project,
                user,
                MODEL,
                TASK.model_spec(MODEL_WIDTH),
                train_config(train_seed),
            )
        })
        .map_err(e)?;
        stage(rec, "platform.wait_job", || self.scheduler.wait(job)).map_err(e)?;
        let model_json =
            stage(rec, "platform.download_model", || api.download_model(project, user, MODEL))
                .map_err(e)?;
        let impulse = stage(rec, "core.from_json", || TrainedImpulse::from_json(&model_json))
            .map_err(|e| e.to_string())?;
        let artifact = stage(rec, "quant.int8_artifact", || impulse.int8_artifact())
            .map_err(|e| e.to_string())?;
        stage(rec, "runtime.eon_compile", || EonProgram::compile(artifact))
            .map_err(|e| e.to_string())?;
        let mut estimate_hits = 0;
        for board in BOARDS {
            let estimate = stage(rec, "platform.estimate", || {
                api.estimate(project, user, &estimate_spec(board))
            })
            .map_err(e)?;
            estimate_hits += usize::from(estimate.cache_hit);
        }
        stage(rec, "platform.snapshot", || api.snapshot(project, user, "trained")).map_err(e)?;
        let export = stage(rec, "platform.export_json", || api.export_json()).map_err(e)?;
        Ok(Cycle { model_json, export, estimate_hits })
    }

    /// Re-runs, directly, what a training job and the estimates do inside
    /// the platform.
    fn probe_cycle(&self, rec: &mut Recorder, dataset: &Dataset, seed: u64) -> Result<(), String> {
        let design = TASK.design();
        let (features, ys, labels) = rec
            .probe("dsp.extract_features", || design.extract_features(dataset, Split::Training))
            .map_err(|e| e.to_string())?;
        let config = train_config(seed);
        let (model, report) = rec
            .probe("nn.train", || {
                let mut model = Sequential::build(&TASK.model_spec(MODEL_WIDTH), config.seed)?;
                let trainer = Trainer::new(config.clone());
                trainer.init_class_bias(&mut model, &ys, labels.len())?;
                let report = trainer.train(&mut model, &features, &ys)?;
                Ok::<_, ei_nn::NnError>((model, report))
            })
            .map_err(|e| e.to_string())?;
        let trained = TrainedImpulse::from_parts(design, labels, model, report, features);
        let json = rec.probe("core.to_json", || trained.to_json()).map_err(|e| e.to_string())?;
        let key = ArtifactKey {
            content_hash: content_hash(&json),
            board: BOARDS[0].to_string(),
            engine: EngineKind::EonCompiled,
            quantized: true,
        };
        rec.probe("serve.compile", || CompiledArtifact::compile(key, &json))
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Workload for DesignCycle {
    type Client = DesignClient;

    fn probes(&self) -> Vec<Probe> {
        vec![
            Probe::once("dsp.extract_features", "platform.wait_job"),
            Probe::once("nn.train", "platform.wait_job"),
            Probe::once("core.to_json", "platform.wait_job"),
            // each board's estimate compiles the new model for itself
            Probe {
                name: "serve.compile",
                inside: "platform.estimate",
                per_op: BOARDS.len() as f64,
            },
        ]
    }

    fn client(&self, index: usize) -> DesignClient {
        DesignClient { index, cycles: 0, dataset: None }
    }

    fn op(&self, client: &mut DesignClient) -> Result<(), String> {
        let train_seed = self.next_train_seed(client);
        self.cycle(client.index, train_seed, &mut None).and_then(DesignCycle::fresh).map(drop)
    }

    fn op_traced(&self, client: &mut DesignClient, rec: &mut Recorder) -> Result<(), String> {
        let train_seed = self.next_train_seed(client);
        rec.span("bench.design_cycle", |rec| self.cycle(client.index, train_seed, &mut Some(rec)))
            .and_then(DesignCycle::fresh)
            .map(drop)
    }

    fn probe(&self, client: &mut DesignClient, rec: &mut Recorder) -> Result<(), String> {
        let train_seed = self.next_train_seed(client);
        if client.dataset.is_none() {
            let (api, user, project) =
                self.new_project(client.index, &mut None).map_err(|e| e.to_string())?;
            client.dataset = Some(api.dataset(project, user).map_err(|e| e.to_string())?);
        }
        let dataset = client.dataset.as_ref().expect("ingested above");
        self.probe_cycle(rec, dataset, train_seed)
    }

    fn finish(&self, _clients: Vec<DesignClient>) -> Vec<String> {
        Vec::new()
    }

    /// Same-seed cycles must train the same model, and a backup must
    /// survive `import_json` byte for byte.
    fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let seed = self.seed ^ 0xC0FF_EE00;
        match (self.cycle(0, seed, &mut None), self.cycle(0, seed, &mut None)) {
            (Ok(a), Ok(b)) => {
                if content_hash(&a.model_json) != content_hash(&b.model_json) {
                    violations.push("same-seed cycles trained different models".into());
                }
                match Api::import_json(&a.export).and_then(|restored| restored.export_json()) {
                    Ok(again) if again == a.export => {}
                    Ok(_) => violations.push("export_json → import_json changed the backup".into()),
                    Err(e) => violations.push(e.to_string()),
                }
            }
            (a, b) => violations.extend([a.err(), b.err()].into_iter().flatten()),
        }
        violations
    }

    fn counters(&self) -> Counters {
        Counters {
            cache: self.server.cache_stats(),
            pool_steals: self.pool.steals(),
            ..Counters::default()
        }
    }
}
