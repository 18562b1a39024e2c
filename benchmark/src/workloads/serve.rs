//! `serve_kws`, `serve_vww` and `serve_churn`: `Api::classify` in a
//! closed loop.

use super::Counters;
use crate::fixtures::{references, same_bits, Task, CALIBRATION};
use crate::harness::{default_cache_capacity, Probe, Stack, Workload};
use crate::spans::Recorder;
use ei_core::{Classification, ImpulseDesign, TrainedImpulse};
use ei_platform::{InferenceSpec, PlatformError, ProjectId};
use ei_runtime::{EngineKind, EonProgram, InferenceEngine, Interpreter};
use ei_serve::{InferenceRequest, ModelSource, Outcome};
use std::sync::atomic::{AtomicU64, Ordering};

const MODEL: &str = "model";

/// Distinct input windows a hit workload cycles through.
const INPUTS: usize = 32;

/// Requests each set-up sends before timing: the first compiles and
/// fills the artifact cache, the rest touch every code path once.
const WARMUP_REQUESTS: usize = 8;

/// What `Api::classify` answers when `Server::resolve` finds neither the
/// request in the queue nor its completion: another client's dispatch
/// pass took the request off the queue and is still running it. About
/// one request in 15 000 of two closed-loop clients at the seed commit.
/// The completion is never collected; a client can only ask again.
const LOST_TICKET: &str = "serving dropped the request";

/// Tries a request gets before a lost ticket counts as a failure.
const TRIES: usize = 3;

/// What the decomposed (traced) request and the endpoint share.
struct Serving {
    stack: Stack,
    spec: InferenceSpec,
    requests: AtomicU64,
    rejected: AtomicU64,
    lost_tickets: AtomicU64,
}

impl Serving {
    fn new(stack: Stack, engine: EngineKind, quantized: bool) -> Serving {
        Serving {
            stack,
            spec: InferenceSpec::new(MODEL, engine).quantized(quantized),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            lost_tickets: AtomicU64::new(0),
        }
    }

    /// `Api::classify`, its answer compared bitwise with `reference`.
    /// Asks again, as an API client would, when the server lost the
    /// ticket (see [`LOST_TICKET`]); the operation's latency covers every
    /// try and `serve.lost_tickets` counts them.
    fn classify(
        &self,
        project: ProjectId,
        window: &[f32],
        reference: &Classification,
    ) -> Result<(), String> {
        let mut last = String::new();
        for _ in 0..TRIES {
            self.requests.fetch_add(1, Ordering::Relaxed);
            match self.stack.api.classify(project, self.stack.user, &self.spec, window.to_vec()) {
                Ok(answer) => return compare(&answer, reference),
                Err(PlatformError::JobFailed(message)) if message == LOST_TICKET => {
                    self.lost_tickets.fetch_add(1, Ordering::Relaxed);
                    last = message;
                }
                Err(e) => {
                    if matches!(
                        e,
                        PlatformError::Overloaded { .. } | PlatformError::QuotaExceeded { .. }
                    ) {
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e.to_string());
                }
            }
        }
        Err(last)
    }

    /// The public calls `Api::classify` makes, one span each.
    fn classify_traced(
        &self,
        rec: &mut Recorder,
        project: ProjectId,
        window: Vec<f32>,
        reference: &Classification,
    ) -> Result<(), String> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (api, user, server) = (&self.stack.api, self.stack.user, &self.stack.server);
        rec.span("bench.classify", |rec| {
            let json = rec
                .span("platform.download_model", |_| api.download_model(project, user, MODEL))
                .map_err(|e| e.to_string())?;
            let source =
                rec.span("serve.model_source", |_| ModelSource::new(self.spec.model.clone(), json));
            let request = rec.span("serve.from_spec", |_| {
                InferenceRequest::from_spec(
                    &self.spec,
                    source,
                    window,
                    &format!("project-{project}"),
                )
            });
            let ticket = rec.span("serve.submit", |_| server.submit(request)).map_err(|e| {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                e.to_string()
            })?;
            // here the ticket is in hand: a lost one is resolved again,
            // once the client that took the request has completed it
            let completion = rec.span("serve.resolve", |_| loop {
                match server.resolve(ticket) {
                    Some(completion) => break completion,
                    None => {
                        self.lost_tickets.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                }
            });
            match completion.outcome {
                Outcome::Classified(answer) => compare(&answer, reference),
                other => Err(format!("{other:?}")),
            }
        })
    }

    fn counters(&self) -> Counters {
        Counters {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            lost_tickets: self.lost_tickets.load(Ordering::Relaxed),
            cache: self.stack.server.cache_stats(),
            pool_steals: self.stack.pool.steals(),
            ..Counters::default()
        }
    }
}

fn compare(answer: &Classification, reference: &Classification) -> Result<(), String> {
    if same_bits(answer, reference) {
        Ok(())
    } else {
        Err(format!("wrong output: {answer:?}, reference {reference:?}"))
    }
}

/// Probes of what `Server::resolve` ran for one request: the DSP block
/// (built per request, as the server builds it) and the engine.
fn probe_inference(
    rec: &mut Recorder,
    design: &ImpulseDesign,
    engine: &dyn InferenceEngine,
    window: &[f32],
) -> Result<(), String> {
    let features = rec
        .probe("dsp.process", || design.dsp_block().and_then(|b| Ok(b.process(window)?)))
        .map_err(|e| e.to_string())?;
    rec.probe("runtime.run", || engine.run(&features)).map_err(|e| e.to_string())?;
    Ok(())
}

/// One closed-loop client: its index and how many operations and probe
/// rounds it has issued.
pub struct ServeClient {
    index: usize,
    sent: usize,
    probed: usize,
}

impl ServeClient {
    fn new(index: usize) -> ServeClient {
        ServeClient { index, sent: 0, probed: 0 }
    }
}

/// `serve_kws` / `serve_vww`: one project, one model, every request an
/// artifact-cache hit.
pub struct ServeHit {
    serving: Serving,
    project: ProjectId,
    clients: usize,
    inputs: Vec<Vec<f32>>,
    references: Vec<Classification>,
    design: ImpulseDesign,
    engine: Box<dyn InferenceEngine + Send + Sync>,
}

impl ServeHit {
    pub fn setup(
        task: Task,
        engine: EngineKind,
        quantized: bool,
        seed: u64,
        clients: usize,
    ) -> ServeHit {
        let impulse = task.impulse(seed, task.calibration(seed, CALIBRATION));
        let inputs = task.inputs(seed, INPUTS);
        let references = references(&impulse, quantized, &inputs);
        // default capacity (8) ≥ the working set of one artifact
        let stack = Stack::new(clients, default_cache_capacity());
        let project = stack.api.create_project(task.name(), stack.user).expect("user exists");
        let json = impulse.to_json().expect("impulse serializes");
        stack.api.upload_model(project, stack.user, MODEL, json).expect("project exists");
        let artifact = crate::fixtures::artifact(&impulse, quantized);
        let probe_engine: Box<dyn InferenceEngine + Send + Sync> = match engine {
            EngineKind::EonCompiled => Box::new(EonProgram::compile(artifact).expect("compiles")),
            EngineKind::TflmInterpreter => Box::new(Interpreter::new(artifact).expect("builds")),
        };
        let workload = ServeHit {
            serving: Serving::new(stack, engine, quantized),
            project,
            clients,
            inputs,
            references,
            design: impulse.design().clone(),
            engine: probe_engine,
        };
        for k in 0..WARMUP_REQUESTS {
            workload
                .serving
                .classify(project, &workload.inputs[k], &workload.references[k])
                .expect("warm-up request succeeds");
        }
        workload
    }

    /// Clients stride through the inputs so that no two send the same
    /// window at the same step.
    fn input_at(&self, client: &ServeClient, step: usize) -> usize {
        (client.index + self.clients * step) % self.inputs.len()
    }

    fn next_input(&self, client: &mut ServeClient) -> usize {
        client.sent += 1;
        self.input_at(client, client.sent - 1)
    }
}

impl Workload for ServeHit {
    type Client = ServeClient;

    fn probes(&self) -> Vec<Probe> {
        vec![
            Probe::once("dsp.process", "serve.resolve"),
            Probe::once("runtime.run", "serve.resolve"),
        ]
    }

    fn client(&self, index: usize) -> ServeClient {
        ServeClient::new(index)
    }

    fn op(&self, client: &mut ServeClient) -> Result<(), String> {
        let k = self.next_input(client);
        self.serving.classify(self.project, &self.inputs[k], &self.references[k])
    }

    fn op_traced(&self, client: &mut ServeClient, rec: &mut Recorder) -> Result<(), String> {
        let k = self.next_input(client);
        self.serving.classify_traced(rec, self.project, self.inputs[k].clone(), &self.references[k])
    }

    fn probe(&self, client: &mut ServeClient, rec: &mut Recorder) -> Result<(), String> {
        client.probed += 1;
        let window = &self.inputs[self.input_at(client, client.probed)];
        probe_inference(rec, &self.design, &*self.engine, window)
    }

    fn finish(&self, _clients: Vec<ServeClient>) -> Vec<String> {
        let cache = self.serving.stack.server.cache_stats();
        if cache.misses == 1 && cache.evictions == 0 {
            Vec::new()
        } else {
            vec![format!("serve hit workload must compile once and evict nothing: {cache:?}")]
        }
    }

    fn check(&self) -> Vec<String> {
        // every answer was compared bitwise with its reference as it arrived
        Vec::new()
    }

    fn counters(&self) -> Counters {
        self.serving.counters()
    }
}

/// Artifacts the churn server keeps resident.
const CHURN_CACHE_CAPACITY: usize = 2;

/// Tenants each client scans: with `CHURN_CACHE_CAPACITY + 2` distinct
/// artifacts between two visits of the same tenant, the LRU has always
/// evicted it, whatever the other clients do.
const TENANTS_PER_CLIENT: usize = CHURN_CACHE_CAPACITY + 2;

/// One model version of a tenant and the answer it must give.
struct Version {
    json: String,
    reference: Classification,
}

struct Tenant {
    project: ProjectId,
    versions: [Version; 2],
}

/// `serve_churn`: `clients × 4` (here 8 = 4 × cache capacity) tenant
/// projects, each with its own model, scanned cyclically so that every
/// request compiles; on every second lap the client first uploads the
/// tenant's other model version.
pub struct ServeChurn {
    serving: Serving,
    tenants: Vec<Tenant>,
    window: Vec<f32>,
}

impl ServeChurn {
    pub fn setup(seed: u64, clients: usize) -> ServeChurn {
        let task = Task::Kws;
        let calibration = task.calibration(seed, CALIBRATION);
        let window = task.input(seed, 0);
        let stack = Stack::new(clients, CHURN_CACHE_CAPACITY);
        let tenants: Vec<Tenant> = (0..clients * TENANTS_PER_CLIENT)
            .map(|t| {
                let project = stack
                    .api
                    .create_project(&format!("tenant-{t}"), stack.user)
                    .expect("user exists");
                let versions = [0u64, 1].map(|v| {
                    // distinct seeds ⇒ distinct weights ⇒ distinct content hashes
                    let model_seed = seed.wrapping_mul(1_000).wrapping_add(2 * t as u64 + v);
                    let impulse = task.impulse(model_seed, calibration.clone());
                    let reference = references(&impulse, true, std::slice::from_ref(&window))
                        .pop()
                        .expect("one reference per input");
                    Version { json: impulse.to_json().expect("impulse serializes"), reference }
                });
                stack
                    .api
                    .upload_model(project, stack.user, MODEL, versions[0].json.clone())
                    .expect("project exists");
                Tenant { project, versions }
            })
            .collect();
        let workload = ServeChurn {
            serving: Serving::new(stack, EngineKind::EonCompiled, true),
            tenants,
            window,
        };
        for tenant in workload.tenants.iter().take(WARMUP_REQUESTS) {
            workload
                .serving
                .classify(tenant.project, &workload.window, &tenant.versions[0].reference)
                .expect("warm-up request succeeds");
        }
        workload
    }

    /// The tenant this client visits next, the version it must be
    /// serving, and whether this visit uploads that version first.
    fn next_visit(&self, client: &mut ServeClient) -> (&Tenant, &Version, bool) {
        let lap = client.sent / TENANTS_PER_CLIENT;
        let slot = client.sent % TENANTS_PER_CLIENT;
        client.sent += 1;
        let tenant = &self.tenants[client.index * TENANTS_PER_CLIENT + slot];
        // laps 0 | 1 2 | 3 4 | … serve versions 0 | 1 1 | 0 0 | …
        let version = &tenant.versions[lap.div_ceil(2) % 2];
        (tenant, version, lap % 2 == 1)
    }

    fn upload(&self, tenant: &Tenant, version: &Version) -> Result<(), String> {
        let (api, user) = (&self.serving.stack.api, self.serving.stack.user);
        api.upload_model(tenant.project, user, MODEL, version.json.clone())
            .map_err(|e| e.to_string())
    }
}

impl Workload for ServeChurn {
    type Client = ServeClient;

    fn probes(&self) -> Vec<Probe> {
        [
            "core.from_json",
            "quant.int8_artifact",
            "runtime.eon_compile",
            "dsp.process",
            "runtime.run",
        ]
        .map(|name| Probe::once(name, "serve.resolve"))
        .into()
    }

    fn client(&self, index: usize) -> ServeClient {
        ServeClient::new(index)
    }

    fn op(&self, client: &mut ServeClient) -> Result<(), String> {
        let (tenant, version, uploads) = self.next_visit(client);
        if uploads {
            self.upload(tenant, version)?;
        }
        self.serving.classify(tenant.project, &self.window, &version.reference)
    }

    fn op_traced(&self, client: &mut ServeClient, rec: &mut Recorder) -> Result<(), String> {
        let (tenant, version, uploads) = self.next_visit(client);
        // one root span per operation: the upload is part of the visit
        rec.span("bench.visit", |rec| {
            if uploads {
                rec.span("platform.upload_model", |_| self.upload(tenant, version))?;
            }
            self.serving.classify_traced(
                rec,
                tenant.project,
                self.window.clone(),
                &version.reference,
            )
        })
    }

    /// What `CompiledArtifact::compile` does on a miss, step by step,
    /// then what the request runs on the new artifact.
    fn probe(&self, client: &mut ServeClient, rec: &mut Recorder) -> Result<(), String> {
        client.probed += 1;
        let tenant =
            &self.tenants[client.index * TENANTS_PER_CLIENT + client.probed % TENANTS_PER_CLIENT];
        let json = &tenant.versions[0].json;
        let impulse = rec
            .probe("core.from_json", || TrainedImpulse::from_json(json))
            .map_err(|e| e.to_string())?;
        let artifact = rec
            .probe("quant.int8_artifact", || impulse.int8_artifact())
            .map_err(|e| e.to_string())?;
        let program = rec
            .probe("runtime.eon_compile", || EonProgram::compile(artifact))
            .map_err(|e| e.to_string())?;
        probe_inference(rec, impulse.design(), &program, &self.window)
    }

    fn finish(&self, _clients: Vec<ServeClient>) -> Vec<String> {
        let counters = self.serving.counters();
        if counters.cache.misses == counters.requests && counters.cache.hits == 0 {
            Vec::new()
        } else {
            vec![format!(
                "every churn request must miss: {} requests, {:?}",
                counters.requests, counters.cache
            )]
        }
    }

    fn check(&self) -> Vec<String> {
        Vec::new()
    }

    fn counters(&self) -> Counters {
        self.serving.counters()
    }
}
