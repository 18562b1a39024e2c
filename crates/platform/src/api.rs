//! The typed API facade: every platform mutation flows through here, the
//! in-process equivalent of the public REST API (paper §4.9).
//!
//! Endpoints take [`UserId`]/[`ProjectId`] newtypes rather than positional
//! `u64`s — a swapped `(project, acting)` pair is now a compile error —
//! and inference/estimation calls take one [`InferenceSpec`] instead of a
//! growing list of engine/board/dtype/deadline arguments.
//!
//! # Sharded state
//!
//! The platform's north star is heavy traffic from millions of tenants, so
//! state is no longer one `RwLock<State>`: users, organizations, projects
//! and live streams each live in an [`ei_shard::ShardMap`], striped across
//! `EI_SHARDS` lock-guarded shards by FNV-1a of the raw id. Two tenants on
//! different shards never contend; [`Api::export_json`] merges shards in
//! key order, so backups stay **byte-identical** to the serial (1-shard)
//! reference. Every map places a key by the same pure function
//! ([`ei_shard::shard_index`]), so each keyed call takes exactly one
//! stripe lock. Per-project quota ledgers ([`Api::set_project_quota`])
//! live on a `ShardMap` of their own, striped the same way.

use crate::entities::{
    OrgId, Organization, Project, ProjectId, SessionId, StoredModel, User, UserId,
};
use crate::jobs::JobScheduler;
use crate::{PlatformError, Result};
use ei_core::impulse::ImpulseDesign;
use ei_data::cbor::parse_cbor;
use ei_data::ingest::{parse_csv, parse_json, parse_wav};
use ei_data::netpbm::parse_netpbm_sample;
use ei_data::{Dataset, Sample, SensorKind};
use ei_nn::spec::ModelSpec;
use ei_nn::train::TrainConfig;
use ei_serve::{
    CacheStats, InferenceRequest, InferenceSpec, ModelSource, Outcome, Rejected, Server,
    ServerConfig,
};
use ei_shard::{QuotaLedger, QuotaUsage, ShardMap, ShardObserver};
use ei_stream::{SessionConfig, SessionStats, StreamError, StreamSession, WindowVerdict};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shard count used when `EI_SHARDS` is unset.
pub const DEFAULT_SHARDS: usize = 8;

/// Reads the platform shard count from `EI_SHARDS` (default
/// [`DEFAULT_SHARDS`], minimum 1).
pub fn shards_from_env() -> usize {
    std::env::var("EI_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_SHARDS)
}

/// One consolidated snapshot of the sharded store, returned by
/// [`Api::shard_report`]: shard count, occupancy and skew, plus the
/// serving artifact-cache counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shards state is striped across.
    pub shards: usize,
    /// Projects per shard, by shard index.
    pub occupancy: Vec<usize>,
    /// max/mean project-shard occupancy (1.0 = perfectly even).
    pub skew: f64,
    /// Artifact-cache counters (`None` until a serving layer is
    /// attached or lazily initialized).
    pub cache: Option<CacheStats>,
}

/// The serialized backup form of the platform (what
/// [`Api::export_json`] emits and [`Api::import_json`] accepts).
///
/// Maps stay keyed by raw `u64` so exported JSON is byte-compatible with
/// pre-newtype (and pre-shard) backups; the typed ids live at the API
/// boundary. Live state is sharded — this struct only exists at the
/// export/import boundary, built from key-ordered shard merges.
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
struct State {
    users: BTreeMap<u64, User>,
    orgs: BTreeMap<u64, Organization>,
    projects: BTreeMap<u64, Project>,
    next_id: u64,
}

/// One project's open streams, by session id. Not part of [`State`]: a
/// live stream is bound to this process (its DSP buffers and serving
/// tickets cannot survive an export/import round trip), so backups
/// deliberately exclude it.
type ProjectStreams = BTreeMap<u64, StreamSession>;

/// The platform API. Cheap to clone; clones share state (like concurrent
/// API clients hitting one backend).
#[derive(Debug, Clone)]
pub struct Api {
    users: Arc<ShardMap<u64, User>>,
    orgs: Arc<ShardMap<u64, Organization>>,
    projects: Arc<ShardMap<u64, Project>>,
    /// Open streaming sessions, grouped by the project they bill to
    /// (process-local; see [`ProjectStreams`]). A project's streams share
    /// its stripe lock, held for a whole push, so they take turns.
    streams: Arc<ShardMap<u64, ProjectStreams>>,
    /// The project each open session belongs to, by session id.
    stream_owners: Arc<ShardMap<u64, ProjectId>>,
    /// Per-project unit quotas (unlimited unless
    /// [`Api::set_project_quota`] is called).
    quotas: Arc<QuotaLedger<u64>>,
    next_id: Arc<AtomicU64>,
    next_stream: Arc<AtomicU64>,
    /// The serving front-end project inference/estimation calls execute
    /// through. Lazily built on first use (so the many callers that never
    /// serve inference pay nothing); clones share it like the state maps.
    serving: Arc<OnceLock<Arc<Server>>>,
}

impl Default for Api {
    fn default() -> Api {
        Api::with_shards(shards_from_env())
    }
}

/// Bridges one [`ShardMap`]'s telemetry into the `ei-obs` registry
/// under that map's own series names: an occupancy gauge per shard and a
/// lock-wait histogram (ms), so flight dumps can name hot shards.
struct ObsBridge {
    obs: Arc<ei_obs::Obs>,
    lock_wait: &'static str,
    occupancy: &'static str,
}

impl ShardObserver for ObsBridge {
    fn lock_wait(&self, shard: usize, wait_ns: u64) {
        self.obs.registry().observe(
            self.lock_wait,
            &format!("shard-{shard}"),
            wait_ns as f64 / 1_000_000.0,
            &ei_obs::LATENCY_BOUNDS,
        );
    }

    fn occupancy(&self, shard: usize, len: usize) {
        self.obs.registry().set_gauge(self.occupancy, &format!("shard-{shard}"), len as f64);
    }
}

impl Api {
    /// Creates an empty platform with `EI_SHARDS` shards (default
    /// [`DEFAULT_SHARDS`]).
    pub fn new() -> Api {
        Api::default()
    }

    /// Creates an empty platform striped across an explicit number of
    /// shards (minimum 1). `Api::with_shards(1)` is the serial
    /// reference every other shard count must match byte-for-byte on
    /// export.
    pub fn with_shards(shards: usize) -> Api {
        let shards = shards.max(1);
        Api {
            users: Arc::new(ShardMap::new(shards)),
            orgs: Arc::new(ShardMap::new(shards)),
            projects: Arc::new(ShardMap::new(shards)),
            streams: Arc::new(ShardMap::new(shards)),
            stream_owners: Arc::new(ShardMap::new(shards)),
            quotas: Arc::new(QuotaLedger::new(shards, u64::MAX)),
            next_id: Arc::new(AtomicU64::new(0)),
            next_stream: Arc::new(AtomicU64::new(0)),
            serving: Arc::default(),
        }
    }

    /// One consolidated snapshot of the sharded store: shard count,
    /// per-shard occupancy and skew of the project map, and the serving
    /// layer's artifact-cache counters (`None` until a serving layer is
    /// attached or lazily initialized).
    pub fn shard_report(&self) -> ShardReport {
        ShardReport {
            shards: self.projects.shard_count(),
            occupancy: self.projects.occupancy(),
            skew: self.projects.occupancy_skew(),
            cache: self.serving.get().map(|server| server.cache_stats()),
        }
    }

    /// Attaches always-on telemetry: per-shard occupancy gauges and
    /// lock-wait histograms flow into `obs`'s registry — the project map
    /// as `platform.shard.{occupancy,lock_wait}`, the stream map (one
    /// entry per project that has opened a stream) as
    /// `platform.stream_shard.{occupancy,lock_wait}`. First caller wins,
    /// like [`ShardMap::set_observer`].
    pub fn attach_obs(&self, obs: &Arc<ei_obs::Obs>) {
        let bridge = |lock_wait, occupancy| {
            Arc::new(ObsBridge { obs: Arc::clone(obs), lock_wait, occupancy }) as _
        };
        self.projects.set_observer(bridge("platform.shard.lock_wait", "platform.shard.occupancy"));
        self.streams.set_observer(bridge(
            "platform.stream_shard.lock_wait",
            "platform.stream_shard.occupancy",
        ));
    }

    /// Attaches an explicitly configured serving front-end (e.g. one on a
    /// [`ei_faults::VirtualClock`] for deterministic tests).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadRequest`] when a serving layer is
    /// already attached (or was already lazily initialized).
    pub fn attach_serving(&self, server: Arc<Server>) -> Result<()> {
        self.serving
            .set(server)
            .map_err(|_| PlatformError::BadRequest("serving layer already attached".into()))
    }

    /// The serving front-end, lazily built with default configuration on
    /// the system clock and an `EI_THREADS`-sized pool.
    pub fn serving(&self) -> &Arc<Server> {
        self.serving.get_or_init(|| {
            Arc::new(Server::new(
                ServerConfig::default(),
                Arc::new(ei_faults::SystemClock::new()),
                Arc::new(ei_par::ParPool::new(ei_par::Parallelism::from_env())),
                ei_trace::Tracer::disabled(),
            ))
        })
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Registers a user, returning the id.
    pub fn create_user(&self, name: &str) -> UserId {
        let id = UserId(self.fresh_id());
        self.users.insert(id.0, User { id, name: name.to_string() });
        id
    }

    /// Creates an organization owned by `founder`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for an unknown founder.
    pub fn create_organization(&self, name: &str, founder: UserId) -> Result<OrgId> {
        if !self.users.contains_key(&founder.0) {
            return Err(PlatformError::NotFound { kind: "user", id: founder.0 });
        }
        let id = OrgId(self.fresh_id());
        self.orgs.insert(id.0, Organization { id, name: name.to_string(), members: vec![founder] });
        Ok(id)
    }

    /// Creates a project owned by `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotFound`] for an unknown owner.
    pub fn create_project(&self, name: &str, owner: UserId) -> Result<ProjectId> {
        if !self.users.contains_key(&owner.0) {
            return Err(PlatformError::NotFound { kind: "user", id: owner.0 });
        }
        let id = ProjectId(self.fresh_id());
        self.projects.insert(id.0, Project::new(id, name, owner));
        Ok(id)
    }

    /// Adds a collaborator to a project (owner only).
    ///
    /// # Errors
    ///
    /// Fails for unknown entities or when `acting` is not the owner.
    pub fn add_collaborator(
        &self,
        project: ProjectId,
        acting: UserId,
        collaborator: UserId,
    ) -> Result<()> {
        if !self.users.contains_key(&collaborator.0) {
            return Err(PlatformError::NotFound { kind: "user", id: collaborator.0 });
        }
        self.projects
            .with_mut(&project.0, |p| {
                if p.owner != acting {
                    return Err(PlatformError::AccessDenied(
                        "only the owner adds collaborators".into(),
                    ));
                }
                if !p.collaborators.contains(&collaborator) {
                    p.collaborators.push(collaborator);
                }
                Ok(())
            })
            .ok_or(PlatformError::NotFound { kind: "project", id: project.0 })?
    }

    /// Runs `f` with read access to a project, enforcing access control.
    /// Only the project's own shard lock is held.
    ///
    /// Crate-internal: external callers go through the typed queries
    /// ([`Api::dataset`], [`Api::impulse`], [`Api::list_models`], …)
    /// instead of reaching into [`Project`] directly.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub(crate) fn with_project<T>(
        &self,
        project: ProjectId,
        acting: UserId,
        f: impl FnOnce(&Project) -> T,
    ) -> Result<T> {
        self.projects
            .with(&project.0, |p| {
                if !p.can_access(acting) && !p.public {
                    return Err(PlatformError::AccessDenied(format!(
                        "user {acting} on project {project}"
                    )));
                }
                Ok(f(p))
            })
            .ok_or(PlatformError::NotFound { kind: "project", id: project.0 })?
    }

    /// Runs `f` with write access to a project, enforcing access control.
    /// Only the project's own shard lock is held.
    ///
    /// Crate-internal for the same reason as [`Api::with_project`].
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub(crate) fn with_project_mut<T>(
        &self,
        project: ProjectId,
        acting: UserId,
        f: impl FnOnce(&mut Project) -> T,
    ) -> Result<T> {
        self.projects
            .with_mut(&project.0, |p| {
                if !p.can_access(acting) {
                    return Err(PlatformError::AccessDenied(format!(
                        "user {acting} on project {project}"
                    )));
                }
                Ok(f(p))
            })
            .ok_or(PlatformError::NotFound { kind: "project", id: project.0 })?
    }

    /// Read-only snapshot of a project's dataset.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub fn dataset(&self, project: ProjectId, acting: UserId) -> Result<Dataset> {
        self.with_project(project, acting, |p| p.dataset.clone())
    }

    /// The project's impulse design, if one is configured.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub fn impulse(&self, project: ProjectId, acting: UserId) -> Result<Option<ImpulseDesign>> {
        self.with_project(project, acting, |p| p.impulse.clone())
    }

    /// Sets a per-project unit quota (owner only). Ingestion and
    /// inference calls charge one unit each; once `limit` units are
    /// used, further calls fail with [`PlatformError::QuotaExceeded`].
    /// Projects without an explicit quota are unlimited.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or when `acting` is not the owner.
    pub fn set_project_quota(&self, project: ProjectId, acting: UserId, limit: u64) -> Result<()> {
        let owner = self.with_project(project, acting, |p| p.owner)?;
        if owner != acting {
            return Err(PlatformError::AccessDenied("only the owner sets quotas".into()));
        }
        self.quotas.set_limit(&project.0, limit);
        Ok(())
    }

    /// Gives a project a burst bucket on top of its cumulative quota
    /// (owner only): at most `capacity` units of burst, refilled at
    /// `refill_per_sec` units per second of the serving clock — the
    /// same token-bucket shape as the serving layer's admission
    /// buckets. A `capacity` of 0 removes the bucket. Charges remain a
    /// single atomic admit-or-deny on the project's shard.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects, when `acting` is not the owner, or
    /// with [`PlatformError::BadRequest`] for a negative or non-finite
    /// `refill_per_sec`.
    pub fn set_project_burst(
        &self,
        project: ProjectId,
        acting: UserId,
        capacity: u64,
        refill_per_sec: f64,
    ) -> Result<()> {
        let owner = self.with_project(project, acting, |p| p.owner)?;
        if owner != acting {
            return Err(PlatformError::AccessDenied("only the owner sets quotas".into()));
        }
        if !refill_per_sec.is_finite() || refill_per_sec < 0.0 {
            return Err(PlatformError::BadRequest(format!(
                "refill rate must be finite and non-negative, got {refill_per_sec}"
            )));
        }
        self.quotas.set_burst(&project.0, capacity, refill_per_sec, self.quota_now_ms());
        Ok(())
    }

    /// The logical time quota charges refill against: the serving clock
    /// when a serving layer is attached, else 0 (projects without a
    /// burst bucket never read it).
    fn quota_now_ms(&self) -> u64 {
        self.serving.get().map_or(0, |server| server.clock().now_ms())
    }

    /// The project's quota ledger (limit, used units, denied calls),
    /// tracked on the project's own shard.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub fn project_quota(&self, project: ProjectId, acting: UserId) -> Result<QuotaUsage> {
        self.with_project(project, acting, |_| ())?;
        Ok(self.quotas.usage(&project.0).unwrap_or(QuotaUsage {
            limit: u64::MAX,
            used: 0,
            denied: 0,
        }))
    }

    /// Charges one quota unit to `project`, mapping denial to the
    /// platform error space. Burst buckets refill against the serving
    /// clock; projects without one behave exactly as before.
    fn charge_quota(&self, project: ProjectId) -> Result<()> {
        if self.quotas.charge_at(&project.0, 1, self.quota_now_ms()).is_admitted() {
            Ok(())
        } else {
            Err(PlatformError::QuotaExceeded { tenant: format!("project-{project}") })
        }
    }

    /// Ingests one sample from a supported payload (the ingestion API).
    ///
    /// `format` is `"json"`, `"cbor"`, `"csv"`, `"wav"`, `"pgm"` or
    /// `"ppm"`; binary formats pass raw bytes, text formats pass UTF-8.
    /// Charges one quota unit on success.
    ///
    /// # Errors
    ///
    /// Fails on parse errors, unknown formats, denied access, or an
    /// exhausted project quota.
    pub fn ingest(
        &self,
        project: ProjectId,
        acting: UserId,
        format: &str,
        payload: &[u8],
        label: Option<&str>,
    ) -> Result<u64> {
        let sample = match format {
            "json" => {
                let text = std::str::from_utf8(payload)
                    .map_err(|e| PlatformError::BadRequest(e.to_string()))?;
                parse_json(text, 0).map_err(|e| PlatformError::BadRequest(e.to_string()))?
            }
            "csv" => {
                let text = std::str::from_utf8(payload)
                    .map_err(|e| PlatformError::BadRequest(e.to_string()))?;
                let (_, values) =
                    parse_csv(text).map_err(|e| PlatformError::BadRequest(e.to_string()))?;
                Sample::new(0, values, SensorKind::Other)
            }
            "wav" => {
                let (rate, samples) =
                    parse_wav(payload).map_err(|e| PlatformError::BadRequest(e.to_string()))?;
                Sample::new(0, samples, SensorKind::Audio).with_sample_rate(rate)
            }
            "cbor" => {
                parse_cbor(payload, 0).map_err(|e| PlatformError::BadRequest(e.to_string()))?
            }
            "pgm" | "ppm" => parse_netpbm_sample(payload, 0)
                .map_err(|e| PlatformError::BadRequest(e.to_string()))?,
            other => {
                return Err(PlatformError::BadRequest(format!("unsupported format {other:?}")))
            }
        };
        let sample = match label {
            Some(l) => sample.with_label(l),
            None => sample,
        };
        self.charge_quota(project)?;
        let added = self.with_project_mut(project, acting, |p| p.dataset.add(sample));
        if added.is_err() {
            // the sample never landed; refund the unit
            self.quotas.release(&project.0, 1);
        }
        added
    }

    /// Stores a trained-impulse artifact in the project's model registry.
    ///
    /// `json` is the payload produced by
    /// `ei_core::impulse::TrainedImpulse::to_json` — stored opaquely so
    /// registry history survives library changes.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub fn upload_model(
        &self,
        project: ProjectId,
        acting: UserId,
        name: &str,
        json: String,
    ) -> Result<()> {
        // hashed before the stripe lock is taken; the version this one
        // replaces leaves the closure and is freed after the lock, too
        let stored = StoredModel::new(json);
        self.with_project_mut(project, acting, |p| p.models.insert(name.to_string(), stored))
            .map(drop)
    }

    /// Fetches a trained-impulse artifact from the registry.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects/models or denied access.
    pub fn download_model(&self, project: ProjectId, acting: UserId, name: &str) -> Result<String> {
        // copied after the stripe lock is released
        Ok(self.model_source(project, acting, name)?.blob.json().to_string())
    }

    /// The access-checked registry lookup behind every serving call: the
    /// stored blob by pointer, so the stripe lock is never held across a
    /// copy or a hash of model bytes.
    fn model_source(&self, project: ProjectId, acting: UserId, name: &str) -> Result<ModelSource> {
        let blob = self
            .with_project(project, acting, |p| p.models.get(name).map(|m| Arc::clone(&m.0)))?
            .ok_or(PlatformError::NotFound { kind: "model", id: 0 })?;
        Ok(ModelSource::from_blob(name, blob))
    }

    /// Classifies one raw window with the registry model `spec` names,
    /// executing through the serving layer (admission control, artifact
    /// cache, micro-batching). Billed to `spec.tenant` when set, otherwise
    /// to the project (`project-<id>`); charges one project quota unit,
    /// refunded when admission refuses the request (one that was admitted
    /// and then failed or missed its deadline stays charged). The model
    /// travels by pointer: no copy or hash of its bytes per request.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects/models or denied access;
    /// [`PlatformError::Overloaded`] / [`PlatformError::QuotaExceeded`]
    /// when admission (or the project quota) refuses the request;
    /// [`PlatformError::DeadlineExceeded`] when it misses its deadline;
    /// [`PlatformError::JobFailed`] when the model cannot run.
    pub fn classify(
        &self,
        project: ProjectId,
        acting: UserId,
        spec: &InferenceSpec,
        window: Vec<f32>,
    ) -> Result<ei_core::Classification> {
        let source = self.model_source(project, acting, spec.model.as_str())?;
        self.charge_quota(project)?;
        let server = self.serving();
        let request =
            InferenceRequest::from_spec(spec, source, window, &format!("project-{project}"));
        let ticket = server.submit(request).map_err(|rejected| {
            // refused at the door, the request never ran; refund the unit
            self.quotas.release(&project.0, 1);
            rejection_to_error(rejected)
        })?;
        let completion = server
            .resolve(ticket)
            .ok_or_else(|| PlatformError::JobFailed("serving dropped the request".into()))?;
        match completion.outcome {
            Outcome::Classified(c) => Ok(c),
            Outcome::DeadlineExceeded { waited_ms } => {
                Err(PlatformError::DeadlineExceeded { waited_ms })
            }
            Outcome::Failed(msg) => Err(PlatformError::JobFailed(msg)),
        }
    }

    /// Estimates how the registry model `spec` names runs on `spec.board`
    /// (latency, memory, fit), served through the artifact cache like
    /// inference, so an estimate and a classification of the same model
    /// on the same board share one compiled artifact. `spec.tenant` is
    /// not read: an estimate is neither queued nor metered.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects/models/boards, denied access, or a
    /// model that does not compile.
    pub fn estimate(
        &self,
        project: ProjectId,
        acting: UserId,
        spec: &InferenceSpec,
    ) -> Result<ei_serve::Estimate> {
        let source = self.model_source(project, acting, spec.model.as_str())?;
        self.serving().estimate(&source, &spec.board, spec.engine, spec.quantized).map_err(|e| {
            match e {
                ei_serve::ServeError::UnknownBoard(b) => {
                    PlatformError::BadRequest(format!("unknown board {b:?}"))
                }
                ei_serve::ServeError::Model(msg) => PlatformError::JobFailed(msg),
            }
        })
    }

    /// Opens a continuous-inference stream against the registry model
    /// `model`, returning a session id for [`Api::stream_push`] /
    /// [`Api::stream_close`].
    ///
    /// When `config.tenant` is empty the session bills to the project
    /// (`project-<id>`), matching [`Api::classify`]; an explicit tenant
    /// (e.g. a per-device id) is kept, so quotas and SLO monitors can be
    /// scoped finer than the project.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects/models or denied access, and
    /// [`PlatformError::BadRequest`] when the session config does not fit
    /// the model's impulse design (misaligned hop, non-streamable DSP
    /// block, undecodable model).
    pub fn stream_open(
        &self,
        project: ProjectId,
        acting: UserId,
        model: &str,
        mut config: SessionConfig,
    ) -> Result<SessionId> {
        let source = self.model_source(project, acting, model)?;
        if config.tenant.is_empty() {
            config.tenant = format!("project-{project}");
        }
        let session =
            StreamSession::open(self.serving().clone(), source, config).map_err(stream_to_error)?;
        let id = self.next_stream.fetch_add(1, Ordering::SeqCst) + 1;
        self.stream_owners.insert(id, project);
        self.streams.with_mut_or_insert(&project.0, BTreeMap::new, |open| open.insert(id, session));
        Ok(SessionId(id))
    }

    /// Feeds one chunk of raw samples into an open stream and returns the
    /// windows classified so far (possibly none — ingest never waits for
    /// inference). Dropped windows are visible in [`Api::stream_stats`],
    /// not here.
    ///
    /// # Errors
    ///
    /// Fails for unknown sessions or denied access (write access to the
    /// owning project is re-checked on every call, so revoking a
    /// collaborator also cuts their live streams).
    pub fn stream_push(
        &self,
        session: SessionId,
        acting: UserId,
        samples: &[f32],
    ) -> Result<Vec<WindowVerdict>> {
        self.with_stream(session, acting, |s| {
            s.push(samples).map_err(stream_to_error)?;
            Ok(s.poll())
        })?
    }

    /// Counters for an open stream (windows, drops, oracle verdicts).
    ///
    /// # Errors
    ///
    /// Fails for unknown sessions or denied access.
    pub fn stream_stats(&self, session: SessionId, acting: UserId) -> Result<SessionStats> {
        self.with_stream(session, acting, |s| s.stats())
    }

    /// Closes a stream: drains outstanding inference and returns the final
    /// counters.
    ///
    /// # Errors
    ///
    /// Fails for unknown sessions or denied access.
    pub fn stream_close(&self, session: SessionId, acting: UserId) -> Result<SessionStats> {
        let project = self.stream_owner(session, acting)?;
        let closed = self
            .streams
            .with_mut(&project.0, |open| open.remove(&session.0))
            .flatten()
            .ok_or(PlatformError::NotFound { kind: "stream", id: session.0 })?;
        self.stream_owners.remove(&session.0);
        Ok(closed.close())
    }

    /// Runs `f` on an open stream after re-checking project write access,
    /// under the owning project's stream-map stripe. Stream-map and
    /// project-map locks are taken one at a time, never nested.
    fn with_stream<T>(
        &self,
        session: SessionId,
        acting: UserId,
        f: impl FnOnce(&mut StreamSession) -> T,
    ) -> Result<T> {
        let project = self.stream_owner(session, acting)?;
        self.streams
            .with_mut(&project.0, |open| open.get_mut(&session.0).map(f))
            .flatten()
            .ok_or(PlatformError::NotFound { kind: "stream", id: session.0 })
    }

    /// The project `session` bills to, once `acting` has write access to it.
    fn stream_owner(&self, session: SessionId, acting: UserId) -> Result<ProjectId> {
        let project = self
            .stream_owners
            .get(&session.0)
            .ok_or(PlatformError::NotFound { kind: "stream", id: session.0 })?;
        self.with_project_mut(project, acting, |_| ())?;
        Ok(project)
    }

    /// Lists registry model names.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub fn list_models(&self, project: ProjectId, acting: UserId) -> Result<Vec<String>> {
        self.with_project(project, acting, |p| p.models.keys().cloned().collect())
    }

    /// Sets a project's impulse design.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub fn set_impulse(
        &self,
        project: ProjectId,
        acting: UserId,
        impulse: ImpulseDesign,
    ) -> Result<()> {
        self.with_project_mut(project, acting, |p| p.impulse = Some(impulse))
    }

    /// Saves a version snapshot of a project.
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or denied access.
    pub fn snapshot(&self, project: ProjectId, acting: UserId, description: &str) -> Result<u32> {
        self.with_project_mut(project, acting, |p| p.snapshot(description))
    }

    /// Makes a project public (owner only).
    ///
    /// # Errors
    ///
    /// Fails for unknown projects or when `acting` is not the owner.
    pub fn make_public(&self, project: ProjectId, acting: UserId, tags: &[&str]) -> Result<()> {
        self.projects
            .with_mut(&project.0, |p| {
                if p.owner != acting {
                    return Err(PlatformError::AccessDenied("only the owner publishes".into()));
                }
                p.public = true;
                p.tags = tags.iter().map(|t| t.to_string()).collect();
                Ok(())
            })
            .ok_or(PlatformError::NotFound { kind: "project", id: project.0 })?
    }

    /// Submits a full training job to a scheduler: extracts the project's
    /// dataset and impulse, trains `spec` on a worker, and on success
    /// stores the trained artifact in the model registry under
    /// `model_name`. Returns the job id (poll/wait via the scheduler; the
    /// job output is the best validation accuracy). On a sharded
    /// scheduler the job routes to the project's submission queue, so
    /// one tenant's training burst cannot starve another shard.
    ///
    /// This is the "programmatically … train models" automation path of
    /// paper §4.9 in one call.
    ///
    /// # Errors
    ///
    /// Fails when the project is missing an impulse, access is denied, or
    /// the scheduler is stopped.
    pub fn submit_training(
        &self,
        scheduler: &JobScheduler,
        project: ProjectId,
        acting: UserId,
        model_name: &str,
        spec: ModelSpec,
        config: TrainConfig,
    ) -> Result<u64> {
        let dataset = self.dataset(project, acting)?;
        let design = self
            .impulse(project, acting)?
            .ok_or_else(|| PlatformError::BadRequest("project has no impulse".into()))?;
        let api = self.clone();
        let name = model_name.to_string();
        scheduler.submit_keyed(project.0, 1, move || {
            let trained = design.train(&spec, &dataset, &config).map_err(|e| e.to_string())?;
            let json = trained.to_json().map_err(|e| e.to_string())?;
            api.upload_model(project, acting, &name, json).map_err(|e| e.to_string())?;
            Ok(format!("{:.4}", trained.report().best_val_accuracy))
        })
    }

    /// Lists `(id, name, public)` of all projects a user can see, in id
    /// order (a key-ordered merge across shards — identical at any shard
    /// count).
    pub fn list_projects(&self, acting: UserId) -> Vec<(ProjectId, String, bool)> {
        let mut out = Vec::new();
        self.projects.for_each(|_, p| {
            if p.can_access(acting) || p.public {
                out.push((p.id, p.name.clone(), p.public));
            }
        });
        out
    }

    /// Snapshot of all public projects (for the registry), in id order.
    pub fn public_projects(&self) -> Vec<Project> {
        let mut out = Vec::new();
        self.projects.for_each(|_, p| {
            if p.public {
                out.push(p.clone());
            }
        });
        out
    }

    /// The registry's merged view: every public project, keyed by raw id,
    /// merged across shards in key order (so downstream ordering is
    /// shard-count independent). Feed this to [`crate::registry::search`].
    pub fn registry_snapshot(&self) -> BTreeMap<u64, Project> {
        let mut out = BTreeMap::new();
        self.projects.for_each(|k, p| {
            if p.public {
                out.insert(*k, p.clone());
            }
        });
        out
    }

    /// Searches the public-project registry (see
    /// [`crate::registry::search`]) over the merged shard snapshot.
    pub fn search_registry(&self, query: &str) -> Vec<crate::registry::RegistryEntry> {
        crate::registry::search(&self.registry_snapshot(), query)
    }

    /// Serializes the entire platform state (users, organizations,
    /// projects with their datasets, versions and model registries) —
    /// the backup/migration path behind §4.10's "migrate the
    /// infrastructure … with a reasonable amount of effort".
    ///
    /// Each map merges its shards in key order under all shard locks at
    /// once, so the emitted bytes are identical at any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadRequest`] on serialization failure.
    pub fn export_json(&self) -> Result<String> {
        let state = State {
            users: self.users.snapshot(),
            orgs: self.orgs.snapshot(),
            projects: self.projects.snapshot(),
            next_id: self.next_id.load(Ordering::SeqCst),
        };
        serde_json::to_string(&state).map_err(|e| PlatformError::BadRequest(e.to_string()))
    }

    /// Restores a platform from [`Api::export_json`] output, scattering
    /// entries back across `EI_SHARDS` shards (the payload itself is
    /// shard-count agnostic).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadRequest`] for malformed payloads.
    pub fn import_json(json: &str) -> Result<Api> {
        let state: State =
            serde_json::from_str(json).map_err(|e| PlatformError::BadRequest(e.to_string()))?;
        let api = Api::new();
        api.next_id.store(state.next_id, Ordering::SeqCst);
        for (k, v) in state.users {
            api.users.insert(k, v);
        }
        for (k, v) in state.orgs {
            api.orgs.insert(k, v);
        }
        for (k, v) in state.projects {
            api.projects.insert(k, v);
        }
        Ok(api)
    }
}

/// Maps a serving-layer admission rejection to the platform error space.
fn rejection_to_error(rejected: Rejected) -> PlatformError {
    match rejected {
        Rejected::Overloaded { queue_depth } => PlatformError::Overloaded { queue_depth },
        Rejected::QuotaExceeded { tenant } => PlatformError::QuotaExceeded { tenant },
    }
}

/// Maps a streaming-layer error to the platform error space.
fn stream_to_error(e: StreamError) -> PlatformError {
    PlatformError::BadRequest(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_data::ingest::to_wav_bytes;

    /// A tiny trained audio model (window 1000 samples, frame stride 64)
    /// as registry JSON, with the generator its clips come from.
    fn tiny_kws_model() -> (ei_data::synth::KwsGenerator, String) {
        let gen = ei_data::synth::KwsGenerator {
            classes: vec!["yes".into(), "no".into()],
            sample_rate_hz: 4_000,
            duration_s: 0.25,
            noise: 0.02,
        };
        let design = ImpulseDesign::new(
            "live",
            1_000,
            ei_dsp::DspConfig::Mfcc(ei_dsp::MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 8,
                n_filters: 16,
                sample_rate_hz: 4_000,
            }),
        )
        .unwrap();
        let spec = ei_nn::presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
        let config = TrainConfig { epochs: 2, seed: 11, ..TrainConfig::default() };
        let json = design.train(&spec, &gen.dataset(4, 11), &config).unwrap().to_json().unwrap();
        (gen, json)
    }

    /// Attaches a serving layer on a serial pool and a virtual clock,
    /// which it returns (the server never moves it).
    fn attach_virtual_serving(api: &Api, config: ServerConfig) -> Arc<ei_faults::VirtualClock> {
        let clock = ei_faults::VirtualClock::shared();
        let server = Server::new(
            config,
            Arc::clone(&clock) as Arc<dyn ei_faults::Clock>,
            Arc::new(ei_par::ParPool::new(ei_par::Parallelism::serial())),
            ei_trace::Tracer::disabled(),
        );
        api.attach_serving(Arc::new(server)).unwrap();
        clock
    }

    #[test]
    fn user_project_lifecycle() {
        let api = Api::new();
        let alice = api.create_user("alice");
        let project = api.create_project("kws", alice).unwrap();
        assert_eq!(api.list_projects(alice), vec![(project, "kws".to_string(), false)]);
        assert!(api.create_project("x", UserId(999)).is_err());
    }

    #[test]
    fn access_control_enforced() {
        let api = Api::new();
        let alice = api.create_user("alice");
        let bob = api.create_user("bob");
        let project = api.create_project("private", alice).unwrap();
        assert!(api.with_project(project, bob, |_| ()).is_err());
        // bob cannot add himself
        assert!(api.add_collaborator(project, bob, bob).is_err());
        api.add_collaborator(project, alice, bob).unwrap();
        assert!(api.with_project(project, bob, |_| ()).is_ok());
    }

    #[test]
    fn ingestion_formats() {
        let api = Api::new();
        let u = api.create_user("u");
        let p = api.create_project("ingest", u).unwrap();
        let json = br#"{"values": [1.0, 2.0], "interval_ms": 10.0, "sensor": "accelerometer"}"#;
        api.ingest(p, u, "json", json, Some("idle")).unwrap();
        api.ingest(p, u, "csv", b"x,y\n1,2\n3,4\n", Some("move")).unwrap();
        let wav = to_wav_bytes(16_000, &[0.1, -0.1, 0.2]);
        api.ingest(p, u, "wav", &wav, None).unwrap();
        let cbor = ei_data::cbor::encode(&ei_data::cbor::CborValue::Map(vec![
            (
                "values".into(),
                ei_data::cbor::CborValue::Array(vec![ei_data::cbor::CborValue::Float(0.5)]),
            ),
            ("interval_ms".into(), ei_data::cbor::CborValue::Float(10.0)),
            ("sensor".into(), ei_data::cbor::CborValue::Text("imu".into())),
        ]));
        api.ingest(p, u, "cbor", &cbor, Some("idle")).unwrap();
        api.ingest(p, u, "pgm", b"P5\n2 2\n255\nabcd", Some("img")).unwrap();
        let dataset = api.dataset(p, u).unwrap();
        assert_eq!(dataset.len(), 5);
        assert_eq!(
            dataset.labels(),
            vec!["idle".to_string(), "img".to_string(), "move".to_string()]
        );
        assert!(api.ingest(p, u, "png", b"...", None).is_err());
        assert!(api.ingest(p, u, "csv", b"broken", None).is_err());
    }

    #[test]
    fn publishing_and_visibility() {
        let api = Api::new();
        let alice = api.create_user("alice");
        let bob = api.create_user("bob");
        let p = api.create_project("open-kws", alice).unwrap();
        assert!(api.make_public(p, bob, &[]).is_err(), "non-owner cannot publish");
        api.make_public(p, alice, &["audio", "kws"]).unwrap();
        // public projects become readable (not writable) to everyone
        assert!(api.dataset(p, bob).is_ok());
        assert!(api.with_project_mut(p, bob, |_| ()).is_err());
        assert_eq!(api.public_projects().len(), 1);
        assert!(api.list_projects(bob).iter().any(|(id, _, public)| *id == p && *public));
    }

    #[test]
    fn snapshots_via_api() {
        let api = Api::new();
        let u = api.create_user("u");
        let p = api.create_project("versioned", u).unwrap();
        let v1 = api.snapshot(p, u, "first").unwrap();
        let v2 = api.snapshot(p, u, "second").unwrap();
        assert_eq!((v1, v2), (1, 2));
    }

    #[test]
    fn submit_training_trains_and_registers() {
        use ei_data::ingest::to_wav_bytes;
        let api = Api::new();
        let u = api.create_user("trainer");
        let p = api.create_project("auto-train", u).unwrap();
        // small two-class audio dataset over the ingestion API
        let gen = ei_data::synth::KwsGenerator {
            classes: vec!["a".into(), "b".into()],
            sample_rate_hz: 4_000,
            duration_s: 0.25,
            noise: 0.02,
        };
        for ci in 0..2 {
            for k in 0..10 {
                let wav = to_wav_bytes(4_000, &gen.generate(ci, k));
                api.ingest(p, u, "wav", &wav, Some(&gen.classes[ci])).unwrap();
            }
        }
        let design = ei_core::impulse::ImpulseDesign::new(
            "auto",
            1_000,
            ei_dsp::DspConfig::Mfcc(ei_dsp::MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 8,
                n_filters: 16,
                sample_rate_hz: 4_000,
            }),
        )
        .unwrap();
        // no impulse yet -> rejected
        let scheduler = JobScheduler::new(1);
        let spec = ei_nn::presets::dense_mlp(design.feature_dims().unwrap(), 2, 16);
        assert!(api
            .submit_training(&scheduler, p, u, "m1", spec.clone(), TrainConfig::default())
            .is_err());
        api.set_impulse(p, u, design).unwrap();
        let job = api
            .submit_training(
                &scheduler,
                p,
                u,
                "m1",
                spec,
                TrainConfig { epochs: 6, learning_rate: 0.01, ..TrainConfig::default() },
            )
            .unwrap();
        let accuracy: f32 = scheduler.wait(job).unwrap().parse().unwrap();
        assert!(accuracy > 0.5, "job accuracy {accuracy}");
        // the trained model landed in the registry and reloads
        let json = api.download_model(p, u, "m1").unwrap();
        let reloaded = ei_core::impulse::TrainedImpulse::from_json(&json).unwrap();
        assert_eq!(reloaded.labels(), ["a", "b"]);
    }

    #[test]
    fn model_registry_round_trip() {
        let api = Api::new();
        let u = api.create_user("u");
        let outsider = api.create_user("o");
        let p = api.create_project("registry", u).unwrap();
        api.upload_model(p, u, "kws-v1", "{\"fake\": true}".to_string()).unwrap();
        assert_eq!(api.list_models(p, u).unwrap(), vec!["kws-v1".to_string()]);
        assert_eq!(api.download_model(p, u, "kws-v1").unwrap(), "{\"fake\": true}");
        assert!(api.download_model(p, u, "missing").is_err());
        assert!(api.upload_model(p, outsider, "x", String::new()).is_err());
    }

    #[test]
    fn model_source_hands_out_the_stored_blob() {
        let api = Api::new();
        let u = api.create_user("u");
        let p = api.create_project("registry", u).unwrap();
        api.upload_model(p, u, "m", "{\"v\": 1}".to_string()).unwrap();
        let first = api.model_source(p, u, "m").unwrap();
        let again = api.model_source(p, u, "m").unwrap();
        assert!(Arc::ptr_eq(&first.blob, &again.blob), "a lookup clones the Arc, not the bytes");
        assert_eq!(first.blob.content_hash(), ei_serve::content_hash("{\"v\": 1}"));
        // a re-upload is a new blob; a request still holding the old one
        // keeps key and bytes of the version it resolved
        api.upload_model(p, u, "m", "{\"v\": 2}".to_string()).unwrap();
        let fresh = api.model_source(p, u, "m").unwrap();
        assert!(!Arc::ptr_eq(&first.blob, &fresh.blob));
        assert_ne!(first.blob.content_hash(), fresh.blob.content_hash());
        assert_eq!(first.blob.json(), "{\"v\": 1}");
        assert_eq!(api.download_model(p, u, "m").unwrap(), "{\"v\": 2}");
        assert!(api.model_source(p, u, "missing").is_err());
    }

    #[test]
    fn export_bytes_with_models_match_the_string_valued_registry() {
        // captured from the registry that stored plain `String`s
        const GOLDEN: &str = concat!(
            r#"{"users":{"1":{"id":1,"name":"u"}},"orgs":{},"projects":{"2":{"id":2,"#,
            r#""name":"golden","owner":1,"collaborators":[],"dataset":{"name":"golden","#,
            r#""samples":{},"test_percent":20,"version":0,"audit_log":[],"next_id":1},"#,
            r#""impulse":null,"versions":[],"public":false,"tags":[],"models":{"empty":"","#,
            r#""kws-v1":"{\"w\": [1.5, \"q\\n\"], \"é\": true}"}}},"next_id":2}"#,
        );
        let api = Api::with_shards(4);
        let u = api.create_user("u");
        let p = api.create_project("golden", u).unwrap();
        let json = "{\"w\": [1.5, \"q\\n\"], \"é\": true}";
        api.upload_model(p, u, "kws-v1", json.to_string()).unwrap();
        api.upload_model(p, u, "empty", String::new()).unwrap();
        let exported = api.export_json().unwrap();
        assert_eq!(exported, GOLDEN);
        // import re-stamps the same content hash and re-exports the bytes
        let restored = Api::import_json(&exported).unwrap();
        assert_eq!(restored.export_json().unwrap(), exported);
        let stamped = restored.model_source(p, u, "kws-v1").unwrap();
        assert_eq!(stamped.blob.content_hash(), ei_serve::content_hash(json));
        assert_eq!(stamped.blob.json(), json);
    }

    #[test]
    fn refused_classify_refunds_the_project_quota() {
        let api = Api::new();
        // one serving token per tenant, never refilled
        attach_virtual_serving(
            &api,
            ServerConfig {
                quota_capacity: 1,
                quota_refill_per_sec: 0.0,
                ..ServerConfig::default()
            },
        );
        let u = api.create_user("u");
        let p = api.create_project("metered", u).unwrap();
        api.set_project_quota(p, u, 10).unwrap();
        let (gen, json) = tiny_kws_model();
        api.upload_model(p, u, "kws", json).unwrap();
        let spec = InferenceSpec::new("kws", ei_runtime::EngineKind::EonCompiled);
        api.classify(p, u, &spec, gen.generate(0, 1)).unwrap();
        let refused = api.classify(p, u, &spec, gen.generate(0, 2));
        assert!(matches!(refused, Err(PlatformError::QuotaExceeded { .. })), "{refused:?}");
        let usage = api.project_quota(p, u).unwrap();
        assert_eq!(usage.denied, 0, "admission refused the call, not the project ledger");
        assert_eq!(usage.used, 1, "a request refused at the door must not stay charged");
        // admitted, then failed: the unit stays charged
        api.upload_model(p, u, "junk", "not json".to_string()).unwrap();
        let junk = InferenceSpec::new("junk", ei_runtime::EngineKind::EonCompiled).tenant("other");
        let failed = api.classify(p, u, &junk, vec![0.0; 8]);
        assert!(matches!(failed, Err(PlatformError::JobFailed(_))), "{failed:?}");
        assert_eq!(api.project_quota(p, u).unwrap().used, 2);
    }

    #[test]
    fn export_import_round_trip() {
        let api = Api::new();
        let u = api.create_user("u");
        let p = api.create_project("persisted", u).unwrap();
        api.ingest(p, u, "csv", b"x\n1\n2\n", Some("k")).unwrap();
        api.snapshot(p, u, "v1").unwrap();
        api.upload_model(p, u, "m", "{}".into()).unwrap();
        api.make_public(p, u, &["tag"]).unwrap();

        let backup = api.export_json().unwrap();
        let restored = Api::import_json(&backup).unwrap();
        // everything survives: data, versions, registry, visibility
        restored
            .with_project(p, u, |proj| {
                assert_eq!(proj.dataset.len(), 1);
                assert_eq!(proj.versions.len(), 1);
                assert_eq!(proj.models.len(), 1);
                assert!(proj.public);
            })
            .unwrap();
        // and ids keep advancing without collision
        let q = restored.create_project("after-restore", u).unwrap();
        assert!(q > p);
        assert!(Api::import_json("garbage").is_err());
    }

    #[test]
    fn export_bytes_identical_across_shard_counts() {
        let build = |shards: usize| {
            let api = Api::with_shards(shards);
            let u = api.create_user("u");
            for i in 0..20 {
                let p = api.create_project(&format!("p{i}"), u).unwrap();
                api.ingest(p, u, "csv", b"x\n1\n", Some("k")).unwrap();
                api.upload_model(p, u, "m", format!("{{\"i\": {i}}}")).unwrap();
                if i % 3 == 0 {
                    api.make_public(p, u, &["tag"]).unwrap();
                }
            }
            api
        };
        let serial = build(1).export_json().unwrap();
        for shards in [4, 16, 64] {
            assert_eq!(
                build(shards).export_json().unwrap(),
                serial,
                "{shards}-shard export must match the serial reference byte-for-byte"
            );
        }
        // and a restored sharded platform re-exports the same bytes
        assert_eq!(Api::import_json(&serial).unwrap().export_json().unwrap(), serial);
    }

    #[test]
    fn project_quotas_charge_and_deny() {
        let api = Api::new();
        let u = api.create_user("u");
        let outsider = api.create_user("o");
        let p = api.create_project("metered", u).unwrap();
        // unlimited by default
        api.ingest(p, u, "csv", b"x\n1\n", None).unwrap();
        assert!(api.set_project_quota(p, outsider, 5).is_err(), "owner only");
        api.set_project_quota(p, u, 2).unwrap();
        api.ingest(p, u, "csv", b"x\n2\n", None).unwrap();
        let denied = api.ingest(p, u, "csv", b"x\n3\n", None);
        assert!(matches!(denied, Err(PlatformError::QuotaExceeded { .. })), "{denied:?}");
        let usage = api.project_quota(p, u).unwrap();
        assert_eq!((usage.used, usage.limit, usage.denied), (2, 2, 1));
        // a failed (denied-access) ingest refunds its unit
        api.set_project_quota(p, u, 3).unwrap();
        assert!(api.ingest(p, outsider, "csv", b"x\n4\n", None).is_err());
        assert_eq!(api.project_quota(p, u).unwrap().used, 2);
        assert_eq!(api.dataset(p, u).unwrap().len(), 2);
    }

    #[test]
    fn project_burst_refills_on_the_serving_clock() {
        let api = Api::new();
        let clock = attach_virtual_serving(&api, ServerConfig::default());
        let u = api.create_user("u");
        let outsider = api.create_user("o");
        let p = api.create_project("bursty", u).unwrap();
        assert!(api.set_project_burst(p, outsider, 2, 1.0).is_err(), "owner only");
        for rate in [f64::NAN, f64::INFINITY, -1.0] {
            let refused = api.set_project_burst(p, u, 2, rate);
            assert!(matches!(refused, Err(PlatformError::BadRequest(_))), "{rate}: {refused:?}");
        }
        api.set_project_burst(p, u, 2, 1.0).unwrap();
        // two units of burst admit, the third denies with zero tokens left
        api.ingest(p, u, "csv", b"x\n1\n", None).unwrap();
        api.ingest(p, u, "csv", b"x\n2\n", None).unwrap();
        let denied = api.ingest(p, u, "csv", b"x\n3\n", None);
        assert!(matches!(denied, Err(PlatformError::QuotaExceeded { .. })), "{denied:?}");
        // one refilled token per logical second of serving-clock time
        clock.advance_ms(1_000);
        api.ingest(p, u, "csv", b"x\n3\n", None).unwrap();
        assert!(api.ingest(p, u, "csv", b"x\n4\n", None).is_err(), "bucket dry again");
        let usage = api.project_quota(p, u).unwrap();
        assert_eq!((usage.used, usage.denied), (3, 2));
        // removing the bucket restores plain cumulative accounting
        api.set_project_burst(p, u, 0, 0.0).unwrap();
        api.ingest(p, u, "csv", b"x\n4\n", None).unwrap();
    }

    #[test]
    fn shard_introspection() {
        let api = Api::with_shards(4);
        let u = api.create_user("u");
        for i in 0..32 {
            api.create_project(&format!("p{i}"), u).unwrap();
        }
        let report = api.shard_report();
        assert_eq!(report.shards, 4);
        assert_eq!(report.occupancy.iter().sum::<usize>(), 32);
        assert!(report.skew >= 1.0);
        assert_eq!(report.cache, None, "no serving layer attached yet");
    }

    #[test]
    fn shard_telemetry_lands_in_obs() {
        let clock = ei_faults::VirtualClock::shared();
        let obs = ei_obs::Obs::builder(clock as Arc<dyn ei_faults::Clock>).build();
        let api = Api::with_shards(2);
        api.attach_obs(&obs);
        let u = api.create_user("u");
        api.create_project("observed", u).unwrap();
        let metrics = obs.prometheus();
        assert!(metrics.contains("platform_shard_occupancy"), "{metrics}");
        assert!(metrics.contains("platform_shard_lock_wait"), "{metrics}");
    }

    #[test]
    fn project_and_stream_maps_publish_separate_occupancy_series() {
        let clock = ei_faults::VirtualClock::shared();
        let obs = ei_obs::Obs::builder(clock as Arc<dyn ei_faults::Clock>).build();
        let api = Api::with_shards(1);
        api.attach_obs(&obs);
        attach_virtual_serving(&api, ServerConfig::default());
        let u = api.create_user("u");
        let projects: Vec<ProjectId> =
            (0..3).map(|i| api.create_project(&format!("p{i}"), u).unwrap()).collect();
        let json = tiny_kws_model().1;
        for &p in &projects[..2] {
            api.upload_model(p, u, "kws", json.clone()).unwrap();
            api.stream_open(p, u, "kws", SessionConfig::new("", 256)).unwrap();
        }
        let registry = obs.registry();
        assert_eq!(registry.gauge("platform.shard.occupancy", "shard-0"), Some(3.0));
        assert_eq!(registry.gauge("platform.stream_shard.occupancy", "shard-0"), Some(2.0));
    }

    #[test]
    fn typed_ids_refuse_unknown_entities() {
        // the swapped-argument win is compile-time; unknown typed ids must
        // still fail cleanly at runtime
        let api = Api::new();
        let u = api.create_user("u");
        assert!(api.create_organization("lab", UserId(77)).is_err());
        assert!(api.add_collaborator(ProjectId(5), u, u).is_err());
        assert!(api.dataset(ProjectId(5), u).is_err());
        assert!(api.impulse(ProjectId(5), u).is_err());
    }

    #[test]
    fn streaming_session_lifecycle() {
        let api = Api::new();
        let alice = api.create_user("alice");
        let outsider = api.create_user("outsider");
        let p = api.create_project("live-kws", alice).unwrap();

        // deterministic serving stack for the stream to ride on
        attach_virtual_serving(&api, ServerConfig::default());

        // train + register a tiny audio model (window 1000, frame stride 64)
        let (gen, json) = tiny_kws_model();
        api.upload_model(p, alice, "kws", json).unwrap();

        // misaligned hop is a BadRequest, not a panic
        assert!(matches!(
            api.stream_open(p, alice, "kws", SessionConfig::new("", 100)),
            Err(PlatformError::BadRequest(_))
        ));
        assert!(api.stream_open(p, alice, "missing", SessionConfig::new("", 256)).is_err());

        let mut cfg = SessionConfig::new("", 256);
        cfg.max_pending = 64;
        let sid = api.stream_open(p, alice, "kws", cfg).unwrap();

        // outsiders can neither feed nor close someone else's stream
        assert!(api.stream_push(sid, outsider, &[0.0; 64]).is_err());
        assert!(api.stream_close(sid, outsider).is_err());
        assert!(api.stream_push(SessionId(999), alice, &[0.0; 64]).is_err(), "unknown session");

        let signal: Vec<f32> = (0..4).flat_map(|i| gen.generate(i % 2, i as u64)).collect();
        let mut verdicts = Vec::new();
        for chunk in signal.chunks(500) {
            verdicts.extend(api.stream_push(sid, alice, chunk).unwrap());
        }
        let stats = api.stream_close(sid, alice).unwrap();
        assert!(stats.windows_classified >= 10, "stats {stats:?}");
        assert!(stats.features_identical(), "incremental DSP must match batch bitwise");
        assert!(!verdicts.is_empty());
        // empty tenant defaulted to the project billing identity
        assert!(api.stream_close(sid, alice).is_err(), "closed sessions are gone");
    }

    #[test]
    fn clones_share_state() {
        let api = Api::new();
        let clone = api.clone();
        let u = api.create_user("shared");
        assert!(clone.create_project("via-clone", u).is_ok());
    }
}
