//! Request and response types of the serving front-end.

use crate::cache::{ArtifactKey, ModelBlob};
use ei_core::Classification;
use ei_runtime::EngineKind;
use std::sync::Arc;

/// Name of a model in a project's registry.
///
/// A newtype rather than a bare `&str` so the platform and serving layers
/// share one spelling of "which model" across upload, download, classify
/// and estimate calls.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelName(pub String);

impl ModelName {
    /// The raw registry key.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ModelName {
    fn from(name: &str) -> Self {
        ModelName(name.to_string())
    }
}

impl From<String> for ModelName {
    fn from(name: String) -> Self {
        ModelName(name)
    }
}

impl std::fmt::Display for ModelName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A model as the registry stores it: name plus the shared [`ModelBlob`]
/// that owns its JSON bytes.
///
/// The content hash is computed once, when the blob is built; requests
/// carrying the same bytes share compiled artifacts, while a re-upload of
/// changed bytes under the same name gets a fresh [`ArtifactKey`] and can
/// never hit a stale entry.
#[derive(Debug, Clone)]
pub struct ModelSource {
    /// Registry name (display only — never part of the cache key).
    pub name: ModelName,
    /// The model's bytes and their hash, shared without copying.
    pub blob: Arc<ModelBlob>,
}

impl ModelSource {
    /// Wraps registry bytes, stamping their content hash.
    pub fn new(name: impl Into<ModelName>, json: String) -> ModelSource {
        ModelSource::from_blob(name, Arc::new(ModelBlob::new(json)))
    }

    /// Names an already-hashed blob: neither copies nor re-reads the bytes.
    pub fn from_blob(name: impl Into<ModelName>, blob: Arc<ModelBlob>) -> ModelSource {
        ModelSource { name: name.into(), blob }
    }
}

/// *How* to run an inference, minus the input window and the resolved
/// model bytes: model name, board, engine, dtype, deadline, and an
/// optional tenant override.
///
/// One spec type is shared by `ei_platform::Api::classify`/`estimate` and
/// the serving layer, replacing the positional argument lists that used
/// to grow with every new knob. Build with [`InferenceSpec::new`] and
/// chain the setters:
///
/// ```
/// use ei_runtime::EngineKind;
/// use ei_serve::InferenceSpec;
///
/// let spec = InferenceSpec::new("kws-v1", EngineKind::EonCompiled)
///     .on_board("nano 33")
///     .quantized(true)
///     .deadline_ms(40);
/// assert_eq!(spec.model.as_str(), "kws-v1");
/// ```
#[derive(Debug, Clone)]
pub struct InferenceSpec {
    /// Registry name of the model to run.
    pub model: ModelName,
    /// Deployment board context (part of the artifact identity; empty
    /// means "no board context").
    pub board: String,
    /// Execution engine.
    pub engine: EngineKind,
    /// `true` to run the int8 artifact.
    pub quantized: bool,
    /// Completion deadline, logical milliseconds from admission; `0`
    /// selects the server's default.
    pub deadline_ms: u64,
    /// Tenant override; `None` lets the caller (e.g. the platform API)
    /// derive one.
    pub tenant: Option<String>,
}

impl InferenceSpec {
    /// A float-path spec with no board context, default deadline, and a
    /// caller-derived tenant.
    pub fn new(model: impl Into<ModelName>, engine: EngineKind) -> InferenceSpec {
        InferenceSpec {
            model: model.into(),
            board: String::new(),
            engine,
            quantized: false,
            deadline_ms: 0,
            tenant: None,
        }
    }

    /// Sets the deployment board the artifact is compiled against.
    #[must_use]
    pub fn on_board(mut self, board: &str) -> InferenceSpec {
        self.board = board.to_string();
        self
    }

    /// Selects the int8 (`true`) or float (`false`) artifact.
    #[must_use]
    pub fn quantized(mut self, quantized: bool) -> InferenceSpec {
        self.quantized = quantized;
        self
    }

    /// Sets the completion deadline in logical milliseconds (`0` = server
    /// default).
    #[must_use]
    pub fn deadline_ms(mut self, deadline_ms: u64) -> InferenceSpec {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Attributes the request to an explicit tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: &str) -> InferenceSpec {
        self.tenant = Some(tenant.to_string());
        self
    }
}

/// One tenant inference call.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Tenant the request is attributed to (quota + latency series).
    pub tenant: String,
    /// The model to execute.
    pub model: ModelSource,
    /// Deployment board context (part of the artifact identity).
    pub board: String,
    /// Execution engine.
    pub engine: EngineKind,
    /// `true` to run the int8 artifact.
    pub quantized: bool,
    /// Input window: raw samples by default, or already-extracted DSP
    /// features when `precomputed` is set.
    pub window: Vec<f32>,
    /// Completion deadline, logical milliseconds from admission; `0`
    /// selects the server's default.
    pub deadline_ms: u64,
    /// `true` when `window` holds DSP features rather than raw samples,
    /// so dispatch skips the artifact's DSP stage and feeds the engine
    /// directly. Streaming sessions set this: their incremental extractor
    /// already computed each frame column exactly once, and re-running
    /// DSP per overlapping window would throw that reuse away.
    pub precomputed: bool,
}

impl InferenceRequest {
    /// Binds a spec to resolved model bytes, an input window, and the
    /// tenant to bill when the spec doesn't name one.
    pub fn from_spec(
        spec: &InferenceSpec,
        model: ModelSource,
        window: Vec<f32>,
        default_tenant: &str,
    ) -> InferenceRequest {
        InferenceRequest {
            tenant: spec.tenant.clone().unwrap_or_else(|| default_tenant.to_string()),
            model,
            board: spec.board.clone(),
            engine: spec.engine,
            quantized: spec.quantized,
            window,
            deadline_ms: spec.deadline_ms,
            precomputed: false,
        }
    }

    /// Marks `window` as already-extracted DSP features (see the
    /// `precomputed` field).
    #[must_use]
    pub fn with_precomputed_features(mut self) -> InferenceRequest {
        self.precomputed = true;
        self
    }

    /// The cache identity this request resolves to.
    pub fn artifact_key(&self) -> ArtifactKey {
        ArtifactKey {
            content_hash: self.model.blob.content_hash(),
            board: self.board.clone(),
            engine: self.engine,
            quantized: self.quantized,
        }
    }
}

/// Why a submission was refused at the door.
///
/// Rejections are *cheap and explicit*: they happen before any queue
/// growth or compilation, which is what keeps the server's memory bounded
/// under overload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded request queue is full — backpressure, try later.
    Overloaded {
        /// Queue depth observed at rejection (== the configured bound).
        queue_depth: usize,
    },
    /// The tenant's token bucket is empty.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: String,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded { queue_depth } => {
                write!(f, "overloaded: queue is full at depth {queue_depth}")
            }
            Rejected::QuotaExceeded { tenant } => {
                write!(f, "quota exceeded for tenant {tenant:?}")
            }
        }
    }
}

/// Terminal state of one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The model ran; here is its answer.
    Classified(Classification),
    /// The request's deadline elapsed before (or while) it ran.
    DeadlineExceeded {
        /// Logical milliseconds from admission until the server gave up.
        waited_ms: u64,
    },
    /// Compilation or execution failed.
    Failed(String),
}

/// One finished request with its cost-attribution metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Ticket returned by `submit`.
    pub ticket: u64,
    /// Tenant the work is attributed to.
    pub tenant: String,
    /// What happened.
    pub outcome: Outcome,
    /// Engine the request asked for.
    pub engine: EngineKind,
    /// Logical milliseconds spent queued before its batch started.
    pub queued_ms: u64,
    /// Admission-to-completion logical milliseconds.
    pub latency_ms: u64,
    /// `true` when the artifact came from the cache.
    pub cache_hit: bool,
    /// Number of requests co-dispatched in the same micro-batch.
    pub batch_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bytes_same_key_new_bytes_new_key() {
        let a = ModelSource::new("kws", "{\"v\":1}".into());
        let b = ModelSource::new("kws-copy", "{\"v\":1}".into());
        let c = ModelSource::new("kws", "{\"v\":2}".into());
        let hash = |m: &ModelSource| m.blob.content_hash();
        assert_eq!(hash(&a), hash(&b), "names never enter the hash");
        assert_ne!(hash(&a), hash(&c), "content changes change the key");
    }

    #[test]
    fn spec_builder_binds_into_a_request() {
        let spec = InferenceSpec::new("kws-v1", EngineKind::EonCompiled)
            .on_board("nano 33")
            .quantized(true)
            .deadline_ms(25);
        let req = InferenceRequest::from_spec(
            &spec,
            ModelSource::new(spec.model.clone(), "{}".into()),
            vec![0.5],
            "project-3",
        );
        assert_eq!(req.tenant, "project-3", "unset tenant falls back to the caller's default");
        assert_eq!((req.board.as_str(), req.quantized, req.deadline_ms), ("nano 33", true, 25));
        let billed = InferenceRequest::from_spec(
            &spec.clone().tenant("acme"),
            ModelSource::new("kws-v1", "{}".into()),
            vec![],
            "project-3",
        );
        assert_eq!(billed.tenant, "acme", "explicit tenant wins");
    }

    #[test]
    fn rejection_display() {
        assert_eq!(
            Rejected::Overloaded { queue_depth: 8 }.to_string(),
            "overloaded: queue is full at depth 8"
        );
        assert_eq!(
            Rejected::QuotaExceeded { tenant: "acme".into() }.to_string(),
            "quota exceeded for tenant \"acme\""
        );
    }
}
