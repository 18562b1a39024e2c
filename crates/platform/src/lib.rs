#![warn(missing_docs)]

//! The MLOps layer of `edgelab`: projects, teams, versioning, a typed API
//! facade and a job scheduler.
//!
//! Edge Impulse exposes "all functionality … via publicly accessible REST
//! APIs, which allows users to automate the data collection, model
//! training, and deployment processes" (paper §4.9), runs workloads on
//! dynamically scaled, containerized infrastructure (§4.10), and supports
//! team collaboration through organizations, project versioning and public
//! projects (§3 objective 6, §6.3). This crate models that layer
//! in-process:
//!
//! * [`entities`] — users, organizations, projects, version snapshots;
//! * [`api::Api`] — the typed request/response facade standing in for the
//!   REST API (every mutation goes through it, like the real platform);
//! * [`jobs::JobScheduler`] — a fault-tolerant worker pool executing
//!   queued jobs with status tracking, retry policies with seeded jittered
//!   backoff, per-attempt watchdog timeouts, panic isolation, cooperative
//!   cancellation and a dead-letter queue (the EKS substitute, built on
//!   `ei-faults`);
//! * streaming endpoints ([`Api::stream_open`](api::Api::stream_open) /
//!   [`Api::stream_push`](api::Api::stream_push) /
//!   [`Api::stream_close`](api::Api::stream_close)) — live
//!   continuous-inference sessions over `ei-stream`, billed to the
//!   project and access-checked per call;
//! * [`registry`] — the searchable public-project index;
//! * [`features`] — the MLOps feature-support matrix of paper Table 5.

pub mod api;
pub mod dist;
pub mod entities;
pub mod error;
pub mod features;
pub mod jobs;
pub mod registry;

pub use api::{Api, ShardReport};
pub use entities::{
    OrgId, Organization, Project, ProjectId, ProjectVersion, SessionId, StoredModel, User, UserId,
};
pub use error::PlatformError;
pub use jobs::{DeadLetter, JobContext, JobScheduler, JobStatus};

pub use ei_serve::{InferenceSpec, ModelName};

pub use ei_stream::{SessionConfig, SessionStats, WindowVerdict};

pub use ei_faults::{AttemptRecord, CancelToken, FailureCause, RetryPolicy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PlatformError>;
