#![warn(missing_docs)]

//! Structured observability for the MLOps pipeline: hierarchical spans,
//! typed events, and a metrics registry behind one cheap [`Subscriber`]
//! trait.
//!
//! The paper's whole evaluation is an observability exercise — per-stage
//! latency decomposition (Fig. 3), per-engine memory reports (Table 4)
//! and on-device performance estimation (§4.5). This crate is the shared
//! substrate those numbers flow through, in the house style of
//! `ei-faults`: dependency-free, std-only, and deterministic under a
//! [`ei_faults::VirtualClock`] because every timestamp is read from an
//! [`ei_faults::Clock`].
//!
//! * [`tracer`] — the cloneable [`Tracer`] handle and RAII [`SpanGuard`].
//!   A disabled tracer ([`Tracer::disabled`]) reduces every operation to
//!   an `Option` check: span guards are no-ops and no metric is recorded.
//! * [`context`] — ambient per-thread [`TraceContext`] propagation, so a
//!   span opened on a worker thread stitches into the submitting
//!   request's causal tree (every span carries its root's `trace` id).
//! * [`subscriber`] — the [`Subscriber`] sink trait and the
//!   [`CollectingSubscriber`] used by tests, benches and the examples.
//! * [`registry`] — the one metric store: counters, gauges and
//!   fixed-bucket histograms in a striped [`Registry`] with one label
//!   dimension, a per-metric label cap (overflow folds into `__other__`)
//!   and the Prometheus-style text exposition. Every tracer's metric
//!   handles record into one; `ei-obs` shares its hub's with its tracer.
//! * [`export`] — the record-stream exporters: JSONL trace dump and a
//!   Chrome-trace (`chrome://tracing`) span view.
//! * [`json`] — the tiny hand-rolled JSON writer the exporters (and the
//!   bench harness's machine-readable results) are built on.
//!
//! `ei-platform`'s job scheduler, `ei-core`'s flow runner, `ei-nn`'s
//! trainer and `ei-device`'s profiler all accept a [`Tracer`], so one
//! collecting subscriber observes the whole pipeline end to end.

pub mod context;
pub mod export;
pub mod json;
pub mod record;
pub mod registry;
pub mod subscriber;
pub mod tracer;
pub mod value;

pub use context::{ContextGuard, TraceContext};
pub use record::{RecordKind, TraceRecord};
pub use registry::{Registry, SeriesValue, OTHER_LABEL};
pub use subscriber::{CollectingSubscriber, Subscriber};
pub use tracer::{SpanGuard, Tracer};
pub use value::{Field, Value};
