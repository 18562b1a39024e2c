//! The [`Tracer`] handle, RAII span guards and metric handles.

use crate::context::{ContextGuard, TraceContext};
use crate::record::{MetricUpdate, RecordKind, TraceRecord};
use crate::registry::Registry;
use crate::subscriber::{CollectingSubscriber, Subscriber};
use crate::value::Field;
use ei_faults::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Inner {
    subscriber: Arc<dyn Subscriber>,
    clock: Arc<dyn Clock>,
    next_span: AtomicU64,
    seq: AtomicU64,
    registry: Arc<Registry>,
}

/// A cloneable handle the pipeline layers record through.
///
/// Two states:
///
/// * **enabled** ([`Tracer::new`]) — spans, events and metrics flow to
///   the subscriber, timestamped from the given [`Clock`] (deterministic
///   under an [`ei_faults::VirtualClock`]);
/// * **disabled** ([`Tracer::disabled`]) — every operation is a no-op
///   behind a single `Option` check: span guards do nothing, no metric
///   is registered, nothing allocates.
///
/// All instrumented layers take a `Tracer` by value (it is a couple of
/// pointers) and default to the disabled state, so observability is
/// strictly opt-in and free when off.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.inner.is_some()).finish()
    }
}

impl Tracer {
    /// The no-op tracer (also [`Tracer::default`]).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer feeding `subscriber`, timestamped from `clock`, with a
    /// private metric [`Registry`] (8 stripes, 64 labels per metric).
    pub fn new(subscriber: Arc<dyn Subscriber>, clock: Arc<dyn Clock>) -> Tracer {
        Tracer::with_registry(subscriber, clock, Arc::new(Registry::new(8, 64)))
    }

    /// Like [`Tracer::new`], recording metrics into a shared `registry`
    /// (how an `ei-obs` hub and its tracer see the same series).
    pub fn with_registry(
        subscriber: Arc<dyn Subscriber>,
        clock: Arc<dyn Clock>,
        registry: Arc<Registry>,
    ) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                subscriber,
                clock,
                next_span: AtomicU64::new(1),
                seq: AtomicU64::new(0),
                registry,
            })),
        }
    }

    /// Convenience: a tracer wired to a fresh [`CollectingSubscriber`].
    pub fn collecting(clock: Arc<dyn Clock>) -> (Tracer, Arc<CollectingSubscriber>) {
        let collector = Arc::new(CollectingSubscriber::new());
        (Tracer::new(Arc::<CollectingSubscriber>::clone(&collector), clock), collector)
    }

    /// `true` when records actually flow anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(inner: &Inner, kind: RecordKind) {
        let record = TraceRecord {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            ts_ms: inner.clock.now_ms(),
            kind,
        };
        inner.subscriber.record(&record);
    }

    fn open_span(&self, name: &str, parent: Option<TraceContext>, fields: Vec<Field>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: Tracer::disabled(),
                id: 0,
                trace: 0,
                name: String::new(),
                start_ms: 0,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        // No explicit parent: adopt the thread's ambient context, so a
        // span opened inside entered work stitches into the request tree.
        let parent = parent.or_else(crate::context::current);
        let (parent_id, trace) = match parent {
            Some(ctx) => (Some(ctx.span_id), ctx.trace_id),
            None => (None, id),
        };
        let start_ms = inner.clock.now_ms();
        Self::emit(
            inner,
            RecordKind::SpanStart { id, parent: parent_id, trace, name: name.to_string(), fields },
        );
        SpanGuard { tracer: self.clone(), id, trace, name: name.to_string(), start_ms }
    }

    /// Opens a span; the returned guard closes it on drop. The span is a
    /// root unless the thread has an ambient [`TraceContext`] entered, in
    /// which case it becomes a child of that context's span.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.open_span(name, None, Vec::new())
    }

    /// Like [`Tracer::span`], with structured context.
    pub fn span_with(&self, name: &str, fields: Vec<Field>) -> SpanGuard {
        self.open_span(name, None, fields)
    }

    /// Opens a span as a child of an explicit [`TraceContext`] (e.g. one
    /// carried across threads by hand), bypassing the ambient stack.
    pub fn span_in(&self, name: &str, ctx: TraceContext, fields: Vec<Field>) -> SpanGuard {
        self.open_span(name, Some(ctx), fields)
    }

    /// Emits a point-in-time event outside any span.
    pub fn event(&self, name: &str, fields: Vec<Field>) {
        if let Some(inner) = &self.inner {
            Self::emit(inner, RecordKind::Event { span: None, name: name.to_string(), fields });
        }
    }

    /// A counter handle (monotonic total). Like every metric handle it
    /// writes the unlabeled series until given a label with `.labeled()`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter { tracer: self.clone(), name: name.to_string(), label: String::new(), quiet: false }
    }

    /// A gauge handle (last value wins).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge { tracer: self.clone(), name: name.to_string(), label: String::new(), quiet: false }
    }

    /// A *quiet* counter: updates the metrics registry but emits no record
    /// to the subscriber stream. Meant for series whose update timing is
    /// scheduling-dependent (e.g. work-steal counts), so that the record
    /// stream itself stays byte-deterministic.
    pub fn quiet_counter(&self, name: &str) -> Counter {
        Counter { tracer: self.clone(), name: name.to_string(), label: String::new(), quiet: true }
    }

    /// A *quiet* gauge: registry-only, no stream record. See
    /// [`Tracer::quiet_counter`].
    pub fn quiet_gauge(&self, name: &str) -> Gauge {
        Gauge { tracer: self.clone(), name: name.to_string(), label: String::new(), quiet: true }
    }

    /// A fixed-bucket histogram handle. `bounds` are ascending upper
    /// bounds; an implicit `+Inf` bucket catches the rest. The bounds are
    /// fixed by the series' first observation.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram {
            tracer: self.clone(),
            name: name.to_string(),
            label: String::new(),
            bounds: bounds.to_vec(),
        }
    }

    fn metric(&self, name: &str, label: &str, update: MetricUpdate, bounds: &[f64], quiet: bool) {
        if let Some(inner) = &self.inner {
            match update {
                MetricUpdate::CounterAdd(n) => inner.registry.add(name, label, n),
                MetricUpdate::GaugeSet(v) => inner.registry.set_gauge(name, label, v),
                MetricUpdate::HistogramObserve(v) => inner.registry.observe(name, label, v, bounds),
            }
            if !quiet {
                let (name, label) = (name.to_string(), label.to_string());
                Self::emit(inner, RecordKind::Metric { name, label, update });
            }
        }
    }

    /// The registry every metric handle of this tracer records into
    /// (`None` when disabled).
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.inner.as_ref().map(|inner| &inner.registry)
    }

    /// The registry rendered as a Prometheus-style text exposition
    /// (empty string when disabled or nothing was recorded).
    pub fn prometheus(&self) -> String {
        self.registry().map(|r| r.to_prometheus()).unwrap_or_default()
    }
}

/// An RAII guard for an open span; dropping it records the span end.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    id: u64,
    trace: u64,
    name: String,
    start_ms: u64,
}

impl SpanGuard {
    /// The span id, or `None` on a disabled tracer.
    pub fn id(&self) -> Option<u64> {
        self.tracer.inner.as_ref().map(|_| self.id)
    }

    /// This span's position as a [`TraceContext`] (carry it across a
    /// thread boundary, then [`TraceContext::enter`] it there), or
    /// `None` on a disabled tracer.
    pub fn context(&self) -> Option<TraceContext> {
        self.tracer.inner.as_ref().map(|_| TraceContext { trace_id: self.trace, span_id: self.id })
    }

    /// Enters this span's context on the current thread, so spans opened
    /// below (even through other handles to the same tracer) become its
    /// descendants. No-op (`None`) on a disabled tracer.
    pub fn enter(&self) -> Option<ContextGuard> {
        self.context().map(TraceContext::enter)
    }

    /// Opens a child span.
    pub fn child(&self, name: &str) -> SpanGuard {
        self.tracer.open_span(name, self.context(), Vec::new())
    }

    /// Opens a child span with structured context.
    pub fn child_with(&self, name: &str, fields: Vec<Field>) -> SpanGuard {
        self.tracer.open_span(name, self.context(), fields)
    }

    /// Emits an event inside this span.
    pub fn event(&self, name: &str, fields: Vec<Field>) {
        if let Some(inner) = &self.tracer.inner {
            Tracer::emit(
                inner,
                RecordKind::Event { span: Some(self.id), name: name.to_string(), fields },
            );
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.tracer.inner {
            let duration_ms = inner.clock.now_ms().saturating_sub(self.start_ms);
            Tracer::emit(
                inner,
                RecordKind::SpanEnd {
                    id: self.id,
                    name: std::mem::take(&mut self.name),
                    duration_ms,
                },
            );
        }
    }
}

/// A monotonic counter bound to one tracer and series name.
#[derive(Debug, Clone)]
pub struct Counter {
    tracer: Tracer,
    name: String,
    label: String,
    quiet: bool,
}

impl Counter {
    /// This counter's `label` series (typically a tenant id; subject to
    /// the registry's per-metric label cap).
    pub fn labeled(mut self, label: &str) -> Counter {
        self.label = label.to_string();
        self
    }

    /// Adds `n` to the total.
    pub fn add(&self, n: u64) {
        self.tracer.metric(&self.name, &self.label, MetricUpdate::CounterAdd(n), &[], self.quiet);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A gauge bound to one tracer and series name.
#[derive(Debug, Clone)]
pub struct Gauge {
    tracer: Tracer,
    name: String,
    label: String,
    quiet: bool,
}

impl Gauge {
    /// This gauge's `label` series; see [`Counter::labeled`].
    pub fn labeled(mut self, label: &str) -> Gauge {
        self.label = label.to_string();
        self
    }

    /// Sets the instantaneous value.
    pub fn set(&self, v: f64) {
        self.tracer.metric(&self.name, &self.label, MetricUpdate::GaugeSet(v), &[], self.quiet);
    }
}

/// A fixed-bucket histogram bound to one tracer and series name.
#[derive(Debug, Clone)]
pub struct Histogram {
    tracer: Tracer,
    name: String,
    label: String,
    bounds: Vec<f64>,
}

impl Histogram {
    /// This histogram's `label` series; see [`Counter::labeled`].
    pub fn labeled(mut self, label: &str) -> Histogram {
        self.label = label.to_string();
        self
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let update = MetricUpdate::HistogramObserve(v);
        self.tracer.metric(&self.name, &self.label, update, &self.bounds, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::OTHER_LABEL;
    use ei_faults::VirtualClock;

    fn traced() -> (Tracer, Arc<CollectingSubscriber>, Arc<VirtualClock>) {
        let clock = VirtualClock::shared();
        let (tracer, collector) = Tracer::collecting(clock.clone());
        (tracer, collector, clock)
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let (tracer, collector, clock) = traced();
        {
            let root = tracer.span("flow");
            clock.advance_ms(5);
            {
                let stage = root.child_with("stage", vec![("name", "train".into())]);
                clock.advance_ms(7);
                stage.event("epoch", vec![("loss", 0.5.into())]);
            }
        }
        let records = collector.records();
        assert_eq!(records.len(), 5);
        match &records[1].kind {
            RecordKind::SpanStart { parent, .. } => assert_eq!(*parent, Some(1)),
            other => panic!("expected child span start, got {other:?}"),
        }
        match &records[3].kind {
            RecordKind::SpanEnd { name, duration_ms, .. } => {
                assert_eq!(name, "stage");
                assert_eq!(*duration_ms, 7);
            }
            other => panic!("expected stage end, got {other:?}"),
        }
        match &records[4].kind {
            RecordKind::SpanEnd { name, duration_ms, .. } => {
                assert_eq!(name, "flow");
                assert_eq!(*duration_ms, 12);
            }
            other => panic!("expected flow end, got {other:?}"),
        }
    }

    #[test]
    fn metrics_reach_registry_and_stream() {
        // handles on a shared registry are the same writes as direct calls
        let (registry, direct) = (Arc::new(Registry::new(4, 2)), Registry::new(4, 2));
        let collector = Arc::new(CollectingSubscriber::new());
        let sink = Arc::<CollectingSubscriber>::clone(&collector);
        let tracer = Tracer::with_registry(sink, VirtualClock::shared(), Arc::clone(&registry));
        for (i, tenant) in ["a", "b", "c", ""].into_iter().enumerate() {
            tracer.counter("jobs").labeled(tenant).add(2);
            direct.add("jobs", tenant, 2);
            tracer.gauge("loss").labeled(tenant).set(i as f64);
            direct.set_gauge("loss", tenant, i as f64);
            tracer.histogram("ms", &[10.0]).labeled(tenant).observe(3.0);
            direct.observe("ms", tenant, 3.0, &[10.0]);
        }
        assert_eq!(registry.counter("jobs", ""), Some(2));
        assert_eq!(registry.gauge("loss", OTHER_LABEL), Some(2.0), "`c` is past the cap of 2");
        assert_eq!(registry.snapshot(), direct.snapshot());
        assert_eq!(tracer.prometheus(), direct.to_prometheus());
        assert_eq!(collector.len(), 12);
        // the label rides on streamed records, and only when non-empty
        let jsonl = collector.jsonl();
        assert!(
            jsonl.contains(r#""name":"jobs","label":"c","metric":"counter","add":2"#),
            "{jsonl}"
        );
        assert!(jsonl.contains(r#""name":"jobs","metric":"counter","add":2"#), "{jsonl}");
    }

    #[test]
    fn quiet_metrics_reach_registry_but_not_the_stream() {
        let (tracer, collector, _) = traced();
        tracer.quiet_counter("steals").add(3);
        tracer.quiet_gauge("queue_depth").set(2.0);
        let registry = tracer.registry().unwrap();
        assert_eq!(registry.counter("steals", ""), Some(3));
        assert_eq!(registry.gauge("queue_depth", ""), Some(2.0));
        assert_eq!(collector.len(), 0, "quiet metrics must not emit records");
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let span = tracer.span("nothing");
        assert_eq!(span.id(), None);
        span.event("ev", vec![]);
        let child = span.child("inner");
        drop(child);
        tracer.counter("c").inc();
        tracer.gauge("g").set(1.0);
        tracer.histogram("h", &[1.0]).labeled("t").observe(2.0);
        tracer.quiet_counter("steals").inc();
        tracer.quiet_gauge("queue_depth").set(1.0);
        assert!(tracer.registry().is_none());
        assert_eq!(tracer.prometheus(), "");
    }

    #[test]
    fn spans_carry_their_roots_trace_id() {
        let (tracer, collector, _) = traced();
        {
            let root = tracer.span("serve.request");
            let _child = root.child("serve.batch");
            let _other_root = tracer.span("unrelated");
        }
        let records = collector.records();
        let starts: Vec<(u64, Option<u64>, u64)> = records
            .iter()
            .filter_map(|r| match &r.kind {
                RecordKind::SpanStart { id, parent, trace, .. } => Some((*id, *parent, *trace)),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![(1, None, 1), (2, Some(1), 1), (3, None, 3)]);
    }

    #[test]
    fn ambient_context_stitches_spans_across_handles() {
        let (tracer, collector, _) = traced();
        let root = tracer.span("serve.request");
        let ctx = root.context().unwrap();
        // Simulate a worker thread: fresh handle, explicit context entry.
        let worker_tracer = tracer.clone();
        let handle = std::thread::spawn(move || {
            let _entered = ctx.enter();
            let job = worker_tracer.span("job");
            job.event("job.running", vec![]);
        });
        handle.join().unwrap();
        drop(root);
        let records = collector.records();
        match &records[1].kind {
            RecordKind::SpanStart { parent, trace, name, .. } => {
                assert_eq!(name, "job");
                assert_eq!(*parent, Some(1));
                assert_eq!(*trace, 1);
            }
            other => panic!("expected stitched job span, got {other:?}"),
        }
    }

    #[test]
    fn entered_span_adopts_later_roots() {
        let (tracer, collector, _) = traced();
        {
            let root = tracer.span("outer");
            let _entered = root.enter();
            // span() with no explicit parent picks up the ambient context.
            let _inner = tracer.span("inner");
        }
        let records = collector.records();
        match &records[1].kind {
            RecordKind::SpanStart { parent, trace, .. } => {
                assert_eq!((*parent, *trace), (Some(1), 1));
            }
            other => panic!("expected adopted span, got {other:?}"),
        }
        // Disabled tracers hand out no context and enter() is a no-op.
        let disabled = Tracer::disabled();
        let span = disabled.span("nothing");
        assert!(span.context().is_none());
        assert!(span.enter().is_none());
    }

    #[test]
    fn sequence_numbers_total_order_even_with_frozen_clock() {
        let (tracer, collector, _) = traced();
        tracer.event("a", vec![]);
        tracer.event("b", vec![]);
        let records = collector.records();
        assert_eq!((records[0].seq, records[1].seq), (0, 1));
        assert_eq!((records[0].ts_ms, records[1].ts_ms), (0, 0));
    }
}
