//! The wire-level trace record: everything a [`crate::Subscriber`] sees.

use crate::value::Field;

/// How a metric update changes its series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricUpdate {
    /// Monotonic counter increment.
    CounterAdd(u64),
    /// Gauge set to an instantaneous value.
    GaugeSet(f64),
    /// One observation recorded into a fixed-bucket histogram.
    HistogramObserve(f64),
}

/// The payload of one trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// A span opened.
    SpanStart {
        /// Tracer-unique span id (1-based, monotonically assigned).
        id: u64,
        /// Enclosing span, if any (explicit child, or picked up from the
        /// thread's ambient [`crate::context::TraceContext`]).
        parent: Option<u64>,
        /// The id of this trace's root span — equal to `id` for a root,
        /// inherited from the parent otherwise. Cutting a record stream
        /// on `trace` yields one request's full causal tree.
        trace: u64,
        /// Span name (e.g. `"flow.stage"`).
        name: String,
        /// Structured context captured at open.
        fields: Vec<Field>,
    },
    /// A span closed.
    SpanEnd {
        /// The span id from the matching [`RecordKind::SpanStart`].
        id: u64,
        /// Span name, repeated so the record is self-describing.
        name: String,
        /// Logical milliseconds between open and close.
        duration_ms: u64,
    },
    /// A point-in-time event.
    Event {
        /// Enclosing span, if the event was emitted through a guard.
        span: Option<u64>,
        /// Event name (e.g. `"job.backoff"`).
        name: String,
        /// Structured context.
        fields: Vec<Field>,
    },
    /// A metric series was updated.
    Metric {
        /// Metric name (e.g. `"jobs.dead_lettered"`).
        name: String,
        /// The series' label value (e.g. a tenant id); empty for the
        /// unlabeled series.
        label: String,
        /// The update applied.
        update: MetricUpdate,
    },
}

/// One record in the trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Monotonic per-tracer sequence number (total order even when the
    /// logical clock stands still).
    pub seq: u64,
    /// Logical milliseconds from the tracer's clock.
    pub ts_ms: u64,
    /// The payload.
    pub kind: RecordKind,
}

impl TraceRecord {
    /// The record's name (span, event or metric name).
    pub fn name(&self) -> &str {
        match &self.kind {
            RecordKind::SpanStart { name, .. }
            | RecordKind::SpanEnd { name, .. }
            | RecordKind::Event { name, .. }
            | RecordKind::Metric { name, .. } => name,
        }
    }

    /// The record's fields, when it carries any.
    pub fn fields(&self) -> &[Field] {
        match &self.kind {
            RecordKind::SpanStart { fields, .. } | RecordKind::Event { fields, .. } => fields,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn name_and_fields_accessors() {
        let r = TraceRecord {
            seq: 0,
            ts_ms: 5,
            kind: RecordKind::Event {
                span: None,
                name: "job.queued".into(),
                fields: vec![("job", Value::Uint(3))],
            },
        };
        assert_eq!(r.name(), "job.queued");
        assert_eq!(r.fields(), &[("job", Value::Uint(3))]);
        let end = TraceRecord {
            seq: 1,
            ts_ms: 9,
            kind: RecordKind::SpanEnd { id: 1, name: "flow".into(), duration_ms: 4 },
        };
        assert_eq!(end.name(), "flow");
        assert!(end.fields().is_empty());
    }
}
