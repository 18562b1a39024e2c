//! The flight recorder: a bounded ring of recent trace records that
//! dumps a causal JSONL capture when a fault-class event fires.
//!
//! [`FlightRecorder`] is an [`ei_trace::Subscriber`]: it retains the
//! last `capacity` records in fixed-size per-shard rings (shard =
//! `seq % shards`, so retention is a pure function of the record stream
//! and byte-identical wherever the stream is), and watches for trigger
//! events — `slo.breach`, `serve.deadline_exceeded`, `job.dead_letter`,
//! `dist.crash_detected` by default. When one fires, it cuts the
//! retained buffer down to the trigger's causal trace (every span with
//! the same `trace` id, their ends, and the events inside them) and
//! stores the capture as deterministic JSONL, ready to ship or diff.
//!
//! Always-on cost is one shard mutex lock and a ring push per record; a
//! downstream tee subscriber can still collect the full stream.

use ei_faults::sync::lock;
use ei_trace::export::record_to_json;
use ei_trace::record::RecordKind;
use ei_trace::{Subscriber, TraceRecord};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;

/// Event names that trip the recorder out of the box.
pub const DEFAULT_TRIGGERS: [&str; 4] =
    ["slo.breach", "serve.deadline_exceeded", "job.dead_letter", "dist.crash_detected"];

/// One capture cut from the ring at trigger time.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The trigger event's name.
    pub trigger: String,
    /// The trigger event's sequence number.
    pub seq: u64,
    /// The trigger event's logical timestamp.
    pub ts_ms: u64,
    /// The causal trace id the capture was cut on (`None` when the
    /// trigger event was outside any span — the full ring is dumped).
    pub trace: Option<u64>,
    /// The capture: one JSON object per line, in `seq` order.
    pub jsonl: String,
}

struct Rings {
    shards: Vec<VecDeque<TraceRecord>>,
    per_shard: usize,
}

/// See the module docs.
pub struct FlightRecorder {
    rings: Mutex<Rings>,
    triggers: BTreeSet<String>,
    dumps: Mutex<Vec<FlightDump>>,
    max_dumps: usize,
    tee: Option<std::sync::Arc<dyn Subscriber>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("triggers", &self.triggers)
            .field("max_dumps", &self.max_dumps)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining ~`capacity` records across `shards` rings,
    /// tripped by [`DEFAULT_TRIGGERS`].
    pub fn new(shards: usize, capacity: usize) -> FlightRecorder {
        let shards = shards.max(1);
        FlightRecorder {
            rings: Mutex::new(Rings {
                shards: (0..shards).map(|_| VecDeque::new()).collect(),
                per_shard: capacity.div_ceil(shards).max(1),
            }),
            triggers: DEFAULT_TRIGGERS.iter().map(|s| s.to_string()).collect(),
            dumps: Mutex::new(Vec::new()),
            max_dumps: 32,
            tee: None,
        }
    }

    /// Replaces the trigger event-name set.
    pub fn with_triggers<I: IntoIterator<Item = S>, S: Into<String>>(
        mut self,
        names: I,
    ) -> FlightRecorder {
        self.triggers = names.into_iter().map(Into::into).collect();
        self
    }

    /// Adds a downstream subscriber that still sees the full stream.
    pub fn with_tee(mut self, tee: std::sync::Arc<dyn Subscriber>) -> FlightRecorder {
        self.tee = Some(tee);
        self
    }

    /// Caps the number of retained dumps (oldest evicted first).
    pub fn with_max_dumps(mut self, n: usize) -> FlightRecorder {
        self.max_dumps = n.max(1);
        self
    }

    /// Clones of every capture taken so far, oldest first.
    pub fn dumps(&self) -> Vec<FlightDump> {
        lock(&self.dumps).clone()
    }

    /// Takes the captures, leaving the recorder empty.
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        std::mem::take(&mut lock(&self.dumps))
    }

    /// Number of captures taken so far.
    pub fn dump_count(&self) -> usize {
        lock(&self.dumps).len()
    }

    /// Cuts the retained records down to `trigger`'s causal trace and
    /// stores the capture.
    fn capture(&self, trigger: &TraceRecord) {
        let retained: Vec<TraceRecord> = {
            let rings = lock(&self.rings);
            let mut all: Vec<TraceRecord> = rings.shards.iter().flatten().cloned().collect();
            all.sort_by_key(|r| r.seq);
            all
        };
        let trigger_span = match &trigger.kind {
            RecordKind::Event { span, .. } => *span,
            _ => None,
        };
        // Resolve the trigger's trace id from its span's start record.
        let trace = trigger_span.and_then(|span| {
            retained.iter().find_map(|r| match &r.kind {
                RecordKind::SpanStart { id, trace, .. } if *id == span => Some(*trace),
                _ => None,
            })
        });
        let selected: Vec<&TraceRecord> = match trace {
            Some(trace_id) => {
                // Spans of the trace (by `trace` on their starts), plus
                // their ends and the events inside them.
                let spans: BTreeSet<u64> = retained
                    .iter()
                    .filter_map(|r| match &r.kind {
                        RecordKind::SpanStart { id, trace, .. } if *trace == trace_id => Some(*id),
                        _ => None,
                    })
                    .collect();
                retained
                    .iter()
                    .filter(|r| match &r.kind {
                        RecordKind::SpanStart { trace, .. } => *trace == trace_id,
                        RecordKind::SpanEnd { id, .. } => spans.contains(id),
                        RecordKind::Event { span, .. } => span.is_some_and(|s| spans.contains(&s)),
                        RecordKind::Metric { .. } => false,
                    })
                    .collect()
            }
            // Span-less trigger (e.g. a global SLO breach): dump the
            // whole ring minus metric noise.
            None => {
                retained.iter().filter(|r| !matches!(r.kind, RecordKind::Metric { .. })).collect()
            }
        };
        let mut jsonl = String::new();
        for r in &selected {
            jsonl.push_str(&record_to_json(r));
            jsonl.push('\n');
        }
        let mut dumps = lock(&self.dumps);
        if dumps.len() >= self.max_dumps {
            dumps.remove(0);
        }
        dumps.push(FlightDump {
            trigger: trigger.name().to_string(),
            seq: trigger.seq,
            ts_ms: trigger.ts_ms,
            trace,
            jsonl,
        });
    }
}

impl Subscriber for FlightRecorder {
    fn record(&self, record: &TraceRecord) {
        if let Some(tee) = &self.tee {
            tee.record(record);
        }
        {
            let mut rings = lock(&self.rings);
            let per_shard = rings.per_shard;
            let idx = (record.seq % rings.shards.len() as u64) as usize;
            let ring = &mut rings.shards[idx];
            if ring.len() >= per_shard {
                ring.pop_front();
            }
            ring.push_back(record.clone());
        }
        if let RecordKind::Event { name, .. } = &record.kind {
            if self.triggers.contains(name) {
                self.capture(record);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_faults::VirtualClock;
    use ei_trace::Tracer;
    use std::sync::Arc;

    fn traced(recorder: FlightRecorder) -> (Tracer, Arc<FlightRecorder>) {
        let recorder = Arc::new(recorder);
        let tracer =
            Tracer::new(Arc::<FlightRecorder>::clone(&recorder) as _, VirtualClock::shared());
        (tracer, recorder)
    }

    #[test]
    fn trigger_event_cuts_a_causal_capture() {
        let (tracer, recorder) = traced(FlightRecorder::new(4, 256));
        {
            let _noise = tracer.span("unrelated");
        }
        let request = tracer.span("serve.request");
        let batch = request.child("serve.batch");
        batch.event("serve.deadline_exceeded", vec![("tenant", "alpha".into())]);
        drop(batch);
        drop(request);
        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 1);
        let dump = &dumps[0];
        assert_eq!(dump.trigger, "serve.deadline_exceeded");
        assert_eq!(dump.trace, Some(2));
        assert!(dump.jsonl.contains(r#""name":"serve.request""#));
        assert!(dump.jsonl.contains(r#""name":"serve.batch""#));
        assert!(dump.jsonl.contains(r#""name":"serve.deadline_exceeded""#));
        assert!(!dump.jsonl.contains("unrelated"), "other traces must be cut out:\n{}", dump.jsonl);
        // Capture is taken at trigger time: the span ends land after it.
        assert!(!dump.jsonl.contains("span_end"));
    }

    #[test]
    fn span_less_trigger_dumps_the_full_ring_without_metrics() {
        let (tracer, recorder) = traced(FlightRecorder::new(2, 64));
        tracer.counter("noise").inc();
        tracer.event("warmup", vec![]);
        tracer.event("slo.breach", vec![("slo", "lat".into())]);
        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trace, None);
        assert!(dumps[0].jsonl.contains("warmup"));
        assert!(dumps[0].jsonl.contains("slo.breach"));
        assert!(!dumps[0].jsonl.contains("noise"));
    }

    #[test]
    fn retention_is_bounded_and_seq_sharded() {
        let (tracer, recorder) = traced(FlightRecorder::new(4, 8));
        for i in 0..100 {
            tracer.event(&format!("e{i}"), vec![]);
        }
        tracer.event("job.dead_letter", vec![]);
        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 1);
        let lines = dumps[0].jsonl.lines().count();
        assert!(lines <= 9, "ring must bound the capture, got {lines} lines");
        assert!(dumps[0].jsonl.contains("e99"), "newest records must be retained");
        assert!(!dumps[0].jsonl.contains(r#""e1""#), "oldest records must be evicted");
    }

    #[test]
    fn non_trigger_events_do_not_dump_and_tee_sees_everything() {
        let collector = Arc::new(ei_trace::CollectingSubscriber::new());
        let (tracer, recorder) = traced(FlightRecorder::new(2, 16).with_tee(Arc::<
            ei_trace::CollectingSubscriber,
        >::clone(
            &collector
        ) as _));
        tracer.event("benign", vec![]);
        let span = tracer.span("s");
        span.event("also.benign", vec![]);
        drop(span);
        assert_eq!(recorder.dump_count(), 0);
        assert_eq!(collector.len(), 4);
    }

    #[test]
    fn dumps_are_capped_and_takeable() {
        let (tracer, recorder) = traced(FlightRecorder::new(1, 16).with_max_dumps(2));
        for _ in 0..5 {
            tracer.event("slo.breach", vec![]);
        }
        assert_eq!(recorder.dump_count(), 2);
        let taken = recorder.take_dumps();
        assert_eq!(taken.len(), 2);
        assert_eq!(recorder.dump_count(), 0);
    }
}
