//! Record-stream exporters: JSONL and Chrome-trace spans. (The metrics
//! exposition is rendered by the [`crate::registry`] that holds them.)
//!
//! Both are deterministic functions of their input — same records in,
//! byte-identical text out — which is what makes traces under an
//! [`ei_faults::VirtualClock`] reproducible and diffable in tests.

use crate::json::{Json, JsonObject};
use crate::record::{MetricUpdate, RecordKind, TraceRecord};
use crate::value::Field;

fn fields_object(fields: &[Field]) -> Json {
    let mut obj = JsonObject::new();
    for (key, value) in fields {
        obj.push(key, Json::from(value));
    }
    Json::Object(obj)
}

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::Uint(n),
        None => Json::Null,
    }
}

/// Renders one record as a single-line JSON object.
pub fn record_to_json(record: &TraceRecord) -> String {
    let mut obj = JsonObject::new()
        .field("seq", Json::Uint(record.seq))
        .field("ts_ms", Json::Uint(record.ts_ms));
    match &record.kind {
        RecordKind::SpanStart { id, parent, trace, name, fields } => {
            obj.push("type", Json::Str("span_start".into()));
            obj.push("id", Json::Uint(*id));
            obj.push("parent", opt_u64(*parent));
            obj.push("trace", Json::Uint(*trace));
            obj.push("name", Json::Str(name.clone()));
            obj.push("fields", fields_object(fields));
        }
        RecordKind::SpanEnd { id, name, duration_ms } => {
            obj.push("type", Json::Str("span_end".into()));
            obj.push("id", Json::Uint(*id));
            obj.push("name", Json::Str(name.clone()));
            obj.push("duration_ms", Json::Uint(*duration_ms));
        }
        RecordKind::Event { span, name, fields } => {
            obj.push("type", Json::Str("event".into()));
            obj.push("span", opt_u64(*span));
            obj.push("name", Json::Str(name.clone()));
            obj.push("fields", fields_object(fields));
        }
        RecordKind::Metric { name, label, update } => {
            obj.push("type", Json::Str("metric".into()));
            obj.push("name", Json::Str(name.clone()));
            // only labeled series carry the field, so unlabeled lines
            // keep the bytes they had before labels existed
            if !label.is_empty() {
                obj.push("label", Json::Str(label.clone()));
            }
            match update {
                MetricUpdate::CounterAdd(n) => {
                    obj.push("metric", Json::Str("counter".into()));
                    obj.push("add", Json::Uint(*n));
                }
                MetricUpdate::GaugeSet(v) => {
                    obj.push("metric", Json::Str("gauge".into()));
                    obj.push("set", Json::Float(*v));
                }
                MetricUpdate::HistogramObserve(v) => {
                    obj.push("metric", Json::Str("histogram".into()));
                    obj.push("observe", Json::Float(*v));
                }
            }
        }
    }
    obj.to_json()
}

/// Renders a trace as JSONL: one JSON object per line, in record order.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record_to_json(record));
        out.push('\n');
    }
    out
}

/// Renders a trace as a Chrome-trace (`chrome://tracing` / Perfetto)
/// JSON document. Spans become `B`/`E` duration events, trace events
/// become `i` instant events; logical milliseconds map to microseconds
/// (the format's native unit).
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events = Vec::new();
    for record in records {
        let ts_us = record.ts_ms * 1000;
        let common = |name: &str, ph: &str| {
            JsonObject::new()
                .field("name", Json::Str(name.to_string()))
                .field("ph", Json::Str(ph.to_string()))
                .field("ts", Json::Uint(ts_us))
                .field("pid", Json::Uint(1))
                .field("tid", Json::Uint(1))
        };
        match &record.kind {
            RecordKind::SpanStart { name, fields, .. } => {
                events.push(Json::Object(common(name, "B").field("args", fields_object(fields))));
            }
            RecordKind::SpanEnd { name, .. } => {
                events.push(Json::Object(common(name, "E")));
            }
            RecordKind::Event { name, fields, .. } => {
                events.push(Json::Object(
                    common(name, "i")
                        .field("s", Json::Str("t".into()))
                        .field("args", fields_object(fields)),
                ));
            }
            RecordKind::Metric { .. } => {}
        }
    }
    Json::Object(JsonObject::new().field("traceEvents", Json::Array(events))).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                seq: 0,
                ts_ms: 0,
                kind: RecordKind::SpanStart {
                    id: 1,
                    parent: None,
                    trace: 1,
                    name: "flow".into(),
                    fields: vec![("impulse", Value::Str("kws".into()))],
                },
            },
            TraceRecord {
                seq: 1,
                ts_ms: 3,
                kind: RecordKind::Event {
                    span: Some(1),
                    name: "job.backoff".into(),
                    fields: vec![("delay_ms", Value::Uint(40))],
                },
            },
            TraceRecord {
                seq: 2,
                ts_ms: 9,
                kind: RecordKind::Metric {
                    name: "train.loss".into(),
                    label: String::new(),
                    update: MetricUpdate::GaugeSet(0.5),
                },
            },
            TraceRecord {
                seq: 3,
                ts_ms: 12,
                kind: RecordKind::SpanEnd { id: 1, name: "flow".into(), duration_ms: 12 },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"seq":0,"ts_ms":0,"type":"span_start","id":1,"parent":null,"trace":1,"name":"flow","fields":{"impulse":"kws"}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":1,"ts_ms":3,"type":"event","span":1,"name":"job.backoff","fields":{"delay_ms":40}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"seq":2,"ts_ms":9,"type":"metric","name":"train.loss","metric":"gauge","set":0.5}"#
        );
        assert_eq!(
            lines[3],
            r#"{"seq":3,"ts_ms":12,"type":"span_end","id":1,"name":"flow","duration_ms":12}"#
        );
    }

    #[test]
    fn chrome_trace_pairs_b_and_e_events() {
        let doc = to_chrome_trace(&sample());
        assert!(doc.starts_with(r#"{"traceEvents":["#));
        assert!(doc.contains(r#""ph":"B""#));
        assert!(doc.contains(r#""ph":"E""#));
        assert!(doc.contains(r#""ph":"i""#));
        assert!(doc.contains(r#""ts":12000"#));
        assert!(!doc.contains("train.loss"));
    }

    #[test]
    fn empty_inputs_render_empty() {
        assert_eq!(to_jsonl(&[]), "");
        assert_eq!(to_chrome_trace(&[]), r#"{"traceEvents":[]}"#);
    }
}
