//! The subscriber sink and the collecting implementation.

use crate::export;
use crate::record::TraceRecord;
use ei_faults::sync::lock;
use std::sync::Mutex;

/// A sink for trace records.
///
/// Implementations must be cheap and non-blocking-ish: the tracer calls
/// [`Subscriber::record`] inline from workers, trainers and profilers.
pub trait Subscriber: Send + Sync {
    /// Receives one record. Records arrive in `seq` order per tracer.
    fn record(&self, record: &TraceRecord);
}

/// A subscriber that buffers every record in memory — the backbone of
/// tests, the bench harness and the example pipelines.
#[derive(Debug, Default)]
pub struct CollectingSubscriber {
    records: Mutex<Vec<TraceRecord>>,
}

impl CollectingSubscriber {
    /// An empty collector.
    pub fn new() -> CollectingSubscriber {
        CollectingSubscriber::default()
    }

    /// A copy of every record collected so far, in arrival order.
    pub fn records(&self) -> Vec<TraceRecord> {
        lock(&self.records).clone()
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.records).is_empty()
    }

    /// Drops every collected record.
    pub fn clear(&self) {
        lock(&self.records).clear();
    }

    /// The collected trace as JSONL (one JSON object per line).
    pub fn jsonl(&self) -> String {
        export::to_jsonl(&self.records())
    }

    /// The collected spans as a Chrome-trace (`chrome://tracing`) JSON
    /// document.
    pub fn chrome_trace(&self) -> String {
        export::to_chrome_trace(&self.records())
    }
}

impl Subscriber for CollectingSubscriber {
    fn record(&self, record: &TraceRecord) {
        lock(&self.records).push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    #[test]
    fn collects_in_order_and_clears() {
        let sub = CollectingSubscriber::new();
        assert!(sub.is_empty());
        for seq in 0..3 {
            sub.record(&TraceRecord {
                seq,
                ts_ms: seq,
                kind: RecordKind::Event { span: None, name: format!("e{seq}"), fields: vec![] },
            });
        }
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.records()[1].name(), "e1");
        sub.clear();
        assert!(sub.is_empty());
    }
}
