//! The harness's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each crate; spans inside the program are a later change. One recorder
//! per client thread (no shared state on the timed path), merged and
//! written as JSON Lines when the run ends.

use ei_trace::json::{Json, JsonObject};
use std::io::Write;
use std::time::Instant;

/// One timed interval around a call into a crate's public function.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate the call enters.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub request: u64,
    /// `true` for a direct re-run, outside the operation, of work that an
    /// opaque span of the operation did on the same inputs.
    pub probe: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    client: usize,
    request: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for one client; every recorder of a run shares `epoch`.
    pub fn new(epoch: Instant, client: usize) -> Recorder {
        Recorder { epoch, client, request: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// A recorder holding `spans`, for tests of what reads them.
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Recorder {
        Recorder { spans, ..Recorder::new(Instant::now(), 0) }
    }

    /// Starts the next operation: later spans carry its identifier.
    pub fn next_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Times `f` as a span named `name`, a child of the span open around
    /// it; `f` gets the recorder back to open children of its own.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.record(name, false, f)
    }

    /// Times a probe (see [`Span::probe`]).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, true, |_| f())
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        probe: bool,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request: self.request,
            probe,
        });
        self.open.push(index);
        let start = self.epoch.elapsed();
        let out = f(self);
        let end = self.epoch.elapsed();
        self.open.pop();
        self.spans[index].start_ns = start.as_nanos() as u64;
        self.spans[index].end_ns = end.as_nanos() as u64;
        out
    }

    /// Appends this recorder's spans to `out`, one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::Uint(p as u64));
            let row = JsonObject::new()
                .field("client", Json::Uint(self.client as u64))
                .field("span", Json::Uint(index as u64))
                .field("parent", parent)
                .field("request", Json::Uint(span.request))
                .field("name", Json::Str(span.name.to_string()))
                .field("start_ns", Json::Uint(span.start_ns))
                .field("end_ns", Json::Uint(span.end_ns))
                .field("probe", Json::Bool(span.probe));
            writeln!(out, "{}", row.to_json())?;
        }
        Ok(())
    }
}

/// Runs `f`, as a span named `name` when a recorder is given: for code
/// that makes the same calls traced and untraced.
pub fn stage<R>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.span(name, |_| f()),
        None => f(),
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and only
/// where they lie inside the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "layer.call", start_ns, end_ns, parent, request: 0, probe: false }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30
        let spans = [span(0, 100, None), span(10, 60, Some(0)), span(20, 30, Some(1))];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(40, 70, Some(0)),  // overlaps the first by 10
            span(90, 120, Some(0)), // sticks out of the parent by 20
            span(45, 48, Some(0)),  // wholly inside the union already
        ];
        // covered: 10..70 (60) + 90..100 (10)
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.next_request(7);
        rec.span("bench.op", |rec| {
            rec.span("serve.submit", |_| ());
            rec.span("serve.resolve", |_| ());
        });
        rec.probe("dsp.process", || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!((spans[3].parent, spans[3].probe), (None, true));
        assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }
}
