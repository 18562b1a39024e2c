//! The metrics registry: counters, gauges and fixed-bucket histograms
//! in one striped table with bounded label cardinality.
//!
//! [`Registry`] is the only metric store: every [`crate::Tracer`] records
//! into one (its own, or the one an `ei-obs` hub shares with it). Series
//! carry one label dimension (typically the tenant; empty = unlabeled),
//! recording is striped over independently locked shards so concurrent
//! hot paths do not serialize on one mutex, and the number of distinct
//! labels per metric is capped — once a metric has `label_cap` admitted
//! labels, every new label folds into a single `__other__` series, so a
//! million tenants cannot allocate a million series per metric.
//!
//! Shard choice is a pure function of the series key (FNV-1a of
//! `metric\0label`), so one key always lands in one shard and a merged
//! snapshot is the disjoint-union of shards — except `__other__`, whose
//! observations stay in the *original* label's shard (keeping the fold
//! single-lock) and are summed across shards on scrape.

use ei_faults::sync::lock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The label value overflow series fold into once a metric's label
/// cardinality cap is reached.
pub const OTHER_LABEL: &str = "__other__";

/// One series key: metric name plus one label value (empty = unlabeled).
pub type SeriesKey = (String, String);

/// Aggregated state of one labeled series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last value set, with a registry-global stamp so merges across
    /// shards keep last-wins semantics.
    Gauge {
        /// The value.
        value: f64,
        /// Registry-global write stamp (higher wins on merge).
        stamp: u64,
    },
    /// Fixed-bucket histogram.
    Histogram {
        /// Finite bucket upper bounds, ascending. Sanitized at creation:
        /// non-finite bounds are removed, the rest sorted and
        /// deduplicated (empty bounds are legal — the series degenerates
        /// to a `+Inf`-only bucket).
        bounds: Vec<f64>,
        /// Non-cumulative per-bucket counts (`bounds.len() + 1`; last is
        /// the implicit `+Inf` bucket). An observation exactly on a bound
        /// lands in that bound's bucket (`v <= bound`, Prometheus `le`
        /// semantics).
        counts: Vec<u64>,
        /// Sum of accepted observations.
        sum: f64,
        /// Count of accepted observations.
        count: u64,
        /// NaN/±inf observations rejected rather than poisoning `sum`.
        dropped: u64,
    },
}

enum Slot {
    Series(SeriesValue),
    /// This label was folded: recordings redirect to the shard-local
    /// `(metric, "__other__")` series.
    Redirect,
}

type Shard = BTreeMap<SeriesKey, Slot>;

fn fnv1a(metric: &str, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in metric.bytes().chain(std::iter::once(0)).chain(label.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sanitize_bounds(bounds: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds compare totally"));
    out.dedup();
    out
}

/// A striped, label-aware metric aggregation table. See the module docs.
pub struct Registry {
    shards: Vec<Mutex<Shard>>,
    /// Max distinct labels admitted per metric before folding.
    label_cap: usize,
    /// metric → admitted labels (consulted only on first sight of a key).
    admitted: Mutex<BTreeMap<String, BTreeSet<String>>>,
    gauge_stamp: AtomicU64,
    folded: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shards.len())
            .field("label_cap", &self.label_cap)
            .finish()
    }
}

impl Registry {
    /// A registry striped over `shards` mutexes, folding each metric's
    /// labels past `label_cap` into [`OTHER_LABEL`].
    pub fn new(shards: usize, label_cap: usize) -> Registry {
        let shards = shards.max(1);
        Registry {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            label_cap: label_cap.max(1),
            admitted: Mutex::new(BTreeMap::new()),
            gauge_stamp: AtomicU64::new(0),
            folded: AtomicU64::new(0),
        }
    }

    fn shard(&self, metric: &str, label: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(metric, label) % self.shards.len() as u64) as usize]
    }

    /// Decides (and caches, as a shard slot) whether `label` is admitted
    /// for `metric`, then runs `update` on the resolved series slot.
    fn with_series(
        &self,
        metric: &str,
        label: &str,
        mut make: impl FnMut() -> SeriesValue,
        mut update: impl FnMut(&mut SeriesValue),
    ) {
        let key = (metric.to_string(), label.to_string());
        let shard = self.shard(metric, label);
        {
            let mut guard = lock(shard);
            match guard.get_mut(&key) {
                Some(Slot::Series(v)) => {
                    update(v);
                    return;
                }
                Some(Slot::Redirect) => {
                    let other = (metric.to_string(), OTHER_LABEL.to_string());
                    let slot = guard.entry(other).or_insert_with(|| Slot::Series(make()));
                    if let Slot::Series(v) = slot {
                        update(v);
                    }
                    self.folded.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                None => {}
            }
        }
        // First sight of this (metric, label): consult the admission map
        // outside the shard lock (strict lock order: shard, then neither).
        let admit = label == OTHER_LABEL || label.is_empty() || {
            let mut admitted = lock(&self.admitted);
            let labels = admitted.entry(metric.to_string()).or_default();
            labels.contains(label)
                || labels.len() < self.label_cap && {
                    labels.insert(label.to_string());
                    true
                }
        };
        let mut guard = lock(shard);
        if admit {
            let slot = guard.entry(key).or_insert_with(|| Slot::Series(make()));
            if let Slot::Series(v) = slot {
                update(v);
            }
        } else {
            guard.insert(key, Slot::Redirect);
            let other = (metric.to_string(), OTHER_LABEL.to_string());
            let slot = guard.entry(other).or_insert_with(|| Slot::Series(make()));
            if let Slot::Series(v) = slot {
                update(v);
            }
            self.folded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` to the `(metric, label)` counter.
    pub fn add(&self, metric: &str, label: &str, n: u64) {
        self.with_series(
            metric,
            label,
            || SeriesValue::Counter(0),
            |v| {
                if let SeriesValue::Counter(total) = v {
                    *total += n;
                }
            },
        );
    }

    /// Sets the `(metric, label)` gauge (last write wins across shards).
    pub fn set_gauge(&self, metric: &str, label: &str, value: f64) {
        let stamp = self.gauge_stamp.fetch_add(1, Ordering::Relaxed);
        self.with_series(
            metric,
            label,
            || SeriesValue::Gauge { value: 0.0, stamp: 0 },
            |v| {
                if let SeriesValue::Gauge { value: cur, stamp: cur_stamp } = v {
                    if stamp >= *cur_stamp {
                        *cur = value;
                        *cur_stamp = stamp;
                    }
                }
            },
        );
    }

    /// Records one histogram observation for `(metric, label)`. Bounds
    /// are fixed (after sanitizing) by the series' first observation;
    /// non-finite observations count into `dropped` instead of `sum`.
    pub fn observe(&self, metric: &str, label: &str, v: f64, bounds: &[f64]) {
        self.with_series(
            metric,
            label,
            || {
                let bounds = sanitize_bounds(bounds);
                let counts = vec![0; bounds.len() + 1];
                SeriesValue::Histogram { bounds, counts, sum: 0.0, count: 0, dropped: 0 }
            },
            |slot| {
                if let SeriesValue::Histogram { bounds, counts, sum, count, dropped } = slot {
                    if !v.is_finite() {
                        *dropped += 1;
                        return;
                    }
                    let idx = bounds.iter().position(|b| v <= *b).unwrap_or(bounds.len());
                    counts[idx] += 1;
                    *sum += v;
                    *count += 1;
                }
            },
        );
    }

    /// Total recordings that were folded into [`OTHER_LABEL`] series.
    pub fn folded(&self) -> u64 {
        self.folded.load(Ordering::Relaxed)
    }

    /// A merged point-in-time copy of every series, sorted by
    /// `(metric, label)`. `__other__` partials recorded in different
    /// shards are summed (counters/histograms) or resolved by write
    /// stamp (gauges). Write stamps are erased from the merged view —
    /// they only order writes *during* the merge, and leaving them in
    /// would make two snapshots with identical gauge values compare
    /// unequal depending on thread interleaving.
    pub fn snapshot(&self) -> BTreeMap<SeriesKey, SeriesValue> {
        let mut out: BTreeMap<SeriesKey, SeriesValue> = BTreeMap::new();
        for shard in &self.shards {
            for (key, slot) in lock(shard).iter() {
                let Slot::Series(value) = slot else { continue };
                match out.entry(key.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        merge(e.get_mut(), value);
                    }
                }
            }
        }
        for value in out.values_mut() {
            if let SeriesValue::Gauge { stamp, .. } = value {
                *stamp = 0;
            }
        }
        out
    }

    /// The merged snapshot rendered as a Prometheus-style exposition with
    /// one `tenant` label dimension. Deterministic for a given snapshot.
    pub fn to_prometheus(&self) -> String {
        snapshot_to_prometheus(&self.snapshot())
    }

    /// The current counter total for `(metric, label)`, if any.
    pub fn counter(&self, metric: &str, label: &str) -> Option<u64> {
        match self.snapshot().get(&(metric.to_string(), label.to_string())) {
            Some(SeriesValue::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    /// The current gauge value for `(metric, label)`, if any.
    pub fn gauge(&self, metric: &str, label: &str) -> Option<f64> {
        match self.snapshot().get(&(metric.to_string(), label.to_string())) {
            Some(SeriesValue::Gauge { value, .. }) => Some(*value),
            _ => None,
        }
    }
}

fn merge(into: &mut SeriesValue, from: &SeriesValue) {
    match (into, from) {
        (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
        (
            SeriesValue::Gauge { value, stamp },
            SeriesValue::Gauge { value: other_value, stamp: other_stamp },
        ) if other_stamp > stamp => {
            *value = *other_value;
            *stamp = *other_stamp;
        }
        (
            SeriesValue::Histogram { bounds, counts, sum, count, dropped },
            SeriesValue::Histogram {
                bounds: other_bounds,
                counts: other_counts,
                sum: other_sum,
                count: other_count,
                dropped: other_dropped,
            },
        ) => {
            if bounds == other_bounds {
                for (a, b) in counts.iter_mut().zip(other_counts) {
                    *a += b;
                }
                *sum += other_sum;
                *count += other_count;
            } else {
                // Mismatched bounds (first observations raced with
                // different bounds): keep the totals honest at least.
                *count += other_count;
                *sum += other_sum;
            }
            *dropped += other_dropped;
        }
        _ => {}
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

/// Escapes a label value as the Prometheus text format requires. Labels
/// are tenant ids chosen by callers, so an unescaped `"` or newline would
/// let one tenant forge exposition lines.
fn escape_label(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders a merged snapshot as Prometheus text with a `tenant` label.
fn snapshot_to_prometheus(snapshot: &BTreeMap<SeriesKey, SeriesValue>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut last_metric: Option<&str> = None;
    for ((metric, label), value) in snapshot {
        let name = sanitize(metric);
        let label = escape_label(label);
        if last_metric != Some(metric.as_str()) {
            let kind = match value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge { .. } => "gauge",
                SeriesValue::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_metric = Some(metric);
        }
        let tenant = |extra: &str| {
            if label.is_empty() && extra.is_empty() {
                String::new()
            } else if label.is_empty() {
                format!("{{{extra}}}")
            } else if extra.is_empty() {
                format!("{{tenant=\"{label}\"}}")
            } else {
                format!("{{tenant=\"{label}\",{extra}}}")
            }
        };
        match value {
            SeriesValue::Counter(total) => {
                let _ = writeln!(out, "{name}{} {total}", tenant(""));
            }
            SeriesValue::Gauge { value, .. } => {
                let _ = writeln!(out, "{name}{} {value}", tenant(""));
            }
            SeriesValue::Histogram { bounds, counts, sum, count, dropped } => {
                let mut cumulative = 0u64;
                for (bound, bucket) in bounds.iter().zip(counts) {
                    cumulative += bucket;
                    let le = format!("le=\"{bound}\"");
                    let _ = writeln!(out, "{name}_bucket{} {cumulative}", tenant(&le));
                }
                let _ = writeln!(out, "{name}_bucket{} {count}", tenant("le=\"+Inf\""));
                let _ = writeln!(out, "{name}_sum{} {sum}", tenant(""));
                let _ = writeln!(out, "{name}_count{} {count}", tenant(""));
                if *dropped > 0 {
                    let _ = writeln!(out, "{name}_dropped{} {dropped}", tenant(""));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let reg = Registry::new(8, 16);
        reg.add("serve.ok", "alpha", 2);
        reg.add("serve.ok", "alpha", 3);
        reg.add("serve.ok", "beta", 1);
        assert_eq!(reg.counter("serve.ok", "alpha"), Some(5));
        assert_eq!(reg.counter("serve.ok", "beta"), Some(1));
        assert_eq!(reg.folded(), 0);
    }

    #[test]
    fn labels_past_the_cap_fold_into_other() {
        let reg = Registry::new(4, 2);
        for tenant in ["a", "b", "c", "d", "c", "d"] {
            reg.add("serve.ok", tenant, 1);
        }
        assert_eq!(reg.counter("serve.ok", "a"), Some(1));
        assert_eq!(reg.counter("serve.ok", "b"), Some(1));
        assert_eq!(reg.counter("serve.ok", "c"), None);
        assert_eq!(reg.counter("serve.ok", OTHER_LABEL), Some(4));
        assert_eq!(reg.folded(), 4);
        // The cap is per metric: a different metric admits fresh labels.
        reg.add("serve.err", "zz", 1);
        assert_eq!(reg.counter("serve.err", "zz"), Some(1));
    }

    #[test]
    fn histograms_aggregate_and_reject_non_finite() {
        let reg = Registry::new(4, 8);
        let bounds = [1.0, 10.0];
        for v in [0.5, 5.0, 50.0, f64::NAN] {
            reg.observe("lat.ms", "alpha", v, &bounds);
        }
        match reg.snapshot().get(&("lat.ms".into(), "alpha".into())) {
            Some(SeriesValue::Histogram { counts, sum, count, dropped, .. }) => {
                assert_eq!(counts, &vec![1, 1, 1]);
                assert_eq!((*count, *dropped), (3, 1));
                assert!((sum - 55.5).abs() < 1e-9);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn gauges_keep_the_latest_write_across_folds() {
        let reg = Registry::new(4, 1);
        reg.set_gauge("depth", "a", 1.0);
        reg.set_gauge("depth", "b", 2.0); // folds
        reg.set_gauge("depth", "c", 3.0); // folds
        let snap = reg.snapshot();
        match snap.get(&("depth".into(), OTHER_LABEL.into())) {
            Some(SeriesValue::Gauge { value, .. }) => assert_eq!(*value, 3.0),
            other => panic!("expected folded gauge, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_exposition_is_labeled_and_cumulative() {
        let reg = Registry::new(2, 8);
        reg.add("serve.ok", "alpha", 2);
        reg.observe("lat.ms", "alpha", 0.5, &[1.0, 10.0]);
        reg.observe("lat.ms", "alpha", 500.0, &[1.0, 10.0]);
        let text = reg.to_prometheus();
        let expected = "# TYPE lat_ms histogram\n\
                        lat_ms_bucket{tenant=\"alpha\",le=\"1\"} 1\n\
                        lat_ms_bucket{tenant=\"alpha\",le=\"10\"} 1\n\
                        lat_ms_bucket{tenant=\"alpha\",le=\"+Inf\"} 2\n\
                        lat_ms_sum{tenant=\"alpha\"} 500.5\n\
                        lat_ms_count{tenant=\"alpha\"} 2\n\
                        # TYPE serve_ok counter\n\
                        serve_ok{tenant=\"alpha\"} 2\n";
        assert_eq!(text, expected);

        // a hostile tenant id cannot close its label early or forge a line
        reg.add("serve.ok", "be\"ta\nx 1\\", 1);
        let text = reg.to_prometheus();
        assert!(text.ends_with("serve_ok{tenant=\"be\\\"ta\\nx 1\\\\\"} 1\n"), "{text}");
        for line in text.lines().filter(|l| !l.starts_with("# TYPE ")) {
            let (series, value) = line.rsplit_once(' ').expect("`series value`");
            assert!(value.parse::<f64>().is_ok(), "{line:?}");
            assert!(!series.contains('{') || series.ends_with("\"}"), "{line:?}");
        }
    }

    #[test]
    fn unlabeled_series_render_bare() {
        let reg = Registry::new(2, 8);
        assert_eq!(reg.to_prometheus(), "");
        reg.add("up", "", 1);
        assert_eq!(reg.to_prometheus(), "# TYPE up counter\nup 1\n");
    }

    #[test]
    fn histogram_edge_cases_render_sanitized_inf_and_dropped_lines() {
        let reg = Registry::new(2, 8);
        // messy bounds are sorted, deduplicated and stripped of non-finite
        // entries at creation; an observation on a bound lands in its
        // bucket, the 3 above the last bound only in +Inf (== _count)
        for v in [1.0, 1000.0, 1000.5, 1000.5] {
            reg.observe("lat.ms", "", v, &[10.0, 1.0, f64::INFINITY, 10.0, f64::NAN]);
        }
        // empty bounds degenerate to a +Inf-only bucket; non-finite
        // observations are counted as dropped, not summed
        for v in [3.0, 4.0, f64::NEG_INFINITY] {
            reg.observe("free.ms", "", v, &[]);
        }
        let expected = "# TYPE free_ms histogram\n\
                        free_ms_bucket{le=\"+Inf\"} 2\n\
                        free_ms_sum 7\n\
                        free_ms_count 2\n\
                        free_ms_dropped 1\n\
                        # TYPE lat_ms histogram\n\
                        lat_ms_bucket{le=\"1\"} 1\n\
                        lat_ms_bucket{le=\"10\"} 1\n\
                        lat_ms_bucket{le=\"+Inf\"} 4\n\
                        lat_ms_sum 3002\n\
                        lat_ms_count 4\n";
        assert_eq!(reg.to_prometheus(), expected);
    }

    #[test]
    fn snapshot_is_identical_regardless_of_shard_count() {
        let feed = |reg: &Registry| {
            for (i, tenant) in ["a", "b", "c", "d", "e"].iter().enumerate() {
                reg.add("ok", tenant, i as u64 + 1);
                reg.observe("ms", tenant, i as f64, &[1.0, 3.0]);
            }
        };
        let one = Registry::new(1, 16);
        let many = Registry::new(16, 16);
        feed(&one);
        feed(&many);
        assert_eq!(one.snapshot(), many.snapshot());
        assert_eq!(one.to_prometheus(), many.to_prometheus());
    }
}
