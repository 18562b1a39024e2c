#![warn(missing_docs)]

//! Always-on production telemetry for the MLOps platform.
//!
//! `ei-trace` is the substrate: spans, events and the one metric
//! [`Registry`] (striped, tenant-labeled, label-capped) behind a
//! [`Tracer`]. This crate is the *fleet-scale* layer the ROADMAP's north
//! star (heavy traffic from millions of tenants) demands on top of it —
//! telemetry that is always on and cheap enough to leave enabled:
//!
//! * [`slo`] — declarative latency/error-rate objectives evaluated as
//!   multi-window burn rates on the injected [`ei_faults::Clock`],
//!   firing typed `slo.breach` events.
//! * [`recorder`] — [`FlightRecorder`], a fixed-size per-shard ring of
//!   recent trace records that cuts a causal JSONL capture (the whole
//!   request tree, via the `trace` id every span now carries) whenever
//!   an SLO breach, deadline-exceeded, dead-letter or worker crash
//!   fires.
//! * [`Obs`] — the hub: one [`Tracer`] whose subscriber is the recorder
//!   and whose metric handles write [`Obs::registry`], plus the SLO
//!   monitors. Serving calls [`Obs::record_request`] per completed
//!   request to evaluate them; breaches flow through the tracer, trip
//!   the recorder, and land in [`Obs::dumps`].
//!
//! Everything is deterministic under an [`ei_faults::VirtualClock`]:
//! same record stream in, byte-identical dumps and expositions out, at
//! any `EI_THREADS`.
//!
//! ```
//! use ei_faults::{Clock, VirtualClock};
//! use ei_obs::{Obs, SloSpec};
//! use std::sync::Arc;
//!
//! let clock = VirtualClock::shared();
//! let obs = Obs::builder(clock.clone())
//!     .slo(SloSpec::latency("serve-p99", 100.0, 0.9).with_min_samples(4))
//!     .build();
//! for i in 0..8 {
//!     clock.advance_ms(10);
//!     obs.tracer().quiet_counter("serve.ok").labeled("alpha").inc();
//!     // A storm of slow requests burns the 10% error budget…
//!     obs.record_request("alpha", 500.0, true);
//! }
//! // …and the breach left a flight-recorder capture behind.
//! assert_eq!(obs.dumps().len(), 1);
//! // The hub's registry is the table its tracer's handles write.
//! assert_eq!(obs.registry().counter("serve.ok", "alpha"), Some(8));
//! assert!(obs.prometheus().contains("serve_ok{tenant=\"alpha\"} 8"));
//! ```

pub mod recorder;
pub mod slo;

pub use recorder::{FlightDump, FlightRecorder, DEFAULT_TRIGGERS};
pub use slo::{BurnWindow, SloBreach, SloKind, SloMonitor, SloSpec};

use ei_faults::sync::lock;
use ei_faults::Clock;
use ei_trace::{Registry, Subscriber, Tracer};
use std::sync::{Arc, Mutex};

/// Latency histogram bounds (logical ms, a decade ladder) shared by the
/// serving layer's `serve.latency_ms` and the platform's lock-wait series.
pub const LATENCY_BOUNDS: [f64; 10] =
    [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];

/// Builder for [`Obs`]; see [`Obs::builder`].
pub struct ObsBuilder {
    clock: Arc<dyn Clock>,
    shards: usize,
    ring_capacity: usize,
    label_cap: usize,
    slos: Vec<SloSpec>,
    triggers: Option<Vec<String>>,
    tee: Option<Arc<dyn Subscriber>>,
}

impl ObsBuilder {
    /// Sets the stripe count for the metric registry and recorder rings.
    pub fn shards(mut self, n: usize) -> ObsBuilder {
        self.shards = n;
        self
    }

    /// Sets the flight-recorder retention (total records across shards).
    pub fn ring_capacity(mut self, n: usize) -> ObsBuilder {
        self.ring_capacity = n;
        self
    }

    /// Sets the per-metric label cardinality cap.
    pub fn label_cap(mut self, n: usize) -> ObsBuilder {
        self.label_cap = n;
        self
    }

    /// Adds one SLO to monitor.
    pub fn slo(mut self, spec: SloSpec) -> ObsBuilder {
        self.slos.push(spec);
        self
    }

    /// Replaces the flight-recorder trigger event names.
    pub fn triggers<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> ObsBuilder {
        self.triggers = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Tees the full record stream to a downstream subscriber (e.g. a
    /// [`ei_trace::CollectingSubscriber`] in tests).
    pub fn tee(mut self, tee: Arc<dyn Subscriber>) -> ObsBuilder {
        self.tee = Some(tee);
        self
    }

    /// Builds the [`Obs`] hub.
    pub fn build(self) -> Arc<Obs> {
        let mut recorder = FlightRecorder::new(self.shards, self.ring_capacity);
        if let Some(triggers) = self.triggers {
            recorder = recorder.with_triggers(triggers);
        }
        if let Some(tee) = self.tee {
            recorder = recorder.with_tee(tee);
        }
        let recorder = Arc::new(recorder);
        let registry = Arc::new(Registry::new(self.shards, self.label_cap));
        let tracer = Tracer::with_registry(
            Arc::<FlightRecorder>::clone(&recorder) as _,
            self.clock.clone(),
            Arc::clone(&registry),
        );
        Arc::new(Obs {
            tracer,
            clock: self.clock,
            recorder,
            registry,
            monitors: Mutex::new(self.slos.into_iter().map(SloMonitor::new).collect()),
        })
    }
}

/// The telemetry hub: one tracer (backed by the flight recorder, writing
/// the hub's registry) and the SLO monitors, all on one injected clock.
pub struct Obs {
    tracer: Tracer,
    clock: Arc<dyn Clock>,
    recorder: Arc<FlightRecorder>,
    registry: Arc<Registry>,
    monitors: Mutex<Vec<SloMonitor>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("recorder", &self.recorder).finish()
    }
}

impl Obs {
    /// Starts building an [`Obs`] hub on `clock`. Defaults: 8 shards, a
    /// 4096-record ring, 64 labels per metric, no SLOs, default
    /// triggers.
    pub fn builder(clock: Arc<dyn Clock>) -> ObsBuilder {
        ObsBuilder {
            clock,
            shards: 8,
            ring_capacity: 4096,
            label_cap: 64,
            slos: Vec::new(),
            triggers: None,
            tee: None,
        }
    }

    /// An [`Obs`] hub with all defaults.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Obs> {
        Obs::builder(clock).build()
    }

    /// The tracer instrumented layers should record through: its
    /// subscriber is the flight recorder (plus any tee) and its metric
    /// handles write [`Obs::registry`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metric registry, shared with [`Obs::tracer`].
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder behind the tracer.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The injected clock every monitor and burn-rate window reads.
    /// Layers that make time-based decisions off this hub's telemetry
    /// should read the same clock so their windows line up with the
    /// monitors'.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Folds one completed request into every matching SLO monitor;
    /// fires `slo.breach` (tripping the recorder) on breach. Call this
    /// from the serving completion path. It writes no metric series —
    /// the caller records those through [`Obs::tracer`].
    pub fn record_request(&self, tenant: &str, latency_ms: f64, ok: bool) {
        let now_ms = self.clock.now_ms();
        let mut breaches = Vec::new();
        {
            let mut monitors = lock(&self.monitors);
            for monitor in monitors.iter_mut().filter(|m| m.watches(tenant)) {
                if let Some(breach) = monitor.record(now_ms, latency_ms, ok) {
                    breaches.push(breach);
                }
            }
        }
        // Emit outside the monitor lock: the recorder's capture path may
        // be arbitrarily heavy and must not serialize other recorders.
        for breach in breaches {
            self.tracer.event(
                "slo.breach",
                vec![
                    ("slo", breach.name.clone().into()),
                    ("tenant", breach.tenant.clone().unwrap_or_else(|| tenant.to_string()).into()),
                    ("samples", (breach.samples as u64).into()),
                    ("burn_rate", breach.burn_rates.first().copied().unwrap_or(0.0).into()),
                ],
            );
        }
    }

    /// Clones of every flight-recorder capture so far.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.recorder.dumps()
    }

    /// The registry rendered as a Prometheus-style exposition.
    pub fn prometheus(&self) -> String {
        self.registry.to_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_faults::VirtualClock;

    #[test]
    fn record_request_feeds_the_watching_monitors() {
        let clock = VirtualClock::shared();
        let obs = Obs::builder(clock.clone())
            .slo(SloSpec::latency("p99", 100.0, 0.9).with_min_samples(4).for_tenant("alpha"))
            .build();
        for _ in 0..4 {
            clock.advance_ms(5);
            obs.record_request("alpha", 400.0, true);
            obs.record_request("beta", 400.0, true); // unwatched tenant
        }
        let dumps = obs.dumps();
        assert_eq!(dumps.len(), 1, "alpha's storm must breach exactly once");
        assert_eq!(dumps[0].trigger, "slo.breach");
        assert_eq!(obs.prometheus(), "", "the series are the caller's to record");
    }

    #[test]
    fn healthy_traffic_leaves_no_dumps() {
        let clock = VirtualClock::shared();
        let obs = Obs::builder(clock.clone())
            .slo(SloSpec::latency("p99", 100.0, 0.9).with_min_samples(4))
            .build();
        for _ in 0..50 {
            clock.advance_ms(5);
            obs.record_request("alpha", 3.0, true);
        }
        assert!(obs.dumps().is_empty());
    }

    #[test]
    fn error_rate_slo_counts_failures() {
        let clock = VirtualClock::shared();
        let obs = Obs::builder(clock.clone())
            .slo(SloSpec::error_rate("avail", 0.5).with_min_samples(2).with_cooldown_ms(0))
            .build();
        clock.advance_ms(1);
        obs.record_request("t", 1.0, false);
        clock.advance_ms(1);
        obs.record_request("t", 1.0, false);
        assert!(!obs.dumps().is_empty());
    }
}
