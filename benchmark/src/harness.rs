//! The closed-loop driver shared by every workload.
//!
//! `Server` has no dispatcher thread — dispatch runs on whichever caller
//! invokes `resolve` — so every workload is a closed loop: `clients`
//! threads in this process, each sending its next operation only after
//! the previous one completed. An arrival-schedule (open-loop) workload
//! waits for a real dispatcher.

use crate::clock::WallClock;
use crate::spans::{self_times_ns, Recorder};
use crate::stats;
use crate::workloads::Counters;
use ei_par::{ParPool, Parallelism};
use ei_platform::{Api, UserId};
use ei_serve::{Server, ServerConfig};
use ei_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One workload: fixtures plus one operation, issued two ways.
pub trait Workload: Sync + Sized {
    /// Per-client state; a client is one closed-loop thread.
    type Client: Send;

    /// The probes of [`Workload::probe`] and the opaque spans they explain.
    fn probes(&self) -> Vec<Probe>;

    fn client(&self, index: usize) -> Self::Client;

    /// One operation through the public endpoint, its output checked.
    ///
    /// # Errors
    ///
    /// Any `Err`, refusal, dropped window or wrong output of the operation.
    fn op(&self, client: &mut Self::Client) -> Result<(), String>;

    /// The same operation as the sequence of public calls the endpoint
    /// makes, one span per call.
    ///
    /// # Errors
    ///
    /// As [`Workload::op`].
    fn op_traced(&self, client: &mut Self::Client, rec: &mut Recorder) -> Result<(), String>;

    /// One round of probes: direct calls, on the operation's inputs, of
    /// the public functions an opaque span of the operation ran inside
    /// the platform. Probes run in a phase of their own, never between
    /// operations, where they would thin out the clients' contention.
    ///
    /// # Errors
    ///
    /// Any failure of a probed call.
    fn probe(&self, client: &mut Self::Client, rec: &mut Recorder) -> Result<(), String>;

    /// Retires the clients and checks the invariants that hold over a
    /// whole run; returns one message per violation.
    fn finish(&self, clients: Vec<Self::Client>) -> Vec<String>;

    /// The untimed check pass; returns one message per violation.
    fn check(&self) -> Vec<String>;

    /// Exact counts read from the platform after the run.
    fn counters(&self) -> Counters;
}

/// A probe span, the opaque operation span whose work it re-runs, and how
/// many runs of it lie on the blocking path of one operation.
pub struct Probe {
    pub name: &'static str,
    pub inside: &'static str,
    pub per_op: f64,
}

impl Probe {
    pub fn once(name: &'static str, inside: &'static str) -> Probe {
        Probe { name, inside, per_op: 1.0 }
    }
}

/// The platform every workload drives: one `Api` whose `Server` and (where
/// used) `JobScheduler` share one `ParPool` of width `clients`.
pub struct Stack {
    pub pool: Arc<ParPool>,
    pub server: Arc<Server>,
    pub api: Api,
    pub user: UserId,
}

impl Stack {
    pub fn new(clients: usize, cache_capacity: usize) -> Stack {
        let pool = Arc::new(ParPool::new(Parallelism::new(clients)));
        let server = Arc::new(Server::new(
            server_config(cache_capacity),
            Arc::new(WallClock::new()),
            Arc::clone(&pool),
            Tracer::disabled(),
        ));
        Stack::on(pool, server)
    }

    /// A new store serving through `server`, which dispatches on `pool`.
    pub fn on(pool: Arc<ParPool>, server: Arc<Server>) -> Stack {
        let api = Stack::api_on(&server);
        let user = api.create_user("bench");
        Stack { pool, server, api, user }
    }

    /// An empty store serving through `server`.
    pub fn api_on(server: &Arc<Server>) -> Api {
        let api = Api::new();
        api.attach_serving(Arc::clone(server)).expect("a new Api has no serving layer");
        api
    }
}

/// The cache capacity of a server whose workload states none: the default.
pub fn default_cache_capacity() -> usize {
    ServerConfig::default().cache_capacity
}

/// Admission quotas far above any load two closed-loop clients can
/// offer; every field not named here stays at its default.
pub fn server_config(cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        cache_capacity,
        quota_capacity: 1_000_000,
        quota_refill_per_sec: 1_000_000.0,
        ..ServerConfig::default()
    }
}

/// What one phase of a closed loop measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every successful operation, all clients, unsorted.
    pub latencies_ms: Vec<f64>,
    /// When each of them completed, seconds after the phase's clients
    /// were released (same order as `latencies_ms`).
    pub completed_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Barrier release to the last client's last completion.
    pub wall_s: f64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.completed_s.extend(other.completed_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(MAX_ERRORS);
        self.wall_s += other.wall_s;
    }

    /// The median latency of each [`BLOCK_S`]-second block of the phase
    /// (an operation belongs to the block it completed in), then the
    /// median over the blocks: a neighbour's burst on the host, which
    /// lasts a second or two, moves a few blocks out of many.
    pub fn block_median_ms(&self) -> f64 {
        let blocks = (self.wall_s / BLOCK_S).floor().max(1.0) as usize;
        let mut per_block: Vec<Vec<f64>> = vec![Vec::new(); blocks];
        for (&latency, &completed) in self.latencies_ms.iter().zip(&self.completed_s) {
            // the operations that straddle the end join the last block
            per_block[((completed / BLOCK_S) as usize).min(blocks - 1)].push(latency);
        }
        stats::median(per_block.into_iter().filter(|b| !b.is_empty()).map(stats::median).collect())
    }

    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut sorted = self.latencies_ms.clone();
        stats::sort(&mut sorted);
        sorted
    }
}

const MAX_ERRORS: usize = 5;

/// Length of the blocks whose medians a run reports the median of.
const BLOCK_S: f64 = 1.0;

/// How a phase issues its operations.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `Workload::op`, recorder off.
    Untraced,
    /// `Workload::op_traced`.
    Traced,
    /// `Workload::probe` rounds in place of operations.
    Probes,
}

/// Runs every client's loop for `seconds`, all released by one barrier.
fn run_phase<W: Workload>(
    workload: &W,
    clients: &mut [W::Client],
    recorders: &mut [Recorder],
    mode: Mode,
    seconds: f64,
) -> Phase {
    let barrier = Barrier::new(clients.len() + 1);
    let budget = Duration::from_secs_f64(seconds);
    let (start, parts) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(recorders)
            .enumerate()
            .map(|(index, (client, rec))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut part = Phase::default();
                    barrier.wait();
                    let start = Instant::now();
                    let mut end = start;
                    while end - start < budget {
                        let begin = Instant::now();
                        rec.next_request(((index as u64) << 32) | part.attempted);
                        let result = match mode {
                            Mode::Untraced => workload.op(client),
                            Mode::Traced => workload.op_traced(client, rec),
                            Mode::Probes => workload.probe(client, rec),
                        };
                        end = Instant::now();
                        part.attempted += 1;
                        match result {
                            Ok(()) => {
                                part.latencies_ms.push((end - begin).as_secs_f64() * 1e3);
                                part.completed_s.push((end - start).as_secs_f64());
                            }
                            Err(message) => {
                                part.failed += 1;
                                if part.errors.len() < MAX_ERRORS {
                                    part.errors.push(message);
                                }
                            }
                        }
                    }
                    (part, end)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let parts: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (start, parts)
    });
    let mut phase = Phase::default();
    let mut last = start;
    for (part, end) in parts {
        phase.absorb(part);
        last = last.max(end);
    }
    phase.wall_s = (last - start).as_secs_f64();
    phase
}

fn recorders(clients: usize) -> Vec<Recorder> {
    let epoch = Instant::now();
    (0..clients).map(|c| Recorder::new(epoch, c)).collect()
}

/// The result of one untraced run.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub timed: Phase,
    /// Violations found by `finish` and the check pass.
    pub violations: Vec<String>,
}

/// How many times a run sets up, to report the median.
const SETUPS: usize = 3;

/// The end-to-end run: sets up [`SETUPS`] times (the last one is used),
/// runs the timed closed loop with the recorder off, retires the clients
/// and runs the check pass. `setup` builds fixtures and inputs, brings up
/// the platform and warms it; its wall time is `setup_s`.
pub fn measure<W: Workload>(setup: impl Fn() -> W, clients: usize, seconds: f64) -> Measured {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(setup());
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let workload = workload.expect("SETUPS is at least one");
    let mut states: Vec<W::Client> = (0..clients).map(|c| workload.client(c)).collect();
    let timed = run_phase(&workload, &mut states, &mut recorders(clients), Mode::Untraced, seconds);
    let mut violations = workload.finish(states);
    violations.extend(workload.check());
    Measured { setup_s, timed, violations }
}

/// The result of one traced run.
pub struct Traced {
    pub untraced: Phase,
    pub traced: Phase,
    pub recorders: Vec<Recorder>,
    pub violations: Vec<String>,
    pub counters: Counters,
    pub attribution: Attribution,
}

/// Alternating blocks of the traced run, so that drift on the host
/// moves both medians alike.
const TRACE_BLOCKS: usize = 4;

/// Share of a traced run spent in the probe phase.
const PROBE_SHARE: f64 = 0.2;

/// The traced run: alternates untraced and traced blocks of the closed
/// loop (same clients, same inputs), then runs the probes; `seconds` in
/// all.
pub fn trace<W: Workload>(workload: W, clients: usize, seconds: f64) -> Traced {
    let mut states: Vec<W::Client> = (0..clients).map(|c| workload.client(c)).collect();
    let mut recorders = recorders(clients);
    let block_s = seconds * (1.0 - PROBE_SHARE) / (2 * TRACE_BLOCKS) as f64;
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..TRACE_BLOCKS {
        untraced.absorb(run_phase(&workload, &mut states, &mut recorders, Mode::Untraced, block_s));
        traced.absorb(run_phase(&workload, &mut states, &mut recorders, Mode::Traced, block_s));
    }
    let probed =
        run_phase(&workload, &mut states, &mut recorders, Mode::Probes, seconds * PROBE_SHARE);
    let mut violations = workload.finish(states);
    violations.extend(probed.errors);
    let counters = workload.counters();
    let attribution = attribute(&recorders, &workload.probes());
    Traced { untraced, traced, recorders, violations, counters, attribution }
}

/// Where an operation's time went, from the spans of a traced run.
pub struct Attribution {
    /// Median time per operation by layer, ms, after moving each probe's
    /// time from the opaque span it explains into the probe's own layer.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Median of the root spans (the traced operation), ms.
    pub op_ms: f64,
}

/// An operation's time by layer: per span name, the median self time ×
/// the name's occurrences per operation; per probe, its median × the
/// runs on an operation's blocking path, taken out of the opaque span's
/// layer and given to the probe's.
fn attribute(recorders: &[Recorder], probes: &[Probe]) -> Attribution {
    let mut self_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut probe_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut roots: Vec<f64> = Vec::new();
    for rec in recorders {
        let spans = rec.spans();
        for (span, self_time) in spans.iter().zip(self_times_ns(spans)) {
            if span.probe {
                probe_ns.entry(span.name).or_default().push(span.duration_ns() as f64);
                continue;
            }
            if span.parent.is_none() {
                roots.push(span.duration_ns() as f64);
            }
            self_ns.entry(span.name).or_default().push(self_time as f64);
        }
    }
    let operations = roots.len().max(1) as f64;
    let mut layer_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, samples) in self_ns {
        let per_op = samples.len() as f64 / operations;
        *layer_ms.entry(layer_of(name)).or_default() += stats::median(samples) * per_op / 1e6;
    }
    for probe in probes {
        let Some(samples) = probe_ns.remove(probe.name) else { continue };
        let ms = stats::median(samples) * probe.per_op / 1e6;
        *layer_ms.entry(layer_of(probe.name)).or_default() += ms;
        *layer_ms.entry(layer_of(probe.inside)).or_default() -= ms;
    }
    // the root span's self time is this harness's own glue between calls
    layer_ms.remove("bench");
    let op_ms = if roots.is_empty() { f64::NAN } else { stats::median(roots) / 1e6 };
    Attribution { layer_ms, op_ms }
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// The layers (crates) a traced operation can enter, in pipeline order.
pub const LAYERS: [&str; 8] =
    ["platform", "serve", "core", "quant", "runtime", "dsp", "stream", "nn"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    #[test]
    fn block_median_is_the_median_over_one_second_blocks() {
        // block medians 1, 9 and 2: the burst in the middle block does
        // not set the reported latency, as it would over the whole phase
        let phase = Phase {
            latencies_ms: vec![1.0, 1.0, 9.0, 9.0, 9.0, 2.0, 2.0],
            completed_s: vec![0.2, 0.9, 1.1, 1.5, 1.9, 2.2, 3.05],
            wall_s: 3.05,
            ..Phase::default()
        };
        assert_eq!(phase.block_median_ms(), 2.0);
    }

    #[test]
    fn a_probe_moves_time_from_the_opaque_span_to_its_own_layer() {
        let ms = |n: u64| n * 1_000_000;
        let span = |name, start, end, parent, probe| Span {
            name,
            start_ns: ms(start),
            end_ns: ms(end),
            parent,
            request: 0,
            probe,
        };
        let rec = Recorder::from_spans(vec![
            span("bench.op", 0, 9, None, false),
            span("platform.download", 0, 2, Some(0), false),
            span("serve.resolve", 2, 8, Some(0), false),
            span("runtime.run", 20, 22, None, true),
        ]);
        let probes = [Probe { name: "runtime.run", inside: "serve.resolve", per_op: 2.0 }];
        let got = attribute(&[rec], &probes);
        let layers: Vec<_> = got.layer_ms.iter().map(|(l, ms)| (*l, *ms)).collect();
        assert_eq!(layers, [("platform", 2.0), ("runtime", 4.0), ("serve", 2.0)]);
        assert_eq!(got.op_ms, 9.0);
    }
}
