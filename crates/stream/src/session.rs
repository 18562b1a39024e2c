//! Per-tenant streaming inference sessions.
//!
//! A [`StreamSession`] is the continuous-inference loop of one deployed
//! device, lifted into the serving tier: chunked samples arrive over time
//! on the server's injected clock, an incremental extractor turns them
//! into per-frame feature columns exactly once, overlapping windows are
//! assembled from the shared columns, and each window rides the ordinary
//! `ei-serve` admission path (quota, artifact cache, micro-batching,
//! causal spans, SLO accounting) as a `precomputed` request.
//!
//! # Ingest never blocks
//!
//! [`StreamSession::push`] only buffers, extracts and *submits*; it never
//! dispatches inference. When the shared admission queue pushes back
//! ([`Rejected::Overloaded`]) the assembled window stays in the session's
//! bounded pending buffer, and when that buffer overflows the **oldest**
//! window is dropped first — late audio is worthless audio, so shedding
//! from the head bounds the staleness of everything that survives.
//! [`StreamSession::poll`] is the inference side of the loop: it drives
//! dispatch, collects this session's completions, feeds the majority-vote
//! smoother, and re-submits pending windows into the space that freed up.

use crate::error::StreamError;
use crate::smoother::MajorityVote;
use crate::Result;
use ei_core::{Classification, TrainedImpulse};
use ei_dsp::{DspBlock, DspConfig, StreamingExtractor};
use ei_runtime::EngineKind;
use ei_serve::{InferenceRequest, ModelSource, Outcome, Rejected, Server};
use ei_trace::SpanGuard;
use std::collections::VecDeque;
use std::sync::Arc;

/// Knobs of one streaming session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Tenant the session's requests are billed to (quota, latency series,
    /// SLO monitors).
    pub tenant: String,
    /// Samples between successive classification windows. Must be a
    /// positive multiple of the DSP frame stride so incrementally-computed
    /// columns line up exactly with batch recomputation.
    pub hop_samples: usize,
    /// Assembled windows held while the admission queue pushes back
    /// (at least 1); overflow drops the oldest window first.
    pub max_pending: usize,
    /// Majority-vote smoothing horizon (last K window votes).
    pub smoothing_k: usize,
    /// Per-window completion deadline in logical ms (`0` = server default).
    pub deadline_ms: u64,
    /// Execution engine for the session's artifact.
    pub engine: EngineKind,
    /// `true` to run the int8 artifact.
    pub quantized: bool,
    /// `true` to re-derive every window's features with the batch block
    /// and assert bitwise equality (the incremental-DSP oracle). Cheap
    /// enough to leave on outside of benchmarks.
    pub verify_features: bool,
}

impl SessionConfig {
    /// A session for `tenant` classifying every `hop_samples` samples,
    /// with defaults: 8 pending windows, majority of 5, server-default
    /// deadline, EON engine, float artifact, oracle on.
    pub fn new(tenant: &str, hop_samples: usize) -> SessionConfig {
        SessionConfig {
            tenant: tenant.to_string(),
            hop_samples,
            max_pending: 8,
            smoothing_k: 5,
            deadline_ms: 0,
            engine: EngineKind::EonCompiled,
            quantized: false,
            verify_features: true,
        }
    }
}

/// Counters of one session's lifetime (all monotonic except the two
/// occupancy fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Raw samples ingested.
    pub samples_in: u64,
    /// `push` calls (chunks) ingested.
    pub chunks_in: u64,
    /// Feature columns computed by the incremental extractor (each exactly
    /// once).
    pub frames_computed: u64,
    /// Column slots consumed across all assembled windows; the ratio
    /// `frames_used / frames_computed` is the DSP work overlapping windows
    /// shared instead of recomputing.
    pub frames_used: u64,
    /// Windows assembled from columns.
    pub windows_emitted: u64,
    /// Windows that came back classified.
    pub windows_classified: u64,
    /// Oldest-first drops because the pending buffer was full.
    pub drops_backpressure: u64,
    /// Windows rejected by the tenant's token bucket.
    pub drops_quota: u64,
    /// Windows whose deadline expired before or during dispatch.
    pub drops_deadline: u64,
    /// Windows that failed to compile or execute.
    pub failures: u64,
    /// Windows checked against the batch-recompute oracle.
    pub oracle_windows: u64,
    /// Oracle checks where incremental features differed from batch
    /// (must stay 0).
    pub oracle_mismatches: u64,
    /// Assembled windows currently awaiting admission.
    pub pending: u64,
    /// Windows currently admitted but not yet completed.
    pub inflight: u64,
}

impl SessionStats {
    /// `true` while every oracle check found incremental features bitwise
    /// equal to batch recomputation.
    pub fn features_identical(&self) -> bool {
        self.oracle_mismatches == 0
    }

    /// All shed windows: backpressure + quota + deadline.
    pub fn drops_total(&self) -> u64 {
        self.drops_backpressure + self.drops_quota + self.drops_deadline
    }
}

/// One classified window as the session reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowVerdict {
    /// Monotonic window number within the session.
    pub seq: u64,
    /// Logical ms when the window's last sample arrived.
    pub captured_ms: u64,
    /// Logical ms when the classification completed.
    pub completed_ms: u64,
    /// End-to-end staleness: `completed_ms - captured_ms`. The answer
    /// describes audio this old.
    pub staleness_ms: u64,
    /// The raw per-window classification.
    pub classification: Classification,
    /// The majority-smoothed label after folding this vote in.
    pub smoothed_label: String,
}

/// A window assembled from shared columns, waiting for admission.
#[derive(Debug)]
struct AssembledWindow {
    seq: u64,
    captured_ms: u64,
    features: Vec<f32>,
}

/// A window admitted to the server, waiting for completion.
#[derive(Debug, Clone, Copy)]
struct InflightWindow {
    ticket: u64,
    seq: u64,
    captured_ms: u64,
    submitted_ms: u64,
}

/// One live, tenant-attributed sensor stream classified continuously
/// through a shared [`Server`]. See the [module docs](self) for the
/// push/poll contract.
pub struct StreamSession {
    server: Arc<Server>,
    model: ModelSource,
    config: SessionConfig,
    labels: Vec<String>,
    window_samples: usize,
    frames_per_window: usize,
    stride: usize,
    extractor: StreamingExtractor,
    /// Batch block for the bitwise oracle (always built — it also guards
    /// against drift in the session's own assembly bookkeeping).
    oracle: Box<dyn DspBlock>,
    /// Feature columns not yet consumed by every window that needs them;
    /// `columns[0]` is frame index `columns_base`.
    columns: VecDeque<Vec<f32>>,
    columns_base: u64,
    /// Raw samples retained for the oracle; `raw[0]` is absolute sample
    /// `raw_base`.
    raw: VecDeque<f32>,
    raw_base: u64,
    /// Absolute sample index where the next window starts.
    next_window_start: u64,
    next_seq: u64,
    pending: VecDeque<AssembledWindow>,
    inflight: VecDeque<InflightWindow>,
    smoother: MajorityVote,
    stats: SessionStats,
    /// The session's causal root: submits happen inside its context, so
    /// every `serve.request` chains back to this stream.
    span: SpanGuard,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("tenant", &self.config.tenant)
            .field("model", &self.model.name)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl StreamSession {
    /// Opens a session: decodes the model's impulse design, builds the
    /// incremental extractor and the batch oracle, and opens the
    /// `stream.session` span on the server's tracer.
    ///
    /// # Errors
    ///
    /// [`StreamError::Model`] for undecodable model JSON,
    /// [`StreamError::Dsp`] for designs without a framed audio front-end,
    /// and [`StreamError::InvalidConfig`] when `hop_samples` is zero, not
    /// a multiple of the DSP frame stride (incremental columns could not
    /// line up with batch windows), when `max_pending` is zero (every
    /// window would be shed before it could be submitted), or when the
    /// design's window is shorter than one frame.
    pub fn open(
        server: Arc<Server>,
        model: ModelSource,
        config: SessionConfig,
    ) -> Result<StreamSession> {
        let impulse = TrainedImpulse::from_json(model.blob.json())
            .map_err(|e| StreamError::Model(e.to_string()))?;
        let design = impulse.design();
        let dsp_config: DspConfig = design.dsp.clone();
        let extractor = StreamingExtractor::new(&dsp_config)?;
        let framing = extractor.framing();
        let window_samples = design.window_samples;
        if config.hop_samples == 0 || !config.hop_samples.is_multiple_of(framing.stride) {
            return Err(StreamError::InvalidConfig(format!(
                "hop_samples {} must be a positive multiple of the DSP frame stride {}",
                config.hop_samples, framing.stride
            )));
        }
        if config.max_pending == 0 {
            return Err(StreamError::InvalidConfig(
                "max_pending must be at least 1: every window waits there before submission".into(),
            ));
        }
        let frames_per_window = framing.frame_count(window_samples);
        if frames_per_window == 0 {
            return Err(StreamError::InvalidConfig(format!(
                "window of {} samples is shorter than one {}-sample frame",
                window_samples, framing.frame_len
            )));
        }
        let oracle = design.dsp_block().map_err(|e| StreamError::Model(e.to_string()))?;
        let span = server.tracer().span_with(
            "stream.session",
            vec![
                ("tenant", config.tenant.clone().into()),
                ("model", model.name.to_string().into()),
                ("hop_samples", (config.hop_samples as u64).into()),
            ],
        );
        server.tracer().quiet_counter("stream.sessions_opened").inc();
        Ok(StreamSession {
            server,
            model,
            labels: impulse.labels().to_vec(),
            window_samples,
            frames_per_window,
            stride: framing.stride,
            extractor,
            oracle,
            columns: VecDeque::new(),
            columns_base: 0,
            raw: VecDeque::new(),
            raw_base: 0,
            next_window_start: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            inflight: VecDeque::new(),
            smoother: MajorityVote::new(config.smoothing_k),
            stats: SessionStats::default(),
            config,
            span,
        })
    }

    /// The tenant this session bills to.
    pub fn tenant(&self) -> &str {
        &self.config.tenant
    }

    /// Class labels in model output order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The current majority-smoothed label, or `None` before the first
    /// classified window.
    pub fn current_label(&self) -> Option<&str> {
        self.smoother.current().and_then(|i| self.labels.get(i)).map(String::as_str)
    }

    /// Point-in-time counters (occupancy fields reflect this instant).
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats;
        s.frames_computed = self.extractor.frames_out();
        s.pending = self.pending.len() as u64;
        s.inflight = self.inflight.len() as u64;
        s
    }

    /// Ingests one chunk of samples: extracts any completed feature
    /// columns, assembles any completed windows, and submits toward the
    /// admission queue. Never dispatches inference and never blocks —
    /// overflow is shed oldest-first instead (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates DSP failures; admission rejections are *not* errors,
    /// they are counted drops.
    pub fn push(&mut self, samples: &[f32]) -> Result<()> {
        self.stats.chunks_in += 1;
        self.stats.samples_in += samples.len() as u64;
        self.raw.extend(samples.iter().copied());
        for column in self.extractor.push(samples)? {
            self.columns.push_back(column);
        }
        self.assemble_windows()?;
        self.submit_pending();
        Ok(())
    }

    /// Collects every completed window for this session: dispatches the
    /// shared queue, extracts this session's completions (other tenants'
    /// stay put), folds votes into the smoother, and back-fills freed
    /// admission capacity from the pending buffer. Returns verdicts in
    /// window order.
    pub fn poll(&mut self) -> Vec<WindowVerdict> {
        let mut verdicts = Vec::new();
        while let Some(w) = self.inflight.pop_front() {
            let Some(completion) = self.server.resolve(w.ticket) else {
                // The server lost the ticket — count it rather than wedge.
                self.stats.failures += 1;
                continue;
            };
            match completion.outcome {
                Outcome::Classified(classification) => {
                    // Completion stamp: admission time plus the latency the
                    // server read off its clock for this request.
                    let completed_ms = w.submitted_ms + completion.latency_ms;
                    let staleness_ms = completed_ms.saturating_sub(w.captured_ms);
                    let smoothed_index = self.smoother.push(classification.label_index);
                    let smoothed_label =
                        self.labels.get(smoothed_index).cloned().unwrap_or_default();
                    self.stats.windows_classified += 1;
                    self.span.event(
                        "stream.window",
                        vec![
                            ("seq", w.seq.into()),
                            ("label", classification.label.clone().into()),
                            ("smoothed", smoothed_label.clone().into()),
                            ("staleness_ms", staleness_ms.into()),
                        ],
                    );
                    verdicts.push(WindowVerdict {
                        seq: w.seq,
                        captured_ms: w.captured_ms,
                        completed_ms,
                        staleness_ms,
                        classification,
                        smoothed_label,
                    });
                }
                Outcome::DeadlineExceeded { .. } => {
                    self.stats.drops_deadline += 1;
                    self.drop_event(w.seq, "deadline");
                }
                Outcome::Failed(_) => self.stats.failures += 1,
            }
        }
        // Dispatch freed queue space; windows admitted here are picked up
        // by the next poll.
        self.submit_pending();
        verdicts
    }

    /// Closes the session: final poll, a `stream.closed` event carrying
    /// the headline counters, then the span. Returns the final stats.
    /// Windows still pending or in flight at close are reported in the
    /// stats' occupancy fields, not silently lost.
    pub fn close(mut self) -> SessionStats {
        self.poll();
        let stats = self.stats();
        self.span.event(
            "stream.closed",
            vec![
                ("windows", stats.windows_classified.into()),
                ("drops", stats.drops_total().into()),
                ("oracle_mismatches", stats.oracle_mismatches.into()),
            ],
        );
        stats
    }

    /// Assembles every window whose last sample has arrived, checking each
    /// against the batch oracle and shedding oldest-first past
    /// `max_pending`.
    fn assemble_windows(&mut self) -> Result<()> {
        while self.extractor.samples_in() >= self.next_window_start + self.window_samples as u64 {
            let first_frame = self.next_window_start / self.stride as u64;
            let start = (first_frame - self.columns_base) as usize;
            let mut features =
                Vec::with_capacity(self.frames_per_window * self.extractor.features_per_frame());
            for column in self.columns.iter().skip(start).take(self.frames_per_window) {
                features.extend_from_slice(column);
            }
            self.stats.frames_used += self.frames_per_window as u64;
            let captured_ms = self.server.clock().now_ms();
            let seq = self.next_seq;
            self.next_seq += 1;

            if self.config.verify_features {
                self.check_oracle(seq, &features)?;
            }

            self.pending.push_back(AssembledWindow { seq, captured_ms, features });
            self.stats.windows_emitted += 1;
            while self.pending.len() > self.config.max_pending {
                let Some(dropped) = self.pending.pop_front() else { break };
                self.stats.drops_backpressure += 1;
                self.drop_event(dropped.seq, "backpressure");
            }

            self.next_window_start += self.config.hop_samples as u64;
            self.prune_buffers();
        }
        Ok(())
    }

    /// Recomputes the window's features from raw samples with the batch
    /// block and compares bitwise.
    fn check_oracle(&mut self, seq: u64, features: &[f32]) -> Result<()> {
        let start = (self.next_window_start - self.raw_base) as usize;
        let raw_window: Vec<f32> =
            self.raw.iter().skip(start).take(self.window_samples).copied().collect();
        debug_assert_eq!(raw_window.len(), self.window_samples);
        let batch = self.oracle.process(&raw_window)?;
        self.stats.oracle_windows += 1;
        // Bitwise, not approximate: both paths ran the same per-frame
        // column function on the same samples, so any difference is a bug.
        if batch != features {
            self.stats.oracle_mismatches += 1;
            self.span.event("stream.oracle_mismatch", vec![("seq", seq.into())]);
        }
        Ok(())
    }

    /// Drops columns and raw samples no future window (or oracle check)
    /// can reference, keeping session memory bounded by one window span
    /// plus one chunk.
    fn prune_buffers(&mut self) {
        let keep_from_frame = self.next_window_start / self.stride as u64;
        while self.columns_base < keep_from_frame && !self.columns.is_empty() {
            self.columns.pop_front();
            self.columns_base += 1;
        }
        let keep_from_sample = self.next_window_start;
        while self.raw_base < keep_from_sample && !self.raw.is_empty() {
            self.raw.pop_front();
            self.raw_base += 1;
        }
    }

    /// Submits pending windows oldest-first until the admission queue
    /// pushes back. Quota rejections drop the window (the tenant is out of
    /// budget — retrying would just starve its own fresher windows).
    fn submit_pending(&mut self) {
        while let Some(window) = self.pending.front() {
            let request = InferenceRequest {
                tenant: self.config.tenant.clone(),
                model: self.model.clone(),
                board: String::new(),
                engine: self.config.engine,
                quantized: self.config.quantized,
                window: window.features.clone(),
                deadline_ms: self.config.deadline_ms,
                precomputed: true,
            };
            // Enter the session span so `serve.request` opens as its child
            // and the whole chain shares one trace id.
            let submitted = {
                let _in_session = self.span.enter();
                self.server.submit(request)
            };
            match submitted {
                Ok(ticket) => {
                    let Some(window) = self.pending.pop_front() else { break };
                    self.inflight.push_back(InflightWindow {
                        ticket,
                        seq: window.seq,
                        captured_ms: window.captured_ms,
                        submitted_ms: self.server.clock().now_ms(),
                    });
                }
                Err(Rejected::Overloaded { .. }) => break,
                Err(Rejected::QuotaExceeded { .. }) => {
                    let Some(window) = self.pending.pop_front() else { break };
                    self.stats.drops_quota += 1;
                    self.drop_event(window.seq, "quota");
                }
            }
        }
    }

    fn drop_event(&self, seq: u64, reason: &'static str) {
        self.server.tracer().quiet_counter("stream.dropped").inc();
        self.span.event("stream.drop", vec![("seq", seq.into()), ("reason", reason.into())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_core::impulse::ImpulseDesign;
    use ei_data::synth::KwsGenerator;
    use ei_dsp::MfccConfig;
    use ei_faults::{Clock, VirtualClock};
    use ei_nn::presets;
    use ei_nn::train::TrainConfig;
    use ei_par::{ParPool, Parallelism};
    use ei_serve::ServerConfig;
    use ei_trace::Tracer;

    fn generator() -> KwsGenerator {
        KwsGenerator {
            classes: vec!["yes".into(), "no".into()],
            sample_rate_hz: 4_000,
            duration_s: 0.25,
            noise: 0.02,
        }
    }

    /// Window 1000 samples; MFCC frames of 128 every 64 — so valid hops
    /// are multiples of 64.
    fn model_json() -> String {
        let design = ImpulseDesign::new(
            "stream-kws",
            1_000,
            DspConfig::Mfcc(MfccConfig {
                frame_s: 0.032,
                stride_s: 0.016,
                n_coefficients: 8,
                n_filters: 16,
                sample_rate_hz: 4_000,
            }),
        )
        .unwrap();
        let spec = presets::dense_mlp(design.feature_dims().unwrap(), 2, 8);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 8,
            learning_rate: 0.01,
            seed: 11,
            ..TrainConfig::default()
        };
        design.train(&spec, &generator().dataset(4, 11), &config).unwrap().to_json().unwrap()
    }

    fn server(config: ServerConfig) -> Arc<Server> {
        let clock = VirtualClock::shared();
        let pool = Arc::new(ParPool::new(Parallelism::from_env()));
        Arc::new(Server::new(config, clock as Arc<dyn Clock>, pool, Tracer::disabled()))
    }

    /// A few seconds of alternating keywords, deterministic.
    fn audio(clips: usize) -> Vec<f32> {
        let gen = generator();
        (0..clips).flat_map(|i| gen.generate(i % 2, i as u64)).collect()
    }

    #[test]
    fn chunking_never_changes_classifications() {
        let json = model_json();
        let signal = audio(4); // 4 clips x 1000 samples
        let run = |chunk_len: usize| {
            let server = server(ServerConfig { queue_capacity: 64, ..ServerConfig::default() });
            let mut config = SessionConfig::new("tenant-a", 256);
            config.max_pending = 64; // no shedding: isolate the DSP/classify path
            let session =
                StreamSession::open(server, ModelSource::new("kws", json.clone()), config);
            let mut session = session.unwrap();
            let mut verdicts = Vec::new();
            for chunk in signal.chunks(chunk_len) {
                session.push(chunk).unwrap();
                verdicts.extend(session.poll());
            }
            verdicts.extend(session.poll());
            let stats = session.close();
            (verdicts, stats)
        };
        let (whole, whole_stats) = run(signal.len());
        assert!(whole.len() >= 10, "4000 samples / hop 256 must yield many windows");
        assert!(whole_stats.oracle_windows > 0 && whole_stats.features_identical());
        for chunk_len in [37usize, 256, 999] {
            let (chunked, stats) = run(chunk_len);
            assert!(stats.features_identical(), "oracle must pass at chunk_len {chunk_len}");
            let pairs = |vs: &[WindowVerdict]| {
                vs.iter().map(|v| (v.seq, v.classification.clone())).collect::<Vec<_>>()
            };
            // timing differs with chunking; the classifications must not
            assert_eq!(pairs(&chunked), pairs(&whole), "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn incremental_dsp_reuses_overlapping_columns() {
        let server = server(ServerConfig::default());
        let mut session = StreamSession::open(
            server,
            ModelSource::new("kws", model_json()),
            SessionConfig::new("tenant-a", 256),
        )
        .unwrap();
        session.push(&audio(4)).unwrap();
        session.poll();
        let stats = session.close();
        // window = 14 frames, hop = 4 frames: overlapping windows must reuse
        // most columns instead of recomputing them
        assert!(
            stats.frames_used > stats.frames_computed * 2,
            "expected >2x column reuse, got used {} vs computed {}",
            stats.frames_used,
            stats.frames_computed
        );
        assert!(stats.features_identical());
    }

    #[test]
    fn backpressure_sheds_oldest_first_and_never_blocks_ingest() {
        let server = server(ServerConfig {
            queue_capacity: 2,
            quota_capacity: 256,
            quota_refill_per_sec: 256.0,
            ..ServerConfig::default()
        });
        let mut config = SessionConfig::new("tenant-a", 256);
        config.max_pending = 2;
        let mut session =
            StreamSession::open(server, ModelSource::new("kws", model_json()), config).unwrap();
        // ingest a long stream chunk by chunk without ever polling: the
        // queue (2) and the pending buffer (2) fill, then every further
        // window sheds the oldest pending one — push itself must keep
        // succeeding
        for chunk in audio(6).chunks(500) {
            session.push(chunk).unwrap();
        }
        let stats = session.stats();
        assert!(stats.drops_backpressure > 0, "overflow must be counted: {stats:?}");
        assert_eq!(stats.pending, 2, "pending buffer stays at its bound");
        assert_eq!(stats.inflight, 2, "admission queue stays at its bound");
        // drain: survivors must include the newest window (drop-oldest
        // keeps fresh audio, which is what bounds staleness)
        let mut seqs = Vec::new();
        loop {
            let verdicts = session.poll();
            if verdicts.is_empty() {
                break;
            }
            seqs.extend(verdicts.iter().map(|v| v.seq));
        }
        let final_stats = session.stats();
        let newest = final_stats.windows_emitted - 1;
        assert!(seqs.contains(&newest), "newest window {newest} must survive, got {seqs:?}");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "verdicts arrive in window order");
        assert_eq!(
            final_stats.windows_classified + final_stats.drops_total() + final_stats.failures,
            final_stats.windows_emitted,
            "every emitted window is accounted for: {final_stats:?}"
        );
        assert!(final_stats.features_identical());
    }

    #[test]
    fn quota_exhaustion_drops_and_bills_the_right_tenant() {
        let server = server(ServerConfig {
            quota_capacity: 2,
            quota_refill_per_sec: 0.0,
            ..ServerConfig::default()
        });
        let mut session = StreamSession::open(
            Arc::clone(&server),
            ModelSource::new("kws", model_json()),
            SessionConfig::new("metered", 256),
        )
        .unwrap();
        session.push(&audio(3)).unwrap();
        session.poll();
        let stats = session.close();
        assert_eq!(stats.windows_classified, 2, "exactly the two budgeted windows ran");
        assert!(stats.drops_quota > 0, "the rest were shed as quota drops: {stats:?}");
    }

    #[test]
    fn smoothed_label_tracks_majority() {
        let server = server(ServerConfig::default());
        let mut session = StreamSession::open(
            server,
            ModelSource::new("kws", model_json()),
            SessionConfig::new("tenant-a", 256),
        )
        .unwrap();
        assert_eq!(session.current_label(), None);
        session.push(&audio(4)).unwrap();
        let verdicts = session.poll();
        assert!(!verdicts.is_empty());
        let last = verdicts.last().unwrap();
        assert_eq!(session.current_label(), Some(last.smoothed_label.as_str()));
        assert!(session.labels().contains(&last.smoothed_label));
    }

    #[test]
    fn misaligned_hop_is_rejected() {
        let server = server(ServerConfig::default());
        let model = ModelSource::new("kws", model_json());
        // frame stride is 64 samples; 100 is not a multiple
        let err =
            StreamSession::open(Arc::clone(&server), model.clone(), SessionConfig::new("t", 100))
                .unwrap_err();
        assert!(matches!(err, StreamError::InvalidConfig(_)), "{err:?}");
        let err = StreamSession::open(server, model, SessionConfig::new("t", 0)).unwrap_err();
        assert!(matches!(err, StreamError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn zero_max_pending_is_rejected() {
        let server = server(ServerConfig::default());
        let mut config = SessionConfig::new("t", 256);
        config.max_pending = 0;
        let err =
            StreamSession::open(server, ModelSource::new("kws", model_json()), config).unwrap_err();
        assert!(matches!(err, StreamError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn undecodable_model_is_rejected() {
        let server = server(ServerConfig::default());
        let err = StreamSession::open(
            server,
            ModelSource::new("junk", "not json".into()),
            SessionConfig::new("t", 256),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Model(_)), "{err:?}");
    }
}
