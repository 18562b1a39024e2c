//! The ML-workflow stage ↔ challenge map of paper Figure 1, and a
//! fault-tolerant [`FlowRunner`] that executes an end-to-end impulse flow
//! with retry and degraded-stage semantics.
//!
//! The runner shares the platform scheduler's failure model (both are
//! built on [`ei_faults::retry::execute`]): every stage runs under a
//! [`RetryPolicy`] with seeded jittered backoff, per-attempt timeouts and
//! panic isolation. A *required* stage that exhausts its retries aborts
//! the flow with [`CoreError::StageFailed`]; an *optional* stage (say,
//! anomaly-detection enrichment) is recorded as
//! [`StageOutcome::Degraded`] with its full attempt history and the flow
//! carries on — the MLOps loop degrades gracefully instead of losing the
//! whole pipeline run.

use crate::{CoreError, Result};
use ei_faults::retry::{self, RetryEvent, RetryOutcome};
use ei_faults::{AttemptContext, AttemptRecord, CancelToken, Clock, RetryPolicy, SystemClock};
use ei_trace::Tracer;
use std::sync::Arc;

/// One stage of the end-to-end embedded-ML workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkflowStage {
    /// Gathering and curating sensor data.
    DataCollection,
    /// DSP feature extraction.
    Preprocessing,
    /// Model design and training.
    Training,
    /// Accuracy / latency / memory evaluation.
    Evaluation,
    /// Compression and optimization (quantization, fusion, EON).
    Optimization,
    /// Conversion and compilation for a target.
    Deployment,
    /// Fleet monitoring and updates.
    Monitoring,
}

/// The ecosystem challenge each stage answers (paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Challenge {
    /// Challenge #1: no large curated sensor datasets; labeling is costly.
    DataCollection,
    /// Challenge #2: DSP is critical but lacks automated tooling.
    DataPreprocessing,
    /// Challenge #3: dependency hell across training and deployment.
    Development,
    /// Challenge #4: hardware heterogeneity restricts portability.
    Deployment,
    /// Challenge #5: no unified MLOps loop for embedded fleets.
    Monitoring,
}

/// One row of the Figure 1 map: stage, the challenge it answers, and the
/// platform feature that implements it (with the module that builds it
/// here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowEntry {
    /// Workflow stage.
    pub stage: WorkflowStage,
    /// Ecosystem challenge addressed.
    pub challenge: Challenge,
    /// Platform feature (paper terminology).
    pub feature: &'static str,
    /// The `edgelab` module implementing it.
    pub module: &'static str,
}

/// The full workflow map in pipeline order.
pub fn workflow_map() -> Vec<WorkflowEntry> {
    vec![
        WorkflowEntry {
            stage: WorkflowStage::DataCollection,
            challenge: Challenge::DataCollection,
            feature: "multi-format ingestion, dataset versioning, active learning",
            module: "ei-data / ei-active",
        },
        WorkflowEntry {
            stage: WorkflowStage::Preprocessing,
            challenge: Challenge::DataPreprocessing,
            feature: "DSP processing blocks with autotune",
            module: "ei-dsp",
        },
        WorkflowEntry {
            stage: WorkflowStage::Training,
            challenge: Challenge::Development,
            feature: "visual learn blocks, LR finder, bias init, checkpointing",
            module: "ei-nn",
        },
        WorkflowEntry {
            stage: WorkflowStage::Evaluation,
            challenge: Challenge::Development,
            feature: "confusion matrices, on-device estimation, performance calibration",
            module: "ei-core / ei-device / ei-calibration",
        },
        WorkflowEntry {
            stage: WorkflowStage::Optimization,
            challenge: Challenge::Deployment,
            feature: "int8 quantization, operator fusion, EON compiler, EON tuner",
            module: "ei-quant / ei-runtime / ei-tuner",
        },
        WorkflowEntry {
            stage: WorkflowStage::Deployment,
            challenge: Challenge::Deployment,
            feature: "C++/Arduino/EIM/WASM export, firmware SDK",
            module: "ei-core::deploy / ei-core::sdk",
        },
        WorkflowEntry {
            stage: WorkflowStage::Monitoring,
            challenge: Challenge::Monitoring,
            feature: "REST API, jobs, versioned projects (IoT management via integrations)",
            module: "ei-platform",
        },
    ]
}

/// One executable stage of a concrete impulse flow.
///
/// The closure receives an [`AttemptContext`] (attempt number plus the
/// flow's cancellation token) and returns an output string or an error
/// message, mirroring the platform job contract.
pub struct FlowStage<'a> {
    name: String,
    optional: bool,
    #[allow(clippy::type_complexity)]
    work: Box<dyn FnMut(&AttemptContext<'_>) -> std::result::Result<String, String> + 'a>,
}

impl std::fmt::Debug for FlowStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowStage")
            .field("name", &self.name)
            .field("optional", &self.optional)
            .finish_non_exhaustive()
    }
}

impl<'a> FlowStage<'a> {
    /// A stage the flow cannot complete without.
    pub fn required<F>(name: &str, work: F) -> FlowStage<'a>
    where
        F: FnMut(&AttemptContext<'_>) -> std::result::Result<String, String> + 'a,
    {
        FlowStage { name: name.to_string(), optional: false, work: Box::new(work) }
    }

    /// A stage whose failure degrades the flow instead of aborting it.
    pub fn optional<F>(name: &str, work: F) -> FlowStage<'a>
    where
        F: FnMut(&AttemptContext<'_>) -> std::result::Result<String, String> + 'a,
    {
        FlowStage { name: name.to_string(), optional: true, work: Box::new(work) }
    }

    /// The stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the flow survives this stage failing.
    pub fn is_optional(&self) -> bool {
        self.optional
    }
}

/// How one stage ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage succeeded with an output.
    Completed(String),
    /// An optional stage exhausted its retries; the flow continued
    /// without it. Carries the final failure description.
    Degraded(String),
}

/// The record of one executed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// The stage name.
    pub name: String,
    /// Whether the stage was optional.
    pub optional: bool,
    /// How the stage ended.
    pub outcome: StageOutcome,
    /// Every failed attempt, in order (cause, duration, backoff chosen).
    pub attempts: Vec<AttemptRecord>,
}

/// The result of a completed (possibly degraded) flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowReport {
    /// Per-stage records in execution order.
    pub stages: Vec<StageReport>,
}

impl FlowReport {
    /// Whether any optional stage was lost along the way.
    pub fn degraded(&self) -> bool {
        self.stages.iter().any(|s| matches!(s.outcome, StageOutcome::Degraded(_)))
    }

    /// Names of the degraded stages, in order.
    pub fn degraded_stages(&self) -> Vec<&str> {
        self.stages
            .iter()
            .filter(|s| matches!(s.outcome, StageOutcome::Degraded(_)))
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Looks up a stage record by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// A completed stage's output, if it completed.
    pub fn output(&self, name: &str) -> Option<&str> {
        match &self.stage(name)?.outcome {
            StageOutcome::Completed(out) => Some(out),
            StageOutcome::Degraded(_) => None,
        }
    }
}

/// Executes a sequence of [`FlowStage`]s under one retry policy.
///
/// With a tracer attached ([`FlowRunner::with_tracer`]) every run opens a
/// `flow` span with one `flow.stage` child span per stage, and retries,
/// backoffs, timeouts and degradations inside a stage surface as events
/// on that stage's span — so a degraded optional stage is visible in the
/// trace, not just in the returned [`FlowReport`].
pub struct FlowRunner {
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    cancel: CancelToken,
    tracer: Tracer,
}

impl std::fmt::Debug for FlowRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowRunner").field("policy", &self.policy).finish_non_exhaustive()
    }
}

impl FlowRunner {
    /// A runner on the system clock.
    pub fn new(policy: RetryPolicy) -> FlowRunner {
        FlowRunner::with_clock(policy, Arc::new(SystemClock::new()))
    }

    /// A runner on an explicit clock (pass an [`ei_faults::VirtualClock`]
    /// for deterministic tests).
    pub fn with_clock(policy: RetryPolicy, clock: Arc<dyn Clock>) -> FlowRunner {
        FlowRunner { policy, clock, cancel: CancelToken::new(), tracer: Tracer::disabled() }
    }

    /// Attaches a tracer; subsequent runs emit `flow` / `flow.stage`
    /// spans and per-stage retry events through it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> FlowRunner {
        self.tracer = tracer;
        self
    }

    /// The token that cancels a run in progress (from another thread or a
    /// stage closure).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs the stages in order, retrying each per the policy. Stage
    /// index is the jitter stream, so each stage gets a decorrelated but
    /// reproducible backoff schedule
    /// ([`RetryPolicy::backoff_preview`]`(index, …)`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageFailed`] when a required stage exhausts
    /// its retries or the run is cancelled; optional-stage failures are
    /// reported as [`StageOutcome::Degraded`] instead.
    pub fn run(&self, stages: Vec<FlowStage<'_>>) -> Result<FlowReport> {
        let flow_span =
            self.tracer.span_with("flow", vec![("stages", (stages.len() as u64).into())]);
        let mut report = FlowReport { stages: Vec::new() };
        for (index, mut stage) in stages.into_iter().enumerate() {
            let stage_span = flow_span.child_with(
                "flow.stage",
                vec![("stage", stage.name.as_str().into()), ("optional", stage.optional.into())],
            );
            let observer = |event: RetryEvent<'_>| match event {
                RetryEvent::AttemptStarted { attempt, .. } => {
                    stage_span.event("stage.attempt", vec![("attempt", attempt.into())]);
                }
                RetryEvent::AttemptFailed { record } => {
                    if matches!(record.cause, ei_faults::FailureCause::TimedOut { .. }) {
                        stage_span
                            .event("stage.timed_out", vec![("attempt", record.attempt.into())]);
                    }
                }
                RetryEvent::BackingOff { next_attempt, delay_ms } => {
                    stage_span.event(
                        "stage.backoff",
                        vec![("next_attempt", next_attempt.into()), ("delay_ms", delay_ms.into())],
                    );
                }
                RetryEvent::AttemptFinished { .. } => {}
            };
            let result = retry::execute(
                &self.policy,
                self.clock.as_ref(),
                index as u64,
                &self.cancel,
                observer,
                |ctx| (stage.work)(ctx),
            );
            let outcome = match result.outcome {
                RetryOutcome::Success { output, .. } => {
                    self.tracer.counter("flow.stages_completed").inc();
                    StageOutcome::Completed(output)
                }
                RetryOutcome::Exhausted { error } if stage.optional => {
                    stage_span.event("stage.degraded", vec![("error", error.as_str().into())]);
                    self.tracer.counter("flow.stages_degraded").inc();
                    StageOutcome::Degraded(error)
                }
                RetryOutcome::Exhausted { error } => {
                    stage_span.event("stage.failed", vec![("error", error.as_str().into())]);
                    self.tracer.counter("flow.stages_failed").inc();
                    return Err(CoreError::StageFailed { stage: stage.name, error });
                }
                RetryOutcome::Cancelled => {
                    stage_span.event("stage.cancelled", vec![]);
                    return Err(CoreError::StageFailed {
                        stage: stage.name,
                        error: "flow cancelled".to_string(),
                    });
                }
            };
            report.stages.push(StageReport {
                name: stage.name,
                optional: stage.optional,
                outcome,
                attempts: result.attempts,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_faults::{FailureCause, FaultPlan, VirtualClock};

    #[test]
    fn map_covers_all_stages_in_order() {
        let map = workflow_map();
        assert_eq!(map.len(), 7);
        assert_eq!(map.first().unwrap().stage, WorkflowStage::DataCollection);
        assert_eq!(map.last().unwrap().stage, WorkflowStage::Monitoring);
        // each of the five paper challenges appears at least once
        for challenge in [
            Challenge::DataCollection,
            Challenge::DataPreprocessing,
            Challenge::Development,
            Challenge::Deployment,
            Challenge::Monitoring,
        ] {
            assert!(map.iter().any(|e| e.challenge == challenge), "{challenge:?} missing");
        }
    }

    #[test]
    fn entries_name_modules() {
        assert!(workflow_map().iter().all(|e| !e.module.is_empty() && !e.feature.is_empty()));
    }

    #[test]
    fn flow_completes_and_exposes_outputs() {
        let runner = FlowRunner::with_clock(RetryPolicy::immediate(1), VirtualClock::shared());
        let report = runner
            .run(vec![
                FlowStage::required("ingest", |_| Ok("40 samples".into())),
                FlowStage::required("train", |_| Ok("acc=0.97".into())),
            ])
            .unwrap();
        assert!(!report.degraded());
        assert_eq!(report.output("ingest"), Some("40 samples"));
        assert_eq!(report.output("train"), Some("acc=0.97"));
        assert!(report.stage("train").unwrap().attempts.is_empty());
    }

    #[test]
    fn optional_stage_degrades_with_history_and_flow_continues() {
        let clock = VirtualClock::shared();
        let policy = RetryPolicy::default().with_seed(11).with_max_attempts(2);
        let runner = FlowRunner::with_clock(policy, clock.clone());
        let plan = FaultPlan::new().panic_on(1, "ewma blew up").error_on(2, "still down");
        let mut flaky = plan.arm(clock, || Ok::<_, String>("unreachable".to_string()));
        let report = runner
            .run(vec![
                FlowStage::required("train", |_| Ok("acc=0.95".into())),
                FlowStage::optional("anomaly", move |_| flaky()),
                FlowStage::required("deploy", |_| Ok("bundle built".into())),
            ])
            .unwrap();
        assert!(report.degraded());
        assert_eq!(report.degraded_stages(), vec!["anomaly"]);
        // the later required stage still ran
        assert_eq!(report.output("deploy"), Some("bundle built"));
        // the degraded stage carries its full attempt history
        let anomaly = report.stage("anomaly").unwrap();
        assert_eq!(anomaly.outcome, StageOutcome::Degraded("still down".into()));
        assert_eq!(anomaly.attempts.len(), 2);
        assert_eq!(anomaly.attempts[0].cause, FailureCause::Panic("ewma blew up".into()));
        assert_eq!(anomaly.attempts[1].cause, FailureCause::Error("still down".into()));
    }

    #[test]
    fn required_stage_failure_aborts_the_flow() {
        let runner = FlowRunner::with_clock(
            RetryPolicy::default().with_max_attempts(2),
            VirtualClock::shared(),
        );
        let err = runner
            .run(vec![
                FlowStage::required("ingest", |_| Ok("ok".into())),
                FlowStage::required("train", |_| Err("diverged".into())),
                FlowStage::required("deploy", |_| panic!("must not run")),
            ])
            .unwrap_err();
        assert_eq!(err, CoreError::StageFailed { stage: "train".into(), error: "diverged".into() });
    }

    #[test]
    fn stage_backoffs_follow_the_seeded_schedule_per_stream() {
        let clock = VirtualClock::shared();
        let policy = RetryPolicy::default().with_seed(5).with_max_attempts(3);
        let runner = FlowRunner::with_clock(policy.clone(), clock);
        let report = runner
            .run(vec![
                FlowStage::required("ok", |_| Ok("fine".into())),
                FlowStage::optional("flaky", |_| Err("nope".into())),
            ])
            .unwrap();
        let backoffs: Vec<u64> =
            report.stage("flaky").unwrap().attempts.iter().filter_map(|a| a.backoff_ms).collect();
        // stage index 1 is the jitter stream, so the schedule is exactly
        // the policy preview for stream 1
        assert_eq!(backoffs, policy.backoff_preview(1, 2));
    }

    #[test]
    fn cancellation_aborts_the_flow() {
        let runner = FlowRunner::with_clock(
            RetryPolicy::default().with_max_attempts(10),
            VirtualClock::shared(),
        );
        let token = runner.cancel_token();
        let err = runner
            .run(vec![FlowStage::required("spin", move |_| {
                token.cancel();
                Err("interrupted".into())
            })])
            .unwrap_err();
        assert!(matches!(err, CoreError::StageFailed { stage, .. } if stage == "spin"));
    }

    #[test]
    fn traced_flow_emits_stage_spans_and_degradation_events() {
        use ei_trace::RecordKind;
        let clock = VirtualClock::shared();
        let (tracer, collector) = Tracer::collecting(clock.clone());
        let policy = RetryPolicy::default().with_seed(3).with_max_attempts(2);
        let runner = FlowRunner::with_clock(policy, clock).with_tracer(tracer.clone());
        let report = runner
            .run(vec![
                FlowStage::required("train", |_| Ok("acc=0.96".into())),
                FlowStage::optional("anomaly", |_| Err("ewma down".into())),
            ])
            .unwrap();
        assert!(report.degraded());
        let records = collector.records();
        // span taxonomy: flow → flow.stage ×2, all closed
        let starts: Vec<&str> = records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::SpanStart { .. }))
            .map(|r| r.name())
            .collect();
        assert_eq!(starts, vec!["flow", "flow.stage", "flow.stage"]);
        let ends = records.iter().filter(|r| matches!(r.kind, RecordKind::SpanEnd { .. })).count();
        assert_eq!(ends, 3, "every span must close");
        // the degraded optional stage is visible in the trace itself
        let degraded: Vec<&ei_trace::TraceRecord> =
            records.iter().filter(|r| r.name() == "stage.degraded").collect();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].fields(), &[("error", ei_trace::Value::Str("ewma down".into()))]);
        // retries inside the stage surface as attempt/backoff events
        assert!(records.iter().any(|r| r.name() == "stage.backoff"));
        let registry = tracer.registry().unwrap();
        assert_eq!(registry.counter("flow.stages_completed", ""), Some(1));
        assert_eq!(registry.counter("flow.stages_degraded", ""), Some(1));
    }

    #[test]
    fn untraced_flow_behaves_identically() {
        // the disabled tracer must not change retry or report semantics
        let clock = VirtualClock::shared();
        let policy = RetryPolicy::default().with_seed(5).with_max_attempts(3);
        let runner = FlowRunner::with_clock(policy.clone(), clock);
        let report = runner
            .run(vec![
                FlowStage::required("ok", |_| Ok("fine".into())),
                FlowStage::optional("flaky", |_| Err("nope".into())),
            ])
            .unwrap();
        let backoffs: Vec<u64> =
            report.stage("flaky").unwrap().attempts.iter().filter_map(|a| a.backoff_ms).collect();
        assert_eq!(backoffs, policy.backoff_preview(1, 2));
    }
}
