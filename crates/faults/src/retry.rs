//! Retry policy, attempt history and the generic fault-tolerant
//! execution loop.
//!
//! [`execute`] runs one unit of work (a job or a workflow stage) under a
//! [`RetryPolicy`]: exponential backoff with decorrelated jitter from a
//! seeded RNG, max-attempt and max-elapsed caps, per-attempt timeouts and
//! panic isolation via `catch_unwind`. Every failed attempt is recorded in
//! an [`AttemptRecord`] (cause, duration, backoff chosen), giving
//! dead-letter queues and degraded-stage reports their full history.

use crate::cancel::CancelToken;
use crate::clock::Clock;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Weyl-sequence increment used both by the RNG and for stream mixing.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A small deterministic RNG (SplitMix64) so backoff jitter is exactly
/// reproducible from a seed without pulling in `rand`.
#[derive(Debug, Clone)]
struct Rng64(u64);

impl Rng64 {
    fn new(seed: u64) -> Rng64 {
        Rng64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How one unit of work is retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum executions (1 = no retries).
    pub max_attempts: u32,
    /// Minimum backoff between attempts, in logical milliseconds.
    pub base_ms: u64,
    /// Maximum backoff between attempts, in logical milliseconds.
    pub cap_ms: u64,
    /// Total logical-time budget across attempts and backoffs; exceeding
    /// it stops retrying even when attempts remain.
    pub max_elapsed_ms: Option<u64>,
    /// Per-attempt deadline; an attempt running longer is discarded as
    /// [`FailureCause::TimedOut`] even if it eventually returned `Ok`.
    pub timeout_ms: Option<u64>,
    /// Seed for the jitter RNG; same seed + same stream ⇒ same backoffs.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_ms: 50,
            cap_ms: 5_000,
            max_elapsed_ms: None,
            timeout_ms: None,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `attempts` immediate re-runs and no backoff — the
    /// legacy scheduler behaviour.
    pub fn immediate(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts.max(1),
            base_ms: 0,
            cap_ms: 0,
            ..RetryPolicy::default()
        }
    }

    /// Sets the maximum attempt count (clamped to at least 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the backoff range `[base_ms, cap_ms]`.
    pub fn with_backoff(mut self, base_ms: u64, cap_ms: u64) -> RetryPolicy {
        self.base_ms = base_ms;
        self.cap_ms = cap_ms.max(base_ms);
        self
    }

    /// Sets the total elapsed-time cap.
    pub fn with_max_elapsed(mut self, ms: u64) -> RetryPolicy {
        self.max_elapsed_ms = Some(ms);
        self
    }

    /// Sets the per-attempt timeout.
    pub fn with_timeout(mut self, ms: u64) -> RetryPolicy {
        self.timeout_ms = Some(ms);
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The first `n` backoff delays this policy will choose for a given
    /// `stream` (job id / stage index) — the exact sequence [`execute`]
    /// uses, exposed so tests and operators can predict retry schedules.
    pub fn backoff_preview(&self, stream: u64, n: usize) -> Vec<u64> {
        let mut rng = self.jitter_rng(stream);
        let mut prev = self.base_ms;
        (0..n).map(|_| self.next_backoff(&mut rng, &mut prev)).collect()
    }

    fn jitter_rng(&self, stream: u64) -> Rng64 {
        Rng64::new(self.seed ^ stream.wrapping_mul(GOLDEN))
    }

    /// Decorrelated jitter (Brooker): `min(cap, uniform(base, prev * 3))`.
    fn next_backoff(&self, rng: &mut Rng64, prev: &mut u64) -> u64 {
        let hi = prev.saturating_mul(3);
        let span = hi.saturating_sub(self.base_ms);
        let raw = if span == 0 { self.base_ms } else { self.base_ms + rng.next_u64() % span };
        let delay = raw.min(self.cap_ms);
        *prev = delay.max(self.base_ms);
        delay
    }
}

/// Why one attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The work returned an error.
    Error(String),
    /// The work panicked (isolated by `catch_unwind`).
    Panic(String),
    /// The attempt overran its per-attempt deadline.
    TimedOut {
        /// The deadline that was exceeded, in logical milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Error(msg) => write!(f, "{msg}"),
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::TimedOut { limit_ms } => {
                write!(f, "attempt exceeded {limit_ms} ms deadline")
            }
        }
    }
}

/// One failed attempt in a job or stage history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Why the attempt failed.
    pub cause: FailureCause,
    /// How long the attempt ran, in logical milliseconds.
    pub duration_ms: u64,
    /// The jittered backoff chosen before the next attempt, or `None`
    /// when this failure was terminal.
    pub backoff_ms: Option<u64>,
}

/// Context handed to the work closure on each attempt.
#[derive(Debug)]
pub struct AttemptContext<'a> {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The job's cancellation token, for cooperative checkpoints.
    pub cancel: &'a CancelToken,
}

/// Progress notifications emitted by [`execute`], letting callers mirror
/// the loop's state into an observable status (e.g. [`execute`]'s use in
/// the platform scheduler maps these onto `JobStatus`).
#[derive(Debug)]
pub enum RetryEvent<'a> {
    /// An attempt is about to run; `deadline_ms` is its absolute logical
    /// deadline when the policy sets a timeout.
    AttemptStarted {
        /// 1-based attempt number.
        attempt: u32,
        /// Absolute logical deadline, if any.
        deadline_ms: Option<u64>,
    },
    /// The attempt's closure returned (or unwound).
    AttemptFinished {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The attempt failed; the record carries cause/duration/backoff.
    AttemptFailed {
        /// The recorded failure.
        record: &'a AttemptRecord,
    },
    /// The loop is sleeping before the next attempt.
    BackingOff {
        /// The attempt that will run after the sleep.
        next_attempt: u32,
        /// The jittered delay, in logical milliseconds.
        delay_ms: u64,
    },
}

/// Terminal result of [`execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryOutcome {
    /// The work succeeded.
    Success {
        /// The work's output.
        output: String,
        /// How many attempts were used (≥ 1).
        attempts: u32,
    },
    /// Retries were exhausted (attempt cap, elapsed cap, or terminal
    /// failure); `error` describes the last cause.
    Exhausted {
        /// Description of the final failure.
        error: String,
    },
    /// The work was cancelled before completing.
    Cancelled,
}

/// The outcome plus the full failed-attempt history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryResult {
    /// Terminal outcome.
    pub outcome: RetryOutcome,
    /// Every failed attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

/// Extracts a printable message from a panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work` under `policy` until success, exhaustion or cancellation.
///
/// * Panics inside `work` are caught and recorded as
///   [`FailureCause::Panic`] — the calling thread survives.
/// * An attempt whose logical duration exceeds `policy.timeout_ms` is
///   discarded as [`FailureCause::TimedOut`] even if it returned `Ok`.
/// * Backoff sleeps go through `clock` (instant under a
///   [`crate::VirtualClock`]) and resolve promptly on cancellation.
/// * `stream` decorrelates the jitter of concurrent callers sharing one
///   policy; the chosen delays equal
///   [`RetryPolicy::backoff_preview`]`(stream, …)` exactly.
pub fn execute<F>(
    policy: &RetryPolicy,
    clock: &dyn Clock,
    stream: u64,
    cancel: &CancelToken,
    mut observer: impl FnMut(RetryEvent<'_>),
    mut work: F,
) -> RetryResult
where
    F: FnMut(&AttemptContext<'_>) -> Result<String, String>,
{
    let start = clock.now_ms();
    let mut rng = policy.jitter_rng(stream);
    let mut prev = policy.base_ms;
    let mut records: Vec<AttemptRecord> = Vec::new();
    let mut attempt = 0u32;
    loop {
        if cancel.is_cancelled() {
            return RetryResult { outcome: RetryOutcome::Cancelled, attempts: records };
        }
        attempt += 1;
        let t0 = clock.now_ms();
        observer(RetryEvent::AttemptStarted {
            attempt,
            deadline_ms: policy.timeout_ms.map(|t| t0.saturating_add(t)),
        });
        let caught = catch_unwind(AssertUnwindSafe(|| work(&AttemptContext { attempt, cancel })));
        let duration_ms = clock.now_ms().saturating_sub(t0);
        observer(RetryEvent::AttemptFinished { attempt });
        let overran = policy.timeout_ms.is_some_and(|limit| duration_ms > limit);
        let failure = match caught {
            Ok(Ok(output)) if !overran => {
                return RetryResult {
                    outcome: RetryOutcome::Success { output, attempts: attempt },
                    attempts: records,
                };
            }
            // the deadline passed while the attempt ran: whatever it
            // returned is stale — the watchdog already gave up on it
            _ if overran => {
                FailureCause::TimedOut { limit_ms: policy.timeout_ms.unwrap_or_default() }
            }
            Ok(Err(msg)) => FailureCause::Error(msg),
            Ok(Ok(_)) => unreachable!("success without overrun returns above"),
            Err(payload) => FailureCause::Panic(panic_message(payload)),
        };
        let elapsed = clock.now_ms().saturating_sub(start);
        let out_of_attempts = attempt >= policy.max_attempts;
        let out_of_time = policy.max_elapsed_ms.is_some_and(|cap| elapsed >= cap);
        let cancelled = cancel.is_cancelled();
        let retryable = !out_of_attempts && !out_of_time && !cancelled;
        let backoff_ms =
            if retryable { Some(policy.next_backoff(&mut rng, &mut prev)) } else { None };
        records.push(AttemptRecord { attempt, cause: failure, duration_ms, backoff_ms });
        let record = records.last().expect("just pushed");
        observer(RetryEvent::AttemptFailed { record });
        if cancelled {
            return RetryResult { outcome: RetryOutcome::Cancelled, attempts: records };
        }
        if !retryable {
            let mut error = record.cause.to_string();
            if out_of_time && !out_of_attempts {
                error.push_str(" (retry budget exhausted)");
            }
            return RetryResult { outcome: RetryOutcome::Exhausted { error }, attempts: records };
        }
        let delay_ms = backoff_ms.unwrap_or_default();
        observer(RetryEvent::BackingOff { next_attempt: attempt + 1, delay_ms });
        if clock.sleep_ms(delay_ms, Some(cancel)) {
            return RetryResult { outcome: RetryOutcome::Cancelled, attempts: records };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn run<F>(policy: &RetryPolicy, clock: &VirtualClock, work: F) -> RetryResult
    where
        F: FnMut(&AttemptContext<'_>) -> Result<String, String>,
    {
        execute(policy, clock, 1, &CancelToken::new(), |_| {}, work)
    }

    #[test]
    fn succeeds_first_try_with_no_records() {
        let clock = VirtualClock::new();
        let r = run(&RetryPolicy::default(), &clock, |_| Ok("done".into()));
        assert_eq!(r.outcome, RetryOutcome::Success { output: "done".into(), attempts: 1 });
        assert!(r.attempts.is_empty());
    }

    #[test]
    fn flaky_work_recovers_and_history_matches_preview() {
        let clock = VirtualClock::new();
        let policy = RetryPolicy::default().with_seed(42).with_max_attempts(5);
        let r = run(&policy, &clock, |ctx| {
            if ctx.attempt < 3 {
                Err(format!("flaky {}", ctx.attempt))
            } else {
                Ok("recovered".into())
            }
        });
        assert_eq!(r.outcome, RetryOutcome::Success { output: "recovered".into(), attempts: 3 });
        let backoffs: Vec<u64> = r.attempts.iter().map(|a| a.backoff_ms.unwrap()).collect();
        assert_eq!(backoffs, policy.backoff_preview(1, 2));
        for b in &backoffs {
            assert!((policy.base_ms..=policy.cap_ms).contains(b), "backoff {b} out of range");
        }
        // the virtual clock slept exactly the sum of the backoffs
        assert_eq!(clock.now_ms(), backoffs.iter().sum::<u64>());
    }

    #[test]
    fn backoff_preview_is_deterministic_and_stream_decorrelated() {
        let policy = RetryPolicy::default().with_seed(7);
        assert_eq!(policy.backoff_preview(3, 4), policy.backoff_preview(3, 4));
        assert_ne!(policy.backoff_preview(3, 4), policy.backoff_preview(4, 4));
        // a different seed changes the schedule
        assert_ne!(policy.backoff_preview(3, 4), policy.with_seed(8).backoff_preview(3, 4));
    }

    #[test]
    fn panic_is_isolated_and_recorded() {
        let clock = VirtualClock::new();
        let policy = RetryPolicy::default().with_max_attempts(2);
        let r = run(&policy, &clock, |ctx| {
            if ctx.attempt == 1 {
                panic!("kaboom");
            }
            Ok("ok".into())
        });
        assert_eq!(r.outcome, RetryOutcome::Success { output: "ok".into(), attempts: 2 });
        assert_eq!(r.attempts[0].cause, FailureCause::Panic("kaboom".into()));
    }

    #[test]
    fn exhaustion_reports_last_cause() {
        let clock = VirtualClock::new();
        let policy = RetryPolicy::default().with_max_attempts(2);
        let r = run(&policy, &clock, |ctx| Err(format!("err {}", ctx.attempt)));
        assert_eq!(r.outcome, RetryOutcome::Exhausted { error: "err 2".into() });
        assert_eq!(r.attempts.len(), 2);
        assert!(r.attempts[1].backoff_ms.is_none(), "terminal attempt has no backoff");
    }

    #[test]
    fn timeout_discards_late_success() {
        let clock = VirtualClock::new();
        let policy = RetryPolicy::default().with_timeout(10).with_max_attempts(2);
        let mut calls = 0;
        let r = execute(
            &policy,
            &clock,
            0,
            &CancelToken::new(),
            |_| {},
            |_| {
                calls += 1;
                if calls == 1 {
                    clock.advance_ms(25); // overruns the 10 ms deadline
                }
                Ok("late".into())
            },
        );
        assert_eq!(r.outcome, RetryOutcome::Success { output: "late".into(), attempts: 2 });
        assert_eq!(r.attempts[0].cause, FailureCause::TimedOut { limit_ms: 10 });
    }

    #[test]
    fn max_elapsed_stops_retrying_early() {
        let clock = VirtualClock::new();
        let policy =
            RetryPolicy::default().with_max_attempts(100).with_backoff(10, 10).with_max_elapsed(25);
        let r = run(&policy, &clock, |_| Err("always".into()));
        let RetryOutcome::Exhausted { error } = &r.outcome else {
            panic!("expected exhaustion, got {:?}", r.outcome);
        };
        assert!(error.contains("retry budget exhausted"), "{error}");
        assert!(r.attempts.len() < 100, "elapsed cap must beat the attempt cap");
    }

    #[test]
    fn cancellation_during_backoff_resolves() {
        let clock = VirtualClock::new();
        let token = CancelToken::new();
        let policy = RetryPolicy::default().with_max_attempts(10);
        let t = token.clone();
        let r = execute(
            &policy,
            &clock,
            0,
            &token,
            |_| {},
            move |_| {
                t.cancel(); // cancelled mid-attempt; backoff sleep must notice
                Err("fail".into())
            },
        );
        assert_eq!(r.outcome, RetryOutcome::Cancelled);
        assert_eq!(r.attempts.len(), 1);
    }

    #[test]
    fn immediate_policy_has_zero_backoff() {
        assert_eq!(RetryPolicy::immediate(4).backoff_preview(9, 3), vec![0, 0, 0]);
    }

    #[test]
    fn zero_attempt_policies_clamp_to_one_run() {
        assert_eq!(RetryPolicy::immediate(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default().with_max_attempts(0).max_attempts, 1);
        // the clamped policy still runs the work exactly once
        let clock = VirtualClock::new();
        let mut calls = 0;
        let r = run(&RetryPolicy::default().with_max_attempts(0), &clock, |_| {
            calls += 1;
            Err("doomed".into())
        });
        assert_eq!(r.outcome, RetryOutcome::Exhausted { error: "doomed".into() });
        assert_eq!(calls, 1);
        assert_eq!(r.attempts.len(), 1);
        assert!(r.attempts[0].backoff_ms.is_none(), "a single-shot failure never backs off");
        assert_eq!(clock.now_ms(), 0, "no backoff sleep may consume logical time");
    }

    #[test]
    fn backoff_saturates_at_the_cap() {
        // base == cap pins every delay: uniform(base, prev * 3) can only
        // draw above the cap, so min(cap) flattens the whole schedule
        let flat = RetryPolicy::default().with_backoff(100, 100).with_seed(5);
        assert_eq!(flat.backoff_preview(2, 8), vec![100; 8]);
        // near u64::MAX the decorrelated-jitter growth (`prev * 3`) must
        // saturate instead of overflowing, and delays stay in [base, cap]
        let huge = RetryPolicy::default().with_backoff(u64::MAX / 2, u64::MAX).with_seed(5);
        for delay in huge.backoff_preview(2, 8) {
            assert!(delay >= u64::MAX / 2, "delay {delay} fell below base");
        }
    }

    #[test]
    fn cancellation_before_the_first_attempt_runs_nothing() {
        let clock = VirtualClock::new();
        let token = CancelToken::new();
        token.cancel();
        let mut calls = 0;
        let r = execute(
            &RetryPolicy::default(),
            &clock,
            0,
            &token,
            |_| {},
            |_| {
                calls += 1;
                Ok("never".into())
            },
        );
        assert_eq!(r.outcome, RetryOutcome::Cancelled);
        assert_eq!(calls, 0, "a pre-cancelled job must not run its closure");
        assert!(r.attempts.is_empty());
    }

    #[test]
    fn cancellation_between_attempts_skips_the_backoff_sleep() {
        let clock = VirtualClock::new();
        let token = CancelToken::new();
        let policy = RetryPolicy::default().with_max_attempts(10).with_backoff(500, 5_000);
        let t = token.clone();
        // cancel from the observer after the failure is recorded but
        // before the backoff sleep starts — the window between attempts
        let r = execute(
            &policy,
            &clock,
            0,
            &token,
            move |event| {
                if matches!(event, RetryEvent::AttemptFailed { .. }) {
                    t.cancel();
                }
            },
            |_| Err("fail".into()),
        );
        assert_eq!(r.outcome, RetryOutcome::Cancelled);
        assert_eq!(r.attempts.len(), 1);
        assert_eq!(clock.now_ms(), 0, "the pending backoff must be skipped, not slept");
    }
}
