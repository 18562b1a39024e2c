#![warn(missing_docs)]

//! Fault-tolerance primitives and a deterministic fault-injection harness.
//!
//! The paper's platform runs ingestion, DSP, training and deployment builds
//! as queued jobs on elastic cloud compute (§4.10). Production job farms
//! must survive worker crashes, slow stages and malformed uploads, and —
//! crucially — those failure modes must be *testable* without flaky
//! wall-clock sleeps. This crate provides the shared substrate:
//!
//! * [`clock`] — a [`Clock`] abstraction with a real [`SystemClock`] and a
//!   deterministic [`VirtualClock`] whose sleeps advance logical time
//!   instantly;
//! * [`cancel`] — a cooperative [`CancelToken`] that resolves sleeping
//!   waiters promptly;
//! * [`retry`] — [`RetryPolicy`] (exponential backoff with decorrelated
//!   jitter from a seeded RNG, max-attempt / max-elapsed caps, per-attempt
//!   timeouts), the [`AttemptRecord`] history entry, and the generic
//!   [`retry::execute`] loop with panic isolation via `catch_unwind`;
//! * [`plan`] — a scripted [`FaultPlan`] (error-on-attempt-N, panic,
//!   sleep-past-deadline, flaky-until-K) that wraps any stage closure so
//!   tests can inject exact failure sequences;
//! * [`sync`] — poison-recovering `lock` / `wait` / `wait_timeout`, the
//!   one lock idiom every crate above this one shares.
//!
//! `ei-platform`'s job scheduler and `ei-core`'s workflow runner are both
//! built on [`retry::execute`], so they share one failure model.

pub mod cancel;
pub mod clock;
pub mod plan;
pub mod retry;
pub mod sync;

pub use cancel::CancelToken;
pub use clock::{Clock, SystemClock, VirtualClock};
pub use plan::{Fault, FaultPlan};
pub use retry::{
    execute, AttemptContext, AttemptRecord, FailureCause, RetryEvent, RetryOutcome, RetryPolicy,
    RetryResult,
};
