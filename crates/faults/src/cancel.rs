//! Cooperative cancellation.

use crate::sync;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A cooperative cancellation token shared between a job's submitter and
/// its worker.
///
/// Cancellation is *cooperative*: long-running stage closures receive the
/// token and are expected to poll [`CancelToken::is_cancelled`] at natural
/// checkpoints. Sleepers parked in [`CancelToken::wait_timeout_ms`] (the
/// backoff path) are woken promptly by [`CancelToken::cancel`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    lock: Mutex<()>,
    cond: Condvar,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation and wakes any waiter parked in
    /// [`CancelToken::wait_timeout_ms`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
        let _guard = sync::lock(&self.inner.lock);
        self.inner.cond.notify_all();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Blocks for up to `ms` milliseconds of wall-clock time, returning
    /// early (with `true`) if the token is cancelled.
    pub fn wait_timeout_ms(&self, ms: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(ms);
        let mut guard = sync::lock(&self.inner.lock);
        loop {
            if self.is_cancelled() {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            guard = sync::wait_timeout(&self.inner.cond, guard, deadline - now).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clear_and_cancels() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let token = CancelToken::new();
        let other = token.clone();
        token.cancel();
        assert!(other.is_cancelled());
    }

    #[test]
    fn wait_resolves_promptly_on_cancel() {
        let token = CancelToken::new();
        let waiter = token.clone();
        let start = std::time::Instant::now();
        let handle = std::thread::spawn(move || waiter.wait_timeout_ms(60_000));
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
        assert!(handle.join().unwrap(), "waiter must observe cancellation");
        assert!(start.elapsed() < Duration::from_secs(10), "must not sleep the full timeout");
    }

    #[test]
    fn wait_times_out_without_cancel() {
        let token = CancelToken::new();
        assert!(!token.wait_timeout_ms(1));
    }
}
