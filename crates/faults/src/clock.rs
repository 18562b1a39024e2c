//! Logical time: a clock abstraction with a deterministic mock.
//!
//! All fault-tolerance machinery (backoff sleeps, per-attempt deadlines,
//! elapsed-time caps) reads time through [`Clock`], so tests can script
//! exact timing with a [`VirtualClock`] and never sleep for real.

use crate::cancel::CancelToken;
use crate::sync;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A source of monotonic logical milliseconds.
pub trait Clock: Send + Sync {
    /// Monotonic milliseconds since some fixed epoch.
    fn now_ms(&self) -> u64;

    /// Sleeps for `ms` logical milliseconds.
    ///
    /// If `cancel` is provided the sleep resolves promptly on
    /// cancellation; returns `true` when the sleep was interrupted (or the
    /// token was already cancelled).
    fn sleep_ms(&self, ms: u64, cancel: Option<&CancelToken>) -> bool;

    /// Parks the caller until logical time moves past `from_ms`, waiting at
    /// most `real_cap_ms` wall milliseconds, and returns the current time.
    ///
    /// Unlike [`Clock::sleep_ms`] this *never advances* logical time — it
    /// is the primitive for pollers (watchdogs, status waiters) that want
    /// to observe time another party drives. On the real clock it is a
    /// plain bounded sleep; a [`VirtualClock`] wakes the caller the moment
    /// [`VirtualClock::advance_ms`] moves time, so polling loops built on
    /// it are wall-clock independent under virtual time.
    fn wait_for_tick_ms(&self, from_ms: u64, real_cap_ms: u64) -> u64 {
        if self.now_ms() == from_ms {
            std::thread::sleep(Duration::from_millis(real_cap_ms));
        }
        self.now_ms()
    }
}

/// The real wall clock.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// Creates a wall clock with its epoch at construction time.
    pub fn new() -> SystemClock {
        SystemClock { epoch: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn sleep_ms(&self, ms: u64, cancel: Option<&CancelToken>) -> bool {
        match cancel {
            Some(token) => token.wait_timeout_ms(ms),
            None => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                false
            }
        }
    }
}

/// A deterministic mocked clock.
///
/// `sleep_ms` advances logical time instantly (jump-to-deadline
/// semantics) and never blocks, so a scripted fault that "sleeps past a
/// deadline" runs in microseconds of wall time while the fault-tolerance
/// layer observes a genuine deadline overrun. Tests may also move time
/// explicitly with [`VirtualClock::advance_ms`].
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
    tick_lock: Mutex<()>,
    tick_cond: Condvar,
}

impl VirtualClock {
    /// Creates a virtual clock at logical time zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Creates a shared handle, the form the schedulers consume.
    pub fn shared() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    /// Moves logical time forward by `ms` and wakes any
    /// [`Clock::wait_for_tick_ms`] waiters.
    pub fn advance_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
        let _guard = sync::lock(&self.tick_lock);
        self.tick_cond.notify_all();
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_ms(&self, ms: u64, cancel: Option<&CancelToken>) -> bool {
        if let Some(token) = cancel {
            if token.is_cancelled() {
                return true;
            }
        }
        self.advance_ms(ms);
        cancel.is_some_and(CancelToken::is_cancelled)
    }

    fn wait_for_tick_ms(&self, from_ms: u64, real_cap_ms: u64) -> u64 {
        let mut guard = sync::lock(&self.tick_lock);
        let deadline = Instant::now() + Duration::from_millis(real_cap_ms);
        while self.now_ms() == from_ms {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            guard = sync::wait_timeout(&self.tick_cond, guard, left).0;
        }
        self.now_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_without_blocking() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_ms(), 0);
        let start = Instant::now();
        assert!(!clock.sleep_ms(3_600_000, None));
        assert_eq!(clock.now_ms(), 3_600_000);
        assert!(start.elapsed().as_millis() < 1_000, "virtual sleep must not block");
        clock.advance_ms(5);
        assert_eq!(clock.now_ms(), 3_600_005);
    }

    #[test]
    fn virtual_sleep_reports_pre_cancelled_token() {
        let clock = VirtualClock::new();
        let token = CancelToken::new();
        token.cancel();
        assert!(clock.sleep_ms(10, Some(&token)));
        // a pre-cancelled sleep does not consume logical time
        assert_eq!(clock.now_ms(), 0);
    }

    #[test]
    fn wait_for_tick_wakes_on_virtual_advance() {
        let clock = VirtualClock::shared();
        let waiter = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || clock.wait_for_tick_ms(0, 30_000))
        };
        // give the waiter a moment to park, then advance: it must observe
        // the tick long before the 30 s real cap
        std::thread::sleep(Duration::from_millis(5));
        let started = Instant::now();
        clock.advance_ms(7);
        assert_eq!(waiter.join().unwrap(), 7);
        assert!(started.elapsed().as_secs() < 5, "waiter must wake on advance, not the cap");
        // a passive wait never advances logical time itself
        assert_eq!(clock.wait_for_tick_ms(7, 1), 7);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_ms();
        clock.sleep_ms(2, None);
        assert!(clock.now_ms() >= a);
    }
}
