//! Poison-recovering lock and condition-variable helpers.
//!
//! A thread that panics while holding a `Mutex` poisons it. The
//! schedulers, pools, caches and registries in this workspace isolate
//! panics (a failing job or request must not take its neighbours down),
//! so every lock site recovers the guard instead of propagating the
//! poison. These three functions are that idiom, written once.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Locks `m`, recovering the guard when a panicking holder poisoned it.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cond` until notified, recovering the reacquired guard from
/// poisoning.
#[inline]
pub fn wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cond` for at most `timeout`, recovering the reacquired
/// guard from poisoning.
#[inline]
pub fn wait_timeout<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cond.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn helpers_recover_a_poisoned_mutex() {
        let shared = Arc::new((Mutex::new(7), Condvar::new()));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.0.is_poisoned());
        let (guard, timed_out) = wait_timeout(&shared.1, lock(&shared.0), Duration::from_millis(1));
        assert_eq!((*guard, timed_out.timed_out()), (7, true));
    }
}
