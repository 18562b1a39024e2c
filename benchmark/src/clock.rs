//! The clock the benchmark injects into the serving layer.
//!
//! `ei_faults::SystemClock::sleep_ms` really sleeps the serving layer's
//! *modeled* charges (`batch_overhead_ms + per_item_ms × n` per batch, the
//! modeled compile cost per miss), which would bury the real work under
//! fake sleeps; a `VirtualClock` would make deadlines unreal. `WallClock`
//! reads real elapsed time and makes every modeled charge free.

use ei_faults::{CancelToken, Clock};
use std::time::Instant;

#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    pub fn new() -> WallClock {
        WallClock { epoch: Instant::now() }
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Returns at once; `true` when `cancel` is already cancelled, as
    /// the trait asks of an interrupted sleep.
    fn sleep_ms(&self, _ms: u64, cancel: Option<&CancelToken>) -> bool {
        cancel.is_some_and(CancelToken::is_cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_does_not_block_and_honours_cancel() {
        let clock = WallClock::new();
        let start = Instant::now();
        assert!(!clock.sleep_ms(60_000, None));
        let token = CancelToken::new();
        assert!(!clock.sleep_ms(60_000, Some(&token)));
        token.cancel();
        assert!(clock.sleep_ms(60_000, Some(&token)));
        assert!(start.elapsed().as_secs() < 5, "a modeled sleep must cost nothing");
    }

    #[test]
    fn now_is_real_elapsed_time() {
        let clock = WallClock::new();
        let before = clock.now_ms();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(clock.now_ms() >= before + 15);
    }
}
