//! Dataset-wide parallel feature extraction.
//!
//! [`DspBlock`]s are deterministic and `Send + Sync`, so running one
//! block over many windows is embarrassingly parallel. The helpers here
//! fan windows out over an [`ei_par::ParPool`] and land every feature
//! vector by window index, so the output — including which error wins
//! when several windows are bad — is bitwise-identical to the serial
//! loop at any thread count.

use crate::block::DspBlock;
use crate::error::DspError;
use crate::Result;
use ei_par::ParPool;

/// Extracts features for every window through `block` on `pool`.
///
/// Each window is length-checked against `window_samples` and processed
/// in one task, exactly mirroring the serial check-then-process loop:
/// the *lowest-index* failure is returned, whether it is a length
/// mismatch or a processing error.
///
/// # Errors
///
/// Returns [`DspError::InputLengthMismatch`] for the first wrong-length
/// window, or the block's own error for the first failing window.
pub fn process_windows(
    pool: &ParPool,
    block: &dyn DspBlock,
    window_samples: usize,
    windows: &[Vec<f32>],
) -> Result<Vec<Vec<f32>>> {
    pool.par_map_result(windows, |window| {
        if window.len() != window_samples {
            return Err(DspError::InputLengthMismatch {
                expected: window_samples,
                actual: window.len(),
            });
        }
        block.process(window)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::DspConfig;
    use crate::blocks::{FramedBlock, MfeConfig};
    use ei_par::Parallelism;

    fn mfe() -> FramedBlock {
        FramedBlock::new(&DspConfig::Mfe(MfeConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_filters: 12,
            sample_rate_hz: 4_000,
            low_hz: 0.0,
            high_hz: 0.0,
        }))
        .expect("valid config")
    }

    fn windows(count: usize, len: usize) -> Vec<Vec<f32>> {
        (0..count).map(|w| (0..len).map(|i| ((w * 31 + i) as f32 * 0.01).sin()).collect()).collect()
    }

    #[test]
    fn parallel_extraction_matches_serial() {
        let block = mfe();
        let data = windows(24, 1_000);
        let serial: Vec<Vec<f32>> = data.iter().map(|w| block.process(w).unwrap()).collect();
        for threads in [1, 4] {
            let pool = ParPool::new(Parallelism::new(threads));
            let parallel = process_windows(&pool, &block, 1_000, &data).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn lowest_index_length_mismatch_wins() {
        let block = mfe();
        let mut data = windows(16, 1_000);
        data[3] = vec![0.0; 10];
        data[9] = vec![0.0; 10];
        let pool = ParPool::new(Parallelism::new(4));
        let err = process_windows(&pool, &block, 1_000, &data).unwrap_err();
        assert!(
            matches!(err, DspError::InputLengthMismatch { expected: 1_000, actual: 10 }),
            "got {err:?}"
        );
    }
}
