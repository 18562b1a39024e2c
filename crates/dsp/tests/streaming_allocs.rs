//! A streaming push allocates the columns it returns and the list holding
//! them, nothing per frame besides: the extractor keeps the per-frame
//! routine's buffers (FFT, filter energies, windowed frame) across pushes.
//!
//! One test in its own binary: the counting allocator below sees every
//! thread of the process, so nothing else may run beside it.

use ei_dsp::{DspConfig, MfccConfig, MfeConfig, SpectrogramConfig, StreamingExtractor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation calls so far, over all threads.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_push_allocates_only_its_columns() {
    let kws = MfccConfig { n_coefficients: 10, n_filters: 40, ..MfccConfig::default() };
    let configs = [
        DspConfig::Mfcc(kws),
        DspConfig::Mfe(MfeConfig::default()),
        DspConfig::Spectrogram(SpectrogramConfig::default()),
    ];
    // 0.5 s chunks at 16 kHz, as a live stream pushes them
    let audio: Vec<f32> = (0..48_000).map(|i| (i as f32 * 0.013).sin() * 0.4).collect();
    for config in configs {
        let mut extractor = StreamingExtractor::new(&config).expect("an audio block");
        let mut chunks = audio.chunks(8_000);
        // the first two pushes grow the sample buffer to a chunk plus the
        // partial frame a push leaves behind
        for chunk in chunks.by_ref().take(2) {
            drop(extractor.push(chunk).expect("pushes"));
        }
        for chunk in chunks {
            let before = CALLS.load(Ordering::SeqCst);
            let columns = extractor.push(chunk).expect("pushes");
            let calls = CALLS.load(Ordering::SeqCst) - before;
            assert!(columns.len() >= 49, "{}: {} columns", config.name(), columns.len());
            // one per column and one for the list; a frame used to cost ≈ 5
            assert!(
                calls <= columns.len() + 1,
                "{}: {calls} allocations for {} columns",
                config.name(),
                columns.len()
            );
        }
    }
}
