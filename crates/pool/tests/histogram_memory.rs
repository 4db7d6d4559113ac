//! The latency histogram's heap under a serving-sized load: a million
//! nanosecond latencies of about 3 ms each must be kept exactly in at
//! most 4 bytes per sample (2 bytes of payload, plus the slack of
//! growing each bucket), where 8-byte samples took 8 MB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dwt_pool::histogram::LatencyHistogram;

/// Tracks the live heap bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the old and the new block both live, as a moving
        // reallocation holds them.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_million_3_ms_latencies_take_at_most_4_bytes_each() {
    const N: u64 = 1_000_000;
    // Latencies from 2.5 to 3.5 ms in nanoseconds, scattered by a
    // multiplicative hash.
    let sample = |i: u64| 2_500_000 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) % 1_000_000;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut h = LatencyHistogram::new();
    h.extend((0..N).map(sample));
    let (live, peak) = (LIVE.load(Ordering::Relaxed) - base, PEAK.load(Ordering::Relaxed) - base);
    assert!(live <= 4 * N as usize, "{N} samples hold {live} heap bytes");
    assert!(peak <= 6 * N as usize, "{N} samples peaked at {peak} heap bytes");

    // Every percentile still reads the exact nearest-rank sample.
    let mut sorted: Vec<u64> = (0..N).map(sample).collect();
    sorted.sort_unstable();
    for p in [0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
        let rank = ((p / 100.0 * N as f64).ceil() as usize).clamp(1, N as usize);
        assert_eq!(h.percentile(p), Some(sorted[rank - 1]), "p{p}");
    }
    assert_eq!(h.len(), N as usize);
    assert_eq!(h.max(), sorted.last().copied());
}
