//! `LatencyHistogram` percentile invariants, property-tested.
//!
//! The campaign binaries gate on p50/p99 latencies, so the nearest-rank
//! implementation must agree with the textbook definition: sort the
//! samples, take element `ceil(p/100 * n)` (1-indexed). For random
//! sample sets the histogram's `p50`/`p99`/`percentile` must match that
//! oracle exactly, and the edge cases the campaigns actually hit —
//! empty histograms (no tiles committed) and single samples — must
//! behave as documented. The histogram counts small samples per value
//! and keeps large ones, so the oracle must also hold for samples on
//! both sides of that cutoff, percentiles must not copy the samples,
//! and a million small samples must leave the heap bounded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use dwt_bench::campaign::LatencyHistogram;

/// Counts the bytes this thread allocates, so parallel tests do not
/// pollute each other's figures.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + new_size));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Textbook nearest-rank percentile: smallest sorted element with at
/// least `p%` of the distribution at or below it.
fn oracle(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[test]
fn empty_histogram_has_no_percentiles() {
    let h = LatencyHistogram::new();
    assert!(h.is_empty());
    assert_eq!(h.p50(), None);
    assert_eq!(h.p99(), None);
    assert_eq!(h.mean(), None);
    assert_eq!(h.max(), None);
}

#[test]
fn a_million_small_samples_leave_the_heap_bounded() {
    // Retry counts and cycle counts: a million of them must cost what a
    // handful costs, not 8 MB of kept samples.
    let (h, allocated) = allocated_by(|| {
        let mut h = LatencyHistogram::new();
        h.extend((0..1_000_000u64).map(|i| (i * 2_654_435_761) % 4000));
        h.extend((0..1_000_000u64).map(|i| 1 + i % 3));
        h
    });
    assert!(allocated <= 128 * 1024, "2e6 small samples allocated {allocated} bytes");
    assert_eq!(h.len(), 2_000_000);
    assert_eq!(h.percentile(100.0), Some(3999));
    assert_eq!(h.max(), Some(3999));
    let (p50, allocated) = allocated_by(|| h.p50());
    assert_eq!(allocated, 0, "a percentile must not copy the samples");
    assert_eq!(p50, Some(3));
}

#[test]
fn single_sample_is_every_percentile() {
    let mut h = LatencyHistogram::new();
    h.record(37);
    assert_eq!(h.len(), 1);
    assert_eq!(h.p50(), Some(37));
    assert_eq!(h.p99(), Some(37));
    assert_eq!(h.percentile(1.0), Some(37));
    assert_eq!(h.percentile(100.0), Some(37));
    assert_eq!(h.max(), Some(37));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn p50_and_p99_match_the_sort_oracle(samples in prop::collection::vec(0u64..100_000, 0..200)) {
        let mut h = LatencyHistogram::new();
        h.extend(samples.iter().copied());
        prop_assert_eq!(h.len(), samples.len());
        prop_assert_eq!(h.p50(), oracle(&samples, 50.0));
        prop_assert_eq!(h.p99(), oracle(&samples, 99.0));
    }

    #[test]
    fn arbitrary_percentiles_match_the_sort_oracle(
        samples in prop::collection::vec(0u64..100_000, 1..100),
        p in 1u32..=100,
    ) {
        let mut h = LatencyHistogram::new();
        h.extend(samples.iter().copied());
        let p = f64::from(p);
        prop_assert_eq!(h.percentile(p), oracle(&samples, p));
        // A percentile is always a recorded sample, bounded by the max.
        let v = h.percentile(p).unwrap();
        prop_assert!(samples.contains(&v));
        prop_assert!(v <= h.max().unwrap());
    }

    #[test]
    fn samples_straddling_the_counting_cutoff_match_the_sort_oracle(
        samples in prop::collection::vec(
            prop_oneof![0u64..8192, 3_000u64..5_000, 1u64 << 20..1u64 << 40, any::<u64>()],
            1..300,
        ),
        milli_ps in prop::collection::vec(1u32..=100_000, 8),
    ) {
        let mut h = LatencyHistogram::new();
        h.extend(samples.iter().copied());
        prop_assert_eq!(h.len(), samples.len());
        prop_assert_eq!(h.max(), samples.iter().copied().max());
        let ps = milli_ps.into_iter().map(|m| f64::from(m) / 1000.0);
        for p in ps.chain([100.0, 50.0, 99.0]) {
            let (v, allocated) = allocated_by(|| h.percentile(p));
            prop_assert_eq!(v, oracle(&samples, p), "p = {}", p);
            prop_assert_eq!(allocated, 0);
        }
    }

    #[test]
    fn percentiles_are_monotone_in_p(samples in prop::collection::vec(0u64..100_000, 1..100)) {
        let mut h = LatencyHistogram::new();
        h.extend(samples.iter().copied());
        let mut prev = 0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            prop_assert!(v >= prev);
            prev = v;
        }
    }
}
