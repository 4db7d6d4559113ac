//! Arbitrary-byte properties for the Rice decoder.
//!
//! [`rice::decode`] reads a coefficient stream and a count it is told
//! to expect, and neither can be trusted: random bytes with any `len`,
//! `usize::MAX` included, must give `Ok` with exactly `len` values or a
//! typed [`Error`] — never a panic — and allocate no more than a small
//! multiple of the input, however large `len` is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dwt_codec::rice;
use dwt_codec::Error;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// The allocation budget for decoding `len` input bytes. Every
/// coefficient costs at least one bit, so an input can hold eight
/// 8-byte coefficients per byte: 64 bytes of output per input byte,
/// plus room for an error.
fn budget(len: usize) -> usize {
    64 * len + 1024
}

fn check(bytes: &[u8], len: usize) -> Result<(), TestCaseError> {
    let (decoded, bytes_allocated) = allocated_by(|| rice::decode(bytes, len));
    prop_assert!(
        bytes_allocated <= budget(bytes.len()),
        "decoding {} bytes as {len} values allocated {bytes_allocated}",
        bytes.len()
    );
    match decoded {
        Ok(values) => prop_assert_eq!(values.len(), len),
        Err(e) => prop_assert!(matches!(e, Error::Truncated), "untyped error {e:?}"),
    }
    Ok(())
}

/// Claimed lengths: ones the input may fill, and ones it cannot.
fn claimed_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..64, 0usize..8192, any::<usize>(), Just(usize::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_decode_into_a_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        len in claimed_len(),
    ) {
        check(&bytes, len)?;
    }

    #[test]
    fn a_valid_stream_cut_short_or_overclaimed_is_a_typed_error(
        values in prop::collection::vec(any::<i64>(), 1..64),
        cut in any::<usize>(),
        extra in claimed_len(),
    ) {
        let bytes = rice::encode(&values);
        prop_assert_eq!(rice::decode(&bytes, values.len()), Ok(values.clone()));
        check(&bytes[..cut % bytes.len()], values.len())?;
        check(&bytes, values.len().saturating_add(extra))?;
    }
}

#[test]
fn an_empty_stream_of_usize_max_values_is_truncated() {
    assert_eq!(rice::decode(&[], usize::MAX), Err(Error::Truncated));
    assert_eq!(rice::decode(&[], 0), Ok(Vec::new()));
}
