//! Arbitrary-byte properties for the PGM reader.
//!
//! [`read_pgm`] reads files a user hands the experiments, so it must
//! survive any bytes: fully random buffers, and random bodies behind a
//! well-formed header whose dimensions may claim far more pixels than
//! follow. Every input must give `Ok` or a typed [`PgmError`] — never a
//! panic — and allocate no more than a small multiple of its length,
//! whatever the header claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dwt_imaging::pgm::{read_pgm, PgmError};
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

/// The allocation budget for reading `len` input bytes: a small
/// multiple of the input (a pixel is one `i32` per byte or token),
/// plus the reader's fixed 8 KiB buffer and room for an error message.
fn budget(len: usize) -> usize {
    16 * len + 16 * 1024
}

fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (read, bytes_allocated) = allocated_by(|| read_pgm(bytes));
    prop_assert!(
        bytes_allocated <= budget(bytes.len()),
        "reading {} bytes allocated {bytes_allocated}",
        bytes.len()
    );
    match read {
        Ok(image) => {
            let (rows, cols) = image.dims();
            prop_assert!(rows * cols <= bytes.len(), "{rows} x {cols} pixels from {}", bytes.len());
            prop_assert!(image.iter().all(|v| (-128..=127).contains(v)));
        }
        // A slice never fails to read: its only I/O error is running
        // out of bytes.
        Err(PgmError::Io(e)) => {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        Err(PgmError::Format(_)) => {}
        Err(e) => prop_assert!(false, "untyped error {e:?}"),
    }
    Ok(())
}

/// A P2 or P5 header claiming `cols x rows` pixels at `maxval`, then
/// `body`.
fn with_header(ascii: bool, cols: usize, rows: usize, maxval: usize, body: &[u8]) -> Vec<u8> {
    let magic = if ascii { "P2" } else { "P5" };
    let mut bytes = format!("{magic}\n# fuzz\n{cols} {rows}\n{maxval}\n").into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Header dimensions: small ones the body can fill, and claims up to
/// `usize::MAX` it cannot.
fn dimension() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..6, any::<u32>().prop_map(|v| v as usize), Just(usize::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_read_into_a_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check(&bytes)?;
    }

    #[test]
    fn random_bodies_behind_a_valid_magic_are_typed_errors(
        ascii in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = if ascii { b"P2".to_vec() } else { b"P5".to_vec() };
        bytes.extend_from_slice(&body);
        check(&bytes)?;
    }

    #[test]
    fn header_claims_allocate_nothing_the_body_cannot_back(
        ascii in any::<bool>(),
        cols in dimension(),
        rows in dimension(),
        maxval in prop_oneof![Just(255usize), 0usize..300],
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        check(&with_header(ascii, cols, rows, maxval, &body))?;
    }

    #[test]
    fn ascii_bodies_of_random_tokens_are_typed_errors(
        cols in 1usize..6,
        rows in 1usize..6,
        tokens in prop::collection::vec(
            prop_oneof![
                any::<i32>().prop_map(|v| v.to_string()),
                (0u8..=255).prop_map(|v| v.to_string()),
                Just("#".to_owned()),
                Just("x".to_owned()),
            ],
            0..40,
        ),
    ) {
        check(&with_header(true, cols, rows, 255, tokens.join(" ").as_bytes()))?;
    }
}

#[test]
fn a_valid_image_still_reads() {
    let bytes = with_header(false, 3, 2, 255, &[0, 128, 255, 1, 2, 3]);
    let image = read_pgm(bytes.as_slice()).expect("a valid P5 image");
    assert_eq!(image.dims(), (2, 3));
    assert_eq!(image.iter().copied().collect::<Vec<i32>>(), [-128, 0, 127, -127, -126, -125]);
}
