//! Arbitrary-byte properties for the decoders the coordinator trusts.
//!
//! The codec suites corrupt or truncate *valid* frames and records.
//! These feed [`Frame::decode`] and [`RunStore::load`] bytes nobody
//! encoded: fully random buffers, and random payloads inside a valid
//! envelope (magic, version, length and checksum all correct), so the
//! payload parsers run on garbage too. Each decoder must return a
//! typed [`PartitionError`] — never panic — and allocate no more than a
//! small multiple of its input, whatever length prefixes the garbage
//! claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use dwt_partition::store::{STORE_MAGIC, STORE_VERSION};
use dwt_partition::wire::{HEADER_LEN, MAGIC, VERSION};
use dwt_partition::{crc32, fnv1a, hash_seed, Frame, PartitionError, RunStore};
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

/// The allocation budget for decoding `len` input bytes: a small
/// multiple of the input, plus room for one error message.
fn budget(len: usize) -> usize {
    8 * len + 4096
}

/// `payload` as frame type `kind` inside a valid envelope.
fn enveloped(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.push(VERSION);
    bytes.push(kind);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    assert_eq!(bytes.len(), HEADER_LEN + payload.len());
    let checksum = fnv1a(hash_seed(), &bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// `sections` as a barrier record: valid magic and version, each
/// section length-prefixed and CRC-framed.
fn record(sections: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = STORE_MAGIC.to_vec();
    bytes.push(STORE_VERSION);
    for section in sections {
        bytes.extend_from_slice(&(section.len() as u32).to_le_bytes());
        bytes.extend_from_slice(section);
        bytes.extend_from_slice(&crc32(section).to_le_bytes());
    }
    bytes
}

fn check_frame(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, bytes_allocated) = allocated_by(|| Frame::decode(bytes));
    prop_assert!(
        bytes_allocated <= budget(bytes.len()),
        "decoding {} bytes allocated {bytes_allocated}",
        bytes.len()
    );
    if let Err(e) = decoded {
        prop_assert!(matches!(e, PartitionError::Protocol { .. }), "untyped error {e:?}");
    }
    Ok(())
}

fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwt-fuzz-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("barrier-0000000000000000.dwtb")
}

fn check_load(tag: &str, bytes: &[u8]) -> Result<(), TestCaseError> {
    let path = scratch_file(tag);
    std::fs::write(&path, bytes).expect("write record");
    let store = RunStore::open(path.parent().expect("parent")).expect("store");
    let (loaded, bytes_allocated) = allocated_by(|| store.load(&path));
    let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    prop_assert!(
        bytes_allocated <= budget(bytes.len()),
        "loading {} bytes allocated {bytes_allocated}",
        bytes.len()
    );
    if let Err(e) = loaded {
        prop_assert!(matches!(e, PartitionError::Store { .. }), "untyped error {e:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_decode_into_a_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_frame(&bytes)?;
    }

    #[test]
    fn random_payloads_in_a_valid_envelope_are_typed_errors(
        kind in 0u8..12,
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_frame(&enveloped(kind, &payload))?;
    }

    #[test]
    fn huge_length_prefixes_allocate_nothing_they_cannot_back(
        kind in 1u8..10,
        prefix in prop::collection::vec(any::<u8>(), 0..64),
        claim in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A plausible prefix, then a length field claiming up to 4 GiB.
        let mut payload = prefix;
        payload.extend_from_slice(&claim.to_le_bytes());
        payload.extend_from_slice(&tail);
        check_frame(&enveloped(kind, &payload))?;
    }

    #[test]
    fn a_file_of_random_bytes_never_loads_into_a_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_load("raw", &bytes)?;
    }

    #[test]
    fn random_sections_in_a_valid_record_are_typed_errors(
        meta in prop::collection::vec(any::<u8>(), 0..40),
        workers in prop::collection::vec(any::<u8>(), 0..256),
        outputs in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        check_load("sections", &record(&[meta, workers, outputs]))?;
    }
}
