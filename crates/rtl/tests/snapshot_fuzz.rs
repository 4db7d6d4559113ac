//! Arbitrary-byte properties for the snapshot decoders, and the
//! allocation budget of a clamped tick.
//!
//! Snapshot bytes come back from a durable store or a worker socket and
//! go through `from_bytes` and then [`Engine::restore`], for the
//! bit-sliced engines
//! ([`SlicedSnapshot`](dwt_rtl::sliced::SlicedSnapshot)) and the
//! event-driven simulator ([`Snapshot`](dwt_rtl::sim::Snapshot)) alike.
//! Whatever they hold — fully random buffers, random bytes behind a
//! valid tag, or a valid snapshot of a RAM netlist with a stuck-at, a
//! bit flip and a RAM upset armed, randomly mutated — the pair must end
//! in a typed error or in an engine that ticks cleanly: never a panic.
//! Decoding allocates no more than a small multiple of its input,
//! whatever length prefixes the bytes claim, and a tick with stuck-ats
//! armed allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dwt_rtl::builder::NetlistBuilder;
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::{Engine, PortableSnapshot};
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::jit::JitEngine;
use dwt_rtl::sim::Simulator;
use dwt_rtl::Error;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};

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

/// A RAM whose read data is registered, with one fault of each family
/// armed and an input staged, so every field of its snapshot is filled.
fn armed<E: Engine>() -> E {
    let mut b = NetlistBuilder::new();
    let addr = b.input("addr", 2).unwrap();
    let wdata = b.input("wdata", 6).unwrap();
    let wen = b.input("wen", 1).unwrap();
    let rdata = b.ram("m", 4, 6, &addr, &addr, &wdata, wen.bit(0)).unwrap();
    let q = b.register("q", &rdata).unwrap();
    b.output("q", &q).unwrap();
    let mut eng = E::from_netlist(b.finish().unwrap()).unwrap();
    eng.inject(&FaultSpec::StuckAt { net: "wdata".into(), bit: 0, value: true }).unwrap();
    eng.inject(&FaultSpec::BitFlip { register: "q".into(), bit: 1, cycle: 2 }).unwrap();
    eng.inject(&FaultSpec::RamUpset { ram: "m".into(), addr: 1, bit: 2, cycle: 1 }).unwrap();
    eng.set_input("wdata", 9).unwrap();
    eng.set_input("wen", -1).unwrap();
    eng
}

/// How a byte string ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `from_bytes` returned a typed error.
    Undecodable,
    /// `restore` refused the decoded snapshot.
    Refused,
    /// The snapshot restored and the engine ticked.
    Ran,
}

/// Feeds `bytes` through decode → restore → four ticks on a fresh
/// armed engine.
fn feed<E>(bytes: &[u8]) -> Result<Outcome, TestCaseError>
where
    E: Engine,
    E::Snapshot: PortableSnapshot + PartialEq,
{
    let (decoded, allocated) = allocated_by(|| E::Snapshot::from_bytes(bytes));
    prop_assert!(
        allocated <= budget(bytes.len()),
        "decoding {} bytes allocated {allocated}",
        bytes.len()
    );
    let snap = match decoded {
        Ok(snap) => snap,
        Err(Error::SnapshotDecode { .. }) => return Ok(Outcome::Undecodable),
        Err(e) => return Err(TestCaseError::fail(format!("untyped decode error {e:?}"))),
    };
    let mut eng = armed::<E>();
    let before = eng.snapshot();
    match eng.restore(&snap) {
        Ok(()) => {
            for _ in 0..4 {
                eng.set_input("addr", 1).unwrap();
                match eng.try_tick() {
                    // A restored event budget may be too small to settle.
                    Ok(()) | Err(Error::SimulationDiverged { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("untyped tick error {e:?}"))),
                }
                eng.peek("q").unwrap();
            }
            Ok(Outcome::Ran)
        }
        Err(Error::SnapshotDecode { .. } | Error::SnapshotMismatch { .. }) => {
            prop_assert_eq!(eng.snapshot(), before, "a refused restore changed the engine");
            Ok(Outcome::Refused)
        }
        Err(e) => Err(TestCaseError::fail(format!("untyped restore error {e:?}"))),
    }
}

/// Random overwrites of a valid snapshot: half of them land in the last
/// 160 bytes, where the staged words and fault lists sit.
fn mutations() -> impl Strategy<Value = Vec<(bool, usize, u8)>> {
    prop::collection::vec((any::<bool>(), any::<usize>(), any::<u8>()), 1..6)
}

/// Runs 256 mutated snapshots of `E` and checks that each outcome
/// occurs, so the property reaches decode, restore and the tick path.
fn mutated_snapshots<E>()
where
    E: Engine,
    E::Snapshot: PortableSnapshot + PartialEq,
{
    let valid = armed::<E>().snapshot().to_bytes();
    let seen = Cell::new([0usize; 3]);
    TestRunner::new(ProptestConfig::with_cases(256)).run(&mutations(), |edits| {
        let mut bytes = valid.clone();
        for (tail, pos, value) in edits {
            let pos =
                if tail { bytes.len() - 1 - pos % 160.min(bytes.len()) } else { pos % bytes.len() };
            bytes[pos] = value;
        }
        let outcome = feed::<E>(&bytes)?;
        let mut tally = seen.get();
        tally[outcome as usize] += 1;
        seen.set(tally);
        Ok(())
    });
    assert!(seen.get().iter().all(|&n| n > 0), "unreached outcome: {:?}", seen.get());
}

#[test]
fn mutated_compiled_snapshots_end_in_a_typed_error_or_a_clean_run() {
    mutated_snapshots::<CompiledEngine>();
}

#[test]
fn mutated_jit_snapshots_end_in_a_typed_error_or_a_clean_run() {
    mutated_snapshots::<JitEngine>();
}

#[test]
fn mutated_event_sim_snapshots_end_in_a_typed_error_or_a_clean_run() {
    mutated_snapshots::<Simulator>();
}

/// Ticks `E` with a stuck-at armed, and checks that once its staging
/// list has reached its working size a clamped tick allocates nothing.
fn clamped_ticks_allocate_nothing_on<E: Engine>() {
    let mut eng = armed::<E>();
    eng.inject(&FaultSpec::StuckAt { net: "q".into(), bit: 3, value: false }).unwrap();
    let tick = |eng: &mut E, k: i64| {
        eng.set_input("addr", k % 4 - 2).unwrap();
        eng.set_input("wdata", k % 32).unwrap();
        eng.try_tick().unwrap();
    };
    tick(&mut eng, 0);
    for k in 1..16 {
        let ((), allocated) = allocated_by(|| tick(&mut eng, k));
        assert_eq!(allocated, 0, "clamped tick {k} allocated {allocated} bytes");
    }
}

#[test]
fn clamped_ticks_allocate_nothing() {
    clamped_ticks_allocate_nothing_on::<CompiledEngine>();
    clamped_ticks_allocate_nothing_on::<JitEngine>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_restore_into_a_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        feed::<CompiledEngine>(&bytes)?;
        feed::<JitEngine>(&bytes)?;
        feed::<Simulator>(&bytes)?;
    }

    #[test]
    fn random_bytes_behind_a_valid_tag_are_typed_errors(
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = armed::<CompiledEngine>().snapshot().to_bytes();
        bytes.truncate(2);
        bytes.extend_from_slice(&body);
        feed::<CompiledEngine>(&bytes)?;
        feed::<JitEngine>(&bytes)?;
        let mut bytes = armed::<Simulator>().snapshot().to_bytes();
        bytes.truncate(2);
        bytes.extend_from_slice(&body);
        feed::<Simulator>(&bytes)?;
    }
}
