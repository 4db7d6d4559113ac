//! The unified execution surface over simulation backends.
//!
//! Every layer above the RTL substrate — the recovery executor, the
//! multi-lane pool, the campaign harnesses — drives a netlist through
//! the same small verbs: stage inputs, tick the clock, sample outputs,
//! checkpoint and roll back, inject faults. [`Engine`] names exactly
//! that surface so those layers can be generic over *how* a cycle is
//! evaluated:
//!
//! * [`sim::Simulator`](crate::sim::Simulator) — the event-driven
//!   backend, unit-delay with glitch modelling and activity statistics
//!   (the power-estimation substrate of the paper reproduction);
//! * [`compile::CompiledEngine`](crate::compile::CompiledEngine) — the
//!   levelized, 64-way bit-sliced backend, which trades the glitch
//!   model away for throughput.
//!
//! Backends self-describe through [`EngineCaps`] so callers can check
//! at runtime which fidelity features (activity stats, divergence
//! detection, lane width, native codegen, fault families) are actually
//! present. [`Backend`] names the three backends and is the single
//! selection API: parse it from a `--backend` flag, then either
//! [`Backend::build`] a boxed engine or [`Backend::dispatch`] a
//! generic runner on the concrete type.

use std::sync::Arc;

use crate::fault::FaultSpec;
use crate::netlist::Netlist;
use crate::{Error, Result};

/// Static capability description of a simulation backend.
///
/// Obtained from [`Engine::caps`]; lets generic code (and reports)
/// distinguish backends without naming concrete types. This is the
/// single capability gate: callers check `lanes` before lane-wide I/O,
/// the `fault_*` family flags before arming a fault class, and
/// `native_codegen` to know whether a `rustc`-compiled kernel (not an
/// interpreter) is on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCaps {
    /// Short backend name for reports ("event-driven", "compiled",
    /// "jit").
    pub backend: &'static str,
    /// Independent sample streams advanced per tick (1 for the scalar
    /// event-driven simulator, 64 for the bit-sliced interpreter, 256
    /// for the jit backend).
    pub lanes: usize,
    /// Whether the backend records switching-activity statistics.
    pub activity_stats: bool,
    /// Whether combinational settling models glitches (unit-delay
    /// event propagation) rather than a single functional pass.
    pub glitch_model: bool,
    /// Whether runaway combinational activity is detected and reported
    /// as [`Error::SimulationDiverged`](crate::Error::SimulationDiverged).
    pub divergence_detection: bool,
    /// Whether cycles execute through natively compiled code (codegen →
    /// `rustc` → loaded kernel) rather than an interpreter loop.
    pub native_codegen: bool,
    /// Whether [`FaultSpec::StuckAt`] faults are supported.
    pub fault_stuck_at: bool,
    /// Whether [`FaultSpec::BitFlip`] register faults are supported.
    pub fault_bit_flip: bool,
    /// Whether [`FaultSpec::RamUpset`] array faults are supported.
    pub fault_ram_upset: bool,
}

/// A snapshot that can cross address spaces: encodable to a
/// self-contained byte string and decodable back, bit-exactly.
///
/// The partition layer's process-isolated emulation mode is the
/// customer: worker processes ship their engine snapshot to the
/// supervisor at every barrier, the supervisor parks it in a durable
/// on-disk store, and a respawned worker is re-seeded from those same
/// bytes. Round-tripping must be identity (`from_bytes(to_bytes(s)) ==
/// s`), so a restore from decoded bytes resumes execution exactly like
/// a restore from the original in-memory snapshot.
///
/// Encodings are backend-tagged and versioned; decoding bytes produced
/// by a different backend, a truncated record, or corrupt data yields
/// [`Error::SnapshotDecode`](crate::Error::SnapshotDecode), never a
/// panic. Shape compatibility with the restoring engine's netlist is
/// *not* checked here — [`Engine::restore`] performs that check and
/// reports [`Error::SnapshotMismatch`](crate::Error::SnapshotMismatch).
pub trait PortableSnapshot: Sized {
    /// Encodes the complete snapshot as a self-contained byte string.
    fn to_bytes(&self) -> Vec<u8>;

    /// Decodes a byte string produced by [`to_bytes`](PortableSnapshot::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotDecode`](crate::Error::SnapshotDecode)
    /// for truncated, corrupted, wrong-backend or wrong-version bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self>;
}

/// A cycle-accurate netlist execution backend.
///
/// The trait captures the contract the event-driven
/// [`Simulator`](crate::sim::Simulator) always had: inputs staged with
/// [`set_input`](Engine::set_input) take effect at the next
/// [`try_tick`](Engine::try_tick) (or immediately after
/// [`try_settle`](Engine::try_settle)); outputs read back settled
/// values; snapshots capture the complete architectural state
/// (registers, memories, staged inputs, armed faults) and restoring
/// one resumes execution bit-exactly.
///
/// Backends with more than one lane (see [`EngineCaps::lanes`])
/// broadcast scalar `set_input` values to every lane and report lane 0
/// from `peek`, so scalar code behaves identically on every backend.
///
/// An engine holds its netlist behind an [`Arc`], and whatever it
/// derives from the netlist alone (a compiled program, a native kernel)
/// is shared the same way, so a clone copies only the architectural
/// state: replicating one power-on engine across N lanes builds the
/// datapath once. A clone runs independently of its original from the
/// moment it is taken.
pub trait Engine: Sized + Clone + std::fmt::Debug {
    /// Opaque architectural-state checkpoint for this backend.
    type Snapshot: Clone + std::fmt::Debug;

    /// Builds an engine for a validated netlist, with all state at
    /// power-on defaults (registers and memories zeroed, combinational
    /// logic settled). Pass an `Arc<Netlist>` to share one netlist
    /// between engines; a plain `Netlist` is moved behind a new `Arc`.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation/simulation errors.
    fn from_netlist(netlist: impl Into<Arc<Netlist>>) -> Result<Self>;

    /// The netlist under execution, shared with every clone of the
    /// engine and every engine built from the same `Arc`.
    fn netlist(&self) -> &Arc<Netlist>;

    /// Capability flags of this backend.
    fn caps(&self) -> EngineCaps;

    /// Stages a value on an input port; it is applied by the next
    /// [`try_tick`](Engine::try_tick) or
    /// [`try_settle`](Engine::try_settle). Multi-lane backends
    /// broadcast the value to every lane.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ports, non-input ports, or values
    /// outside the port's two's-complement range.
    fn set_input(&mut self, name: &str, value: i64) -> Result<()>;

    /// Advances one clock cycle: registers capture, staged inputs
    /// apply, combinational logic settles.
    ///
    /// # Errors
    ///
    /// Backend-specific; the event-driven simulator reports
    /// [`Error::SimulationDiverged`](crate::Error::SimulationDiverged)
    /// when settling exceeds the event cap.
    fn try_tick(&mut self) -> Result<()>;

    /// Applies staged inputs and settles combinational logic without
    /// advancing the clock.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`try_tick`](Engine::try_tick).
    fn try_settle(&mut self) -> Result<()>;

    /// Reads the settled value of a port (lane 0 on multi-lane
    /// backends), sign-extended from the port width.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ports.
    fn peek(&self, name: &str) -> Result<i64>;

    /// Captures the complete architectural state.
    fn snapshot(&self) -> Self::Snapshot;

    /// Restores a snapshot previously taken from a compatible engine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotMismatch`](crate::Error::SnapshotMismatch)
    /// when the snapshot belongs to a different netlist shape.
    fn restore(&mut self, snapshot: &Self::Snapshot) -> Result<()>;

    /// Arms a fault. Stuck-at faults take effect immediately;
    /// transient faults fire at their scheduled cycle. Multi-lane
    /// backends apply faults to every lane.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FaultTarget`](crate::Error::FaultTarget) when
    /// the spec does not resolve against the netlist.
    fn inject(&mut self, spec: &FaultSpec) -> Result<()>;

    /// Removes all armed faults (stuck-at clamps and pending
    /// transients). See backend docs for how already-forced values
    /// decay afterwards.
    fn clear_faults(&mut self);

    /// Clock cycles executed since power-on (or since the restored
    /// snapshot was taken).
    fn cycle(&self) -> u64;

    /// Bounds the per-cycle settling work used for divergence
    /// detection. A no-op on backends without an event loop
    /// ([`EngineCaps::divergence_detection`] is `false`).
    fn set_event_cap(&mut self, cap: u64);

    /// Stages per-lane values on an input port: `values[i]` goes to
    /// lane `i`, and when fewer than [`EngineCaps::lanes`] values are
    /// given the remaining lanes keep their previously staged or
    /// settled value.
    ///
    /// Gated by [`EngineCaps::lanes`] > 1; the default implementation
    /// (used by single-lane backends) returns
    /// [`Error::Unsupported`](crate::Error::Unsupported).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`](crate::Error::Unsupported) on single-lane
    /// backends; otherwise the same failure modes as
    /// [`set_input`](Engine::set_input), plus an error when `values` is
    /// empty or longer than the lane count.
    fn set_input_lanes(&mut self, name: &str, values: &[i64]) -> Result<()> {
        let _ = values;
        let _ = name;
        Err(Error::Unsupported {
            backend: self.caps().backend.to_owned(),
            what: "lane I/O (set_input_lanes)".to_owned(),
        })
    }

    /// Reads the settled value of a port on one specific lane,
    /// sign-extended from the port width.
    ///
    /// Gated by [`EngineCaps::lanes`] > 1; the default implementation
    /// returns [`Error::Unsupported`](crate::Error::Unsupported).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`](crate::Error::Unsupported) on single-lane
    /// backends; otherwise unknown ports and out-of-range lanes.
    fn peek_lane(&self, name: &str, lane: usize) -> Result<i64> {
        let _ = lane;
        let _ = name;
        Err(Error::Unsupported {
            backend: self.caps().backend.to_owned(),
            what: "lane I/O (peek_lane)".to_owned(),
        })
    }

    /// Reads the settled value of a port on every lane
    /// (`result.len() == EngineCaps::lanes`).
    ///
    /// Gated by [`EngineCaps::lanes`] > 1; the default implementation
    /// returns [`Error::Unsupported`](crate::Error::Unsupported).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`](crate::Error::Unsupported) on single-lane
    /// backends; otherwise unknown ports.
    fn peek_lanes(&self, name: &str) -> Result<Vec<i64>> {
        let _ = name;
        Err(Error::Unsupported {
            backend: self.caps().backend.to_owned(),
            what: "lane I/O (peek_lanes)".to_owned(),
        })
    }
}

impl Engine for crate::sim::Simulator {
    type Snapshot = crate::sim::Snapshot;

    fn from_netlist(netlist: impl Into<Arc<Netlist>>) -> Result<Self> {
        crate::sim::Simulator::new(netlist)
    }

    fn netlist(&self) -> &Arc<Netlist> {
        self.netlist()
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            backend: "event-driven",
            lanes: 1,
            activity_stats: true,
            glitch_model: true,
            divergence_detection: true,
            native_codegen: false,
            fault_stuck_at: true,
            fault_bit_flip: true,
            fault_ram_upset: true,
        }
    }

    fn set_input(&mut self, name: &str, value: i64) -> Result<()> {
        self.set_input(name, value)
    }

    fn try_tick(&mut self) -> Result<()> {
        self.try_tick()
    }

    fn try_settle(&mut self) -> Result<()> {
        self.try_settle()
    }

    fn peek(&self, name: &str) -> Result<i64> {
        self.peek(name)
    }

    fn snapshot(&self) -> Self::Snapshot {
        self.snapshot()
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) -> Result<()> {
        self.restore(snapshot)
    }

    fn inject(&mut self, spec: &FaultSpec) -> Result<()> {
        self.inject(spec)
    }

    fn clear_faults(&mut self) {
        self.clear_faults();
    }

    fn cycle(&self) -> u64 {
        self.cycle()
    }

    fn set_event_cap(&mut self, cap: u64) {
        self.set_event_cap(cap);
    }
}

/// The canonical backend selector: one name per execution backend,
/// one parse, one factory.
///
/// Every executor that used to grow its own per-crate constructor
/// family or ad-hoc selector enum plumbs through this one instead. Two
/// ways to go from a `Backend` value to running code:
///
/// * [`Backend::build`] — erase the concrete type behind
///   [`BoxedEngine`] when the caller only needs the [`DynEngine`]
///   verbs;
/// * [`Backend::dispatch`] — hand a [`BackendRunner`] the *concrete*
///   engine type, for callers that are generic over `E: Engine`
///   (executors, pools, partition workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The scalar event-driven simulator
    /// ([`sim::Simulator`](crate::sim::Simulator)): full fidelity,
    /// glitch model, activity statistics, 1 lane.
    #[default]
    Event,
    /// The levelized bit-sliced interpreter
    /// ([`compile::CompiledEngine`](crate::compile::CompiledEngine)):
    /// 64 lanes, functional two-phase clocking.
    Compiled,
    /// The native-codegen backend
    /// ([`jit::JitEngine`](crate::jit::JitEngine)): the op program is
    /// emitted as Rust, compiled by `rustc` into a cached `cdylib`,
    /// and executed 256 lanes wide.
    Jit,
}

impl Backend {
    /// The accepted spellings, for usage strings and error messages.
    pub const EXPECTED: &'static str = "event|compiled|jit";

    /// Every backend, in fidelity-to-throughput order.
    pub const ALL: [Backend; 3] = [Backend::Event, Backend::Compiled, Backend::Jit];

    /// The canonical flag spelling (`"event"`, `"compiled"`, `"jit"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Event => "event",
            Backend::Compiled => "compiled",
            Backend::Jit => "jit",
        }
    }

    /// Builds a type-erased engine for `netlist` on this backend.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors, and for [`Backend::Jit`]
    /// the codegen/compile/load pipeline errors
    /// ([`Error::NativeCodegen`](crate::Error::NativeCodegen)).
    pub fn build(self, netlist: impl Into<Arc<Netlist>>) -> Result<BoxedEngine> {
        struct Build(Arc<Netlist>);
        impl BackendRunner for Build {
            type Output = Result<BoxedEngine>;
            fn run<E>(self) -> Self::Output
            where
                E: Engine + Send + 'static,
                E::Snapshot: PortableSnapshot + Send,
            {
                Ok(Box::new(E::from_netlist(self.0)?))
            }
        }
        self.dispatch(Build(netlist.into()))
    }

    /// Resolves this backend to its concrete engine type and invokes
    /// `runner` with it.
    ///
    /// This is the one `match` over backends in the workspace: a caller
    /// generic over `E: Engine` writes a small [`BackendRunner`] and
    /// gets monomorphized entry points for every backend without
    /// repeating the dispatch.
    pub fn dispatch<R: BackendRunner>(self, runner: R) -> R::Output {
        match self {
            Backend::Event => runner.run::<crate::sim::Simulator>(),
            Backend::Compiled => runner.run::<crate::compile::CompiledEngine>(),
            Backend::Jit => runner.run::<crate::jit::JitEngine>(),
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "event" => Ok(Backend::Event),
            "compiled" => Ok(Backend::Compiled),
            "jit" => Ok(Backend::Jit),
            other => Err(Error::UnknownBackend { name: other.to_owned() }),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A generic continuation for [`Backend::dispatch`]: `run` is called
/// with the concrete engine type the backend names.
///
/// The bounds are the superset every executor in the workspace needs —
/// engines move into worker threads (serve, pool, partition) and their
/// snapshots cross process boundaries (partition's process-isolation
/// mode), so `Send + 'static` and [`PortableSnapshot`] are part of the
/// dispatch contract rather than re-negotiated at each call site.
pub trait BackendRunner {
    /// What the continuation produces (typically `Result<...>` or an
    /// exit code).
    type Output;

    /// Invoked with the concrete engine type selected by the backend.
    fn run<E>(self) -> Self::Output
    where
        E: Engine + Send + 'static,
        E::Snapshot: PortableSnapshot + Send + 'static;
}

/// Object-safe subset of [`Engine`] for callers that pick a backend at
/// runtime and don't need to be generic.
///
/// Snapshots are carried as portable bytes (the associated `Snapshot`
/// type can't appear in an object-safe trait); every backend's
/// snapshot codec round-trips bit-exactly, so `restore_bytes ∘
/// snapshot_bytes` is identity on the architectural state.
pub trait DynEngine: std::fmt::Debug + Send {
    /// See [`Engine::netlist`].
    fn netlist(&self) -> &Arc<Netlist>;
    /// See [`Engine::caps`].
    fn caps(&self) -> EngineCaps;
    /// See [`Engine::set_input`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::set_input`].
    fn set_input(&mut self, name: &str, value: i64) -> Result<()>;
    /// See [`Engine::try_tick`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::try_tick`].
    fn try_tick(&mut self) -> Result<()>;
    /// See [`Engine::try_settle`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::try_settle`].
    fn try_settle(&mut self) -> Result<()>;
    /// See [`Engine::peek`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::peek`].
    fn peek(&self, name: &str) -> Result<i64>;
    /// Captures the architectural state as portable snapshot bytes.
    fn snapshot_bytes(&self) -> Vec<u8>;
    /// Restores state captured by
    /// [`snapshot_bytes`](DynEngine::snapshot_bytes).
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`](crate::Error::SnapshotDecode) for
    /// malformed bytes,
    /// [`Error::SnapshotMismatch`](crate::Error::SnapshotMismatch) for
    /// a different netlist shape.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<()>;
    /// See [`Engine::inject`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::inject`].
    fn inject(&mut self, spec: &FaultSpec) -> Result<()>;
    /// See [`Engine::clear_faults`].
    fn clear_faults(&mut self);
    /// See [`Engine::cycle`].
    fn cycle(&self) -> u64;
    /// See [`Engine::set_event_cap`].
    fn set_event_cap(&mut self, cap: u64);
    /// See [`Engine::set_input_lanes`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::set_input_lanes`].
    fn set_input_lanes(&mut self, name: &str, values: &[i64]) -> Result<()>;
    /// See [`Engine::peek_lane`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::peek_lane`].
    fn peek_lane(&self, name: &str, lane: usize) -> Result<i64>;
    /// See [`Engine::peek_lanes`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::peek_lanes`].
    fn peek_lanes(&self, name: &str) -> Result<Vec<i64>>;
}

impl<E> DynEngine for E
where
    E: Engine + Send + 'static,
    E::Snapshot: PortableSnapshot,
{
    fn netlist(&self) -> &Arc<Netlist> {
        Engine::netlist(self)
    }
    fn caps(&self) -> EngineCaps {
        Engine::caps(self)
    }
    fn set_input(&mut self, name: &str, value: i64) -> Result<()> {
        Engine::set_input(self, name, value)
    }
    fn try_tick(&mut self) -> Result<()> {
        Engine::try_tick(self)
    }
    fn try_settle(&mut self) -> Result<()> {
        Engine::try_settle(self)
    }
    fn peek(&self, name: &str) -> Result<i64> {
        Engine::peek(self, name)
    }
    fn snapshot_bytes(&self) -> Vec<u8> {
        Engine::snapshot(self).to_bytes()
    }
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let snapshot = E::Snapshot::from_bytes(bytes)?;
        Engine::restore(self, &snapshot)
    }
    fn inject(&mut self, spec: &FaultSpec) -> Result<()> {
        Engine::inject(self, spec)
    }
    fn clear_faults(&mut self) {
        Engine::clear_faults(self)
    }
    fn cycle(&self) -> u64 {
        Engine::cycle(self)
    }
    fn set_event_cap(&mut self, cap: u64) {
        Engine::set_event_cap(self, cap);
    }
    fn set_input_lanes(&mut self, name: &str, values: &[i64]) -> Result<()> {
        Engine::set_input_lanes(self, name, values)
    }
    fn peek_lane(&self, name: &str, lane: usize) -> Result<i64> {
        Engine::peek_lane(self, name, lane)
    }
    fn peek_lanes(&self, name: &str) -> Result<Vec<i64>> {
        Engine::peek_lanes(self, name)
    }
}

/// A runtime-selected, type-erased engine as produced by
/// [`Backend::build`].
pub type BoxedEngine = Box<dyn DynEngine>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sliced::tests::{mixed_netlist, Lcg};

    fn tiny_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let q = b.register("q", &x).unwrap();
        b.output("y", &q).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn backend_parses_every_canonical_name_and_round_trips() {
        for backend in Backend::ALL {
            let parsed: Backend = backend.name().parse().unwrap();
            assert_eq!(parsed, backend);
            assert_eq!(backend.to_string(), backend.name());
        }
    }

    #[test]
    fn unknown_backend_name_is_a_typed_error() {
        let err = "quantum".parse::<Backend>().unwrap_err();
        assert_eq!(err, Error::UnknownBackend { name: "quantum".into() });
        assert!(err.to_string().contains(Backend::EXPECTED));
    }

    #[test]
    fn default_backend_is_event() {
        assert_eq!(Backend::default(), Backend::Event);
    }

    #[test]
    fn build_produces_working_engines_on_every_backend() {
        for backend in Backend::ALL {
            let mut engine = backend.build(tiny_netlist()).unwrap();
            assert_eq!(
                engine.caps().backend,
                match backend {
                    Backend::Event => "event-driven",
                    Backend::Compiled => "compiled",
                    Backend::Jit => "jit",
                }
            );
            // Staged inputs apply after register capture, so the
            // registered output needs two edges on every backend.
            engine.set_input("x", 42).unwrap();
            engine.try_tick().unwrap();
            engine.try_tick().unwrap();
            assert_eq!(engine.peek("y").unwrap(), 42, "{backend}");
            assert_eq!(engine.cycle(), 2);
        }
    }

    #[test]
    fn boxed_snapshot_bytes_round_trip() {
        for backend in Backend::ALL {
            let mut engine = backend.build(tiny_netlist()).unwrap();
            engine.set_input("x", -7).unwrap();
            engine.try_tick().unwrap();
            engine.try_tick().unwrap();
            let bytes = engine.snapshot_bytes();
            engine.set_input("x", 3).unwrap();
            engine.try_tick().unwrap();
            engine.try_tick().unwrap();
            assert_eq!(engine.peek("y").unwrap(), 3, "{backend}");
            engine.restore_bytes(&bytes).unwrap();
            assert_eq!(engine.peek("y").unwrap(), -7, "{backend}");
        }
    }

    #[test]
    fn dispatch_hands_the_runner_the_concrete_type() {
        struct CapsOf;
        impl BackendRunner for CapsOf {
            type Output = (&'static str, usize);
            fn run<E>(self) -> Self::Output
            where
                E: Engine + Send + 'static,
                E::Snapshot: PortableSnapshot + Send,
            {
                let engine = E::from_netlist(tiny_netlist()).unwrap();
                let caps = engine.caps();
                (caps.backend, caps.lanes)
            }
        }
        assert_eq!(Backend::Event.dispatch(CapsOf), ("event-driven", 1));
        assert_eq!(Backend::Compiled.dispatch(CapsOf), ("compiled", 64));
        assert_eq!(Backend::Jit.dispatch(CapsOf), ("jit", 256));
    }

    /// Ticks `engines` with the same random inputs and checks that
    /// they agree on every output after each tick.
    fn lockstep<E: Engine>(engines: &mut [&mut E], rng: &mut Lcg, ticks: usize) {
        for t in 0..ticks {
            let (x, y) = (rng.in_range(-128, 127), rng.in_range(-128, 127));
            for e in engines.iter_mut() {
                e.set_input("x", x).unwrap();
                e.set_input("y", y).unwrap();
                e.try_tick().unwrap();
            }
            for port in ["s", "p"] {
                let want = engines[0].peek(port).unwrap();
                for e in &engines[1..] {
                    assert_eq!(e.peek(port).unwrap(), want, "{port} at tick {t}");
                }
            }
        }
    }

    /// A clone shares its original's netlist, ticks in lockstep with a
    /// freshly built engine under a stuck-at and a flip, and leaves its
    /// original where it was; a clone taken with a stuck-at armed keeps
    /// it.
    struct CloneRunsLikeFresh;
    impl BackendRunner for CloneRunsLikeFresh {
        type Output = ();
        fn run<E>(self)
        where
            E: Engine + Send + 'static,
            E::Snapshot: PortableSnapshot + Send,
        {
            let netlist = Arc::new(mixed_netlist());
            let mut original = E::from_netlist(Arc::clone(&netlist)).unwrap();
            let mut rng = Lcg(5);
            lockstep(&mut [&mut original], &mut rng, 7);
            let at = Engine::snapshot(&original).to_bytes();

            let mut clone = original.clone();
            assert!(Arc::ptr_eq(Engine::netlist(&clone), &netlist));
            let mut fresh = E::from_netlist(Arc::clone(&netlist)).unwrap();
            fresh.restore(&E::Snapshot::from_bytes(&at).unwrap()).unwrap();
            let faults = [
                FaultSpec::StuckAt { net: "s".into(), bit: 2, value: true },
                FaultSpec::BitFlip { register: "rs".into(), bit: 1, cycle: 12 },
            ];
            for spec in &faults {
                clone.inject(spec).unwrap();
                fresh.inject(spec).unwrap();
            }
            lockstep(&mut [&mut fresh, &mut clone], &mut rng, 40);
            assert_eq!(Engine::snapshot(&original).to_bytes(), at, "the clone moved its original");

            let mut twin = clone.clone();
            lockstep(&mut [&mut fresh, &mut clone, &mut twin], &mut rng, 20);
            assert_eq!(Engine::peek(&twin, "s").unwrap() & 4, 4, "the twin lost its stuck-at");
        }
    }

    #[test]
    fn a_clone_ticks_like_a_fresh_engine_under_faults() {
        for backend in Backend::ALL {
            backend.dispatch(CloneRunsLikeFresh);
        }
    }

    #[test]
    fn single_lane_backend_reports_unsupported_lane_io() {
        let mut sim = crate::sim::Simulator::new(tiny_netlist()).unwrap();
        assert_eq!(Engine::caps(&sim).lanes, 1);
        let err = Engine::set_input_lanes(&mut sim, "x", &[1, 2]).unwrap_err();
        assert_eq!(
            err,
            Error::Unsupported {
                backend: "event-driven".into(),
                what: "lane I/O (set_input_lanes)".into(),
            }
        );
        assert!(matches!(Engine::peek_lane(&sim, "y", 0), Err(Error::Unsupported { .. })));
        assert!(matches!(Engine::peek_lanes(&sim, "y"), Err(Error::Unsupported { .. })));
    }
}
