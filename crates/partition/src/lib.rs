//! Fault-tolerant partitioned emulation of DWT netlists.
//!
//! Large-design emulators (BEE2-style FPGA farms, Palladium-class
//! boxes) never fit a design in one device: the netlist is *sharded*
//! across workers that exchange boundary values every virtual cycle,
//! and the whole ensemble must tolerate a worker crashing mid-frame
//! without corrupting the computation. This crate reproduces that
//! architecture in software on top of the workspace's [`Engine`]
//! backends:
//!
//! 1. [`cut`] — a min-cut partitioning pass over the validated
//!    netlist IR. Cuts are only legal on register/constant boundaries
//!    (dwt-lint's pipeline-balance solver pins the legal cut points),
//!    so cross-shard values are stable for a full cycle and one
//!    exchange round per cycle suffices. [`stitch`] is the exact
//!    inverse, reassembling the original netlist — dwt-equiv proves
//!    `stitch(partition(n)) ≡ n` as a standing obligation.
//! 2. [`channel`] — the sequence-numbered, checksummed wire format
//!    plus per-link running hashes for barrier crosschecks.
//! 3. [`runner`] — the partition protocol: one shard worker loop
//!    that takes each forward link's whole barrier batch in one frame
//!    before the first tick and settles only on per-cycle feedback
//!    links, and one coordinator ([`PartitionRunner`]) that keeps two
//!    batches in flight, takes barrier-consistent snapshots, detects
//!    divergence, stragglers and crashes, and recovers by restart from
//!    the last barrier plus replay. When the recovery budget is
//!    exhausted it degrades to a single-engine run, then to a
//!    caller-supplied software-golden fallback, before giving up with
//!    a typed error.
//! 4. [`proc`] — process isolation for the same protocol: worker
//!    processes admitted by cut fingerprint, a socket hub that routes
//!    every frame, and a durable barrier [`store`] a restarted
//!    coordinator resumes from. [`Isolation`] picks threads or
//!    processes; nothing else differs.
//!
//! [`Engine`]: dwt_rtl::engine::Engine

pub mod channel;
pub mod cut;
pub mod error;
pub mod proc;
pub mod runner;
pub mod store;
pub mod transport;
pub mod wire;

pub use channel::{fnv1a, hash_seed, BoundaryMsg, LinkFault};
pub use cut::{partition, stitch, BoundaryLink, CutOptions, CutPort, PartitionedNetlist, Shard};
pub use error::PartitionError;
pub use proc::{run_worker, WorkerLauncher};
pub use runner::{
    run_single, Batch, BatchReport, ChaosPlan, Corruption, Detection, DetectionKind, FrameOutputs,
    FrameReport, GoldenFallback, Isolation, PartitionRunner, Rung, RunnerConfig, SeuChaos,
    Stimulus,
};
pub use store::{crc32, BarrierRecord, FsckReport, RunStore};
pub use transport::{ChannelTransport, RecvError, SocketTransport, Transport};
pub use wire::Frame;
