//! Process-isolated partitioned emulation: a supervisor that forks one
//! OS process per shard and drives a boundary-exchange lockstep over
//! Unix-domain sockets. Each worker cycle ticks, sends every out-link,
//! receives every in-link and settles; the thread-mode runner's
//! forward/feedback schedule is not applied here.
//!
//! Thread-mode fault tolerance shares an address space: a worker that
//! corrupts memory or wedges inside native code can take the whole
//! emulation down with it. Real emulator farms put every shard behind a
//! process (or machine) boundary, and so does this module:
//!
//! * **Workers** ([`run_worker`]) rebuild their shard independently,
//!   announce themselves with a [`Frame::Hello`] carrying the cut
//!   [`fingerprint`](PartitionedNetlist::fingerprint) (admission
//!   control: a worker launched against the wrong design or part count
//!   is rejected before it can pollute the run), and then speak the
//!   framed wire protocol: batches in, boundary values and barrier
//!   reports out, heartbeats while executing.
//! * **The supervisor** ([`ProcSupervisor`]) is a hub: it routes every
//!   boundary frame from producer to consumer (rewriting the link
//!   index from the producer's outgoing numbering to the consumer's
//!   incoming numbering), polices per-worker liveness on a
//!   [`Clock`]-driven deadline, and commits a barrier only when every
//!   report arrived and both ends of every link hash identically.
//! * **Recovery** is generation-tagged rollback. Any crash (SIGKILL,
//!   socket close), stall (silence past the liveness window), protocol
//!   violation, or hash mismatch aborts the batch: the supervisor bumps
//!   the generation, respawns dead workers, restores everyone from the
//!   last consistent barrier — the durable [`RunStore`] when
//!   configured, the in-memory barrier otherwise — and replays. Both
//!   ends drop frames tagged with older generations, so a stale
//!   in-flight boundary value can never alias its replayed successor.
//! * **Durability**: with a store configured, every committed barrier
//!   is written via tmp-file + fsync + atomic rename. A supervisor that
//!   is itself killed can be restarted with [`ProcConfig::resume`] and
//!   continues from the newest consistent barrier instead of cycle 0; a
//!   torn record (crash mid-write) costs exactly one barrier of replay.
//!
//! Engine snapshots cross the socket as
//! [`PortableSnapshot`] bytes — backend-tagged and versioned, so a
//! worker restoring on the wrong backend fails loudly, not silently.

use std::collections::VecDeque;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dwt_pool::clock::{Clock, Deadline, MonotonicClock};
use dwt_rtl::engine::{Engine, PortableSnapshot};
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::netlist::Netlist;

use crate::channel::{hash_seed, BoundaryMsg, LinkFault};
use crate::cut::PartitionedNetlist;
use crate::error::PartitionError;
use crate::runner::{check_stimulus, rebase, Detection, DetectionKind, FrameOutputs, Stimulus};
use crate::store::{BarrierRecord, RunStore, WorkerBlob};
use crate::transport::{RecvError, SocketTransport, Transport};
use crate::wire::Frame;

fn transport_err(detail: impl Into<String>) -> PartitionError {
    PartitionError::Transport { detail: detail.into() }
}

fn spawn_err(detail: impl Into<String>) -> PartitionError {
    PartitionError::Spawn { detail: detail.into() }
}

// ------------------------------------------------------------- worker

/// Everything a worker process needs to rebuild its shard.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Shard index.
    pub worker: usize,
    /// The shard netlist.
    pub netlist: Netlist,
    /// Primary input ports this shard needs fed every cycle.
    pub inputs: Vec<String>,
    /// Primary output ports this shard owns.
    pub outputs: Vec<String>,
    /// Ports per outgoing link, in the supervisor's link order.
    pub out_ports: Vec<Vec<String>>,
    /// Ports per incoming link, in the supervisor's link order.
    pub in_ports: Vec<Vec<String>>,
    /// Cut fingerprint, announced at admission.
    pub fingerprint: u64,
}

impl WorkerSpec {
    /// Extracts worker `worker`'s view of a partition. Both sides
    /// derive link order from the same iteration over
    /// [`PartitionedNetlist::links`], so the out/in indices agree
    /// without negotiation.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Spawn`] if the shard index is out of range.
    pub fn from_cut(
        parts: &PartitionedNetlist,
        worker: usize,
    ) -> Result<WorkerSpec, PartitionError> {
        if worker >= parts.parts() {
            return Err(spawn_err(format!("shard {worker} of a {}-way cut", parts.parts())));
        }
        let shard = &parts.shards[worker];
        Ok(WorkerSpec {
            worker,
            netlist: shard.netlist.clone(),
            inputs: shard.inputs.clone(),
            outputs: shard.outputs.clone(),
            out_ports: parts
                .links
                .iter()
                .filter(|l| l.from == worker)
                .map(|l| l.ports.clone())
                .collect(),
            in_ports: parts
                .links
                .iter()
                .filter(|l| l.to == worker)
                .map(|l| l.ports.clone())
                .collect(),
            fingerprint: parts.fingerprint(),
        })
    }
}

/// Worker-side tuning.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Send a heartbeat every this many cycles while executing.
    pub heartbeat_every: u64,
    /// How long to wait for the next control frame before concluding
    /// the supervisor is gone.
    pub idle_timeout: Duration,
    /// How long to wait for one boundary value mid-exchange before
    /// reporting a stall.
    pub exchange_timeout: Duration,
    /// Optional per-cycle event cap forwarded to the engine.
    pub event_cap: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_every: 1,
            idle_timeout: Duration::from_secs(30),
            exchange_timeout: Duration::from_secs(5),
            event_cap: None,
        }
    }
}

/// Per-link state on the worker side.
struct OutSide {
    seq: u64,
    hash: u64,
}

struct InSide {
    seq: u64,
    hash: u64,
    /// Values routed to us that we have not consumed yet (a fast
    /// producer may run ahead; per-link FIFO order is preserved).
    queue: VecDeque<BoundaryMsg>,
}

enum BatchOutcome {
    /// Barrier report sent.
    Reported,
    /// A fault frame was sent; the worker idles until rollback.
    Faulted,
    /// A control frame (rollback/shutdown) preempted the batch.
    Control(Frame),
}

/// What one exchange step produced.
enum Staged {
    Ok,
    Fault(DetectionKind),
    Control(Frame),
}

struct ProcWorker<'a, E: Engine> {
    spec: &'a WorkerSpec,
    config: &'a WorkerConfig,
    engine: E,
    out: Vec<OutSide>,
    inn: Vec<InSide>,
    generation: u64,
}

impl<'a, E> ProcWorker<'a, E>
where
    E: Engine,
    E::Snapshot: PortableSnapshot,
{
    fn fresh_engine(spec: &WorkerSpec, config: &WorkerConfig) -> Result<E, PartitionError> {
        let mut engine = E::from_netlist(spec.netlist.clone())?;
        if let Some(cap) = config.event_cap {
            engine.set_event_cap(cap);
        }
        Ok(engine)
    }

    fn new(spec: &'a WorkerSpec, config: &'a WorkerConfig) -> Result<Self, PartitionError> {
        let engine = Self::fresh_engine(spec, config)?;
        let mut worker =
            ProcWorker { spec, config, engine, out: Vec::new(), inn: Vec::new(), generation: 0 };
        worker.reset_links();
        Ok(worker)
    }

    /// Both ends reset link state together (power-on, rollback,
    /// resume), so running hashes always accumulate from a shared
    /// origin and barrier crosschecks stay meaningful.
    fn reset_links(&mut self) {
        self.out =
            self.spec.out_ports.iter().map(|_| OutSide { seq: 0, hash: hash_seed() }).collect();
        self.inn = self
            .spec
            .in_ports
            .iter()
            .map(|_| InSide { seq: 0, hash: hash_seed(), queue: VecDeque::new() })
            .collect();
    }

    fn exchange_send<T: Transport>(
        &mut self,
        transport: &mut T,
        cycle: u64,
    ) -> Result<(), PartitionError> {
        for (li, link) in self.out.iter_mut().enumerate() {
            let values: Vec<i64> =
                self.spec.out_ports[li].iter().map(|p| self.engine.peek(p).unwrap_or(0)).collect();
            let msg = BoundaryMsg::new(link.seq, cycle, values);
            link.hash = msg.fold_into(link.hash);
            link.seq += 1;
            transport.send(&Frame::Boundary {
                generation: self.generation,
                link: u32::try_from(li).unwrap_or(u32::MAX),
                msg,
            })?;
        }
        Ok(())
    }

    /// One routed boundary value for in-link `li`, or whatever
    /// preempted it.
    fn recv_boundary<T: Transport>(
        &mut self,
        transport: &mut T,
        li: usize,
    ) -> Result<Staged, PartitionError> {
        loop {
            if let Some(msg) = self.inn[li].queue.pop_front() {
                return Ok(self.stage_one(li, msg));
            }
            match transport.recv_timeout(self.config.exchange_timeout) {
                Ok(Frame::Boundary { generation, link, msg }) => {
                    if generation != self.generation {
                        continue; // stale, pre-rollback
                    }
                    match self.inn.get_mut(link as usize) {
                        Some(side) => side.queue.push_back(msg),
                        None => return Ok(Staged::Fault(DetectionKind::Sequence)),
                    }
                }
                Ok(frame @ (Frame::Rollback { .. } | Frame::Shutdown)) => {
                    return Ok(Staged::Control(frame))
                }
                Ok(_) => continue, // unexpected control frame: drop
                Err(RecvError::Timeout) => return Ok(Staged::Fault(DetectionKind::Stall)),
                Err(RecvError::Disconnected) => {
                    return Err(transport_err("supervisor disconnected mid-exchange"))
                }
                Err(RecvError::Protocol(e)) => return Err(e),
            }
        }
    }

    /// Verifies one boundary message and stages its values.
    fn stage_one(&mut self, li: usize, msg: BoundaryMsg) -> Staged {
        if let Err(fault) = msg.verify(self.inn[li].seq, self.spec.in_ports[li].len()) {
            return Staged::Fault(match fault {
                LinkFault::Sequence { .. } => DetectionKind::Sequence,
                _ => DetectionKind::Checksum,
            });
        }
        let side = &mut self.inn[li];
        side.hash = msg.fold_into(side.hash);
        side.seq += 1;
        for (port, &value) in self.spec.in_ports[li].iter().zip(&msg.values) {
            if self.engine.set_input(port, value).is_err() {
                return Staged::Fault(DetectionKind::Checksum);
            }
        }
        Staged::Ok
    }

    /// Receives, verifies and stages one value per incoming link.
    fn exchange_recv<T: Transport>(&mut self, transport: &mut T) -> Result<Staged, PartitionError> {
        for li in 0..self.inn.len() {
            match self.recv_boundary(transport, li)? {
                Staged::Ok => {}
                other => return Ok(other),
            }
        }
        Ok(Staged::Ok)
    }

    fn send_fault<T: Transport>(
        &mut self,
        transport: &mut T,
        kind: DetectionKind,
    ) -> Result<BatchOutcome, PartitionError> {
        transport.send(&Frame::Fault {
            worker: self.spec.worker as u32,
            generation: self.generation,
            kind,
        })?;
        Ok(BatchOutcome::Faulted)
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn run_batch<T: Transport>(
        &mut self,
        transport: &mut T,
        start: u64,
        cycles: u64,
        prologue: bool,
        inputs: &[Vec<i64>],
        faults: &[(u64, FaultSpec)],
        stall: Option<(u64, u64)>,
    ) -> Result<BatchOutcome, PartitionError> {
        if prologue {
            self.exchange_send(transport, start)?;
            match self.exchange_recv(transport)? {
                Staged::Ok => {}
                Staged::Fault(kind) => return self.send_fault(transport, kind),
                Staged::Control(frame) => return Ok(BatchOutcome::Control(frame)),
            }
            if let Err(e) = self.engine.try_settle() {
                return self.send_fault(transport, DetectionKind::Engine(e.to_string()));
            }
        }
        let mut outputs = Vec::with_capacity(cycles as usize);
        for offset in 0..cycles {
            let cycle = start + offset;
            if let Some((at, millis)) = stall {
                if at == offset {
                    thread::sleep(Duration::from_millis(millis));
                }
            }
            if offset % self.config.heartbeat_every.max(1) == 0 {
                transport.send(&Frame::Heartbeat {
                    worker: self.spec.worker as u32,
                    generation: self.generation,
                    cycle,
                })?;
            }
            for (i, port) in self.spec.inputs.iter().enumerate() {
                let value = inputs[offset as usize][i];
                if let Err(e) = self.engine.set_input(port, value) {
                    return self.send_fault(transport, DetectionKind::Engine(e.to_string()));
                }
            }
            for (due, spec) in faults {
                if *due == offset {
                    let rebased = rebase(spec.clone(), self.engine.cycle());
                    if let Err(e) = self.engine.inject(&rebased) {
                        return self.send_fault(transport, DetectionKind::Engine(e.to_string()));
                    }
                }
            }
            if let Err(e) = self.engine.try_tick() {
                return self.send_fault(transport, DetectionKind::Engine(e.to_string()));
            }
            self.exchange_send(transport, cycle)?;
            match self.exchange_recv(transport)? {
                Staged::Ok => {}
                Staged::Fault(kind) => return self.send_fault(transport, kind),
                Staged::Control(frame) => return Ok(BatchOutcome::Control(frame)),
            }
            if let Err(e) = self.engine.try_settle() {
                return self.send_fault(transport, DetectionKind::Engine(e.to_string()));
            }
            let row: Vec<i64> =
                self.spec.outputs.iter().map(|p| self.engine.peek(p).unwrap_or(0)).collect();
            outputs.push(row);
        }
        transport.send(&Frame::BarrierReport {
            worker: self.spec.worker as u32,
            generation: self.generation,
            start,
            cycles,
            outputs,
            out_hashes: self.out.iter().map(|l| l.hash).collect(),
            in_hashes: self.inn.iter().map(|l| l.hash).collect(),
            snapshot: self.engine.snapshot().to_bytes(),
        })?;
        Ok(BatchOutcome::Reported)
    }

    /// Applies a rollback frame: power-on reset (empty snapshot) or
    /// restore-from-bytes, link state re-seeded either way.
    fn apply_rollback(&mut self, generation: u64, snapshot: &[u8]) -> Result<(), PartitionError> {
        self.generation = generation;
        if snapshot.is_empty() {
            self.engine = Self::fresh_engine(self.spec, self.config)?;
        } else {
            let decoded = <E::Snapshot as PortableSnapshot>::from_bytes(snapshot)?;
            self.engine.restore(&decoded)?;
        }
        self.reset_links();
        Ok(())
    }
}

/// The worker process's protocol loop: announce, then serve batches
/// and rollbacks until shutdown. Generic over the engine backend and
/// the transport (the in-crate tests drive it over channels; the
/// `dwt_partition_worker` binary runs it over a socket).
///
/// Returns `Ok(())` on a clean shutdown **or** when the supervisor
/// disappears while the worker is idle — a dead supervisor is not a
/// worker error.
///
/// # Errors
///
/// [`PartitionError::Transport`] if the supervisor goes quiet or
/// unreachable mid-protocol; engine construction/restore errors; a
/// protocol violation on the control stream.
pub fn run_worker<E, T>(
    spec: &WorkerSpec,
    transport: &mut T,
    config: &WorkerConfig,
) -> Result<(), PartitionError>
where
    E: Engine,
    E::Snapshot: PortableSnapshot,
    T: Transport,
{
    let mut worker = ProcWorker::<E>::new(spec, config)?;
    transport.send(&Frame::Hello { worker: spec.worker as u32, fingerprint: spec.fingerprint })?;
    // A control frame that preempted a batch is handled here too.
    let mut pending: Option<Frame> = None;
    loop {
        let frame = match pending.take() {
            Some(frame) => frame,
            None => match transport.recv_timeout(config.idle_timeout) {
                Ok(frame) => frame,
                Err(RecvError::Timeout) => return Err(transport_err("supervisor went quiet")),
                Err(RecvError::Disconnected) => return Ok(()),
                Err(RecvError::Protocol(e)) => return Err(e),
            },
        };
        match frame {
            Frame::Shutdown => return Ok(()),
            Frame::Rollback { generation, cycle, snapshot } => {
                worker.apply_rollback(generation, &snapshot)?;
                transport.send(&Frame::RollbackAck {
                    worker: spec.worker as u32,
                    generation,
                    cycle,
                })?;
            }
            Frame::Batch { generation, start, cycles, prologue, inputs, faults, stall } => {
                worker.generation = generation;
                match worker
                    .run_batch(transport, start, cycles, prologue, &inputs, &faults, stall)?
                {
                    BatchOutcome::Reported | BatchOutcome::Faulted => {}
                    BatchOutcome::Control(frame) => pending = Some(frame),
                }
            }
            // Stale boundary values (pre-rollback) or frames outside
            // their window: drop.
            _ => {}
        }
    }
}

// --------------------------------------------------------- supervisor

/// How to launch one worker process. The supervisor appends
/// `--shard <index> --socket <path>` to [`WorkerLauncher::args`].
#[derive(Debug, Clone)]
pub struct WorkerLauncher {
    /// Worker executable (e.g. the `dwt_partition_worker` bench
    /// binary).
    pub program: PathBuf,
    /// Base arguments identifying the design, part count and backend.
    pub args: Vec<String>,
}

/// Chaos directives for the process campaign. Each directive fires
/// once; after the recovery it provokes, the replay runs clean.
#[derive(Debug, Clone, Default)]
pub struct ProcChaos {
    /// `(worker, cycle)`: SIGKILL the worker's process when its
    /// heartbeat reaches that virtual cycle, or at the latest when its
    /// report for the window holding the cycle arrives — that report is
    /// void, so the window cannot commit past a scheduled kill.
    pub kill9: Vec<(usize, u64)>,
    /// `(worker, cycle, millis)`: the worker sleeps that long before
    /// ticking — longer than the liveness window means the supervisor
    /// declares it wedged and respawns it.
    pub stalls: Vec<(usize, u64, u64)>,
    /// After committing this many barriers, truncate the newest
    /// durable record — a simulated torn write. The next rollback or
    /// resume must fall back one barrier, never fail.
    pub torn_after: Option<u64>,
}

/// Supervisor tuning.
#[derive(Clone)]
pub struct ProcConfig {
    /// Cycles per barrier.
    pub snapshot_interval: u64,
    /// A worker silent for longer than this (no frame of any kind,
    /// while its report is outstanding) is declared dead.
    pub liveness: Duration,
    /// Budget for process spawn + engine build + Hello.
    pub hello_timeout: Duration,
    /// Total worker-process respawns allowed per run.
    pub max_respawns: u32,
    /// Rollback-and-replay budget per run.
    pub max_recoveries: u32,
    /// Clock behind the liveness deadlines (ticks are nanoseconds on
    /// the production [`MonotonicClock`]).
    pub clock: Arc<dyn Clock>,
    /// Directory for the per-worker listening sockets. `None`: a fresh
    /// directory under the system temp dir — socket paths must stay
    /// short (`sun_path` is ~100 bytes), so the store dir is
    /// configured separately.
    pub sock_dir: Option<PathBuf>,
    /// Durable barrier store directory. `None`: in-memory barriers
    /// only (a supervisor crash then loses the run).
    pub store_dir: Option<PathBuf>,
    /// Resume from the newest consistent barrier in
    /// [`ProcConfig::store_dir`] instead of starting at cycle 0.
    pub resume: bool,
    /// Durable records kept per run (older ones are pruned).
    pub keep_barriers: usize,
    /// Stop cleanly (`completed: false`) after this many barrier
    /// commits — supervisor-restart tests use this to simulate a
    /// supervisor crash with a consistent store behind it.
    pub stop_after_barriers: Option<u64>,
    /// Fault-injection campaign.
    pub chaos: ProcChaos,
}

impl std::fmt::Debug for ProcConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcConfig")
            .field("snapshot_interval", &self.snapshot_interval)
            .field("liveness", &self.liveness)
            .field("hello_timeout", &self.hello_timeout)
            .field("max_respawns", &self.max_respawns)
            .field("max_recoveries", &self.max_recoveries)
            .field("sock_dir", &self.sock_dir)
            .field("store_dir", &self.store_dir)
            .field("resume", &self.resume)
            .field("keep_barriers", &self.keep_barriers)
            .field("stop_after_barriers", &self.stop_after_barriers)
            .field("chaos", &self.chaos)
            .finish_non_exhaustive()
    }
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            snapshot_interval: 32,
            liveness: Duration::from_secs(2),
            hello_timeout: Duration::from_secs(20),
            max_respawns: 8,
            max_recoveries: 8,
            clock: Arc::new(MonotonicClock::new()),
            sock_dir: None,
            store_dir: None,
            resume: false,
            keep_barriers: 4,
            stop_after_barriers: None,
            chaos: ProcChaos::default(),
        }
    }
}

/// Outcome of one process-mode run.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// The committed per-cycle outputs.
    pub outputs: FrameOutputs,
    /// Everything the detectors fired on.
    pub detections: Vec<Detection>,
    /// Rollback-and-replay recoveries performed.
    pub recoveries: u32,
    /// Worker processes respawned.
    pub respawns: u32,
    /// Barriers committed.
    pub barriers: u64,
    /// Cycles re-executed during replays.
    pub replayed_cycles: u64,
    /// `Some(cycle)` if the run resumed from a durable barrier.
    pub resumed_from: Option<u64>,
    /// `false` when [`ProcConfig::stop_after_barriers`] stopped the
    /// run early (outputs then cover only the committed prefix).
    pub completed: bool,
}

enum Event {
    Frame { worker: usize, conn: u64, frame: Frame },
    Closed { worker: usize, conn: u64 },
    Malformed { worker: usize, conn: u64 },
}

struct WorkerProc {
    child: Child,
    writer: SocketTransport,
    /// Connection id; events from an older connection of a respawned
    /// worker are dropped by tag.
    conn: u64,
    alive: bool,
    /// Clock tick of the last frame seen from this worker.
    last_seen: u64,
    reader: Option<JoinHandle<()>>,
}

struct Report {
    outputs: Vec<Vec<i64>>,
    out_hashes: Vec<u64>,
    in_hashes: Vec<u64>,
    snapshot: Vec<u8>,
}

/// Where a rollback restores from.
enum Target {
    Durable(BarrierRecord),
    Memory(Vec<Vec<u8>>),
    PowerOn,
}

/// Distinguishes successive supervisor runs in one process when the
/// caller does not pin [`ProcConfig::sock_dir`].
static SOCK_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Supervises one OS process per shard. See the module docs for the
/// protocol and recovery model.
pub struct ProcSupervisor<'a> {
    parts: &'a PartitionedNetlist,
    launcher: WorkerLauncher,
    config: ProcConfig,
}

impl<'a> ProcSupervisor<'a> {
    /// Creates a supervisor over an existing partition.
    #[must_use]
    pub fn new(
        parts: &'a PartitionedNetlist,
        launcher: WorkerLauncher,
        config: ProcConfig,
    ) -> Self {
        ProcSupervisor { parts, launcher, config }
    }

    /// Runs one frame across the worker processes.
    ///
    /// # Errors
    ///
    /// * [`PartitionError::Stimulus`] for incomplete stimulus.
    /// * [`PartitionError::Spawn`] if a worker cannot be launched or
    ///   fails admission.
    /// * [`PartitionError::Exhausted`] when the recovery or respawn
    ///   budget runs out (the caller decides how to degrade).
    /// * [`PartitionError::Store`] on durable-store failures.
    pub fn run(&self, stim: &Stimulus) -> Result<ProcReport, PartitionError> {
        check_stimulus(self.parts, stim)?;
        let (event_tx, event_rx) = mpsc::channel();
        let mut driver = Driver::new(self.parts, &self.launcher, &self.config, event_tx)?;
        let result = driver.run(stim, &event_rx);
        driver.shutdown();
        result
    }
}

struct Driver<'a> {
    parts: &'a PartitionedNetlist,
    launcher: &'a WorkerLauncher,
    config: &'a ProcConfig,
    fingerprint: u64,
    sock_dir: PathBuf,
    store: Option<RunStore>,
    listeners: Vec<UnixListener>,
    event_tx: Sender<Event>,
    procs: Vec<WorkerProc>,
    next_conn: u64,
    /// `out_route[w][out_idx]` → `(consumer, consumer's in_idx)`.
    out_route: Vec<Vec<(usize, u32)>>,
    /// `(producer, out_idx, consumer, in_idx)` per global link.
    crosslinks: Vec<(usize, usize, usize, usize)>,
    generation: u64,
    liveness_ticks: u64,
    fired_kills: Vec<bool>,
    fired_stalls: Vec<bool>,
    torn_fired: bool,
    respawns: u32,
    detections: Vec<Detection>,
}

impl<'a> Driver<'a> {
    fn new(
        parts: &'a PartitionedNetlist,
        launcher: &'a WorkerLauncher,
        config: &'a ProcConfig,
        event_tx: Sender<Event>,
    ) -> Result<Self, PartitionError> {
        let sock_dir = config.sock_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "dwt-proc-{}-{}",
                std::process::id(),
                SOCK_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        std::fs::create_dir_all(&sock_dir).map_err(|e| spawn_err(format!("socket dir: {e}")))?;
        let store = match &config.store_dir {
            Some(dir) => Some(RunStore::open(dir.clone())?),
            None => None,
        };
        let n = parts.parts();
        let mut listeners = Vec::with_capacity(n);
        for w in 0..n {
            let path = sock_dir.join(format!("worker-{w}.sock"));
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)
                .map_err(|e| spawn_err(format!("bind {}: {e}", path.display())))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| spawn_err(format!("nonblocking listener: {e}")))?;
            listeners.push(listener);
        }
        let mut out_route: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        let mut crosslinks = Vec::with_capacity(parts.links.len());
        let mut out_counts = vec![0usize; n];
        let mut in_counts = vec![0u32; n];
        for link in &parts.links {
            out_route[link.from].push((link.to, in_counts[link.to]));
            crosslinks.push((
                link.from,
                out_counts[link.from],
                link.to,
                in_counts[link.to] as usize,
            ));
            out_counts[link.from] += 1;
            in_counts[link.to] += 1;
        }
        Ok(Driver {
            parts,
            launcher,
            config,
            fingerprint: parts.fingerprint(),
            sock_dir,
            store,
            listeners,
            event_tx,
            procs: Vec::new(),
            next_conn: 0,
            out_route,
            crosslinks,
            generation: 0,
            liveness_ticks: u64::try_from(config.liveness.as_nanos()).unwrap_or(u64::MAX),
            fired_kills: vec![false; config.chaos.kill9.len()],
            fired_stalls: vec![false; config.chaos.stalls.len()],
            torn_fired: false,
            respawns: 0,
            detections: Vec::new(),
        })
    }

    fn now(&self) -> u64 {
        self.config.clock.now()
    }

    fn detect(&mut self, worker: Option<usize>, batch_start: u64, kind: DetectionKind) {
        self.detections.push(Detection { worker, batch_start, kind });
    }

    /// Spawns worker `w`'s process, accepts its connection, verifies
    /// its Hello, and starts its reader thread.
    #[allow(clippy::too_many_lines)]
    fn spawn_worker(&mut self, w: usize) -> Result<WorkerProc, PartitionError> {
        let path = self.sock_dir.join(format!("worker-{w}.sock"));
        let mut child = Command::new(&self.launcher.program)
            .args(&self.launcher.args)
            .arg("--shard")
            .arg(w.to_string())
            .arg("--socket")
            .arg(&path)
            .spawn()
            .map_err(|e| spawn_err(format!("worker {w}: {e}")))?;
        // Non-blocking accept under a wall-clock budget: process
        // startup plus engine build can be slow in debug builds.
        let deadline = Instant::now() + self.config.hello_timeout;
        let stream = loop {
            match self.listeners[w].accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(spawn_err(format!("worker {w}: no connection in time")));
                    }
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!("worker {w} exited at launch: {status}")));
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(spawn_err(format!("worker {w} accept: {e}")));
                }
            }
        };
        let _ = stream.set_nonblocking(false);
        // A wedged worker must not block the hub's writes forever.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let writer_stream =
            stream.try_clone().map_err(|e| spawn_err(format!("worker {w} clone: {e}")))?;
        let mut reader = SocketTransport::new(stream);
        // Admission: the worker proves it rebuilt the same cut. Read
        // the Hello synchronously so the reader thread starts with a
        // clean stream position.
        match reader.recv_timeout(self.config.hello_timeout) {
            Ok(Frame::Hello { worker, fingerprint })
                if worker as usize == w && fingerprint == self.fingerprint => {}
            Ok(Frame::Hello { fingerprint, .. }) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(spawn_err(format!(
                    "worker {w} admission refused: fingerprint {fingerprint:#x} != {:#x}",
                    self.fingerprint
                )));
            }
            Ok(other) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(spawn_err(format!("worker {w} sent {other:?} instead of Hello")));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(spawn_err(format!("worker {w} hello: {e}")));
            }
        }
        let conn = self.next_conn;
        self.next_conn += 1;
        let tx = self.event_tx.clone();
        let handle = thread::Builder::new()
            .name(format!("dwt-proc-reader-{w}"))
            .spawn(move || reader_main(w, conn, reader, &tx))
            .map_err(|e| spawn_err(format!("reader thread: {e}")))?;
        let last_seen = self.now();
        Ok(WorkerProc {
            child,
            writer: SocketTransport::new(writer_stream),
            conn,
            alive: true,
            last_seen,
            reader: Some(handle),
        })
    }

    /// SIGKILLs and reaps worker `w` (idempotent).
    fn kill_worker(&mut self, w: usize) {
        let proc = &mut self.procs[w];
        proc.alive = false;
        let _ = proc.child.kill();
        let _ = proc.child.wait();
        if let Some(handle) = proc.reader.take() {
            let _ = handle.join();
        }
    }

    /// Respawns worker `w` against the bounded budget.
    fn respawn_worker(&mut self, w: usize) -> Result<(), PartitionError> {
        self.kill_worker(w);
        self.respawns += 1;
        if self.respawns > self.config.max_respawns {
            return Err(PartitionError::Exhausted {
                detail: format!("respawn budget ({}) exhausted", self.config.max_respawns),
            });
        }
        let fresh = self.spawn_worker(w)?;
        self.procs[w] = fresh;
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        &mut self,
        stim: &Stimulus,
        events: &Receiver<Event>,
    ) -> Result<ProcReport, PartitionError> {
        let n = self.parts.parts();
        let mut committed = FrameOutputs::default();
        for shard in &self.parts.shards {
            for out in &shard.outputs {
                committed.ports.insert(out.clone(), Vec::new());
            }
        }
        let mut cursor: u64 = 0;
        let mut snapshots: Option<Vec<Vec<u8>>> = None;
        let mut resumed_from = None;
        if self.config.resume {
            let store = self.store.as_ref().ok_or_else(|| PartitionError::Store {
                detail: "resume requested without a store directory".into(),
            })?;
            if let Some(record) = store.latest_consistent()? {
                if record.fingerprint != self.fingerprint {
                    return Err(PartitionError::Store {
                        detail: format!(
                            "store fingerprint {:#x} does not match this cut ({:#x})",
                            record.fingerprint, self.fingerprint
                        ),
                    });
                }
                cursor = record.cycle;
                committed.ports = record.outputs.clone();
                snapshots = Some(record.workers.iter().map(|b| b.snapshot.clone()).collect());
                resumed_from = Some(record.cycle);
            }
        }

        // Launch the fleet.
        for w in 0..n {
            let proc = self.spawn_worker(w)?;
            self.procs.push(proc);
        }
        // A resumed run seeds every worker from the durable barrier
        // before the first batch.
        if let Some(blobs) = snapshots.clone() {
            let blobs: Vec<Option<Vec<u8>>> = blobs.into_iter().map(Some).collect();
            self.rollback_to(cursor, &blobs, events)?;
        }

        let mut recoveries: u32 = 0;
        let mut barriers: u64 = 0;
        let mut replayed: u64 = 0;

        while cursor < stim.cycles {
            let batch_len = self.config.snapshot_interval.min(stim.cycles - cursor);
            let prologue = cursor == 0 && snapshots.is_none();
            self.send_batches(stim, cursor, batch_len, prologue);
            let reports = self.collect_batch(cursor, events);

            let mut batch_ok = reports.iter().all(Option::is_some);
            if batch_ok {
                // Barrier crosscheck: both ends of every link must
                // have hashed the same value stream.
                for &(producer, out_idx, consumer, in_idx) in &self.crosslinks {
                    let produced = reports[producer].as_ref().map(|r| r.out_hashes[out_idx]);
                    let consumed = reports[consumer].as_ref().map(|r| r.in_hashes[in_idx]);
                    if produced != consumed {
                        self.detections.push(Detection {
                            worker: Some(consumer),
                            batch_start: cursor,
                            kind: DetectionKind::LinkHashMismatch,
                        });
                        batch_ok = false;
                    }
                }
            }

            if batch_ok {
                let mut blobs = Vec::with_capacity(n);
                for (w, report) in reports.into_iter().enumerate() {
                    let report = report.expect("batch_ok implies every report present");
                    for (i, port) in self.parts.shards[w].outputs.iter().enumerate() {
                        let sink = committed.ports.get_mut(port).expect("port registered");
                        sink.extend(report.outputs.iter().map(|row| row[i]));
                    }
                    blobs.push(WorkerBlob {
                        snapshot: report.snapshot,
                        out_links: report.out_hashes.iter().map(|&h| (0, h)).collect(),
                        in_links: report.in_hashes.iter().map(|&h| (0, h)).collect(),
                    });
                }
                cursor += batch_len;
                barriers += 1;
                if let Some(store) = &self.store {
                    let record = BarrierRecord {
                        cycle: cursor,
                        fingerprint: self.fingerprint,
                        workers: blobs.clone(),
                        outputs: committed.ports.clone(),
                    };
                    let path = store.save(&record)?;
                    let _ = store.prune(self.config.keep_barriers.max(1));
                    if self.config.chaos.torn_after == Some(barriers) && !self.torn_fired {
                        self.torn_fired = true;
                        tear_record(&path)?;
                    }
                }
                snapshots = Some(blobs.into_iter().map(|b| b.snapshot).collect());
                if self.config.stop_after_barriers == Some(barriers) && cursor < stim.cycles {
                    return Ok(ProcReport {
                        outputs: committed,
                        detections: std::mem::take(&mut self.detections),
                        recoveries,
                        respawns: self.respawns,
                        barriers,
                        replayed_cycles: replayed,
                        resumed_from,
                        completed: false,
                    });
                }
            } else {
                recoveries += 1;
                replayed += batch_len;
                if recoveries > self.config.max_recoveries {
                    return Err(PartitionError::Exhausted {
                        detail: format!(
                            "recovery budget ({}) exhausted at cycle {cursor}",
                            self.config.max_recoveries
                        ),
                    });
                }
                // Restore target: the durable store is authoritative
                // when configured (a torn newest record falls back one
                // barrier); the in-memory barrier otherwise.
                let target = if let Some(store) = &self.store {
                    match store.latest_consistent()? {
                        Some(record) if record.fingerprint == self.fingerprint => {
                            Target::Durable(record)
                        }
                        _ => Target::PowerOn,
                    }
                } else {
                    match snapshots.clone() {
                        Some(blobs) => Target::Memory(blobs),
                        None => Target::PowerOn,
                    }
                };
                match target {
                    Target::Durable(record) => {
                        if record.cycle < cursor {
                            // Fell back behind the in-memory commit
                            // point: rewind the committed prefix too.
                            replayed += cursor - record.cycle;
                            committed.ports = record.outputs.clone();
                            cursor = record.cycle;
                        }
                        let blobs: Vec<Option<Vec<u8>>> =
                            record.workers.iter().map(|b| Some(b.snapshot.clone())).collect();
                        snapshots = Some(record.workers.into_iter().map(|b| b.snapshot).collect());
                        self.rollback_to(cursor, &blobs, events)?;
                    }
                    Target::Memory(blobs) => {
                        let blobs: Vec<Option<Vec<u8>>> = blobs.into_iter().map(Some).collect();
                        self.rollback_to(cursor, &blobs, events)?;
                    }
                    Target::PowerOn => {
                        replayed += cursor;
                        cursor = 0;
                        for values in committed.ports.values_mut() {
                            values.clear();
                        }
                        snapshots = None;
                        self.rollback_to(0, &vec![None; n], events)?;
                    }
                }
            }
        }
        Ok(ProcReport {
            outputs: committed,
            detections: std::mem::take(&mut self.detections),
            recoveries,
            respawns: self.respawns,
            barriers,
            replayed_cycles: replayed,
            resumed_from,
            completed: true,
        })
    }

    /// Distributes one batch to every worker.
    fn send_batches(&mut self, stim: &Stimulus, cursor: u64, batch_len: u64, prologue: bool) {
        let generation = self.generation;
        for w in 0..self.parts.parts() {
            let shard = &self.parts.shards[w];
            let inputs: Vec<Vec<i64>> = (0..batch_len)
                .map(|o| {
                    shard.inputs.iter().map(|p| stim.inputs[p][(cursor + o) as usize]).collect()
                })
                .collect();
            let mut stall = None;
            for (i, &(sw, sc, millis)) in self.config.chaos.stalls.iter().enumerate() {
                if sw == w && sc >= cursor && sc < cursor + batch_len && !self.fired_stalls[i] {
                    self.fired_stalls[i] = true;
                    stall = Some((sc - cursor, millis));
                }
            }
            let frame = Frame::Batch {
                generation,
                start: cursor,
                cycles: batch_len,
                prologue,
                inputs,
                faults: Vec::new(),
                stall,
            };
            let now = self.now();
            let proc = &mut self.procs[w];
            proc.last_seen = now;
            // A send failure means the worker died; the collect loop
            // will see the close or the silence.
            let _ = proc.writer.send(&frame);
        }
    }

    /// Collects one barrier report per worker, routing boundary
    /// traffic and policing liveness meanwhile. All-`None` means the
    /// batch failed and a rollback is due.
    #[allow(clippy::too_many_lines)]
    fn collect_batch(&mut self, cursor: u64, events: &Receiver<Event>) -> Vec<Option<Report>> {
        let n = self.parts.parts();
        let mut reports: Vec<Option<Report>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        let mut failed = false;
        // Workers SIGKILLed by chaos during this window.
        let mut killed = vec![false; n];
        while received < n && !failed {
            match events.recv_timeout(Duration::from_millis(10)) {
                Ok(Event::Frame { worker, conn, frame }) => {
                    if self.procs[worker].conn != conn {
                        continue; // stale connection
                    }
                    let now = self.now();
                    self.procs[worker].last_seen = now;
                    match frame {
                        Frame::Boundary { generation, link, msg } => {
                            if generation != self.generation {
                                continue;
                            }
                            let Some(&(consumer, in_idx)) =
                                self.out_route[worker].get(link as usize)
                            else {
                                self.detect(Some(worker), cursor, DetectionKind::Sequence);
                                failed = true;
                                continue;
                            };
                            let routed = Frame::Boundary { generation, link: in_idx, msg };
                            // A failed forward surfaces as the
                            // consumer's own silence or close.
                            let _ = self.procs[consumer].writer.send(&routed);
                        }
                        Frame::Heartbeat { generation, cycle, .. } => {
                            if generation != self.generation {
                                continue;
                            }
                            if self.fire_kills(worker, cycle) {
                                killed[worker] = true;
                            }
                        }
                        Frame::BarrierReport {
                            generation,
                            start,
                            outputs,
                            out_hashes,
                            in_hashes,
                            snapshot,
                            cycles,
                            ..
                        } => {
                            if generation != self.generation || start != cursor {
                                continue;
                            }
                            // A kill scheduled inside this window fires
                            // before the window can commit, however far
                            // ahead of its heartbeats the worker ran.
                            if self.fire_kills(worker, start + cycles.saturating_sub(1)) {
                                killed[worker] = true;
                            }
                            // A killed worker's report is void; its
                            // close ends the window.
                            if killed[worker] {
                                continue;
                            }
                            if reports[worker].is_none() {
                                received += 1;
                            }
                            reports[worker] =
                                Some(Report { outputs, out_hashes, in_hashes, snapshot });
                        }
                        Frame::Fault { generation, kind, .. } => {
                            if generation != self.generation {
                                continue;
                            }
                            self.detect(Some(worker), cursor, kind);
                            failed = true;
                        }
                        // Hellos/acks outside their windows: ignore.
                        _ => {}
                    }
                }
                Ok(Event::Closed { worker, conn }) => {
                    if self.procs[worker].conn != conn {
                        continue;
                    }
                    self.procs[worker].alive = false;
                    self.detect(Some(worker), cursor, DetectionKind::Crash);
                    failed = true;
                }
                Ok(Event::Malformed { worker, conn }) => {
                    if self.procs[worker].conn != conn {
                        continue;
                    }
                    // Garbage on the control stream: framing is lost,
                    // the worker cannot be trusted — treat as dead.
                    self.detect(Some(worker), cursor, DetectionKind::Checksum);
                    self.kill_worker(worker);
                    failed = true;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    failed = true;
                }
            }
            if !failed {
                // Liveness: heartbeats (or any traffic) must keep
                // every unreported worker fresh.
                let now = self.now();
                for (w, report) in reports.iter().enumerate() {
                    if report.is_none()
                        && now.saturating_sub(self.procs[w].last_seen) > self.liveness_ticks
                    {
                        self.detect(Some(w), cursor, DetectionKind::Stall);
                        self.kill_worker(w);
                        failed = true;
                    }
                }
            }
        }
        if failed {
            // Poison partial results so the caller rolls back.
            for slot in &mut reports {
                *slot = None;
            }
        }
        reports
    }

    /// SIGKILLs `worker` if a chaos kill is scheduled for it at or
    /// before `cycle` and has not fired yet; the reader thread then
    /// reports the close. Returns whether a kill fired.
    fn fire_kills(&mut self, worker: usize, cycle: u64) -> bool {
        let mut fired = false;
        for (i, &(kw, kc)) in self.config.chaos.kill9.iter().enumerate() {
            if kw == worker && kc <= cycle && !self.fired_kills[i] {
                self.fired_kills[i] = true;
                fired = true;
            }
        }
        if fired {
            let _ = self.procs[worker].child.kill();
        }
        fired
    }

    /// Generation-bump rollback: respawn the dead, restore everyone to
    /// `cycle` (power-on where a blob is `None`), await every ack.
    fn rollback_to(
        &mut self,
        cycle: u64,
        blobs: &[Option<Vec<u8>>],
        events: &Receiver<Event>,
    ) -> Result<(), PartitionError> {
        let n = self.parts.parts();
        self.generation += 1;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > self.config.max_respawns.max(1) {
                return Err(PartitionError::Exhausted {
                    detail: "rollback could not assemble a live fleet".into(),
                });
            }
            for w in 0..n {
                if !self.procs[w].alive {
                    self.respawn_worker(w)?;
                }
            }
            let generation = self.generation;
            let mut send_failed = false;
            for (w, blob) in blobs.iter().enumerate() {
                let snapshot = blob.clone().unwrap_or_default();
                let frame = Frame::Rollback { generation, cycle, snapshot };
                if self.procs[w].writer.send(&frame).is_err() {
                    self.procs[w].alive = false;
                    send_failed = true;
                }
            }
            if send_failed {
                continue;
            }
            // Await one ack per worker under a liveness-scaled
            // deadline (restore includes an engine rebuild on
            // power-on resets).
            let deadline = Deadline::after(
                Arc::clone(&self.config.clock),
                self.liveness_ticks.saturating_mul(4),
            );
            let mut acked = vec![false; n];
            let mut acks = 0usize;
            while acks < n && !deadline.expired() {
                match events.recv_timeout(Duration::from_millis(10)) {
                    Ok(Event::Frame { worker, conn, frame }) => {
                        if self.procs[worker].conn != conn {
                            continue;
                        }
                        let now = self.now();
                        self.procs[worker].last_seen = now;
                        if let Frame::RollbackAck { generation: g, .. } = frame {
                            if g == generation && !acked[worker] {
                                acked[worker] = true;
                                acks += 1;
                            }
                        }
                        // Everything else mid-rollback is stale.
                    }
                    Ok(Event::Closed { worker, conn } | Event::Malformed { worker, conn }) => {
                        if self.procs[worker].conn == conn {
                            self.procs[worker].alive = false;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            if acks == n {
                return Ok(());
            }
            // Kill the non-ackers and go around (bounded by the
            // attempt counter and the respawn budget).
            for (w, ok) in acked.iter().enumerate() {
                if !ok {
                    self.kill_worker(w);
                }
            }
        }
    }

    /// Clean teardown: shutdown frames, a short grace period, SIGKILL
    /// stragglers, reap everything, remove the socket dir if we own
    /// it.
    fn shutdown(&mut self) {
        for proc in &mut self.procs {
            let _ = proc.writer.send(&Frame::Shutdown);
        }
        let grace = Instant::now() + Duration::from_millis(500);
        for w in 0..self.procs.len() {
            loop {
                match self.procs[w].child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < grace => {
                        thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = self.procs[w].child.kill();
                        let _ = self.procs[w].child.wait();
                        break;
                    }
                }
            }
            self.procs[w].alive = false;
            if let Some(handle) = self.procs[w].reader.take() {
                let _ = handle.join();
            }
        }
        self.listeners.clear();
        if self.config.sock_dir.is_none() {
            let _ = std::fs::remove_dir_all(&self.sock_dir);
        }
    }
}

/// Reader-thread body: pump frames into the shared event queue until
/// the socket closes or the supervisor goes away.
fn reader_main(worker: usize, conn: u64, mut transport: SocketTransport, tx: &Sender<Event>) {
    loop {
        match transport.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => {
                if tx.send(Event::Frame { worker, conn, frame }).is_err() {
                    return;
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Disconnected) => {
                let _ = tx.send(Event::Closed { worker, conn });
                return;
            }
            Err(RecvError::Protocol(_)) => {
                let _ = tx.send(Event::Malformed { worker, conn });
                return;
            }
        }
    }
}

/// Simulated torn write: truncate a durable record mid-body.
fn tear_record(path: &std::path::Path) -> Result<(), PartitionError> {
    let tear = |e: std::io::Error| PartitionError::Store { detail: format!("tear: {e}") };
    let len = std::fs::metadata(path).map_err(tear)?.len();
    let file = std::fs::OpenOptions::new().write(true).open(path).map_err(tear)?;
    file.set_len(len / 2).map_err(tear)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{partition, CutOptions};
    use crate::runner::run_single;
    use crate::transport::ChannelTransport;
    use dwt_rtl::builder::NetlistBuilder;
    use dwt_rtl::sim::Simulator;
    use std::collections::BTreeMap;

    /// The same feed-forward pipeline the cut tests use: `stages`
    /// add-one registers in a row.
    fn pipeline(stages: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let one = b.constant(1, 8).unwrap();
        let mut bus = b.input("x", 8).unwrap();
        for s in 0..stages {
            let sum = b.carry_add(&format!("add{s}"), &bus, &one, 8).unwrap();
            bus = b.register(&format!("r{s}"), &sum).unwrap();
        }
        b.output("y", &bus).unwrap();
        b.finish().unwrap()
    }

    fn stimulus(cycles: u64) -> Stimulus {
        let mut inputs = BTreeMap::new();
        inputs.insert("x".to_string(), (0..cycles as i64).map(|c| (c % 17) - 8).collect());
        Stimulus { cycles, inputs }
    }

    #[test]
    fn worker_spec_mirrors_the_cut() {
        let netlist = pipeline(4);
        let parts = partition(&netlist, 2, &CutOptions::default()).unwrap();
        let spec0 = WorkerSpec::from_cut(&parts, 0).unwrap();
        let spec1 = WorkerSpec::from_cut(&parts, 1).unwrap();
        assert_eq!(spec0.fingerprint, parts.fingerprint());
        assert_eq!(spec1.fingerprint, parts.fingerprint());
        let outs = spec0.out_ports.len() + spec1.out_ports.len();
        let ins = spec0.in_ports.len() + spec1.in_ports.len();
        assert_eq!(outs, parts.links.len());
        assert_eq!(ins, parts.links.len());
        assert!(matches!(WorkerSpec::from_cut(&parts, 2), Err(PartitionError::Spawn { .. })));
    }

    /// Drives two real `run_worker` loops over channel transports with
    /// a hand-written hub: batches out, boundaries routed, reports
    /// crosschecked, then a power-on rollback and a full bit-exact
    /// replay against the single-engine oracle.
    #[test]
    fn run_worker_speaks_the_protocol_end_to_end() {
        let netlist = pipeline(4);
        let parts = partition(&netlist, 2, &CutOptions::default()).unwrap();
        let stim = stimulus(24);
        let specs: Vec<WorkerSpec> =
            (0..2).map(|w| WorkerSpec::from_cut(&parts, w).unwrap()).collect();

        // out_route[w][out_idx] = (consumer, consumer_in_idx)
        let mut out_route: Vec<Vec<(usize, u32)>> = vec![Vec::new(); 2];
        let mut in_counts = [0u32; 2];
        for link in &parts.links {
            out_route[link.from].push((link.to, in_counts[link.to]));
            in_counts[link.to] += 1;
        }

        let mut hubs = Vec::new();
        let mut handles = Vec::new();
        for spec in specs {
            let (mut worker_end, hub_end) = ChannelTransport::pair();
            hubs.push(hub_end);
            handles.push(std::thread::spawn(move || {
                run_worker::<Simulator, _>(&spec, &mut worker_end, &WorkerConfig::default())
            }));
        }
        for hub in &mut hubs {
            match hub.recv_timeout(Duration::from_secs(5)).unwrap() {
                Frame::Hello { fingerprint, .. } => {
                    assert_eq!(fingerprint, parts.fingerprint());
                }
                other => panic!("expected Hello, got {other:?}"),
            }
        }

        /// One batch across both workers: send, route, collect.
        /// Returns per-worker (outputs, out_hashes, in_hashes).
        #[allow(clippy::type_complexity, clippy::too_many_arguments)]
        fn drive_batch(
            hubs: &mut [ChannelTransport],
            out_route: &[Vec<(usize, u32)>],
            parts: &PartitionedNetlist,
            stim: &Stimulus,
            generation: u64,
            start: u64,
            cycles: u64,
            prologue: bool,
        ) -> Vec<(Vec<Vec<i64>>, Vec<u64>, Vec<u64>)> {
            for (w, hub) in hubs.iter_mut().enumerate() {
                let shard = &parts.shards[w];
                let inputs: Vec<Vec<i64>> = (0..cycles)
                    .map(|o| {
                        shard.inputs.iter().map(|p| stim.inputs[p][(start + o) as usize]).collect()
                    })
                    .collect();
                hub.send(&Frame::Batch {
                    generation,
                    start,
                    cycles,
                    prologue,
                    inputs,
                    faults: Vec::new(),
                    stall: None,
                })
                .unwrap();
            }
            // Route until both reports arrive. Per-channel FIFO order
            // means a report is always the last frame of its batch, so
            // once both reports are in, every boundary was routed.
            let mut reports: Vec<Option<(Vec<Vec<i64>>, Vec<u64>, Vec<u64>)>> = vec![None, None];
            let mut received = 0;
            while received < 2 {
                for w in 0..2 {
                    if reports[w].is_some() {
                        continue;
                    }
                    match hubs[w].recv_timeout(Duration::from_millis(50)) {
                        Ok(Frame::Boundary { generation, link, msg }) => {
                            let (consumer, in_idx) = out_route[w][link as usize];
                            hubs[consumer]
                                .send(&Frame::Boundary { generation, link: in_idx, msg })
                                .unwrap();
                        }
                        Ok(Frame::Heartbeat { .. }) => {}
                        Ok(Frame::BarrierReport {
                            start: s,
                            outputs,
                            out_hashes,
                            in_hashes,
                            ..
                        }) => {
                            assert_eq!(s, start);
                            reports[w] = Some((outputs, out_hashes, in_hashes));
                            received += 1;
                        }
                        Ok(other) => panic!("unexpected frame {other:?}"),
                        Err(RecvError::Timeout) => {}
                        Err(e) => panic!("hub recv: {e}"),
                    }
                }
            }
            reports.into_iter().map(Option::unwrap).collect()
        }

        #[allow(clippy::type_complexity)]
        fn commit(
            parts: &PartitionedNetlist,
            committed: &mut BTreeMap<String, Vec<i64>>,
            reports: &[(Vec<Vec<i64>>, Vec<u64>, Vec<u64>)],
        ) {
            for (w, (outputs, _, _)) in reports.iter().enumerate() {
                for (i, port) in parts.shards[w].outputs.iter().enumerate() {
                    committed
                        .entry(port.clone())
                        .or_default()
                        .extend(outputs.iter().map(|row| row[i]));
                }
            }
        }

        let mut first = BTreeMap::new();
        let r1 = drive_batch(&mut hubs, &out_route, &parts, &stim, 0, 0, 12, true);
        commit(&parts, &mut first, &r1);
        let r2 = drive_batch(&mut hubs, &out_route, &parts, &stim, 0, 12, 12, false);
        commit(&parts, &mut first, &r2);

        // Link hashes crosscheck after each barrier.
        let mut out_counts = [0usize; 2];
        let mut in_idx_counts = [0usize; 2];
        for link in &parts.links {
            let produced = r2[link.from].1[out_counts[link.from]];
            let consumed = r2[link.to].2[in_idx_counts[link.to]];
            assert_eq!(produced, consumed, "link hash mismatch on {:?}", link.ports);
            out_counts[link.from] += 1;
            in_idx_counts[link.to] += 1;
        }

        // Power-on rollback (generation 1), then replay everything:
        // same committed outputs, bit for bit.
        for hub in &mut hubs {
            hub.send(&Frame::Rollback { generation: 1, cycle: 0, snapshot: Vec::new() }).unwrap();
        }
        let mut acks = 0;
        while acks < 2 {
            for hub in &mut hubs {
                match hub.recv_timeout(Duration::from_millis(50)) {
                    Ok(Frame::RollbackAck { generation: 1, .. }) => acks += 1,
                    Ok(_) | Err(RecvError::Timeout) => {}
                    Err(e) => panic!("awaiting ack: {e}"),
                }
            }
        }
        let mut replay = BTreeMap::new();
        let r3 = drive_batch(&mut hubs, &out_route, &parts, &stim, 1, 0, 12, true);
        commit(&parts, &mut replay, &r3);
        let r4 = drive_batch(&mut hubs, &out_route, &parts, &stim, 1, 12, 12, false);
        commit(&parts, &mut replay, &r4);
        assert_eq!(first, replay, "replay diverged from the first pass");

        let oracle = run_single::<Simulator>(&netlist, &stim, None).unwrap();
        assert_eq!(first, oracle.ports, "partitioned run diverged from the oracle");

        for hub in &mut hubs {
            hub.send(&Frame::Shutdown).unwrap();
        }
        for handle in handles {
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn tear_record_truncates_in_place() {
        let dir = std::env::temp_dir().join(format!("dwt-tear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, vec![0xabu8; 64]).unwrap();
        tear_record(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
