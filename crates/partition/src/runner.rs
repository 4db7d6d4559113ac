//! The crash-recoverable multi-threaded partition runner.
//!
//! One worker thread per shard, each owning an [`Engine`] (event or
//! compiled backend — the runner is generic, like `recover`/`pool`/
//! `serve`). The cut classifies every boundary link once
//! ([`BoundaryLink::feedback`](crate::cut::BoundaryLink::feedback)): a link is *forward* unless it lies on
//! a cycle of the shard graph. Forward links are exchanged once per
//! barrier batch, feedback links once per cycle. A batch of cycles
//! `s .. s + n` then runs, per worker:
//!
//! 1. receive and verify (sequence, value count, checksum) one frame
//!    per forward in-link: the producer's post-edge register/constant
//!    values for all `n` cycles, `n × ports` values in row order;
//!
//! and for each cycle `k` of the batch:
//!
//! 2. stage the primary inputs for cycle `k` and row `k − s` of every
//!    forward in-link's frame;
//! 3. tick — registers capture from the state settled at the end of
//!    cycle `k-1`, then the staged values apply and the logic settles,
//!    exactly as the monolithic machine's registers do;
//! 4. peek the `__cut` output ports (post-edge values, which never
//!    depend combinationally on another shard): append them to every
//!    forward out-link's batch buffer, and send one [`BoundaryMsg`]
//!    per feedback out-link;
//! 5. only on a worker with feedback in-links: receive and stage those,
//!    then settle again;
//!
//! and once the batch is done:
//!
//! 6. send each forward out-link's buffer as one [`BoundaryMsg`] — one
//!    sequence number, one checksum, one fold into the running hash.
//!
//! A worker whose in-links are all forward settles once per cycle, in
//! its tick; a feedback worker pays a second settle. A consumer trails
//! its producer by one batch. Deadlock freedom follows by induction
//! over the DAG of the shard graph's strongly connected components, at
//! batch granularity: a component's forward in-links all come from
//! earlier components, which send batch `s` without waiting on it, and
//! inside a component every link is feedback and every worker sends
//! before it receives, as the old all-sends-before-all-receives
//! lockstep did. The channels are unbounded, so a producer runs on
//! into its next batch while its consumers work through the last one —
//! the paper's pipeline stages, one shard per stage group. A corruption
//! or a killed producer on a forward link surfaces at the consumer when
//! it takes the batch frame.
//!
//! A *prologue* exchange before the first tick distributes the
//! power-on boundary values (register zeros, constant values) on every
//! link, then settles; it needs no fixpoint, because cut-legal drivers
//! never depend combinationally on other shards.
//!
//! Each worker beats a liveness counter once per cycle. A consumer
//! waiting on a frame goes on waiting, and beats too, while its
//! producer's counter moves; a producer whose counter stands still for
//! `watchdog` is a straggler. In a DAG no peer waits on a sink shard,
//! so a peer's receive timeout cannot notice a wedged sink: the
//! coordinator's collection poll therefore flags a
//! [`DetectionKind::Stall`] for any worker that still owes its batch
//! and whose counter has not moved for `watchdog` on the runner's
//! [`Clock`] (timed from the start of the batch's collection, never
//! from its first response: a source shard finishes long before the
//! rest).
//!
//! Robustness is barrier-structured. Execution proceeds in batches of
//! `snapshot_interval` cycles; after a batch, every worker returns its
//! engine snapshot plus per-link running hashes. The next batch is
//! already queued behind it, so workers run on through the barrier
//! while the coordinator checks it. The coordinator commits the batch
//! only if every worker reported, the two ends of every link hash
//! identically (lockstep divergence detection), and — when an oracle
//! is supplied — the outputs match it. Any checksum or sequence
//! violation, watchdog timeout, crash (channel disconnect), hash
//! mismatch or oracle mismatch aborts the batch: the epoch is torn
//! down with the queued batch, every worker is respawned with a fresh
//! engine restored from the last consistent global snapshot, and the
//! lost cycles are replayed. Transient fault arrivals are keyed by a
//! monotone attempt clock, so a strike never recurs on replay. After
//! `max_recoveries` the runner degrades to a single full-netlist
//! engine, and finally to a caller-supplied software-golden fallback —
//! availability failures never become correctness failures.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dwt_pool::clock::{Clock, Deadline, MonotonicClock};
use dwt_recover::injector::{FaultInjector, Lane};
use dwt_recover::seu::PoissonSeuBuilder;
use dwt_rtl::engine::Engine;
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::netlist::{Netlist, PortDirection};

use crate::channel::{hash_seed, BoundaryMsg, LinkFault};
use crate::cut::PartitionedNetlist;
use crate::error::PartitionError;
use crate::transport::{ChannelTransport, RecvError, Transport};
use crate::wire::Frame;

/// Per-cycle input vectors for one frame.
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    /// Frame length in virtual cycles.
    pub cycles: u64,
    /// One value per cycle for every primary input port.
    pub inputs: BTreeMap<String, Vec<i64>>,
}

/// Per-cycle output samples for one frame (settled, post-edge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameOutputs {
    /// One value per cycle for every primary output port.
    pub ports: BTreeMap<String, Vec<i64>>,
}

/// The rung a frame finally completed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Partitioned execution (recoveries allowed).
    Partitioned,
    /// Single-engine re-execution of the whole frame.
    SingleEngine,
    /// The caller-supplied software-golden fallback.
    Golden,
}

/// What the robustness layer noticed, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionKind {
    /// A message failed its checksum (payload corruption).
    Checksum,
    /// A message arrived out of sequence (loss or duplication).
    Sequence,
    /// Producer and consumer link hashes disagree at a barrier
    /// (stealth corruption or silent state divergence).
    LinkHashMismatch,
    /// Outputs disagree with the supplied oracle (an SEU slipped
    /// through to architectural state).
    OracleMismatch,
    /// A worker missed the watchdog window.
    Stall,
    /// A worker's channels disconnected (thread died).
    Crash,
    /// An engine error inside a worker.
    Engine(String),
}

/// One detection event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Worker that reported (or failed to report); `None` for
    /// barrier-level checks.
    pub worker: Option<usize>,
    /// Virtual cycle the batch started at.
    pub batch_start: u64,
    /// What was detected.
    pub kind: DetectionKind,
}

/// Outcome of one frame.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// The per-cycle outputs (authoritative, whatever the rung).
    pub outputs: FrameOutputs,
    /// The rung that produced [`FrameReport::outputs`].
    pub rung: Rung,
    /// Rollback-and-replay recoveries performed.
    pub recoveries: u32,
    /// Everything the detectors fired on.
    pub detections: Vec<Detection>,
    /// Barriers committed (consistent global snapshots taken).
    pub barriers: u64,
    /// Boundary frames sent on all links in the committed batches:
    /// per link, one prologue frame, then one per batch on a forward
    /// link or one per cycle on a feedback link.
    pub boundary_frames: u64,
    /// Cycles re-executed during replays.
    pub replayed_cycles: u64,
}

/// Chaos directives for fault-tolerance tests and campaigns. Kills,
/// stalls and corruptions fire **once** each — after the recovery
/// they provoke, the replay runs clean.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// `(worker, cycle)`: the worker thread dies just before ticking
    /// that virtual cycle.
    pub kills: Vec<(usize, u64)>,
    /// `(worker, cycle, pause)`: the worker sleeps that long before
    /// ticking — longer than the watchdog means its peers declare it
    /// a straggler.
    pub stalls: Vec<(usize, u64, Duration)>,
    /// In-flight message corruptions.
    pub corruptions: Vec<Corruption>,
    /// Poisson-distributed transient register upsets inside every
    /// worker's shard (rate per cycle per worker).
    pub seu: Option<SeuChaos>,
}

/// One in-flight message corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Producer shard.
    pub from: usize,
    /// Consumer shard.
    pub to: usize,
    /// Virtual cycle whose message is corrupted.
    pub cycle: u64,
    /// `false`: flip a payload bit, leaving the checksum stale (caught
    /// immediately by the consumer). `true`: flip the bit *and*
    /// rewrite the checksum — only the barrier hash crosscheck can
    /// catch it.
    pub stealth: bool,
}

/// Poisson SEU chaos parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuChaos {
    /// Expected upsets per cycle per worker.
    pub rate: f64,
    /// Base seed (worker index is mixed in).
    pub seed: u64,
}

/// Runner tuning.
#[derive(Clone)]
pub struct RunnerConfig {
    /// Cycles per barrier (snapshot cadence). Shorter means cheaper
    /// replays and more snapshot overhead.
    pub snapshot_interval: u64,
    /// How long a worker waiting on a boundary receive lets its
    /// producer go without a liveness beat before declaring it a
    /// straggler, and how long (in nanosecond ticks of
    /// [`RunnerConfig::clock`]) a worker that owes its batch may go
    /// without a beat before the coordinator declares it wedged.
    pub watchdog: Duration,
    /// Rollback-and-replay budget per frame before degrading to the
    /// single-engine rung.
    pub max_recoveries: u32,
    /// Optional per-cycle event cap forwarded to every engine.
    pub event_cap: Option<u64>,
    /// Clock the coordinator's batch-collection deadline reads.
    /// [`MonotonicClock`] (ticks are nanoseconds) in production; a
    /// `VirtualClock` makes stall detection deterministic in tests.
    pub clock: Arc<dyn Clock>,
    /// Batch-collection budget in clock ticks. `None` derives a
    /// wall-clock budget from the watchdog (`watchdog × 4 + 500 ms`,
    /// in nanoseconds — the [`MonotonicClock`] tick unit).
    pub batch_budget: Option<u64>,
}

impl std::fmt::Debug for RunnerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerConfig")
            .field("snapshot_interval", &self.snapshot_interval)
            .field("watchdog", &self.watchdog)
            .field("max_recoveries", &self.max_recoveries)
            .field("event_cap", &self.event_cap)
            .field("batch_budget", &self.batch_budget)
            .finish_non_exhaustive()
    }
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            snapshot_interval: 32,
            watchdog: Duration::from_millis(250),
            max_recoveries: 8,
            event_cap: None,
            clock: Arc::new(MonotonicClock::new()),
            batch_budget: None,
        }
    }
}

/// The caller-supplied terminal fallback.
pub type GoldenFallback<'a> = &'a (dyn Fn(&Stimulus) -> Option<FrameOutputs> + Sync);

// ---------------------------------------------------------------- wire

/// What a worker receives per batch.
struct Batch {
    start: u64,
    cycles: u64,
    /// Run the power-on prologue exchange before the first tick.
    prologue: bool,
    /// `inputs[offset × width + i]` feeds the worker's `i`-th primary
    /// input at `offset`, `width` being its primary-input count.
    inputs: Vec<i64>,
    /// Transient faults due at `(offset, spec)`.
    faults: Vec<(u64, FaultSpec)>,
    kill_at: Option<u64>,
    stall_at: Option<(u64, Duration)>,
    /// `(offset, out-link index, stealth)`.
    corrupt: Vec<(u64, usize, bool)>,
}

enum Cmd {
    Run(Box<Batch>),
}

enum Resp<S> {
    Done {
        worker: usize,
        /// First cycle of the batch this answers.
        start: u64,
        /// `outputs[offset × width + i]` is the worker's `i`-th owned
        /// output at `offset`, `width` being its output count.
        outputs: Vec<i64>,
        /// Running hash per outgoing link, after this batch.
        out_hashes: Vec<u64>,
        /// Running hash per incoming link, after this batch.
        in_hashes: Vec<u64>,
        /// Boundary frames this worker sent during the batch.
        frames: u64,
        snapshot: S,
    },
    Fault {
        worker: usize,
        start: u64,
        kind: DetectionKind,
    },
}

impl<S> Resp<S> {
    /// `(worker, batch start)` of the response.
    fn origin(&self) -> (usize, u64) {
        match self {
            Resp::Done { worker, start, .. } | Resp::Fault { worker, start, .. } => {
                (*worker, *start)
            }
        }
    }
}

/// An outgoing boundary link. Thread mode speaks the same
/// [`Frame::Boundary`] wire protocol as process mode, over an
/// in-process [`ChannelTransport`] — every exchanged value round-trips
/// through the full byte codec on every run.
struct OutLink {
    ports: Vec<String>,
    /// Sent once per cycle, after the tick. A forward link instead
    /// buffers the batch in `rows` and sends it as one frame.
    feedback: bool,
    /// The batch's post-edge values so far, one row per cycle.
    rows: Vec<i64>,
    tx: ChannelTransport,
    seq: u64,
    hash: u64,
}

impl OutLink {
    /// Sends `rows` as one frame for the cycles from `cycle` on, with
    /// every chaos corruption `(row, stealth)` applied after the true
    /// values entered the running hash: it flips the first value of its
    /// row, and a stealth one also rewrites the checksum.
    fn flush(&mut self, li: usize, cycle: u64, corrupt: impl Iterator<Item = (usize, bool)>) {
        let mut msg = BoundaryMsg::new(self.seq, cycle, std::mem::take(&mut self.rows));
        self.hash = msg.fold_into(self.hash);
        self.seq += 1;
        let (mut flipped, mut stale) = (false, false);
        for (row, stealth) in corrupt {
            if let Some(value) = msg.values.get_mut(row * self.ports.len()) {
                *value ^= 1;
                flipped = true;
                stale |= !stealth;
            }
        }
        if flipped && !stale {
            msg = BoundaryMsg::new(msg.seq, msg.cycle, msg.values);
        }
        // A closed peer is the coordinator's problem (it will see the
        // peer's fault or absence); keep going.
        let _ = self.tx.send(&Frame::Boundary { generation: 0, link: li as u32, msg });
    }
}

struct InLink {
    /// Received after the tick (then settled), one frame per cycle,
    /// rather than one frame per batch before the first tick.
    feedback: bool,
    ports: Vec<String>,
    /// The last frame's values, one row per cycle.
    rows: Vec<i64>,
    rx: ChannelTransport,
    /// The producer's liveness counter.
    producer_beats: Arc<AtomicU64>,
    seq: u64,
    hash: u64,
}

impl InLink {
    /// Receives the next frame, which must hold `cycles` rows, verifies
    /// it and keeps its values in `rows`.
    ///
    /// A forward frame comes only after the producer's whole batch, so
    /// the wait is bounded by the producer's *liveness*, not by one
    /// fixed window: while the producer's counter moves, the wait goes
    /// on and beats `own_beats`, so the coordinator does not mistake
    /// this worker for a wedged one. Only a producer whose counter has
    /// stood still for `watchdog` is a straggler.
    fn recv(
        &mut self,
        watchdog: Duration,
        cycles: u64,
        own_beats: &AtomicU64,
    ) -> Result<(), LinkFault> {
        let poll = watchdog / 4;
        let mut last = self.producer_beats.load(Ordering::Relaxed);
        let mut idle = Duration::ZERO;
        let frame = loop {
            match self.rx.recv_timeout(poll) {
                Ok(frame) => break frame,
                Err(RecvError::Timeout) => {
                    let beats = self.producer_beats.load(Ordering::Relaxed);
                    if beats == last {
                        idle += poll;
                        if idle >= watchdog {
                            return Err(LinkFault::Timeout);
                        }
                    } else {
                        (last, idle) = (beats, Duration::ZERO);
                        own_beats.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(RecvError::Disconnected) => return Err(LinkFault::Disconnected),
                // Undecodable bytes on the link are payload corruption.
                Err(RecvError::Protocol(_)) => return Err(LinkFault::Checksum { seq: self.seq }),
            }
        };
        let Frame::Boundary { msg, .. } = frame else {
            return Err(LinkFault::Checksum { seq: self.seq });
        };
        msg.verify(self.seq, (cycles as usize).saturating_mul(self.ports.len()))?;
        self.hash = msg.fold_into(self.hash);
        self.seq += 1;
        self.rows = msg.values;
        Ok(())
    }

    /// Row `row` of the last frame, one value per port.
    fn row(&self, row: usize) -> &[i64] {
        let width = self.ports.len();
        &self.rows[row * width..(row + 1) * width]
    }
}

struct Worker<E: Engine> {
    id: usize,
    engine: E,
    inputs: Vec<String>,
    outputs: Vec<String>,
    out_links: Vec<OutLink>,
    in_links: Vec<InLink>,
    /// Whether any in-link is feedback (the worker settles after its
    /// tick).
    settles: bool,
    watchdog: Duration,
    /// Liveness beats, read by the coordinator's progress watchdog and
    /// by this worker's consumers: one per cycle finished, plus one
    /// per poll spent waiting on a producer that is itself beating.
    /// `Relaxed` suffices: the count publishes no other data.
    progress: Arc<AtomicU64>,
}

impl<E: Engine> Worker<E> {
    /// Appends the current boundary values to every outgoing link that
    /// `wanted` selects by its feedback flag.
    fn peek_links(&mut self, wanted: impl Fn(bool) -> bool) {
        for link in self.out_links.iter_mut().filter(|l| wanted(l.feedback)) {
            link.rows.extend(link.ports.iter().map(|p| self.engine.peek(p).unwrap_or(0)));
        }
    }

    /// Sends every selected outgoing link's buffered rows as one frame
    /// for the cycles from `cycle` on, applying the chaos corruptions
    /// due at `offset` + row. Returns the frames sent.
    fn send_links(
        &mut self,
        wanted: impl Fn(bool) -> bool,
        cycle: u64,
        corrupt: &[(u64, usize, bool)],
        offset: u64,
    ) -> u64 {
        let mut sent = 0;
        for (li, link) in self.out_links.iter_mut().enumerate() {
            if !wanted(link.feedback) {
                continue;
            }
            let rows = (link.rows.len() / link.ports.len().max(1)) as u64;
            let due = corrupt
                .iter()
                .filter(move |&&(co, cl, _)| cl == li && co >= offset && co < offset + rows);
            link.flush(li, cycle, due.map(|&(co, _, stealth)| ((co - offset) as usize, stealth)));
            sent += 1;
        }
        sent
    }

    /// Receives one frame of `cycles` rows on every incoming link that
    /// `wanted` selects by its feedback flag. Returns the first link
    /// fault.
    fn recv_links(&mut self, wanted: impl Fn(bool) -> bool, cycles: u64) -> Result<(), LinkFault> {
        for link in self.in_links.iter_mut().filter(|l| wanted(l.feedback)) {
            link.recv(self.watchdog, cycles, &self.progress)?;
        }
        Ok(())
    }

    /// Stages row `row` of every selected incoming link's last frame.
    fn stage_links(&mut self, wanted: impl Fn(bool) -> bool, row: usize) -> Result<(), String> {
        for link in self.in_links.iter().filter(|l| wanted(l.feedback)) {
            for (port, &value) in link.ports.iter().zip(link.row(row)) {
                // Boundary values come from a peer's register bus of
                // the same width; set_input cannot range-fail.
                self.engine.set_input(port, value).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn run_batch(&mut self, batch: &Batch) -> Result<Resp<E::Snapshot>, ()> {
        let id = self.id;
        let start = batch.start;
        let fault = move |kind: DetectionKind| Resp::Fault { worker: id, start, kind };
        let link_fault = |f: LinkFault| {
            fault(match f {
                LinkFault::Checksum { .. } | LinkFault::Length { .. } => DetectionKind::Checksum,
                LinkFault::Sequence { .. } => DetectionKind::Sequence,
                LinkFault::Timeout => DetectionKind::Stall,
                LinkFault::Disconnected => DetectionKind::Crash,
            })
        };
        let engine_fault = |e: String| fault(DetectionKind::Engine(e));
        // Rows a faulted batch left behind never reach a frame.
        for link in &mut self.out_links {
            link.rows.clear();
        }
        let mut frames = 0;
        if batch.prologue {
            self.peek_links(|_| true);
            frames += self.send_links(|_| true, batch.start, &[], 0);
            if let Err(f) = self.recv_links(|_| true, 1) {
                return Ok(link_fault(f));
            }
            if let Err(e) = self.stage_links(|_| true, 0) {
                return Ok(engine_fault(e));
            }
            if let Err(e) = self.engine.try_settle() {
                return Ok(engine_fault(e.to_string()));
            }
        }
        // The producers' whole batch on every forward in-link, before
        // the first tick: a consumer trails its producer by one batch.
        if let Err(f) = self.recv_links(|feedback| !feedback, batch.cycles) {
            return Ok(link_fault(f));
        }
        let width = self.inputs.len();
        let mut outputs = Vec::with_capacity(batch.cycles as usize * self.outputs.len());
        for offset in 0..batch.cycles {
            if batch.kill_at == Some(offset) {
                // Simulated crash: vanish without a response; the
                // dropped channels are the peers' first hint.
                return Err(());
            }
            if let Some((at, pause)) = batch.stall_at {
                if at == offset {
                    thread::sleep(pause);
                }
            }
            let cycle = batch.start + offset;
            let row = offset as usize;
            for (port, &value) in self.inputs.iter().zip(&batch.inputs[row * width..]) {
                if let Err(e) = self.engine.set_input(port, value) {
                    return Ok(engine_fault(e.to_string()));
                }
            }
            if let Err(e) = self.stage_links(|feedback| !feedback, row) {
                return Ok(engine_fault(e));
            }
            for (due, spec) in &batch.faults {
                if *due == offset {
                    let rebased = rebase(spec.clone(), self.engine.cycle());
                    if let Err(e) = self.engine.inject(&rebased) {
                        return Ok(engine_fault(e.to_string()));
                    }
                }
            }
            if let Err(e) = self.engine.try_tick() {
                return Ok(engine_fault(e.to_string()));
            }
            self.peek_links(|_| true);
            frames += self.send_links(|feedback| feedback, cycle, &batch.corrupt, offset);
            if self.settles {
                if let Err(f) = self.recv_links(|feedback| feedback, 1) {
                    return Ok(link_fault(f));
                }
                if let Err(e) = self.stage_links(|feedback| feedback, 0) {
                    return Ok(engine_fault(e));
                }
                if let Err(e) = self.engine.try_settle() {
                    return Ok(engine_fault(e.to_string()));
                }
            }
            outputs.extend(self.outputs.iter().map(|p| self.engine.peek(p).unwrap_or(0)));
            self.progress.fetch_add(1, Ordering::Relaxed);
        }
        frames += self.send_links(|feedback| !feedback, batch.start, &batch.corrupt, 0);
        Ok(Resp::Done {
            worker: self.id,
            start: batch.start,
            outputs,
            out_hashes: self.out_links.iter().map(|l| l.hash).collect(),
            in_hashes: self.in_links.iter().map(|l| l.hash).collect(),
            frames,
            snapshot: self.engine.snapshot(),
        })
    }
}

/// Rebase a transient fault to strike at the engine's next clock edge
/// (same contract as the recover executor's injection point).
pub(crate) fn rebase(spec: FaultSpec, now: u64) -> FaultSpec {
    match spec {
        FaultSpec::BitFlip { register, bit, .. } => {
            FaultSpec::BitFlip { register, bit, cycle: now }
        }
        FaultSpec::RamUpset { ram, addr, bit, .. } => {
            FaultSpec::RamUpset { ram, addr, bit, cycle: now }
        }
        stuck @ FaultSpec::StuckAt { .. } => stuck,
    }
}

fn worker_main<E: Engine>(
    mut worker: Worker<E>,
    cmd_rx: &Receiver<Cmd>,
    resp_tx: &Sender<Resp<E::Snapshot>>,
) {
    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            Cmd::Run(batch) => match worker.run_batch(&batch) {
                Ok(resp) => {
                    if resp_tx.send(resp).is_err() {
                        return;
                    }
                }
                // Simulated crash: drop everything, silently.
                Err(()) => return,
            },
        }
    }
}

// ---------------------------------------------------------- coordinator

/// Batches queued on the workers at once: the one being collected plus
/// one behind it, so a worker that finishes batch `k` starts `k + 1`
/// at once instead of idling through the barrier's round trip to the
/// coordinator. A failed batch tears the epoch down and discards the
/// queued one with it.
const BATCHES_IN_FLIGHT: usize = 2;

/// Responses that arrived while an earlier batch was being collected,
/// keyed by batch start, so any number of queued batches can answer
/// early without one answer overwriting another.
struct EarlyResponses<S> {
    workers: usize,
    by_start: BTreeMap<u64, Vec<Option<Resp<S>>>>,
}

impl<S> EarlyResponses<S> {
    fn new(workers: usize) -> Self {
        EarlyResponses { workers, by_start: BTreeMap::new() }
    }

    fn stash(&mut self, resp: Resp<S>) {
        let (w, start) = resp.origin();
        let workers = self.workers;
        self.by_start.entry(start).or_insert_with(|| (0..workers).map(|_| None).collect())[w] =
            Some(resp);
    }

    /// The responses already in for the batch at `start`, one slot per
    /// worker.
    fn take(&mut self, start: u64) -> Vec<Option<Resp<S>>> {
        self.by_start.remove(&start).unwrap_or_else(|| (0..self.workers).map(|_| None).collect())
    }
}

/// One frame's chaos bookkeeping. Kills, stalls and corruptions are
/// spent once the batch carrying them has been collected, so each
/// fires once and the replay it provokes runs clean — and one carried
/// by a batch that a rollback discarded unrun fires on the replay. SEU
/// arrivals are keyed by a monotone per-worker attempt clock.
struct ChaosState<'c> {
    plan: &'c ChaosPlan,
    spent_kills: Vec<bool>,
    spent_stalls: Vec<bool>,
    spent_corruptions: Vec<bool>,
    seu: Vec<Option<Box<dyn FaultInjector>>>,
    attempt_clock: u64,
}

impl<'c> ChaosState<'c> {
    fn new(plan: &'c ChaosPlan, parts: &PartitionedNetlist) -> Self {
        let seu = parts
            .shards
            .iter()
            .enumerate()
            .map(|(w, shard)| {
                let seu = plan.seu.as_ref()?;
                PoissonSeuBuilder::new()
                    .rate(seu.rate)
                    .stuck_fraction(0.0)
                    .common_mode(0.0)
                    .seed(seu.seed.wrapping_add(w as u64).wrapping_mul(0x9e37_79b9))
                    .build(&shard.netlist, &shard.netlist)
                    .ok()
                    .map(|inj| Box::new(inj) as Box<dyn FaultInjector>)
            })
            .collect();
        ChaosState {
            plan,
            spent_kills: vec![false; plan.kills.len()],
            spent_stalls: vec![false; plan.stalls.len()],
            spent_corruptions: vec![false; plan.corruptions.len()],
            seu,
            attempt_clock: 0,
        }
    }

    /// Worker `w`'s out-link index towards `to`, if that link exists.
    fn out_link(parts: &PartitionedNetlist, w: usize, to: usize) -> Option<usize> {
        parts.links.iter().filter(|l| l.from == w).position(|l| l.to == to)
    }

    /// Worker `w`'s batch `[start, start + len)` with every unspent
    /// directive and SEU arrival due inside it.
    fn batch(
        &mut self,
        parts: &PartitionedNetlist,
        w: usize,
        start: u64,
        len: u64,
        prologue: bool,
        inputs: Vec<i64>,
    ) -> Batch {
        let in_window = |c: u64| c >= start && c < start + len;
        let mut faults = Vec::new();
        if let Some(inj) = self.seu[w].as_mut() {
            for o in 0..len {
                for spec in inj.arrivals(self.attempt_clock + o, Lane::Primary) {
                    faults.push((o, spec));
                }
            }
        }
        let mut kill_at = None;
        for (i, &(kw, kc)) in self.plan.kills.iter().enumerate() {
            if kw == w && in_window(kc) && !self.spent_kills[i] {
                kill_at = Some(kc - start);
            }
        }
        let mut stall_at = None;
        for (i, &(sw, sc, pause)) in self.plan.stalls.iter().enumerate() {
            if sw == w && in_window(sc) && !self.spent_stalls[i] {
                stall_at = Some((sc - start, pause));
            }
        }
        let mut corrupt = Vec::new();
        for (i, c) in self.plan.corruptions.iter().enumerate() {
            if c.from == w && in_window(c.cycle) && !self.spent_corruptions[i] {
                if let Some(link) = Self::out_link(parts, w, c.to) {
                    corrupt.push((c.cycle - start, link, c.stealth));
                }
            }
        }
        Batch { start, cycles: len, prologue, inputs, faults, kill_at, stall_at, corrupt }
    }

    /// Marks the directives inside the collected batch
    /// `[start, start + len)` as fired.
    fn spend(&mut self, parts: &PartitionedNetlist, start: u64, len: u64) {
        let in_window = |c: u64| c >= start && c < start + len;
        for (spent, &(_, kc)) in self.spent_kills.iter_mut().zip(&self.plan.kills) {
            *spent |= in_window(kc);
        }
        for (spent, &(_, sc, _)) in self.spent_stalls.iter_mut().zip(&self.plan.stalls) {
            *spent |= in_window(sc);
        }
        for (spent, c) in self.spent_corruptions.iter_mut().zip(&self.plan.corruptions) {
            *spent |= in_window(c.cycle) && Self::out_link(parts, c.from, c.to).is_some();
        }
    }
}

/// A handle on one epoch's worth of spawned workers.
struct Epoch<S> {
    cmd_txs: Vec<Sender<Cmd>>,
    resp_rx: Receiver<Resp<S>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-worker liveness counters.
    progress: Vec<Arc<AtomicU64>>,
}

impl<S> Epoch<S> {
    fn teardown(self) {
        drop(self.cmd_txs);
        drop(self.resp_rx);
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Runs a partitioned netlist across one OS thread per shard, with
/// barrier snapshots, divergence detection and rollback-replay
/// recovery. See the module docs for the protocol.
pub struct PartitionRunner<'a, E: Engine> {
    parts: &'a PartitionedNetlist,
    config: RunnerConfig,
    _engine: std::marker::PhantomData<E>,
}

impl<'a, E> PartitionRunner<'a, E>
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    /// Creates a runner over an existing partition.
    #[must_use]
    pub fn new(parts: &'a PartitionedNetlist, config: RunnerConfig) -> Self {
        PartitionRunner { parts, config, _engine: std::marker::PhantomData }
    }

    /// Runs one frame to completion.
    ///
    /// `oracle`, when supplied, is checked at every barrier (the
    /// duplicate-with-compare detector for SEU chaos): a mismatch
    /// rolls the frame back like any other detection. `golden` is the
    /// terminal degradation rung.
    ///
    /// # Errors
    ///
    /// * [`PartitionError::Stimulus`] if the stimulus does not cover
    ///   every shard input for every cycle.
    /// * [`PartitionError::Exhausted`] if every rung fails.
    pub fn run_frame(
        &self,
        stim: &Stimulus,
        oracle: Option<&FrameOutputs>,
        chaos: &ChaosPlan,
        golden: Option<GoldenFallback<'_>>,
    ) -> Result<FrameReport, PartitionError> {
        self.check_stimulus(stim)?;
        match self.run_partitioned(stim, oracle, chaos) {
            Ok(report) => Ok(report),
            Err((mut detections, recoveries, replayed)) => {
                // Rung 2: one engine over the unsplit netlist, no
                // faults. Rung 3: the caller's golden model.
                match run_single::<E>(&self.parts.original, stim, self.config.event_cap) {
                    Ok(outputs) => Ok(FrameReport {
                        outputs,
                        rung: Rung::SingleEngine,
                        recoveries,
                        detections,
                        barriers: 0,
                        boundary_frames: 0,
                        replayed_cycles: replayed,
                    }),
                    Err(e) => {
                        detections.push(Detection {
                            worker: None,
                            batch_start: 0,
                            kind: DetectionKind::Engine(e.to_string()),
                        });
                        match golden.and_then(|g| g(stim)) {
                            Some(outputs) => Ok(FrameReport {
                                outputs,
                                rung: Rung::Golden,
                                recoveries,
                                detections,
                                barriers: 0,
                                boundary_frames: 0,
                                replayed_cycles: replayed,
                            }),
                            None => Err(PartitionError::Exhausted {
                                detail: format!(
                                    "{} detections, single-engine rung failed: {e}",
                                    detections.len()
                                ),
                            }),
                        }
                    }
                }
            }
        }
    }

    fn check_stimulus(&self, stim: &Stimulus) -> Result<(), PartitionError> {
        check_stimulus(self.parts, stim)
    }

    /// The partitioned rung. On failure returns the evidence for the
    /// report: `(detections, recoveries, replayed_cycles)`.
    fn run_partitioned(
        &self,
        stim: &Stimulus,
        oracle: Option<&FrameOutputs>,
        plan: &ChaosPlan,
    ) -> Result<FrameReport, (Vec<Detection>, u32, u64)> {
        let n = self.parts.parts();
        let mut committed = FrameOutputs::default();
        for shard in &self.parts.shards {
            for out in &shard.outputs {
                committed.ports.insert(out.clone(), Vec::new());
            }
        }
        let mut cursor: u64 = 0;
        let mut snapshots: Option<Vec<E::Snapshot>> = None;
        let mut detections: Vec<Detection> = Vec::new();
        let mut recoveries: u32 = 0;
        let mut barriers: u64 = 0;
        let mut boundary_frames: u64 = 0;
        let mut replayed: u64 = 0;
        let mut chaos = ChaosState::new(plan, self.parts);
        // Each shard's stimulus columns, resolved once per frame.
        let columns: Vec<Vec<&[i64]>> = self
            .parts
            .shards
            .iter()
            .map(|shard| shard.inputs.iter().map(|p| stim.inputs[p].as_slice()).collect())
            .collect();

        while cursor < stim.cycles {
            let epoch = match self.spawn_epoch(snapshots.as_ref(), cursor) {
                Ok(epoch) => epoch,
                Err(_) => return Err((detections, recoveries, replayed)),
            };
            let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
            let mut next = cursor;
            let mut early = EarlyResponses::new(n);
            while cursor < stim.cycles {
                while in_flight.len() < BATCHES_IN_FLIGHT && next < stim.cycles {
                    let len = self.config.snapshot_interval.min(stim.cycles - next);
                    // Cycle 0 is only ever run from power-on, never
                    // from a snapshot: it opens with the prologue.
                    self.dispatch(&epoch, &columns, &mut chaos, next, len, next == 0);
                    in_flight.push_back((next, len));
                    next += len;
                }
                let (start, len) = in_flight.pop_front().expect("the cursor's batch is in flight");
                let (responses, mut batch_ok) =
                    self.collect(&epoch, start, &mut early, &mut detections);
                chaos.spend(self.parts, start, len);

                // Barrier crosschecks.
                if batch_ok {
                    batch_ok = self.crosscheck(&responses, start, &mut detections);
                }
                if batch_ok {
                    if let Some(expected) = oracle {
                        batch_ok = self.check_oracle(&responses, expected, start, &mut detections);
                    }
                }
                if !batch_ok {
                    recoveries += 1;
                    replayed += len;
                    break;
                }
                // Commit: outputs append, snapshots advance.
                let mut fresh = Vec::with_capacity(n);
                for (w, resp) in responses.into_iter().enumerate() {
                    let Some(Resp::Done { outputs, frames, snapshot, .. }) = resp else {
                        unreachable!("batch_ok implies every response is Done");
                    };
                    let ports = &self.parts.shards[w].outputs;
                    for (i, port) in ports.iter().enumerate() {
                        let sink = committed.ports.get_mut(port).expect("port registered");
                        sink.extend(outputs.iter().skip(i).step_by(ports.len()));
                    }
                    boundary_frames += frames;
                    fresh.push(snapshot);
                }
                snapshots = Some(fresh);
                cursor += len;
                barriers += 1;
            }
            // A failed batch discards the epoch and any batch queued
            // behind it. Uncommitted outputs were never appended, so
            // recovery is just a respawn from `snapshots` + replay.
            epoch.teardown();
            if recoveries > self.config.max_recoveries {
                return Err((detections, recoveries, replayed));
            }
        }
        Ok(FrameReport {
            outputs: committed,
            rung: Rung::Partitioned,
            recoveries,
            detections,
            barriers,
            boundary_frames,
            replayed_cycles: replayed,
        })
    }

    /// Queues the batch `[start, start + len)` on every worker;
    /// `columns[w]` holds worker `w`'s stimulus, one column per input.
    fn dispatch(
        &self,
        epoch: &Epoch<E::Snapshot>,
        columns: &[Vec<&[i64]>],
        chaos: &mut ChaosState<'_>,
        start: u64,
        len: u64,
        prologue: bool,
    ) {
        let cycles = start as usize..(start + len) as usize;
        for (w, cmd_tx) in epoch.cmd_txs.iter().enumerate() {
            let mut inputs = Vec::with_capacity(cycles.len() * columns[w].len());
            for c in cycles.clone() {
                inputs.extend(columns[w].iter().map(|column| column[c]));
            }
            let batch = chaos.batch(self.parts, w, start, len, prologue, inputs);
            // A dead worker's closed channel surfaces in `collect` as a
            // missing response.
            let _ = cmd_tx.send(Cmd::Run(Box::new(batch)));
        }
        chaos.attempt_clock += len;
    }

    /// Collects one response per worker for the batch at `start`,
    /// against a clock-driven deadline: short real-time polls so a
    /// virtual clock (tests) or the monotonic clock (production)
    /// decides when the batch has stalled out. Responses to the
    /// batches queued behind it wait in `early`. Returns the responses
    /// and whether every worker reported without a fault.
    #[allow(clippy::type_complexity)]
    fn collect(
        &self,
        epoch: &Epoch<E::Snapshot>,
        start: u64,
        early: &mut EarlyResponses<E::Snapshot>,
        detections: &mut Vec<Detection>,
    ) -> (Vec<Option<Resp<E::Snapshot>>>, bool) {
        let watchdog_ticks = u64::try_from(self.config.watchdog.as_nanos()).unwrap_or(u64::MAX);
        let budget = self.config.batch_budget.unwrap_or_else(|| {
            let wall = self.config.watchdog * 4 + Duration::from_millis(500);
            u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX)
        });
        let deadline = Deadline::after(Arc::clone(&self.config.clock), budget);
        let mut responses = early.take(start);
        let mut disconnected = false;
        // Progress watchdog: per worker, the last counter value seen and
        // the tick it was first seen at, timed from the start of
        // collection.
        let begun = self.config.clock.now();
        let mut seen: Vec<(u64, u64)> =
            epoch.progress.iter().map(|p| (p.load(Ordering::Relaxed), begun)).collect();
        let mut wedged = false;
        while responses.iter().any(Option::is_none) && !deadline.expired() && !wedged {
            match epoch.resp_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(resp) => {
                    let (w, from) = resp.origin();
                    if from == start {
                        responses[w] = Some(resp);
                    } else {
                        early.stash(resp);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
            let now = self.config.clock.now();
            for (w, resp) in responses.iter().enumerate() {
                if resp.is_some() {
                    continue;
                }
                let count = epoch.progress[w].load(Ordering::Relaxed);
                if count != seen[w].0 {
                    seen[w] = (count, now);
                } else if now.saturating_sub(seen[w].1) > watchdog_ticks {
                    detections.push(Detection {
                        worker: Some(w),
                        batch_start: start,
                        kind: DetectionKind::Stall,
                    });
                    wedged = true;
                }
            }
        }
        for (w, resp) in responses.iter().enumerate() {
            let kind = match resp {
                Some(Resp::Done { .. }) => continue,
                Some(Resp::Fault { kind, .. }) => kind.clone(),
                // A wedged batch already named its stragglers.
                None if wedged => continue,
                // All response channels gone: the thread died.
                None if disconnected => DetectionKind::Crash,
                // Deadline expiry: it's wedged.
                None => DetectionKind::Stall,
            };
            detections.push(Detection { worker: Some(w), batch_start: start, kind });
        }
        let batch_ok = responses.iter().all(|r| matches!(r, Some(Resp::Done { .. })));
        (responses, batch_ok)
    }

    /// Spawns one worker per shard, restored from `snapshots` (power-on
    /// when `None`), to run batches from cycle `start` on.
    fn spawn_epoch(
        &self,
        snapshots: Option<&Vec<E::Snapshot>>,
        start: u64,
    ) -> Result<Epoch<E::Snapshot>, PartitionError> {
        let n = self.parts.parts();
        // Point-to-point boundary transports: each link is a framed
        // byte pipe, so thread mode exercises the wire codec too.
        let mut senders: Vec<Vec<OutLink>> = (0..n).map(|_| Vec::new()).collect();
        let mut receivers: Vec<Vec<InLink>> = (0..n).map(|_| Vec::new()).collect();
        let progress: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::default()).collect();
        for link in &self.parts.links {
            let (tx, rx) = ChannelTransport::pair();
            let ports = link.ports.clone();
            senders[link.from].push(OutLink {
                ports: ports.clone(),
                feedback: link.feedback,
                rows: Vec::new(),
                tx,
                seq: 0,
                hash: hash_seed(),
            });
            receivers[link.to].push(InLink {
                feedback: link.feedback,
                ports,
                rows: Vec::new(),
                rx,
                producer_beats: Arc::clone(&progress[link.from]),
                seq: 0,
                hash: hash_seed(),
            });
        }
        let (resp_tx, resp_rx) = mpsc::channel::<Resp<E::Snapshot>>();
        let mut cmd_txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (w, (out_links, in_links)) in senders.into_iter().zip(receivers).enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            cmd_txs.push(cmd_tx);
            let resp_tx = resp_tx.clone();
            let shard = &self.parts.shards[w];
            let netlist = shard.netlist.clone();
            let inputs = shard.inputs.clone();
            let outputs = shard.outputs.clone();
            let watchdog = self.config.watchdog;
            let event_cap = self.config.event_cap;
            let initial = snapshots.map(|s| s[w].clone());
            let progress = Arc::clone(&progress[w]);
            let builder = thread::Builder::new().name(format!("dwt-partition-{w}"));
            let handle = builder
                .spawn(move || {
                    let mut engine = match E::from_netlist(netlist) {
                        Ok(engine) => engine,
                        Err(e) => {
                            let _ = resp_tx.send(Resp::Fault {
                                worker: w,
                                start,
                                kind: DetectionKind::Engine(e.to_string()),
                            });
                            return;
                        }
                    };
                    if let Some(cap) = event_cap {
                        engine.set_event_cap(cap);
                    }
                    if let Some(snapshot) = initial {
                        if let Err(e) = engine.restore(&snapshot) {
                            let _ = resp_tx.send(Resp::Fault {
                                worker: w,
                                start,
                                kind: DetectionKind::Engine(e.to_string()),
                            });
                            return;
                        }
                    }
                    let worker = Worker {
                        id: w,
                        engine,
                        inputs,
                        outputs,
                        settles: in_links.iter().any(|l| l.feedback),
                        out_links,
                        in_links,
                        watchdog,
                        progress,
                    };
                    worker_main(worker, &cmd_rx, &resp_tx);
                })
                .map_err(|e| PartitionError::Spawn { detail: e.to_string() })?;
            handles.push(handle);
        }
        Ok(Epoch { cmd_txs, resp_rx, handles, progress })
    }

    /// Producer vs consumer running hash, per link.
    fn crosscheck(
        &self,
        responses: &[Option<Resp<E::Snapshot>>],
        cursor: u64,
        detections: &mut Vec<Detection>,
    ) -> bool {
        let mut ok = true;
        // Link order within a worker's out/in lists mirrors
        // spawn_epoch's iteration over self.parts.links.
        let mut out_idx = vec![0usize; self.parts.parts()];
        let mut in_idx = vec![0usize; self.parts.parts()];
        for link in &self.parts.links {
            let (produced, consumed) = {
                let p = match &responses[link.from] {
                    Some(Resp::Done { out_hashes, .. }) => out_hashes[out_idx[link.from]],
                    _ => return false,
                };
                let c = match &responses[link.to] {
                    Some(Resp::Done { in_hashes, .. }) => in_hashes[in_idx[link.to]],
                    _ => return false,
                };
                (p, c)
            };
            out_idx[link.from] += 1;
            in_idx[link.to] += 1;
            if produced != consumed {
                detections.push(Detection {
                    worker: Some(link.to),
                    batch_start: cursor,
                    kind: DetectionKind::LinkHashMismatch,
                });
                ok = false;
            }
        }
        ok
    }

    /// Batch outputs vs the oracle slice.
    fn check_oracle(
        &self,
        responses: &[Option<Resp<E::Snapshot>>],
        expected: &FrameOutputs,
        cursor: u64,
        detections: &mut Vec<Detection>,
    ) -> bool {
        let mut ok = true;
        for (w, resp) in responses.iter().enumerate() {
            let Some(Resp::Done { outputs, .. }) = resp else { return false };
            let ports = &self.parts.shards[w].outputs;
            for (i, port) in ports.iter().enumerate() {
                let Some(want) = expected.ports.get(port) else { continue };
                for (o, &got) in outputs.iter().skip(i).step_by(ports.len()).enumerate() {
                    let cycle = cursor as usize + o;
                    if cycle < want.len() && got != want[cycle] {
                        detections.push(Detection {
                            worker: Some(w),
                            batch_start: cursor,
                            kind: DetectionKind::OracleMismatch,
                        });
                        ok = false;
                        break;
                    }
                }
            }
        }
        ok
    }
}

/// Every shard input must have a value for every cycle; shared by the
/// thread-mode runner and the process supervisor.
pub(crate) fn check_stimulus(
    parts: &PartitionedNetlist,
    stim: &Stimulus,
) -> Result<(), PartitionError> {
    for shard in &parts.shards {
        for input in &shard.inputs {
            let Some(values) = stim.inputs.get(input) else {
                return Err(PartitionError::Stimulus {
                    detail: format!("no values for input port '{input}'"),
                });
            };
            if (values.len() as u64) < stim.cycles {
                return Err(PartitionError::Stimulus {
                    detail: format!(
                        "input '{input}' has {} values for {} cycles",
                        values.len(),
                        stim.cycles
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Runs one frame on a single engine over an unsplit netlist — the
/// reference the differential suite compares against, and the
/// runner's second degradation rung.
///
/// # Errors
///
/// Propagates engine construction/simulation errors.
pub fn run_single<E: Engine>(
    netlist: &Netlist,
    stim: &Stimulus,
    event_cap: Option<u64>,
) -> Result<FrameOutputs, PartitionError> {
    let output_ports: Vec<String> = netlist
        .ports()
        .values()
        .filter(|p| p.direction == PortDirection::Output)
        .map(|p| p.name.clone())
        .collect();
    let mut engine = E::from_netlist(netlist.clone())?;
    if let Some(cap) = event_cap {
        engine.set_event_cap(cap);
    }
    let mut outputs = FrameOutputs::default();
    for port in &output_ports {
        outputs.ports.insert(port.clone(), Vec::with_capacity(stim.cycles as usize));
    }
    for t in 0..stim.cycles {
        for (port, values) in &stim.inputs {
            if netlist.ports().contains_key(port) {
                engine.set_input(port, values[t as usize])?;
            }
        }
        engine.try_tick()?;
        for port in &output_ports {
            let v = engine.peek(port)?;
            outputs.ports.get_mut(port).expect("registered").push(v);
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(worker: usize, start: u64) -> Resp<()> {
        Resp::Fault { worker, start, kind: DetectionKind::Stall }
    }

    #[test]
    fn early_responses_are_keyed_by_batch_start() {
        // Worker 0 answers two queued batches before batch 0 is
        // collected; neither answer may overwrite the other.
        let mut early = EarlyResponses::new(2);
        early.stash(fault(0, 32));
        early.stash(fault(0, 64));
        early.stash(fault(1, 32));
        let origins = |slots: Vec<Option<Resp<()>>>| -> Vec<Option<(usize, u64)>> {
            slots.iter().map(|r| r.as_ref().map(Resp::origin)).collect()
        };
        assert_eq!(origins(early.take(0)), vec![None, None]);
        assert_eq!(origins(early.take(32)), vec![Some((0, 32)), Some((1, 32))]);
        assert_eq!(origins(early.take(64)), vec![Some((0, 64)), None]);
        assert!(early.by_start.is_empty());
    }

    fn in_link(ports: usize) -> (ChannelTransport, InLink) {
        let (tx, rx) = ChannelTransport::pair();
        let link = InLink {
            feedback: false,
            ports: (0..ports).map(|p| format!("__cut_p{p}")).collect(),
            rows: Vec::new(),
            rx,
            producer_beats: Arc::default(),
            seq: 0,
            hash: hash_seed(),
        };
        (tx, link)
    }

    fn boundary(seq: u64, values: Vec<i64>) -> Frame {
        Frame::Boundary { generation: 0, link: 0, msg: BoundaryMsg::new(seq, 0, values) }
    }

    #[test]
    fn a_batch_frame_with_the_wrong_value_count_is_a_typed_fault() {
        let beats = AtomicU64::new(0);
        let watchdog = Duration::from_millis(50);
        let (mut tx, mut link) = in_link(2);
        // Three cycles over two ports need six values; five arrive.
        tx.send(&boundary(0, vec![1, 2, 3, 4, 5])).unwrap();
        assert_eq!(
            link.recv(watchdog, 3, &beats),
            Err(LinkFault::Length { seq: 0, expected: 6, got: 5 })
        );
        assert_eq!(link.seq, 0, "a rejected frame is not consumed");

        let (mut tx, mut link) = in_link(2);
        tx.send(&boundary(0, vec![1, 2, 3, 4, 5, 6])).unwrap();
        assert_eq!(link.recv(watchdog, 3, &beats), Ok(()));
        assert_eq!(link.row(2), &[5, 6]);
        assert_eq!(link.seq, 1);
    }

    #[test]
    fn a_silent_producer_times_out_but_a_beating_one_is_awaited() {
        let beats = AtomicU64::new(0);
        let watchdog = Duration::from_millis(100);
        let (_tx, mut link) = in_link(1);
        assert_eq!(link.recv(watchdog, 1, &beats), Err(LinkFault::Timeout));
        assert_eq!(beats.load(Ordering::Relaxed), 0);

        // A producer that beats for three watchdogs before it sends.
        let (mut tx, mut link) = in_link(1);
        let producer = Arc::clone(&link.producer_beats);
        let sender = thread::spawn(move || {
            for _ in 0..12 {
                thread::sleep(watchdog / 4);
                producer.fetch_add(1, Ordering::Relaxed);
            }
            tx.send(&boundary(0, vec![7])).unwrap();
        });
        assert_eq!(link.recv(watchdog, 1, &beats), Ok(()));
        sender.join().unwrap();
        assert_eq!(link.row(0), &[7]);
        assert!(beats.load(Ordering::Relaxed) > 0, "the wait must beat for the waiter");
    }
}
