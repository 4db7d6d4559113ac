//! The partition protocol: one coordinator, one shard worker, run on
//! threads or on processes.
//!
//! Every shard runs the same worker loop (`Worker::run_batch`) over
//! an [`Engine`] (event, compiled or jit backend). The cut classifies
//! every boundary link once
//! ([`BoundaryLink::feedback`](crate::cut::BoundaryLink::feedback)): a
//! link is *forward* unless it lies on a cycle of the shard graph.
//! Forward links are exchanged once per barrier batch, feedback links
//! once per cycle. A batch of cycles `s .. s + n` then runs, per worker:
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
//! A consumer trails its producer by one batch. Deadlock freedom
//! follows by induction over the DAG of the shard graph's strongly
//! connected components, at batch granularity: a component's forward
//! in-links all come from earlier components, which send batch `s`
//! without waiting on it, and inside a component every link is feedback
//! and every worker sends before it receives. A *prologue* exchange
//! before the first tick distributes the power-on boundary values on
//! every link, then settles; cut-legal drivers never depend
//! combinationally on other shards, so it needs no fixpoint.
//!
//! **Liveness.** A worker beats once per cycle. A consumer waiting on a
//! frame goes on waiting, and beats too, while its producer's count
//! moves; a producer whose count stands still for `watchdog` is a
//! straggler, reported as [`DetectionKind::Stall`] by the consumer. In
//! a DAG no peer waits on a sink, so the coordinator's collection poll
//! also flags a Stall for any worker that still owes its batch and
//! whose count has not moved for `watchdog` on the runner's [`Clock`].
//!
//! **The coordinator** ([`PartitionRunner`]) keeps two batches in
//! flight, so workers run on through a barrier while it is checked. It
//! commits a batch only if every worker reported, the two ends of every
//! link hash identically (stealth corruption or silent divergence), and
//! — when an oracle is supplied — the outputs match it. Anything else
//! (checksum, sequence, watchdog, crash, hash or oracle mismatch) rolls
//! the fleet back: workers restart from the durable store's newest
//! consistent barrier when one is configured (the store is then
//! authoritative, so a torn record costs a replay), else from the
//! in-memory barrier, else from power-on, and the lost cycles replay.
//! Transient fault arrivals are keyed by a monotone attempt clock, so a
//! strike never recurs on replay. Past `max_recoveries` the frame falls
//! through Partitioned → SingleEngine → Golden.
//!
//! **Isolation** ([`Isolation`]) decides only how a worker starts and
//! how its commands and reports travel. Both share one link topology:
//! point-to-point boundary links that live for one epoch, from one
//! restart of the fleet to the next. Threads take typed `mpsc` commands
//! and reports, keep snapshots as `E::Snapshot`, and get one typed
//! `mpsc` channel of [`BoundaryMsg`] per link per epoch; processes
//! speak [`Frame`](crate::wire::Frame)s to the socket hub in
//! [`proc`](crate::proc), with snapshots as portable bytes, and open
//! one Unix socket per link per rollback generation. Both sides of that
//! seam are one small trait each: `WorkerIo` for a worker, `Fleet` for
//! the coordinator.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dwt_pool::clock::{Clock, Deadline, MonotonicClock};
use dwt_recover::injector::{FaultInjector, Lane};
use dwt_recover::seu::PoissonSeuBuilder;
use dwt_rtl::bytes::hash_seed;
use dwt_rtl::engine::Engine;
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::netlist::{Netlist, PortDirection};
use dwt_rtl::Error as RtlError;

use crate::channel::{BoundaryMsg, LinkFault};
use crate::cut::{BoundaryLink, PartitionedNetlist, Shard};
use crate::error::PartitionError;
use crate::proc::{Hub, WorkerLauncher};
use crate::transport::RecvError;

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
    /// A worker vanished (its thread died or its process exited).
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
    /// Barriers committed (consistent global snapshots taken) on the
    /// history that produced the outputs: a rollback to an older
    /// barrier restores this count, and [`boundary_frames`], to their
    /// values at that barrier (0 at power-on or at the resume point).
    ///
    /// [`boundary_frames`]: FrameReport::boundary_frames
    pub barriers: u64,
    /// Boundary frames sent on all links in the committed batches:
    /// per link, one prologue frame, then one per batch on a forward
    /// link or one per cycle on a feedback link.
    pub boundary_frames: u64,
    /// Cycles re-executed during replays.
    pub replayed_cycles: u64,
    /// Workers started again by rollbacks: every thread of a torn-down
    /// epoch, or each dead or wedged worker process.
    pub respawns: u32,
    /// `Some(cycle)` if the run resumed from a durable barrier.
    pub resumed_from: Option<u64>,
    /// `false` when `stop_after` stopped the run early; the outputs then
    /// cover only the committed prefix.
    pub completed: bool,
}

/// Chaos directives for fault-tolerance tests and campaigns. Kills,
/// stalls, corruptions and the torn record fire **once** each — after
/// the recovery they provoke, the replay runs clean.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// `(worker, cycle)`: the worker dies just before ticking that
    /// virtual cycle (its thread returns, or its process exits).
    pub kills: Vec<(usize, u64)>,
    /// `(worker, cycle, pause)`: the worker sleeps that long before
    /// ticking — longer than the watchdog makes it a straggler.
    pub stalls: Vec<(usize, u64, Duration)>,
    /// In-flight message corruptions.
    pub corruptions: Vec<Corruption>,
    /// Poisson-distributed transient register upsets inside every
    /// worker's shard (rate per cycle per worker).
    pub seu: Option<SeuChaos>,
    /// After this many committed barriers, truncate the newest durable
    /// record, as a crash mid-write would; recovery must fall back
    /// past it. Needs a durable store: without one,
    /// [`PartitionRunner::run_frame`] refuses the plan.
    pub torn_after: Option<u64>,
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

/// Where the shard workers run.
#[derive(Debug, Clone, Default)]
pub enum Isolation {
    /// One OS thread per shard in this process.
    #[default]
    Threads,
    /// One worker process per shard behind a socket hub.
    Processes {
        /// How to start a worker process.
        launcher: WorkerLauncher,
        /// Durable barrier store directory; `None` keeps barriers in
        /// memory only (a coordinator crash then loses the run).
        store: Option<PathBuf>,
        /// Start from the newest consistent barrier in `store` instead
        /// of cycle 0.
        resume: bool,
        /// Stop cleanly (`completed: false`) after this many commits, as
        /// if the coordinator crashed behind a consistent store.
        stop_after: Option<u64>,
    },
}

/// Runner tuning.
#[derive(Debug, Clone)]
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
    /// Clock the coordinator's deadlines read. [`MonotonicClock`]
    /// (ticks are nanoseconds) in production; a `VirtualClock` makes
    /// stall detection deterministic in tests.
    pub clock: Arc<dyn Clock>,
    /// Batch-collection budget in clock ticks. `None` derives a
    /// wall-clock budget from the watchdog (`watchdog × 4 + 500 ms`, in
    /// nanoseconds — the [`MonotonicClock`] tick unit).
    pub batch_budget: Option<u64>,
    /// Threads (the default) or processes.
    pub isolation: Isolation,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            snapshot_interval: 32,
            watchdog: Duration::from_millis(250),
            max_recoveries: 8,
            clock: Arc::new(MonotonicClock::new()),
            batch_budget: None,
            isolation: Isolation::Threads,
        }
    }
}

/// The caller-supplied terminal fallback.
pub type GoldenFallback<'a> = &'a (dyn Fn(&Stimulus) -> Option<FrameOutputs> + Sync);

/// One barrier batch, as a worker receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// First virtual cycle.
    pub start: u64,
    /// Length in cycles.
    pub cycles: u64,
    /// Run the power-on prologue exchange before the first tick.
    pub prologue: bool,
    /// `inputs[offset × width + i]` feeds the worker's `i`-th primary
    /// input at `offset`, `width` being its primary-input count.
    pub inputs: Vec<i64>,
    /// Transient faults due at `(offset, spec)`.
    pub faults: Vec<(u64, FaultSpec)>,
    /// Chaos: vanish just before ticking this offset.
    pub kill_at: Option<u64>,
    /// Chaos: sleep this long before ticking this offset.
    pub stall_at: Option<(u64, Duration)>,
    /// Chaos: `(offset, out-link index, stealth)` corruptions.
    pub corrupt: Vec<(u64, usize, bool)>,
    /// The receive watchdog (see [`RunnerConfig::watchdog`]).
    pub watchdog: Duration,
}

/// A worker's answer to a completed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport<S> {
    /// Shard index.
    pub worker: usize,
    /// First cycle of the batch this answers.
    pub start: u64,
    /// `outputs[offset × width + i]` is the worker's `i`-th owned
    /// output at `offset`, `width` being its output count.
    pub outputs: Vec<i64>,
    /// Running hash per outgoing link, after this batch.
    pub out_hashes: Vec<u64>,
    /// Running hash per incoming link, after this batch.
    pub in_hashes: Vec<u64>,
    /// Boundary frames this worker sent during the batch.
    pub frames: u64,
    /// Engine state at the barrier.
    pub snapshot: S,
}

pub(crate) enum Resp<S> {
    Done(BatchReport<S>),
    Fault { worker: usize, start: u64, kind: DetectionKind },
}

impl<S> Resp<S> {
    /// `(worker, batch start)` of the response.
    fn origin(&self) -> (usize, u64) {
        match self {
            Resp::Done(report) => (report.worker, report.start),
            Resp::Fault { worker, start, .. } => (*worker, *start),
        }
    }
}

// -------------------------------------------------------------- worker

/// What a worker does next.
pub(crate) enum Next<S> {
    Run(Batch),
    /// Restore `snapshot` (power-on for `None`) as the state at `cycle`.
    Restore {
        cycle: u64,
        snapshot: Option<S>,
    },
    Stop,
}

/// A worker's side of the isolation seam: its commands, its reports,
/// its boundary frames and its liveness beats.
pub(crate) trait WorkerIo<S> {
    fn next(&mut self) -> Next<S>;
    fn respond(&mut self, resp: Resp<S>);
    fn send(&mut self, link: usize, msg: BoundaryMsg);
    /// The next frame on in-link `link`, waiting at most `wait`.
    fn recv(&mut self, link: usize, wait: Duration) -> Result<BoundaryMsg, RecvError>;
    /// In-link `link`'s producer's beat count.
    fn producer_beats(&mut self, link: usize) -> u64;
    /// One liveness beat; a process publishes beats at most once per
    /// `every` of wall time.
    fn beat(&mut self, every: Duration);
}

/// An outgoing boundary link.
struct OutLink {
    ports: Vec<String>,
    /// Sent once per cycle, after the tick. A forward link instead
    /// buffers the batch in `rows` and sends it as one frame.
    feedback: bool,
    /// The batch's post-edge values so far, one row per cycle.
    rows: Vec<i64>,
    seq: u64,
    hash: u64,
}

impl OutLink {
    /// `rows` as one frame for the cycles from `cycle` on, with every
    /// chaos corruption `(row, stealth)` applied after the true values
    /// entered the running hash: it flips the first value of its row,
    /// and a stealth one also rewrites the checksum.
    fn flush(&mut self, cycle: u64, corrupt: impl Iterator<Item = (usize, bool)>) -> BoundaryMsg {
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
        msg
    }
}

struct InLink {
    /// Received after the tick (then settled), one frame per cycle,
    /// rather than one frame per batch before the first tick.
    feedback: bool,
    ports: Vec<String>,
    /// The last frame's values, one row per cycle.
    rows: Vec<i64>,
    seq: u64,
    hash: u64,
}

impl InLink {
    fn new(feedback: bool, ports: Vec<String>) -> InLink {
        InLink { feedback, ports, rows: Vec::new(), seq: 0, hash: hash_seed() }
    }

    /// Receives the next frame on in-link `li`, which must hold
    /// `cycles` rows, verifies it and keeps its values in `rows`.
    ///
    /// A forward frame comes only after the producer's whole batch, so
    /// the wait is bounded by the producer's *liveness*, not by one
    /// fixed window: while the producer's count moves, the wait goes
    /// on and beats, so the coordinator does not mistake this worker
    /// for a wedged one. Only a producer whose count has stood still
    /// for `watchdog` is a straggler.
    fn recv<S>(
        &mut self,
        io: &mut impl WorkerIo<S>,
        li: usize,
        watchdog: Duration,
        cycles: u64,
    ) -> Result<(), LinkFault> {
        let poll = watchdog / 4;
        let mut last = io.producer_beats(li);
        let mut idle = Duration::ZERO;
        let msg = loop {
            match io.recv(li, poll) {
                Ok(msg) => break msg,
                Err(RecvError::Timeout) => {
                    let beats = io.producer_beats(li);
                    if beats == last {
                        idle += poll;
                        if idle >= watchdog {
                            return Err(LinkFault::Timeout);
                        }
                    } else {
                        (last, idle) = (beats, Duration::ZERO);
                        io.beat(poll);
                    }
                }
                Err(RecvError::Disconnected) => return Err(LinkFault::Disconnected),
                // Undecodable bytes on the link are payload corruption.
                Err(RecvError::Protocol(_)) => return Err(LinkFault::Checksum { seq: self.seq }),
            }
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

/// One shard: its engine and its link state. Threads and processes run
/// this same batch loop.
pub(crate) struct Worker<E: Engine> {
    id: usize,
    engine: E,
    inputs: Vec<String>,
    outputs: Vec<String>,
    out_links: Vec<OutLink>,
    in_links: Vec<InLink>,
    /// Whether any in-link is feedback (the worker settles after its
    /// tick).
    settles: bool,
}

impl<E: Engine> Worker<E> {
    /// Builds shard `id` at power-on. Link order within its out/in
    /// lists follows `links`, on both sides of every seam.
    pub(crate) fn build(
        id: usize,
        shard: Shard,
        links: &[BoundaryLink],
    ) -> Result<Worker<E>, PartitionError> {
        let engine = E::from_netlist(shard.netlist)?;
        let out = links.iter().filter(|l| l.from == id);
        let in_links: Vec<InLink> = links
            .iter()
            .filter(|l| l.to == id)
            .map(|l| InLink::new(l.feedback, l.ports.clone()))
            .collect();
        Ok(Worker {
            id,
            engine,
            inputs: shard.inputs,
            outputs: shard.outputs,
            out_links: out
                .map(|l| OutLink {
                    ports: l.ports.clone(),
                    feedback: l.feedback,
                    rows: Vec::new(),
                    seq: 0,
                    hash: hash_seed(),
                })
                .collect(),
            settles: in_links.iter().any(|l| l.feedback),
            in_links,
        })
    }

    /// Restores `snapshot`, or power-on for `None`, and re-seeds every
    /// link: both ends of a link reset together, so running hashes
    /// always accumulate from a shared origin.
    fn restore(&mut self, snapshot: Option<&E::Snapshot>) -> Result<(), PartitionError> {
        match snapshot {
            Some(snapshot) => self.engine.restore(snapshot)?,
            // A deep copy of the netlist, not the shared `Arc`: the
            // worker's speed after this restore moves with its layout.
            None => self.engine = E::from_netlist(Netlist::clone(self.engine.netlist()))?,
        }
        for link in &mut self.out_links {
            (link.seq, link.hash) = (0, hash_seed());
        }
        for link in &mut self.in_links {
            (link.seq, link.hash) = (0, hash_seed());
        }
        Ok(())
    }

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
    fn send_links<S>(
        &mut self,
        io: &mut impl WorkerIo<S>,
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
            let msg =
                link.flush(cycle, due.map(|&(co, _, stealth)| ((co - offset) as usize, stealth)));
            // A closed peer is the coordinator's problem (it will see
            // the peer's fault or absence); keep going.
            io.send(li, msg);
            sent += 1;
        }
        sent
    }

    /// Receives one frame of `cycles` rows on every incoming link that
    /// `wanted` selects by its feedback flag. Returns the first link
    /// fault.
    fn recv_links<S>(
        &mut self,
        io: &mut impl WorkerIo<S>,
        wanted: impl Fn(bool) -> bool,
        watchdog: Duration,
        cycles: u64,
    ) -> Result<(), LinkFault> {
        for (li, link) in self.in_links.iter_mut().enumerate() {
            if wanted(link.feedback) {
                link.recv(io, li, watchdog, cycles)?;
            }
        }
        Ok(())
    }

    /// Stages row `row` of every selected incoming link's last frame.
    fn stage_links(&mut self, wanted: impl Fn(bool) -> bool, row: usize) -> Result<(), RtlError> {
        for link in self.in_links.iter().filter(|l| wanted(l.feedback)) {
            for (port, &value) in link.ports.iter().zip(link.row(row)) {
                // Boundary values come from a peer's register bus of
                // the same width; set_input cannot range-fail.
                self.engine.set_input(port, value)?;
            }
        }
        Ok(())
    }

    /// Runs one batch.
    fn run_batch<S>(
        &mut self,
        batch: &Batch,
        io: &mut impl WorkerIo<S>,
    ) -> Result<BatchReport<E::Snapshot>, Abort> {
        let (watchdog, beat_every) = (batch.watchdog, batch.watchdog / 4);
        // Rows a faulted batch left behind never reach a frame.
        for link in &mut self.out_links {
            link.rows.clear();
        }
        let mut frames = 0;
        if batch.prologue {
            self.peek_links(|_| true);
            frames += self.send_links(io, |_| true, batch.start, &[], 0);
            self.recv_links(io, |_| true, watchdog, 1)?;
            self.stage_links(|_| true, 0)?;
            self.engine.try_settle()?;
        }
        // The producers' whole batch on every forward in-link, before
        // the first tick: a consumer trails its producer by one batch.
        self.recv_links(io, |feedback| !feedback, watchdog, batch.cycles)?;
        let width = self.inputs.len();
        let mut outputs = Vec::with_capacity(batch.cycles as usize * self.outputs.len());
        for offset in 0..batch.cycles {
            if batch.kill_at == Some(offset) {
                // Simulated crash: vanish without a response; the
                // closed links are the peers' first hint.
                return Err(Abort::Killed);
            }
            if let Some((at, pause)) = batch.stall_at {
                if at == offset {
                    thread::sleep(pause);
                }
            }
            let row = offset as usize;
            for (port, &value) in self.inputs.iter().zip(&batch.inputs[row * width..]) {
                self.engine.set_input(port, value)?;
            }
            self.stage_links(|feedback| !feedback, row)?;
            for (_, spec) in batch.faults.iter().filter(|(due, _)| *due == offset) {
                self.engine.inject(&spec.clone().strike_at(self.engine.cycle()))?;
            }
            self.engine.try_tick()?;
            self.peek_links(|_| true);
            let cycle = batch.start + offset;
            frames += self.send_links(io, |feedback| feedback, cycle, &batch.corrupt, offset);
            if self.settles {
                self.recv_links(io, |feedback| feedback, watchdog, 1)?;
                self.stage_links(|feedback| feedback, 0)?;
                self.engine.try_settle()?;
            }
            outputs.extend(self.outputs.iter().map(|p| self.engine.peek(p).unwrap_or(0)));
            io.beat(beat_every);
        }
        frames += self.send_links(io, |feedback| !feedback, batch.start, &batch.corrupt, 0);
        Ok(BatchReport {
            worker: self.id,
            start: batch.start,
            outputs,
            out_hashes: self.out_links.iter().map(|l| l.hash).collect(),
            in_hashes: self.in_links.iter().map(|l| l.hash).collect(),
            frames,
            snapshot: self.engine.snapshot(),
        })
    }

    /// The worker loop: batches and restores until told to stop.
    /// `Ok(false)` means chaos killed the worker mid-batch.
    ///
    /// # Errors
    ///
    /// A failed restore, after reporting it to the coordinator.
    pub(crate) fn serve(
        &mut self,
        io: &mut impl WorkerIo<E::Snapshot>,
    ) -> Result<bool, PartitionError> {
        loop {
            let (start, kind) = match io.next() {
                Next::Stop => return Ok(true),
                Next::Run(batch) => match self.run_batch(&batch, io) {
                    Ok(report) => {
                        io.respond(Resp::Done(report));
                        continue;
                    }
                    Err(Abort::Killed) => return Ok(false),
                    Err(Abort::Fault(kind)) => (batch.start, kind),
                },
                Next::Restore { cycle, snapshot } => match self.restore(snapshot.as_ref()) {
                    Ok(()) => continue,
                    Err(e) => {
                        let kind = DetectionKind::Engine(e.to_string());
                        io.respond(Resp::Fault { worker: self.id, start: cycle, kind });
                        return Err(e);
                    }
                },
            };
            io.respond(Resp::Fault { worker: self.id, start, kind });
        }
    }
}

/// Why a batch stopped short.
enum Abort {
    /// A chaos kill: vanish without a word.
    Killed,
    Fault(DetectionKind),
}

impl From<LinkFault> for Abort {
    fn from(fault: LinkFault) -> Abort {
        Abort::Fault(match fault {
            LinkFault::Checksum { .. } | LinkFault::Length { .. } => DetectionKind::Checksum,
            LinkFault::Sequence { .. } => DetectionKind::Sequence,
            LinkFault::Timeout => DetectionKind::Stall,
            LinkFault::Disconnected => DetectionKind::Crash,
        })
    }
}

impl From<RtlError> for Abort {
    fn from(e: RtlError) -> Abort {
        Abort::Fault(DetectionKind::Engine(e.to_string()))
    }
}

/// A worker thread's I/O: typed channels to the coordinator and on
/// every link, and shared beat counters.
struct ThreadIo<S> {
    /// The barrier this epoch starts from, restored before any batch.
    restore: Option<(u64, S)>,
    cmds: Receiver<Batch>,
    resps: Sender<Resp<S>>,
    outs: Vec<Sender<BoundaryMsg>>,
    /// Per in-link: the channel and the producer's beat counter.
    ins: Vec<(Receiver<BoundaryMsg>, Arc<AtomicU64>)>,
    /// Read by the coordinator's progress watchdog and by this
    /// worker's consumers. `Relaxed` suffices: the count publishes no
    /// other data.
    beats: Arc<AtomicU64>,
}

impl<S> WorkerIo<S> for ThreadIo<S> {
    fn next(&mut self) -> Next<S> {
        if let Some((cycle, snapshot)) = self.restore.take() {
            return Next::Restore { cycle, snapshot: Some(snapshot) };
        }
        self.cmds.recv().map_or(Next::Stop, Next::Run)
    }

    fn respond(&mut self, resp: Resp<S>) {
        let _ = self.resps.send(resp);
    }

    fn send(&mut self, link: usize, msg: BoundaryMsg) {
        let _ = self.outs[link].send(msg);
    }

    fn recv(&mut self, link: usize, wait: Duration) -> Result<BoundaryMsg, RecvError> {
        self.ins[link].0.recv_timeout(wait).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    fn producer_beats(&mut self, link: usize) -> u64 {
        self.ins[link].1.load(Ordering::Relaxed)
    }

    fn beat(&mut self, _every: Duration) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------- coordinator

/// What one coordinator poll produced.
pub(crate) enum Polled<S> {
    Resp(Resp<S>),
    /// A worker is gone for good, for the given reason.
    Lost(usize, DetectionKind),
    /// Every worker is gone.
    AllGone,
    Idle,
}

/// A committed barrier: the cycle it ends, every worker's snapshot,
/// and the outputs committed before it.
pub(crate) struct Barrier<S> {
    pub(crate) cycle: u64,
    pub(crate) snapshots: Vec<S>,
    pub(crate) outputs: BTreeMap<String, Vec<i64>>,
}

/// The coordinator's side of the isolation seam: how batches reach the
/// workers, how their answers and beats come back, and how the fleet
/// restarts from a barrier.
pub(crate) trait Fleet {
    /// A worker's snapshot as the coordinator holds it.
    type Snap: Clone;
    fn dispatch(&mut self, w: usize, batch: Batch);
    fn poll(&mut self, wait: Duration) -> Polled<Self::Snap>;
    /// Worker `w`'s liveness beats.
    fn beats(&self, w: usize) -> u64;
    /// Restarts every worker from `snapshots` at `cycle` (power-on for
    /// `None`), replacing `suspects` first. Returns the workers started
    /// again.
    fn restart(
        &mut self,
        cycle: u64,
        snapshots: Option<&[Self::Snap]>,
        suspects: &[usize],
    ) -> Result<u32, PartitionError>;
    /// Writes a committed barrier to the durable store, if any, and
    /// tears it when `tear` is set.
    fn persist(
        &mut self,
        _cycle: u64,
        _snapshots: &[Self::Snap],
        _outputs: &BTreeMap<String, Vec<i64>>,
        _tear: bool,
    ) -> Result<(), PartitionError> {
        Ok(())
    }
    /// The durable store's newest consistent barrier: `None` without a
    /// store, `Some(None)` when the store holds none.
    #[allow(clippy::type_complexity)]
    fn durable(&self) -> Result<Option<Option<Barrier<Self::Snap>>>, PartitionError> {
        Ok(None)
    }
    fn shutdown(self);
}

/// Batches queued on the workers at once: the one being collected plus
/// one behind it, so a worker that finishes batch `k` starts `k + 1`
/// at once instead of idling through the barrier's round trip to the
/// coordinator. A failed batch restarts the fleet and discards the
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

/// One frame's chaos bookkeeping. A kill, stall or corruption is
/// spent once the batch carrying it has been collected, so each fires
/// once and the replay it provokes runs clean — and one carried by a
/// batch that a rollback discarded unrun fires on the replay. SEU
/// arrivals are keyed by a monotone per-worker attempt clock.
struct ChaosState {
    /// The unspent directives.
    plan: ChaosPlan,
    seu: Vec<Option<Box<dyn FaultInjector>>>,
    attempt_clock: u64,
}

impl ChaosState {
    fn new(plan: &ChaosPlan, parts: &PartitionedNetlist) -> Self {
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
        ChaosState { plan: plan.clone(), seu, attempt_clock: 0 }
    }

    /// Worker `w`'s batch `[start, start + len)` with every unspent
    /// directive and SEU arrival due inside it.
    fn batch(&mut self, parts: &PartitionedNetlist, w: usize, start: u64, len: u64) -> Batch {
        let due = |worker: usize, cycle: u64| worker == w && cycle >= start && cycle < start + len;
        let mut faults = Vec::new();
        if let Some(inj) = self.seu[w].as_mut() {
            for o in 0..len {
                for spec in inj.arrivals(self.attempt_clock + o, Lane::Primary) {
                    faults.push((o, spec));
                }
            }
        }
        let out_links: Vec<usize> =
            parts.links.iter().filter(|l| l.from == w).map(|l| l.to).collect();
        let plan = &self.plan;
        Batch {
            start,
            cycles: len,
            // Cycle 0 is only ever run from power-on, never from a
            // snapshot: it opens with the prologue.
            prologue: start == 0,
            inputs: Vec::new(),
            faults,
            kill_at: plan.kills.iter().rev().find(|k| due(k.0, k.1)).map(|k| k.1 - start),
            stall_at: plan.stalls.iter().rev().find(|s| due(s.0, s.1)).map(|s| (s.1 - start, s.2)),
            corrupt: plan
                .corruptions
                .iter()
                .filter(|c| due(c.from, c.cycle))
                .filter_map(|c| {
                    let link = out_links.iter().position(|&to| to == c.to)?;
                    Some((c.cycle - start, link, c.stealth))
                })
                .collect(),
            watchdog: Duration::ZERO,
        }
    }

    /// Spends the directives inside the collected batch
    /// `[start, start + len)`.
    fn spend(&mut self, start: u64, len: u64) {
        let later = |c: u64| c < start || c >= start + len;
        self.plan.kills.retain(|k| later(k.1));
        self.plan.stalls.retain(|s| later(s.1));
        self.plan.corruptions.retain(|c| later(c.cycle));
    }
}

/// The thread fleet: one epoch of worker threads at a time.
struct Threads<'p, E: Engine> {
    parts: &'p PartitionedNetlist,
    epoch: Option<Epoch<E::Snapshot>>,
}

struct Epoch<S> {
    cmd_txs: Vec<Sender<Batch>>,
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

impl<E> Fleet for Threads<'_, E>
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    type Snap = E::Snapshot;

    fn dispatch(&mut self, w: usize, batch: Batch) {
        if let Some(epoch) = &self.epoch {
            // A dead worker's closed channel surfaces in the collection
            // as a missing response.
            let _ = epoch.cmd_txs[w].send(batch);
        }
    }

    fn poll(&mut self, wait: Duration) -> Polled<E::Snapshot> {
        let Some(epoch) = &self.epoch else { return Polled::AllGone };
        match epoch.resp_rx.recv_timeout(wait) {
            Ok(resp) => Polled::Resp(resp),
            Err(RecvTimeoutError::Timeout) => Polled::Idle,
            Err(RecvTimeoutError::Disconnected) => Polled::AllGone,
        }
    }

    fn beats(&self, w: usize) -> u64 {
        self.epoch.as_ref().map_or(0, |e| e.progress[w].load(Ordering::Relaxed))
    }

    /// Tears the epoch down and spawns a fresh one, with a fresh
    /// channel per boundary link.
    fn restart(
        &mut self,
        cycle: u64,
        snapshots: Option<&[E::Snapshot]>,
        _suspects: &[usize],
    ) -> Result<u32, PartitionError> {
        let n = self.parts.parts();
        let respawned = match self.epoch.take() {
            Some(epoch) => {
                epoch.teardown();
                n as u32
            }
            None => 0,
        };
        let mut outs: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        let mut ins: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        let progress: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::default()).collect();
        for link in &self.parts.links {
            let (tx, rx) = mpsc::channel();
            outs[link.from].push(tx);
            ins[link.to].push((rx, Arc::clone(&progress[link.from])));
        }
        let (resp_tx, resp_rx) = mpsc::channel();
        let mut cmd_txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (w, (outs, ins)) in outs.into_iter().zip(ins).enumerate() {
            let (cmd_tx, cmds) = mpsc::channel();
            cmd_txs.push(cmd_tx);
            let mut io = ThreadIo {
                restore: snapshots.map(|s| (cycle, s[w].clone())),
                cmds,
                resps: resp_tx.clone(),
                outs,
                ins,
                beats: Arc::clone(&progress[w]),
            };
            let shard = self.parts.shards[w].clone();
            let links = self.parts.links.clone();
            let handle = thread::Builder::new()
                .name(format!("dwt-partition-{w}"))
                .spawn(move || match Worker::<E>::build(w, shard, &links) {
                    Ok(mut worker) => {
                        let _ = worker.serve(&mut io);
                    }
                    Err(e) => {
                        let kind = DetectionKind::Engine(e.to_string());
                        io.respond(Resp::Fault { worker: w, start: cycle, kind });
                    }
                })
                .map_err(|e| PartitionError::Spawn { detail: e.to_string() })?;
            handles.push(handle);
        }
        self.epoch = Some(Epoch { cmd_txs, resp_rx, handles, progress });
        Ok(respawned)
    }

    fn shutdown(mut self) {
        if let Some(epoch) = self.epoch.take() {
            epoch.teardown();
        }
    }
}

/// Runs a partitioned netlist across one worker per shard, with
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
    /// * [`PartitionError::Spawn`] if a worker process cannot be
    ///   launched or fails admission.
    /// * [`PartitionError::Store`] on a durable-store failure, a
    ///   resume against a store of another cut, or a
    ///   [`ChaosPlan::torn_after`] without a store to tear.
    /// * [`PartitionError::Exhausted`] if every rung fails.
    pub fn run_frame(
        &self,
        stim: &Stimulus,
        oracle: Option<&FrameOutputs>,
        chaos: &ChaosPlan,
        golden: Option<GoldenFallback<'_>>,
    ) -> Result<FrameReport, PartitionError> {
        check_stimulus(self.parts, stim)?;
        let stored = matches!(&self.config.isolation, Isolation::Processes { store: Some(_), .. });
        if chaos.torn_after.is_some() && !stored {
            return Err(PartitionError::Store {
                detail: "a torn-record directive needs a durable store".into(),
            });
        }
        let attempt = match &self.config.isolation {
            Isolation::Threads => {
                let mut fleet = Threads::<E> { parts: self.parts, epoch: None };
                let attempt = self.run_partitioned(&mut fleet, stim, oracle, chaos, false, None);
                fleet.shutdown();
                attempt
            }
            Isolation::Processes { launcher, store, resume, stop_after } => {
                let mut fleet = Hub::launch(self.parts, launcher, store.as_deref())?;
                let attempt =
                    self.run_partitioned(&mut fleet, stim, oracle, chaos, *resume, *stop_after);
                fleet.shutdown();
                attempt
            }
        };
        let mut report = match attempt? {
            Ok(report) => return Ok(report),
            Err(report) => report,
        };
        // Rung 2: one engine over the unsplit netlist, no faults.
        // Rung 3: the caller's golden model.
        (report.outputs, report.rung) = match run_single::<E>(&self.parts.original, stim, None) {
            Ok(outputs) => (outputs, Rung::SingleEngine),
            Err(e) => {
                let kind = DetectionKind::Engine(e.to_string());
                report.detections.push(Detection { worker: None, batch_start: 0, kind });
                let detail = format!(
                    "{} detections, single-engine rung failed: {e}",
                    report.detections.len()
                );
                let golden = golden.and_then(|g| g(stim));
                (golden.ok_or(PartitionError::Exhausted { detail })?, Rung::Golden)
            }
        };
        (report.barriers, report.boundary_frames) = (0, 0);
        Ok(report)
    }

    /// The partitioned rung over either fleet. An inner `Err` carries
    /// the report so far, for the rungs below; an outer one is a hard
    /// error.
    fn run_partitioned<F: Fleet>(
        &self,
        fleet: &mut F,
        stim: &Stimulus,
        oracle: Option<&FrameOutputs>,
        plan: &ChaosPlan,
        resume: bool,
        stop_after: Option<u64>,
    ) -> Result<Result<FrameReport, FrameReport>, PartitionError> {
        let mut report = FrameReport {
            outputs: FrameOutputs::default(),
            rung: Rung::Partitioned,
            recoveries: 0,
            detections: Vec::new(),
            barriers: 0,
            boundary_frames: 0,
            replayed_cycles: 0,
            respawns: 0,
            resumed_from: None,
            completed: true,
        };
        let committed = &mut report.outputs.ports;
        for port in self.parts.shards.iter().flat_map(|s| &s.outputs) {
            committed.insert(port.clone(), Vec::new());
        }
        let mut cursor: u64 = 0;
        let mut snapshots: Option<Vec<F::Snap>> = None;
        if resume {
            if let Some(barrier) = fleet.durable()?.flatten() {
                (cursor, *committed) = (barrier.cycle, barrier.outputs);
                snapshots = Some(barrier.snapshots);
                report.resumed_from = Some(cursor);
            }
        }
        // `(barriers, boundary_frames)` as each barrier committed, by
        // cycle, so a rewind restores the counters with the state; a
        // barrier from before a resume, or power-on, reads 0.
        let mut counted: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut torn = false;
        let mut suspects = Vec::new();
        let mut chaos = ChaosState::new(plan, self.parts);
        // Each shard's stimulus columns, resolved once per frame.
        let columns: Vec<Vec<&[i64]>> = self
            .parts
            .shards
            .iter()
            .map(|shard| shard.inputs.iter().map(|p| stim.inputs[p].as_slice()).collect())
            .collect();
        while cursor < stim.cycles {
            match fleet.restart(cursor, snapshots.as_deref(), &suspects) {
                Ok(respawned) => report.respawns += respawned,
                Err(e) => {
                    let kind = DetectionKind::Engine(e.to_string());
                    report.detections.push(Detection { worker: None, batch_start: cursor, kind });
                    return Ok(Err(report));
                }
            }
            suspects.clear();
            let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
            let mut next = cursor;
            let mut early = EarlyResponses::new(self.parts.parts());
            while cursor < stim.cycles {
                while in_flight.len() < BATCHES_IN_FLIGHT && next < stim.cycles {
                    let len = self.config.snapshot_interval.min(stim.cycles - next);
                    self.dispatch(fleet, &columns, &mut chaos, next, len);
                    in_flight.push_back((next, len));
                    next += len;
                }
                let (start, len) = in_flight.pop_front().expect("the cursor's batch is in flight");
                let detections = &mut report.detections;
                let (responses, failed) = self.collect(fleet, start, len, &mut early, detections);
                chaos.spend(start, len);
                let batch_ok = match failed {
                    Some(stalled) => {
                        suspects = stalled;
                        false
                    }
                    None => {
                        self.crosscheck(&responses, start, detections)
                            && oracle.is_none_or(|expected| {
                                self.check_oracle(&responses, expected, start, detections)
                            })
                    }
                };
                if !batch_ok {
                    report.recoveries += 1;
                    report.replayed_cycles += len;
                    // Restore order: the durable store, authoritative
                    // when configured; else the in-memory barrier at
                    // the cursor; else power-on.
                    let target = match fleet.durable()? {
                        Some(record) => record,
                        None => snapshots.take().map(|snapshots| Barrier {
                            cycle: cursor,
                            snapshots,
                            outputs: BTreeMap::new(),
                        }),
                    };
                    let committed = &mut report.outputs.ports;
                    match target {
                        Some(barrier) if barrier.cycle < cursor => {
                            report.replayed_cycles += cursor - barrier.cycle;
                            (cursor, *committed) = (barrier.cycle, barrier.outputs);
                            snapshots = Some(barrier.snapshots);
                        }
                        Some(barrier) => snapshots = Some(barrier.snapshots),
                        None => {
                            report.replayed_cycles += cursor;
                            (cursor, snapshots) = (0, None);
                            committed.values_mut().for_each(Vec::clear);
                        }
                    }
                    (report.barriers, report.boundary_frames) =
                        counted.get(&cursor).copied().unwrap_or_default();
                    break;
                }
                // Commit: outputs append, snapshots advance.
                let mut fresh = Vec::with_capacity(responses.len());
                for (w, resp) in responses.into_iter().enumerate() {
                    let Some(Resp::Done(batch)) = resp else {
                        unreachable!("a committed batch has every report");
                    };
                    let ports = &self.parts.shards[w].outputs;
                    for (i, port) in ports.iter().enumerate() {
                        let sink = report.outputs.ports.get_mut(port).expect("port registered");
                        sink.extend(batch.outputs.iter().skip(i).step_by(ports.len()));
                    }
                    report.boundary_frames += batch.frames;
                    fresh.push(batch.snapshot);
                }
                cursor += len;
                report.barriers += 1;
                counted.insert(cursor, (report.barriers, report.boundary_frames));
                let tear = !torn && plan.torn_after == Some(report.barriers);
                torn |= tear;
                fleet.persist(cursor, &fresh, &report.outputs.ports, tear)?;
                snapshots = Some(fresh);
                if stop_after == Some(report.barriers) && cursor < stim.cycles {
                    report.completed = false;
                    return Ok(Ok(report));
                }
            }
            if report.recoveries > self.config.max_recoveries {
                return Ok(Err(report));
            }
        }
        Ok(Ok(report))
    }

    /// Queues the batch `[start, start + len)` on every worker;
    /// `columns[w]` holds worker `w`'s stimulus, one column per input.
    fn dispatch<F: Fleet>(
        &self,
        fleet: &mut F,
        columns: &[Vec<&[i64]>],
        chaos: &mut ChaosState,
        start: u64,
        len: u64,
    ) {
        let cycles = start as usize..(start + len) as usize;
        for (w, columns) in columns.iter().enumerate() {
            let mut batch = chaos.batch(self.parts, w, start, len);
            batch.inputs.reserve(cycles.len() * columns.len());
            for c in cycles.clone() {
                batch.inputs.extend(columns.iter().map(|column| column[c]));
            }
            batch.watchdog = self.config.watchdog;
            fleet.dispatch(w, batch);
        }
        chaos.attempt_clock += len;
    }

    /// Collects one response per worker for the batch at `start`,
    /// against a clock-driven deadline: short real-time polls, so a
    /// virtual clock (tests) or the monotonic clock (production)
    /// decides when the batch has stalled out. Responses to the batches
    /// queued behind it wait in `early`. The first fault ends the
    /// collection: returns the responses and, for a failed batch, the
    /// workers suspected of being wedged.
    #[allow(clippy::type_complexity)]
    fn collect<F: Fleet>(
        &self,
        fleet: &mut F,
        start: u64,
        len: u64,
        early: &mut EarlyResponses<F::Snap>,
        detections: &mut Vec<Detection>,
    ) -> (Vec<Option<Resp<F::Snap>>>, Option<Vec<usize>>) {
        let watchdog_ticks = u64::try_from(self.config.watchdog.as_nanos()).unwrap_or(u64::MAX);
        let clock = &self.config.clock;
        let budget = self.config.batch_budget.unwrap_or_else(|| {
            let wall = self.config.watchdog * 4 + Duration::from_millis(500);
            u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX)
        });
        let deadline = Deadline::after(Arc::clone(clock), budget);
        let mut responses = early.take(start);
        let mut detect =
            |worker, kind| detections.push(Detection { worker, batch_start: start, kind });
        let mut suspects = Vec::new();
        let mut failed = false;
        // Progress watchdog: per worker, the last count seen and the
        // tick it was first seen at, timed from the start of collection.
        let begun = clock.now();
        let mut seen: Vec<(u64, u64)> =
            (0..responses.len()).map(|w| (fleet.beats(w), begun)).collect();
        let is_fault = |r: &Option<Resp<F::Snap>>| matches!(r, Some(Resp::Fault { .. }));
        while !failed && responses.iter().any(Option::is_none) && !responses.iter().any(is_fault) {
            if deadline.expired() {
                for (w, _) in responses.iter().enumerate().filter(|(_, r)| r.is_none()) {
                    detect(Some(w), DetectionKind::Stall);
                    suspects.push(w);
                }
                failed = true;
                break;
            }
            match fleet.poll(Duration::from_millis(10)) {
                Polled::Resp(resp) => {
                    let (w, from) = resp.origin();
                    if from == start {
                        responses[w] = Some(resp);
                    } else {
                        early.stash(resp);
                    }
                }
                // A worker lost after it reported this batch spoils the
                // next one, not this one.
                Polled::Lost(w, kind) if responses[w].is_some() => {
                    early.stash(Resp::Fault { worker: w, start: start + len, kind });
                }
                Polled::Lost(w, kind) => {
                    detect(Some(w), kind);
                    failed = true;
                }
                Polled::AllGone => {
                    for (w, _) in responses.iter().enumerate().filter(|(_, r)| r.is_none()) {
                        detect(Some(w), DetectionKind::Crash);
                    }
                    failed = true;
                }
                Polled::Idle => {}
            }
            let now = clock.now();
            for (w, resp) in responses.iter().enumerate() {
                if resp.is_some() || failed {
                    continue;
                }
                let count = fleet.beats(w);
                if count != seen[w].0 {
                    seen[w] = (count, now);
                } else if now.saturating_sub(seen[w].1) > watchdog_ticks {
                    detect(Some(w), DetectionKind::Stall);
                    suspects.push(w);
                    failed = true;
                }
            }
        }
        for (w, resp) in responses.iter().enumerate() {
            if let Some(Resp::Fault { kind, .. }) = resp {
                // A consumer's Stall names its producers as suspects.
                if *kind == DetectionKind::Stall {
                    suspects.extend(self.parts.links.iter().filter(|l| l.to == w).map(|l| l.from));
                }
                detect(Some(w), kind.clone());
                failed = true;
            }
        }
        (responses, failed.then_some(suspects))
    }

    /// Producer vs consumer running hash, per link.
    fn crosscheck<S>(
        &self,
        responses: &[Option<Resp<S>>],
        cursor: u64,
        detections: &mut Vec<Detection>,
    ) -> bool {
        let report = |w: usize| match &responses[w] {
            Some(Resp::Done(report)) => report,
            _ => unreachable!("crosschecked batches have every report"),
        };
        let mut ok = true;
        // Link order within a worker's out/in lists mirrors
        // Worker::build's iteration over self.parts.links.
        let mut out_idx = vec![0usize; self.parts.parts()];
        let mut in_idx = vec![0usize; self.parts.parts()];
        for link in &self.parts.links {
            let produced = report(link.from).out_hashes[out_idx[link.from]];
            let consumed = report(link.to).in_hashes[in_idx[link.to]];
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
    fn check_oracle<S>(
        &self,
        responses: &[Option<Resp<S>>],
        expected: &FrameOutputs,
        cursor: u64,
        detections: &mut Vec<Detection>,
    ) -> bool {
        let mut ok = true;
        for (w, resp) in responses.iter().enumerate() {
            let Some(Resp::Done(report)) = resp else { return false };
            let ports = &self.parts.shards[w].outputs;
            for (i, port) in ports.iter().enumerate() {
                let Some(want) = expected.ports.get(port) else { continue };
                for (o, &got) in report.outputs.iter().skip(i).step_by(ports.len()).enumerate() {
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

/// Every shard input must have a value for every cycle.
fn check_stimulus(parts: &PartitionedNetlist, stim: &Stimulus) -> Result<(), PartitionError> {
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

    /// A thread worker's I/O with one in-link of `ports` ports, and the
    /// producer's end of that link.
    fn in_link(ports: usize) -> (Sender<BoundaryMsg>, InLink, ThreadIo<()>) {
        let (tx, rx) = mpsc::channel();
        let link = InLink::new(false, (0..ports).map(|p| format!("__cut_p{p}")).collect());
        let io = ThreadIo {
            restore: None,
            cmds: mpsc::channel().1,
            resps: mpsc::channel().0,
            outs: Vec::new(),
            ins: vec![(rx, Arc::default())],
            beats: Arc::default(),
        };
        (tx, link, io)
    }

    fn boundary(seq: u64, values: Vec<i64>) -> BoundaryMsg {
        BoundaryMsg::new(seq, 0, values)
    }

    #[test]
    fn a_batch_frame_with_the_wrong_value_count_is_a_typed_fault() {
        let watchdog = Duration::from_millis(50);
        let (tx, mut link, mut io) = in_link(2);
        // Three cycles over two ports need six values; five arrive.
        tx.send(boundary(0, vec![1, 2, 3, 4, 5])).unwrap();
        assert_eq!(
            link.recv(&mut io, 0, watchdog, 3),
            Err(LinkFault::Length { seq: 0, expected: 6, got: 5 })
        );
        assert_eq!(link.seq, 0, "a rejected frame is not consumed");

        let (tx, mut link, mut io) = in_link(2);
        tx.send(boundary(0, vec![1, 2, 3, 4, 5, 6])).unwrap();
        assert_eq!(link.recv(&mut io, 0, watchdog, 3), Ok(()));
        assert_eq!(link.row(2), &[5, 6]);
        assert_eq!(link.seq, 1);
    }

    #[test]
    fn a_silent_producer_times_out_but_a_beating_one_is_awaited() {
        let watchdog = Duration::from_millis(100);
        let (_tx, mut link, mut io) = in_link(1);
        assert_eq!(link.recv(&mut io, 0, watchdog, 1), Err(LinkFault::Timeout));
        assert_eq!(io.beats.load(Ordering::Relaxed), 0);

        // A producer that beats for three watchdogs before it sends.
        let (tx, mut link, mut io) = in_link(1);
        let producer = Arc::clone(&io.ins[0].1);
        let sender = thread::spawn(move || {
            for _ in 0..12 {
                thread::sleep(watchdog / 4);
                producer.fetch_add(1, Ordering::Relaxed);
            }
            tx.send(boundary(0, vec![7])).unwrap();
        });
        assert_eq!(link.recv(&mut io, 0, watchdog, 1), Ok(()));
        sender.join().unwrap();
        assert_eq!(link.row(0), &[7]);
        assert!(io.beats.load(Ordering::Relaxed) > 0, "the wait must beat for the waiter");
    }
}
