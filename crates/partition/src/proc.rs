//! Process isolation for the partition protocol: how a worker process
//! starts, is admitted, talks, and survives its coordinator.
//!
//! A worker that corrupts memory or wedges inside native code can take
//! a thread-mode emulation down with it. Real emulator farms put every
//! shard behind a process (or machine) boundary, and so does this
//! module. The batch loop, the coordinator, the chaos and the report
//! are the ones in [`runner`](crate::runner); only the transport
//! differs:
//!
//! * **Spawn.** The [`Hub`] starts one worker process per shard with
//!   [`WorkerLauncher`], passing `--shard W --socket PATH`, and accepts
//!   its connection on a per-shard Unix-domain socket.
//! * **Admission.** The worker rebuilds the cut independently and
//!   announces itself with a [`Frame::Hello`] carrying the cut
//!   [`fingerprint`](PartitionedNetlist::fingerprint): a worker
//!   launched against the wrong design or part count is refused before
//!   it can pollute the run.
//! * **Hub routing.** Every frame goes through the hub: batches and
//!   rollbacks out, reports and faults in. Each worker's reader thread
//!   routes its boundary frames straight to the consumer (link index
//!   rewritten from the producer's outgoing numbering to the consumer's
//!   incoming numbering) and relays its heartbeats to its consumers, so
//!   a waiting consumer can tell a slow producer from a dead one even
//!   while the coordinator is busy checking or persisting a barrier.
//!   Heartbeats go out at most four times per watchdog window. Frames
//!   carry a rollback generation, and both ends drop older ones.
//!   Snapshots cross the socket as [`PortableSnapshot`] bytes —
//!   backend-tagged and versioned, so a restore on the wrong backend
//!   fails loudly.
//! * **The durable store.** With a store directory, every committed
//!   barrier is written to a [`RunStore`] (tmp file, fsync, atomic
//!   rename) and becomes the rollback target.
//! * **Resume.** A coordinator that is itself killed can be restarted
//!   with `resume` and continues from the newest consistent barrier
//!   instead of cycle 0; a torn record costs one barrier of replay.
//!   A store written for another cut is refused.

use std::collections::{BTreeMap, VecDeque};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dwt_rtl::engine::{Engine, PortableSnapshot};

use crate::channel::BoundaryMsg;
use crate::cut::PartitionedNetlist;
use crate::error::PartitionError;
use crate::runner::{
    Barrier, Batch, BatchReport, DetectionKind, Fleet, Next, Polled, Resp, Worker, WorkerIo,
};
use crate::store::{BarrierRecord, RunStore};
use crate::transport::{RecvError, SocketTransport, Transport};
use crate::wire::Frame;

fn spawn_err(detail: impl Into<String>) -> PartitionError {
    PartitionError::Spawn { detail: detail.into() }
}

/// How to launch one worker process. The hub appends
/// `--shard <index> --socket <path>` to [`WorkerLauncher::args`].
#[derive(Debug, Clone)]
pub struct WorkerLauncher {
    /// Worker executable (e.g. the `dwt_partition_worker` bench
    /// binary).
    pub program: PathBuf,
    /// Base arguments identifying the design, part count and backend.
    pub args: Vec<String>,
}

// ------------------------------------------------------------- worker

/// A worker process's I/O: every frame over one transport to the hub.
struct SocketIo<T> {
    transport: T,
    worker: u32,
    generation: u64,
    /// Producer shard of each in-link.
    in_from: Vec<usize>,
    /// Boundary messages routed here and not consumed yet, per in-link.
    inbox: Vec<VecDeque<BoundaryMsg>>,
    /// The last relayed beat count of each in-link's producer.
    producer: Vec<u64>,
    /// Batches that arrived while an earlier one ran.
    batches: VecDeque<Batch>,
    /// A rollback or shutdown that preempted the running batch.
    control: Option<Frame>,
    beats: u64,
    last_beat: Option<Instant>,
}

impl<T: Transport> SocketIo<T> {
    /// Reads one frame and files it. Frames of an older generation are
    /// dropped.
    fn read(&mut self, wait: Duration) -> Result<(), RecvError> {
        let current = self.generation;
        match self.transport.recv_timeout(wait)? {
            Frame::Boundary { generation, link, msg } if generation == current => {
                if let Some(queue) = self.inbox.get_mut(link as usize) {
                    queue.push_back(msg);
                }
            }
            Frame::Heartbeat { worker, generation, beats } if generation == current => {
                for (li, &from) in self.in_from.iter().enumerate() {
                    if from == worker as usize {
                        self.producer[li] = beats;
                    }
                }
            }
            Frame::Batch { generation, batch } if generation == current => {
                self.batches.push_back(*batch);
            }
            frame @ (Frame::Rollback { .. } | Frame::Shutdown) => self.control = Some(frame),
            _ => {}
        }
        Ok(())
    }
}

impl<T: Transport, S: PortableSnapshot> WorkerIo<S> for SocketIo<T> {
    fn next(&mut self) -> Next<S> {
        loop {
            match self.control.take() {
                Some(Frame::Rollback { generation, cycle, snapshot }) => {
                    self.generation = generation;
                    self.batches.clear();
                    self.inbox.iter_mut().for_each(VecDeque::clear);
                    let snapshot = if snapshot.is_empty() {
                        None
                    } else {
                        match S::from_bytes(&snapshot) {
                            Ok(snapshot) => Some(snapshot),
                            Err(_) => return Next::Stop,
                        }
                    };
                    return Next::Restore { cycle, snapshot };
                }
                Some(_) => return Next::Stop,
                None => {}
            }
            if let Some(batch) = self.batches.pop_front() {
                return Next::Run(batch);
            }
            match self.read(Duration::from_secs(1)) {
                Ok(()) | Err(RecvError::Timeout) => {}
                Err(_) => return Next::Stop,
            }
        }
    }

    fn respond(&mut self, resp: Resp<S>) {
        let generation = self.generation;
        let frame = match resp {
            Resp::Done(r) => Frame::BarrierReport {
                generation,
                report: Box::new(BatchReport {
                    worker: r.worker,
                    start: r.start,
                    outputs: r.outputs,
                    out_hashes: r.out_hashes,
                    in_hashes: r.in_hashes,
                    frames: r.frames,
                    snapshot: r.snapshot.to_bytes(),
                }),
            },
            Resp::Fault { start, kind, .. } => {
                Frame::Fault { worker: self.worker, generation, start, kind }
            }
        };
        // A lost hub surfaces at the next read.
        let _ = self.transport.send(&frame);
    }

    fn send(&mut self, link: usize, msg: BoundaryMsg) {
        let (generation, link) = (self.generation, link as u32);
        let _ = self.transport.send(&Frame::Boundary { generation, link, msg });
    }

    fn recv(&mut self, link: usize, wait: Duration) -> Result<BoundaryMsg, RecvError> {
        let deadline = Instant::now() + wait;
        loop {
            if let Some(msg) = self.inbox[link].pop_front() {
                return Ok(msg);
            }
            // A rollback abandons the batch; its fault report carries
            // the old generation, so the hub drops it.
            if self.control.is_some() {
                return Err(RecvError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvError::Timeout);
            }
            self.read(left)?;
        }
    }

    fn producer_beats(&mut self, link: usize) -> u64 {
        self.producer[link]
    }

    fn beat(&mut self, every: Duration) {
        self.beats += 1;
        if self.last_beat.is_none_or(|at| at.elapsed() >= every) {
            self.last_beat = Some(Instant::now());
            let (worker, generation, beats) = (self.worker, self.generation, self.beats);
            let _ = self.transport.send(&Frame::Heartbeat { worker, generation, beats });
        }
    }
}

/// A worker process's protocol loop: build shard `shard` of `parts`,
/// announce it, then serve batches and rollbacks until shutdown. The
/// `dwt_partition_worker` binary runs it over a socket.
///
/// Returns `Ok(true)` on a clean shutdown **or** when the hub
/// disappears — a dead coordinator is not a worker error — and
/// `Ok(false)` when a chaos kill ended the worker.
///
/// # Errors
///
/// [`PartitionError::Spawn`] for a shard index out of range; engine
/// construction or restore errors; a failed Hello.
pub fn run_worker<E, T>(
    parts: &PartitionedNetlist,
    shard: usize,
    mut transport: T,
) -> Result<bool, PartitionError>
where
    E: Engine,
    E::Snapshot: PortableSnapshot,
    T: Transport,
{
    let Some(spec) = parts.shards.get(shard) else {
        return Err(spawn_err(format!("shard {shard} of a {}-way cut", parts.parts())));
    };
    let mut worker = Worker::<E>::build(shard, spec.clone(), &parts.links)?;
    let worker_id = u32::try_from(shard).unwrap_or(u32::MAX);
    transport.send(&Frame::Hello { worker: worker_id, fingerprint: parts.fingerprint() })?;
    let in_from: Vec<usize> =
        parts.links.iter().filter(|l| l.to == shard).map(|l| l.from).collect();
    let mut io = SocketIo {
        transport,
        worker: worker_id,
        generation: 0,
        inbox: in_from.iter().map(|_| VecDeque::new()).collect(),
        producer: vec![0; in_from.len()],
        in_from,
        batches: VecDeque::new(),
        control: None,
        beats: 0,
        last_beat: None,
    };
    worker.serve(&mut io)
}

// ---------------------------------------------------------------- hub

enum Event {
    Frame { worker: usize, conn: u64, frame: Frame },
    Closed { worker: usize, conn: u64 },
    Malformed { worker: usize, conn: u64 },
}

struct WorkerProc {
    child: Child,
    /// Connection id; events from an older connection of a respawned
    /// worker are dropped by tag.
    conn: u64,
    alive: bool,
    reader: Option<JoinHandle<()>>,
}

/// What the hub shares with its reader threads, so boundary frames and
/// heartbeats reach their consumers without waiting for the coordinator
/// (which may be checking or persisting a barrier meanwhile).
struct Routes {
    /// Each worker's write half; `None` until it is admitted.
    writers: Vec<Mutex<Option<SocketTransport>>>,
    /// `out_route[w][out_idx]` → `(consumer, consumer's in_idx)`.
    out_route: Vec<Vec<(usize, u32)>>,
    /// The distinct consumers of each worker, for heartbeat relay.
    consumers: Vec<Vec<usize>>,
    /// Each worker's last relayed beat count. `Relaxed`: a count
    /// publishes no other data.
    beats: Vec<AtomicU64>,
    /// The rollback generation. The hub bumps it before sending a
    /// rollback, and readers compare against it to drop stale frames;
    /// it publishes no other data (the writers sit behind their locks).
    generation: AtomicU64,
}

impl Routes {
    /// Sends `frame` to worker `w`. A failure means the worker died;
    /// the collection sees the close or the silence.
    fn send(&self, w: usize, frame: &Frame) {
        // A panic mid-send can at worst leave a torn frame on the
        // socket, which the worker rejects like any malformed frame.
        let mut writer = self.writers[w].lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(writer) = writer.as_mut() {
            let _ = writer.send(frame);
        }
    }

    /// Routes a current boundary frame from worker `w` to its consumer
    /// (link index rewritten from the producer's outgoing numbering to
    /// the consumer's incoming numbering) and relays a current
    /// heartbeat to `w`'s consumers. Returns every other frame, for the
    /// coordinator.
    fn relay(&self, w: usize, frame: Frame) -> Option<Frame> {
        let current = self.generation.load(Ordering::Acquire);
        match frame {
            Frame::Boundary { generation, link, msg } if generation == current => {
                match self.out_route[w].get(link as usize) {
                    Some(&(consumer, in_idx)) => {
                        self.send(consumer, &Frame::Boundary { generation, link: in_idx, msg });
                        None
                    }
                    None => Some(Frame::Boundary { generation, link, msg }),
                }
            }
            Frame::Heartbeat { generation, beats, .. } if generation == current => {
                self.beats[w].store(beats, Ordering::Relaxed);
                let worker = u32::try_from(w).unwrap_or(u32::MAX);
                for &consumer in &self.consumers[w] {
                    self.send(consumer, &Frame::Heartbeat { worker, generation, beats });
                }
                None
            }
            frame => Some(frame),
        }
    }
}

/// Distinguishes successive hubs in one process.
static SOCK_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process fleet: one worker process per shard, every frame routed
/// through here. See the module docs.
pub(crate) struct Hub<'p> {
    parts: &'p PartitionedNetlist,
    launcher: &'p WorkerLauncher,
    store: Option<RunStore>,
    sock_dir: PathBuf,
    listeners: Vec<UnixListener>,
    event_tx: Sender<Event>,
    events: Receiver<Event>,
    procs: Vec<WorkerProc>,
    next_conn: u64,
    routes: Arc<Routes>,
    /// The workers are fresh from launch: a power-on start needs no
    /// rollback.
    fresh: bool,
}

impl<'p> Hub<'p> {
    /// Binds one socket per shard, opens the store, and launches and
    /// admits every worker.
    pub(crate) fn launch(
        parts: &'p PartitionedNetlist,
        launcher: &'p WorkerLauncher,
        store: Option<&Path>,
    ) -> Result<Hub<'p>, PartitionError> {
        let sock_dir = std::env::temp_dir().join(format!(
            "dwt-proc-{}-{}",
            std::process::id(),
            SOCK_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&sock_dir).map_err(|e| spawn_err(format!("socket dir: {e}")))?;
        let n = parts.parts();
        let mut listeners = Vec::with_capacity(n);
        for w in 0..n {
            let path = sock_dir.join(format!("worker-{w}.sock"));
            let listener = UnixListener::bind(&path)
                .and_then(|l| l.set_nonblocking(true).map(|()| l))
                .map_err(|e| spawn_err(format!("bind {}: {e}", path.display())))?;
            listeners.push(listener);
        }
        let mut out_route: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_counts = vec![0u32; n];
        for link in &parts.links {
            out_route[link.from].push((link.to, in_counts[link.to]));
            in_counts[link.to] += 1;
            if !consumers[link.from].contains(&link.to) {
                consumers[link.from].push(link.to);
            }
        }
        let (event_tx, events) = mpsc::channel();
        let mut hub = Hub {
            parts,
            launcher,
            store: store.map(RunStore::open).transpose()?,
            sock_dir,
            listeners,
            event_tx,
            events,
            procs: Vec::with_capacity(n),
            next_conn: 0,
            routes: Arc::new(Routes {
                writers: (0..n).map(|_| Mutex::new(None)).collect(),
                out_route,
                consumers,
                beats: (0..n).map(|_| AtomicU64::new(0)).collect(),
                generation: AtomicU64::new(0),
            }),
            fresh: true,
        };
        for w in 0..n {
            match hub.spawn_worker(w) {
                Ok(proc) => hub.procs.push(proc),
                Err(e) => {
                    hub.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(hub)
    }

    /// Spawns worker `w`'s process, accepts its connection, verifies
    /// its Hello, installs its writer and starts its reader thread.
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
        let refuse = |child: &mut Child, detail: String| {
            let _ = child.kill();
            let _ = child.wait();
            spawn_err(format!("worker {w}: {detail}"))
        };
        // Process start plus an engine build (slow in debug builds or
        // on a cold jit cache) gets a fixed admission window.
        let admission = Duration::from_secs(20);
        let deadline = Instant::now() + admission;
        let stream = loop {
            match self.listeners[w].accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!("worker {w} exited at launch: {status}")));
                    }
                    if Instant::now() >= deadline {
                        return Err(refuse(&mut child, "no connection in time".into()));
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(refuse(&mut child, format!("accept: {e}"))),
            }
        };
        let _ = stream.set_nonblocking(false);
        // A wedged worker must not block the hub's writes forever.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let writer = match stream.try_clone() {
            Ok(writer) => SocketTransport::new(writer),
            Err(e) => return Err(refuse(&mut child, format!("clone: {e}"))),
        };
        let mut reader = SocketTransport::new(stream);
        // Admission: the worker proves it rebuilt the same cut. Read
        // the Hello synchronously so the reader thread starts with a
        // clean stream position.
        let fingerprint = self.parts.fingerprint();
        match reader.recv_timeout(admission) {
            Ok(Frame::Hello { worker, fingerprint: theirs })
                if worker as usize == w && theirs == fingerprint => {}
            Ok(Frame::Hello { fingerprint: theirs, .. }) => {
                return Err(refuse(
                    &mut child,
                    format!("admission refused: fingerprint {theirs:#x} != {fingerprint:#x}"),
                ));
            }
            Ok(other) => {
                return Err(refuse(&mut child, format!("sent {other:?} instead of Hello")))
            }
            Err(e) => return Err(refuse(&mut child, format!("hello: {e}"))),
        }
        *self.routes.writers[w].lock().unwrap_or_else(PoisonError::into_inner) = Some(writer);
        self.routes.beats[w].store(0, Ordering::Relaxed);
        let conn = self.next_conn;
        self.next_conn += 1;
        let (tx, routes) = (self.event_tx.clone(), Arc::clone(&self.routes));
        let handle = thread::Builder::new()
            .name(format!("dwt-proc-reader-{w}"))
            .spawn(move || reader_main(w, conn, reader, &tx, &routes))
            .map_err(|e| refuse(&mut child, format!("reader thread: {e}")))?;
        Ok(WorkerProc { child, conn, alive: true, reader: Some(handle) })
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

    /// The next event from a live connection of worker `w`, if `event`
    /// is one.
    fn current(&self, event: Event) -> Option<(usize, Option<Frame>)> {
        let (worker, conn, frame) = match event {
            Event::Frame { worker, conn, frame } => (worker, conn, Some(frame)),
            Event::Closed { worker, conn } | Event::Malformed { worker, conn } => {
                (worker, conn, None)
            }
        };
        (self.procs[worker].conn == conn).then_some((worker, frame))
    }
}

impl Fleet for Hub<'_> {
    type Snap = Vec<u8>;

    fn dispatch(&mut self, w: usize, batch: Batch) {
        let generation = self.routes.generation.load(Ordering::Acquire);
        self.routes.send(w, &Frame::Batch { generation, batch: Box::new(batch) });
    }

    fn poll(&mut self, wait: Duration) -> Polled<Vec<u8>> {
        let event = match self.events.recv_timeout(wait) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => return Polled::Idle,
            Err(RecvTimeoutError::Disconnected) => return Polled::AllGone,
        };
        let malformed = matches!(event, Event::Malformed { .. });
        let Some((w, frame)) = self.current(event) else { return Polled::Idle };
        let current = self.routes.generation.load(Ordering::Acquire);
        match frame {
            None => {
                // Garbage on the control stream loses the framing: the
                // worker cannot be trusted, so it is treated as dead.
                self.kill_worker(w);
                Polled::Lost(
                    w,
                    if malformed { DetectionKind::Checksum } else { DetectionKind::Crash },
                )
            }
            // The reader routes every current boundary frame with a
            // link index in range.
            Some(Frame::Boundary { generation, .. }) if generation == current => {
                Polled::Lost(w, DetectionKind::Sequence)
            }
            Some(Frame::BarrierReport { generation, mut report }) if generation == current => {
                // The connection, not the payload, names the worker.
                report.worker = w;
                Polled::Resp(Resp::Done(*report))
            }
            Some(Frame::Fault { generation, start, kind, .. }) if generation == current => {
                Polled::Resp(Resp::Fault { worker: w, start, kind })
            }
            // Stale generations.
            Some(_) => Polled::Idle,
        }
    }

    fn beats(&self, w: usize) -> u64 {
        self.routes.beats[w].load(Ordering::Relaxed)
    }

    /// Generation-bump rollback: kill the suspects, respawn the dead,
    /// and send every worker its restore. Frames are ordered per
    /// socket, so a worker restores before it sees the next batch; one
    /// that dies or wedges meanwhile shows up in that batch's
    /// collection.
    fn restart(
        &mut self,
        cycle: u64,
        snapshots: Option<&[Vec<u8>]>,
        suspects: &[usize],
    ) -> Result<u32, PartitionError> {
        if std::mem::take(&mut self.fresh) && snapshots.is_none() {
            return Ok(0);
        }
        for &w in suspects {
            self.kill_worker(w);
        }
        // Learn of every death already reported; everything else queued
        // belongs to the generation being abandoned.
        while let Ok(event) = self.events.try_recv() {
            if let Some((w, None)) = self.current(event) {
                self.procs[w].alive = false;
            }
        }
        let generation = self.routes.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let mut respawned = 0;
        for w in 0..self.parts.parts() {
            if !self.procs[w].alive {
                self.kill_worker(w);
                self.procs[w] = self.spawn_worker(w)?;
                respawned += 1;
            }
            let snapshot = snapshots.map(|s| s[w].clone()).unwrap_or_default();
            self.routes.send(w, &Frame::Rollback { generation, cycle, snapshot });
        }
        Ok(respawned)
    }

    fn persist(
        &mut self,
        cycle: u64,
        snapshots: &[Vec<u8>],
        outputs: &BTreeMap<String, Vec<i64>>,
        tear: bool,
    ) -> Result<(), PartitionError> {
        let Some(store) = &self.store else { return Ok(()) };
        let record = BarrierRecord {
            cycle,
            fingerprint: self.parts.fingerprint(),
            snapshots: snapshots.to_vec(),
            outputs: outputs.clone(),
        };
        let path = store.save(&record)?;
        // The newest record, and the one a torn write falls back to.
        let _ = store.prune(2);
        if tear {
            tear_record(&path)?;
        }
        Ok(())
    }

    fn durable(&self) -> Result<Option<Option<Barrier<Vec<u8>>>>, PartitionError> {
        let Some(store) = &self.store else { return Ok(None) };
        let Some(record) = store.latest_consistent()? else { return Ok(Some(None)) };
        let fingerprint = self.parts.fingerprint();
        if record.fingerprint != fingerprint {
            return Err(PartitionError::Store {
                detail: format!(
                    "store fingerprint {:#x} does not match this cut ({fingerprint:#x})",
                    record.fingerprint
                ),
            });
        }
        Ok(Some(Some(Barrier {
            cycle: record.cycle,
            snapshots: record.snapshots,
            outputs: record.outputs,
        })))
    }

    /// Shutdown frames, a short grace period, SIGKILL for stragglers,
    /// reap everything, remove the socket directory.
    fn shutdown(mut self) {
        for w in 0..self.procs.len() {
            self.routes.send(w, &Frame::Shutdown);
        }
        let grace = Instant::now() + Duration::from_millis(500);
        for w in 0..self.procs.len() {
            while Instant::now() < grace && matches!(self.procs[w].child.try_wait(), Ok(None)) {
                thread::sleep(Duration::from_millis(10));
            }
            self.kill_worker(w);
        }
        let _ = std::fs::remove_dir_all(&self.sock_dir);
    }
}

/// Reader-thread body: route boundary frames and heartbeats straight to
/// their consumers, and pump every other frame into the shared event
/// queue, until the socket closes or the hub goes away.
fn reader_main(
    worker: usize,
    conn: u64,
    mut transport: SocketTransport,
    tx: &Sender<Event>,
    routes: &Routes,
) {
    loop {
        let event = match transport.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => match routes.relay(worker, frame) {
                Some(frame) => Event::Frame { worker, conn, frame },
                None => continue,
            },
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Disconnected) => Event::Closed { worker, conn },
            Err(RecvError::Protocol(_)) => Event::Malformed { worker, conn },
        };
        let last = !matches!(event, Event::Frame { .. });
        if tx.send(event).is_err() || last {
            return;
        }
    }
}

/// Simulated torn write: truncate a durable record mid-body.
fn tear_record(path: &Path) -> Result<(), PartitionError> {
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
    use crate::runner::{
        run_single, ChaosPlan, Isolation, PartitionRunner, RunnerConfig, Stimulus,
    };
    use crate::transport::ChannelTransport;
    use dwt_rtl::builder::NetlistBuilder;
    use dwt_rtl::netlist::Netlist;
    use dwt_rtl::sim::Simulator;

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
    fn run_worker_refuses_a_shard_outside_the_cut() {
        let parts = partition(&pipeline(4), 2, &CutOptions::default()).unwrap();
        let (worker_end, _hub_end) = ChannelTransport::pair();
        let refused = run_worker::<Simulator, _>(&parts, 2, worker_end);
        assert!(matches!(refused, Err(PartitionError::Spawn { .. })), "{refused:?}");
    }

    #[test]
    fn a_torn_record_without_a_store_is_refused() {
        let parts = partition(&pipeline(4), 2, &CutOptions::default()).unwrap();
        let chaos = ChaosPlan { torn_after: Some(1), ..ChaosPlan::default() };
        let launcher =
            WorkerLauncher { program: PathBuf::from("never-launched"), args: Vec::new() };
        let processes =
            Isolation::Processes { launcher, store: None, resume: false, stop_after: None };
        for isolation in [Isolation::Threads, processes] {
            let config = RunnerConfig { isolation, ..RunnerConfig::default() };
            let runner = PartitionRunner::<Simulator>::new(&parts, config);
            let refused = runner.run_frame(&stimulus(24), None, &chaos, None);
            assert!(matches!(refused, Err(PartitionError::Store { .. })), "{refused:?}");
        }
    }

    /// A hand-written hub over channel transports: one batch on every
    /// worker, boundary frames routed producer → consumer, reports
    /// collected.
    struct TestHub<'p> {
        parts: &'p PartitionedNetlist,
        stim: &'p Stimulus,
        ends: Vec<ChannelTransport>,
        /// `out_route[w][out_idx]` → `(consumer, consumer's in_idx)`.
        out_route: Vec<Vec<(usize, u32)>>,
    }

    impl TestHub<'_> {
        fn batch(&mut self, generation: u64, start: u64, cycles: u64) -> Vec<BatchReport<Vec<u8>>> {
            for (w, end) in self.ends.iter_mut().enumerate() {
                let (shard, stim) = (&self.parts.shards[w], self.stim);
                let mut inputs = Vec::new();
                for c in start..start + cycles {
                    inputs.extend(shard.inputs.iter().map(|p| stim.inputs[p][c as usize]));
                }
                let batch = Batch {
                    start,
                    cycles,
                    prologue: start == 0,
                    inputs,
                    faults: Vec::new(),
                    kill_at: None,
                    stall_at: None,
                    corrupt: Vec::new(),
                    watchdog: Duration::from_secs(5),
                    event_cap: None,
                };
                end.send(&Frame::Batch { generation, batch: Box::new(batch) }).unwrap();
            }
            // Per-channel FIFO order makes a report the last frame of
            // its batch, so once every report is in, every boundary
            // frame was routed.
            let mut reports: Vec<Option<BatchReport<Vec<u8>>>> = vec![None, None];
            while reports.iter().any(Option::is_none) {
                for (w, slot) in reports.iter_mut().enumerate() {
                    match self.ends[w].recv_timeout(Duration::from_millis(20)) {
                        Ok(Frame::Boundary { generation: g, link, msg }) => {
                            assert_eq!(g, generation);
                            let (consumer, in_idx) = self.out_route[w][link as usize];
                            let routed = Frame::Boundary { generation, link: in_idx, msg };
                            self.ends[consumer].send(&routed).unwrap();
                        }
                        Ok(Frame::Heartbeat { .. }) | Err(RecvError::Timeout) => {}
                        Ok(Frame::BarrierReport { generation: g, report }) => {
                            assert_eq!((g, report.worker, report.start), (generation, w, start));
                            *slot = Some(*report);
                        }
                        Ok(other) => panic!("unexpected frame {other:?}"),
                        Err(e) => panic!("hub recv: {e}"),
                    }
                }
            }
            let reports: Vec<_> = reports.into_iter().map(Option::unwrap).collect();
            // Both ends of every link hash alike at the barrier.
            let (mut out_idx, mut in_idx) = (vec![0; 2], vec![0; 2]);
            for link in &self.parts.links {
                let produced = reports[link.from].out_hashes[out_idx[link.from]];
                let consumed = reports[link.to].in_hashes[in_idx[link.to]];
                assert_eq!(produced, consumed, "link hash mismatch on {:?}", link.ports);
                out_idx[link.from] += 1;
                in_idx[link.to] += 1;
            }
            reports
        }

        fn rollback(&mut self, generation: u64, cycle: u64, snapshots: &[Vec<u8>]) {
            for (w, end) in self.ends.iter_mut().enumerate() {
                let snapshot = snapshots.get(w).cloned().unwrap_or_default();
                end.send(&Frame::Rollback { generation, cycle, snapshot }).unwrap();
            }
        }

        /// Appends the reports' flat row-major outputs to `committed`.
        fn commit(
            &self,
            committed: &mut BTreeMap<String, Vec<i64>>,
            reports: &[BatchReport<Vec<u8>>],
        ) {
            for (w, report) in reports.iter().enumerate() {
                let ports = &self.parts.shards[w].outputs;
                for (i, port) in ports.iter().enumerate() {
                    let sink = committed.entry(port.clone()).or_default();
                    sink.extend(report.outputs.iter().skip(i).step_by(ports.len()));
                }
            }
        }
    }

    /// Drives two real `run_worker` loops over channel transports with
    /// a hand-written hub: Hello admission, batches out, boundary
    /// frames routed, link hashes crosschecked, then a power-on
    /// rollback with a bit-exact replay, a restore from the barrier
    /// snapshot bytes, and a clean shutdown.
    #[test]
    fn run_worker_speaks_the_protocol_end_to_end() {
        let netlist = pipeline(4);
        let parts = partition(&netlist, 2, &CutOptions::default()).unwrap();
        let stim = stimulus(24);
        let mut out_route: Vec<Vec<(usize, u32)>> = vec![Vec::new(); 2];
        let mut in_counts = [0u32; 2];
        for link in &parts.links {
            out_route[link.from].push((link.to, in_counts[link.to]));
            in_counts[link.to] += 1;
        }
        thread::scope(|scope| {
            let mut hub = TestHub { parts: &parts, stim: &stim, ends: Vec::new(), out_route };
            let mut workers = Vec::new();
            for w in 0..2 {
                let (worker_end, hub_end) = ChannelTransport::pair();
                hub.ends.push(hub_end);
                let parts = &parts;
                workers.push(scope.spawn(move || run_worker::<Simulator, _>(parts, w, worker_end)));
            }
            for (w, end) in hub.ends.iter_mut().enumerate() {
                match end.recv_timeout(Duration::from_secs(5)).unwrap() {
                    Frame::Hello { worker, fingerprint } => {
                        assert_eq!((worker as usize, fingerprint), (w, parts.fingerprint()));
                    }
                    other => panic!("expected Hello, got {other:?}"),
                }
            }

            let mut first = BTreeMap::new();
            let head = hub.batch(0, 0, 12);
            hub.commit(&mut first, &head);
            let tail = hub.batch(0, 12, 12);
            hub.commit(&mut first, &tail);
            let oracle = run_single::<Simulator>(&netlist, &stim, None).unwrap();
            assert_eq!(first, oracle.ports, "partitioned run diverged from the oracle");

            // Power-on rollback: the frames of generation 1 replay the
            // whole frame bit for bit.
            hub.rollback(1, 0, &[]);
            let mut replay = BTreeMap::new();
            let replayed = hub.batch(1, 0, 12);
            hub.commit(&mut replay, &replayed);
            let replayed = hub.batch(1, 12, 12);
            hub.commit(&mut replay, &replayed);
            assert_eq!(first, replay, "replay diverged from the first pass");

            // Restore from the barrier at cycle 12 as portable bytes:
            // the second batch again, bit for bit.
            let barrier: Vec<Vec<u8>> = head.iter().map(|r| r.snapshot.clone()).collect();
            hub.rollback(2, 12, &barrier);
            let restored = hub.batch(2, 12, 12);
            for (again, before) in restored.iter().zip(&tail) {
                assert_eq!(again.outputs, before.outputs);
                assert_eq!(again.snapshot, before.snapshot);
            }

            for end in &mut hub.ends {
                end.send(&Frame::Shutdown).unwrap();
            }
            for worker in workers {
                assert!(worker.join().unwrap().unwrap(), "a clean shutdown returns Ok(true)");
            }
        });
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
