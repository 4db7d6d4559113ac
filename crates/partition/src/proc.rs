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
//! * **Spawn.** The `Hub` starts one worker process per shard with
//!   [`WorkerLauncher`], passing `--shard W --socket PATH`, and accepts
//!   its connection on a per-shard Unix-domain socket.
//! * **Admission.** The worker rebuilds the cut independently and
//!   announces itself with a [`Frame::Hello`] carrying the cut
//!   [`fingerprint`](PartitionedNetlist::fingerprint): a worker
//!   launched against the wrong design or part count is refused before
//!   it can pollute the run.
//! * **Links.** The hub socket carries control frames only. Boundary
//!   frames travel point to point, as in thread mode, on links that
//!   live for one rollback generation: every generation, the first one
//!   included, begins with a [`Frame::Rollback`], on which the consumer
//!   of link `k` binds `g<gen>-l<k>.sock` in the hub's socket directory
//!   (unlinked once accepted) and the producer connects to it. So a
//!   respawned worker only ever meets the current generation's peers,
//!   and a stale value can never alias its replayed successor. A
//!   producer's heartbeats, at most four per watchdog window, go down
//!   each link as well as to the hub, so a waiting consumer tells a
//!   slow producer from a dead one. Snapshots cross the hub socket as
//!   [`PortableSnapshot`] bytes — backend-tagged and versioned, so a
//!   restore on the wrong backend fails loudly.
//! * **The durable store.** With a store directory, every committed
//!   barrier is written to a [`RunStore`] (tmp file, fsync, atomic
//!   rename) and becomes the rollback target.
//! * **Resume.** A coordinator that is itself killed can be restarted
//!   with `resume` and continues from the newest consistent barrier
//!   instead of cycle 0; a torn record costs one barrier of replay.
//!   A store written for another cut is refused.

use std::collections::{BTreeMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dwt_rtl::engine::{Engine, PortableSnapshot};

use crate::channel::BoundaryMsg;
use crate::cut::{BoundaryLink, PartitionedNetlist};
use crate::error::PartitionError;
use crate::runner::{
    Barrier, Batch, BatchReport, DetectionKind, Fleet, Next, Polled, Resp, Worker, WorkerIo,
};
use crate::store::{BarrierRecord, RunStore};
use crate::transport::{RecvError, SocketTransport, Transport};
use crate::wire::Frame;

/// How long a worker process may take to start, build its engine and
/// say Hello (slow in debug builds or on a cold jit cache), and how
/// long a worker waits for its peers to open a generation's links.
const ADMISSION: Duration = Duration::from_secs(20);

/// How long one write to a peer may block: the hub's writes to a
/// worker, and both ends' writes on every boundary link. A peer that
/// is alive but wedged, with its receive buffer full, must not hold
/// the writer forever. A frame that fills the buffer midway costs one
/// partial write and one failed one, so a send gives up within twice
/// this; the reader detects the lost or torn frame.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

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

/// One generation's boundary links, in the worker's link order.
struct Links {
    outs: Vec<SocketTransport>,
    /// Per in-link: the socket and its producer's last beat count.
    ins: Vec<(SocketTransport, u64)>,
}

/// An in-link's listening socket, unlinked once dropped.
struct Listening(UnixListener, PathBuf);

impl Drop for Listening {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.1);
    }
}

/// A worker process's I/O: control frames over one transport to the
/// hub, boundary frames over this generation's link sockets.
struct SocketIo<'p, T> {
    transport: T,
    worker: u32,
    /// The cut's links; this worker's are those it produces or consumes.
    links: &'p [BoundaryLink],
    /// Where the link sockets meet.
    dir: &'p Path,
    generation: u64,
    /// `None` before the first rollback and after a failed rendezvous.
    open: Option<Links>,
    /// Batches that arrived while an earlier one ran.
    batches: VecDeque<Batch>,
    /// A rollback or shutdown that preempted the running batch.
    control: Option<Frame>,
    beats: u64,
    last_beat: Option<Instant>,
}

impl<'p, T: Transport> SocketIo<'p, T> {
    fn new(transport: T, worker: u32, links: &'p [BoundaryLink], dir: &'p Path) -> Self {
        SocketIo {
            transport,
            worker,
            links,
            dir,
            generation: 0,
            open: None,
            batches: VecDeque::new(),
            control: None,
            beats: 0,
            last_beat: None,
        }
    }

    /// Reads one hub frame and files it. Batches of an older generation
    /// are dropped.
    fn read(&mut self, wait: Duration) -> Result<(), RecvError> {
        match self.transport.recv_timeout(wait)? {
            Frame::Batch { generation, batch } if generation == self.generation => {
                self.batches.push_back(*batch);
            }
            frame @ (Frame::Rollback { .. } | Frame::Shutdown) => self.control = Some(frame),
            _ => {}
        }
        Ok(())
    }

    /// Opens this generation's links: binds every in-link's socket,
    /// then connects every out-link and accepts every in-link, reading
    /// the hub while a peer is not there yet. All binds come first, so
    /// no two workers wait on each other. Gives up, leaving none of its
    /// socket files behind, when a rollback or shutdown comes, the hub
    /// is lost or [`ADMISSION`] runs out.
    fn rendezvous(&mut self) -> Option<Links> {
        let (worker, deadline) = (self.worker as usize, Instant::now() + ADMISSION);
        let (mut outs, mut ins) = (Vec::new(), Vec::new());
        for (k, link) in self.links.iter().enumerate() {
            let path = self.dir.join(format!("g{}-l{k}.sock", self.generation));
            if link.from == worker {
                outs.push(path);
            } else if link.to == worker {
                let listening = Listening(UnixListener::bind(&path).ok()?, path);
                listening.0.set_nonblocking(true).ok()?;
                ins.push(listening);
            }
        }
        let mut wait = || {
            let read = self.read(Duration::from_millis(5));
            matches!(read, Ok(()) | Err(RecvError::Timeout))
                && self.control.is_none()
                && Instant::now() < deadline
        };
        let mut open = Links { outs: Vec::new(), ins: Vec::new() };
        for path in outs {
            open.outs.push(loop {
                if let Ok(stream) = UnixStream::connect(&path) {
                    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok()?;
                    break SocketTransport::new(stream);
                }
                if !wait() {
                    return None;
                }
            });
        }
        for listening in ins {
            open.ins.push(loop {
                if let Ok((stream, _)) = listening.0.accept() {
                    stream.set_nonblocking(false).ok()?;
                    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok()?;
                    break (SocketTransport::new(stream), 0);
                }
                if !wait() {
                    return None;
                }
            });
        }
        Some(open)
    }
}

impl<T: Transport, S: PortableSnapshot> WorkerIo<S> for SocketIo<'_, T> {
    fn next(&mut self) -> Next<S> {
        loop {
            match self.control.take() {
                Some(Frame::Rollback { generation, cycle, snapshot }) => {
                    self.generation = generation;
                    self.batches.clear();
                    // Closing the old links wakes any peer still
                    // waiting on them.
                    self.open = None;
                    self.open = self.rendezvous();
                    if self.control.is_some() {
                        continue;
                    }
                    if self.open.is_none() {
                        // This generation's batches cannot run; the
                        // fault makes the coordinator roll back again.
                        let (worker, kind) = (self.worker, DetectionKind::Crash);
                        let fault = Frame::Fault { worker, generation, start: cycle, kind };
                        let _ = self.transport.send(&fault);
                        continue;
                    }
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
            if let Some(batch) = self.batches.pop_front().filter(|_| self.open.is_some()) {
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
        let (generation, index) = (self.generation, link as u32);
        if let Some(out) = self.open.as_mut().and_then(|open| open.outs.get_mut(link)) {
            // A closed peer is the coordinator's problem.
            let _ = out.send(&Frame::Boundary { generation, link: index, msg });
        }
    }

    fn recv(&mut self, link: usize, wait: Duration) -> Result<BoundaryMsg, RecvError> {
        let Some((transport, beats)) = self.open.as_mut().and_then(|open| open.ins.get_mut(link))
        else {
            return Err(RecvError::Disconnected);
        };
        let deadline = Instant::now() + wait;
        loop {
            match transport.recv_timeout(deadline.saturating_duration_since(Instant::now()))? {
                Frame::Boundary { msg, .. } => return Ok(msg),
                Frame::Heartbeat { beats: count, .. } => *beats = count,
                other => {
                    return Err(RecvError::Protocol(PartitionError::Protocol {
                        detail: format!("{other:?} on a boundary link"),
                    }))
                }
            }
        }
    }

    fn producer_beats(&mut self, link: usize) -> u64 {
        self.open.as_ref().and_then(|open| open.ins.get(link)).map_or(0, |&(_, beats)| beats)
    }

    fn beat(&mut self, every: Duration) {
        self.beats += 1;
        if self.last_beat.is_none_or(|at| at.elapsed() >= every) {
            self.last_beat = Some(Instant::now());
            let (worker, generation, beats) = (self.worker, self.generation, self.beats);
            let frame = Frame::Heartbeat { worker, generation, beats };
            let _ = self.transport.send(&frame);
            for out in self.open.iter_mut().flat_map(|open| &mut open.outs) {
                let _ = out.send(&frame);
            }
        }
    }
}

/// A worker process's protocol loop: build shard `shard` of `parts`,
/// announce it, then serve batches and rollbacks until shutdown. The
/// `dwt_partition_worker` binary runs it over a socket to the hub,
/// with `dir` the directory of that socket, where each generation's
/// link sockets meet.
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
    dir: &Path,
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
    worker.serve(&mut SocketIo::new(transport, worker_id, &parts.links, dir))
}

// ---------------------------------------------------------------- hub

/// A frame from one connection of a worker, or how its stream ended.
struct Event {
    worker: usize,
    conn: u64,
    frame: Result<Frame, DetectionKind>,
}

struct WorkerProc {
    child: Child,
    /// Connection id; events from an older connection of a respawned
    /// worker are dropped by tag.
    conn: u64,
    alive: bool,
    reader: Option<JoinHandle<()>>,
    writer: SocketTransport,
    /// The last heartbeat count of the current generation.
    beats: u64,
}

/// Distinguishes successive hubs in one process.
static SOCK_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process fleet: one worker process per shard, its control
/// frames through here. See the module docs.
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
    /// The rollback generation: every batch carries it, and reports,
    /// faults and heartbeats of older ones are dropped.
    generation: u64,
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
            generation: 0,
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
    /// its Hello and starts its reader thread.
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
        let deadline = Instant::now() + ADMISSION;
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
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let writer = match stream.try_clone() {
            Ok(writer) => SocketTransport::new(writer),
            Err(e) => return Err(refuse(&mut child, format!("clone: {e}"))),
        };
        let mut reader = SocketTransport::new(stream);
        // Admission: the worker proves it rebuilt the same cut. Read
        // the Hello synchronously so the reader thread starts with a
        // clean stream position.
        let fingerprint = self.parts.fingerprint();
        match reader.recv_timeout(ADMISSION) {
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
        let conn = self.next_conn;
        self.next_conn += 1;
        let tx = self.event_tx.clone();
        let handle = thread::Builder::new()
            .name(format!("dwt-proc-reader-{w}"))
            .spawn(move || reader_main(w, conn, reader, &tx))
            .map_err(|e| refuse(&mut child, format!("reader thread: {e}")))?;
        Ok(WorkerProc { child, conn, alive: true, reader: Some(handle), writer, beats: 0 })
    }

    /// Sends `frame` to worker `w`. A failure means the worker died;
    /// the collection sees the close or the silence.
    fn send(&mut self, w: usize, frame: &Frame) {
        let _ = self.procs[w].writer.send(frame);
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

    /// `event`'s worker and frame, if it comes from that worker's live
    /// connection.
    fn current(&self, event: Event) -> Option<(usize, Result<Frame, DetectionKind>)> {
        (self.procs[event.worker].conn == event.conn).then_some((event.worker, event.frame))
    }
}

impl Fleet for Hub<'_> {
    type Snap = Vec<u8>;

    fn dispatch(&mut self, w: usize, batch: Batch) {
        let generation = self.generation;
        self.send(w, &Frame::Batch { generation, batch: Box::new(batch) });
    }

    fn poll(&mut self, wait: Duration) -> Polled<Vec<u8>> {
        let event = match self.events.recv_timeout(wait) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => return Polled::Idle,
            Err(RecvTimeoutError::Disconnected) => return Polled::AllGone,
        };
        let Some((w, frame)) = self.current(event) else { return Polled::Idle };
        let current = self.generation;
        match frame {
            Err(kind) => {
                self.kill_worker(w);
                Polled::Lost(w, kind)
            }
            Ok(Frame::BarrierReport { generation, mut report }) if generation == current => {
                // The connection, not the payload, names the worker.
                report.worker = w;
                Polled::Resp(Resp::Done(*report))
            }
            Ok(Frame::Fault { generation, start, kind, .. }) if generation == current => {
                Polled::Resp(Resp::Fault { worker: w, start, kind })
            }
            Ok(Frame::Heartbeat { generation, beats, .. }) if generation == current => {
                self.procs[w].beats = beats;
                Polled::Idle
            }
            // Stale generations.
            Ok(_) => Polled::Idle,
        }
    }

    fn beats(&self, w: usize) -> u64 {
        self.procs[w].beats
    }

    /// Generation-bump rollback: kill the suspects, respawn the dead,
    /// then send every worker its restore, which also names the links
    /// to open. Frames are ordered per socket, so a worker restores
    /// before it sees the next batch; one that dies or wedges meanwhile
    /// shows up in that batch's collection.
    fn restart(
        &mut self,
        cycle: u64,
        snapshots: Option<&[Vec<u8>]>,
        suspects: &[usize],
    ) -> Result<u32, PartitionError> {
        for &w in suspects {
            self.kill_worker(w);
        }
        // Learn of every death already reported; everything else queued
        // belongs to the generation being abandoned.
        while let Ok(event) = self.events.try_recv() {
            if let Some((w, Err(_))) = self.current(event) {
                self.procs[w].alive = false;
            }
        }
        self.generation += 1;
        let mut respawned = 0;
        for w in 0..self.parts.parts() {
            if !self.procs[w].alive {
                self.kill_worker(w);
                self.procs[w] = self.spawn_worker(w)?;
                respawned += 1;
            }
        }
        // Every worker is up before any is told to open its links.
        for w in 0..self.parts.parts() {
            let snapshot = snapshots.map(|s| s[w].clone()).unwrap_or_default();
            let generation = self.generation;
            self.send(w, &Frame::Rollback { generation, cycle, snapshot });
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
            self.send(w, &Frame::Shutdown);
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

/// Reader-thread body: pump every frame from worker `worker` into the
/// shared event queue, until the socket closes or the hub goes away.
fn reader_main(worker: usize, conn: u64, mut transport: SocketTransport, tx: &Sender<Event>) {
    loop {
        let frame = match transport.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => Ok(frame),
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Disconnected) => Err(DetectionKind::Crash),
            // Garbage on the control stream loses the framing: the
            // worker cannot be trusted, so it is treated as dead.
            Err(RecvError::Protocol(_)) => Err(DetectionKind::Checksum),
        };
        let last = frame.is_err();
        if tx.send(Event { worker, conn, frame }).is_err() || last {
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

    type Snap = <Simulator as Engine>::Snapshot;

    /// A fresh, empty directory for one test's sockets.
    fn socket_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dwt-proc-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A chaos-free batch with a generous watchdog.
    fn batch(start: u64, cycles: u64, inputs: Vec<i64>) -> Batch {
        Batch {
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
        }
    }

    #[test]
    fn run_worker_refuses_a_shard_outside_the_cut() {
        let parts = partition(&pipeline(4), 2, &CutOptions::default()).unwrap();
        let (worker_end, _hub_end) = ChannelTransport::pair();
        let refused = run_worker::<Simulator, _>(&parts, 2, worker_end, Path::new("."));
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

    /// Two workers' I/O on their own threads, with the hub played over
    /// channels, for two successive generations: each rollback opens
    /// fresh link sockets, boundary frames and heartbeats cross every
    /// link in order, a non-boundary frame on a link is a protocol
    /// error, and no socket file outlives a rendezvous.
    #[test]
    fn links_open_per_generation_and_carry_frames_in_order() {
        let parts = partition(&pipeline(4), 2, &CutOptions::default()).unwrap();
        assert!(parts.links.iter().all(|l| (l.from, l.to) == (0, 1)), "{:?}", parts.links);
        let links = parts.links.len();
        let dir = socket_dir("links");
        let mut hub = Vec::new();
        let mut ios = Vec::new();
        for w in 0..2 {
            let (worker_end, hub_end) = ChannelTransport::pair();
            hub.push(hub_end);
            ios.push(SocketIo::new(worker_end, w, &parts.links, &dir));
        }
        let restore = |io: &mut SocketIo<'_, ChannelTransport>| {
            let next: Next<Snap> = io.next();
            assert!(matches!(next, Next::Restore { cycle: 0, snapshot: None }));
        };
        for generation in 1..=2u64 {
            for end in &mut hub {
                end.send(&Frame::Rollback { generation, cycle: 0, snapshot: Vec::new() }).unwrap();
            }
            let [producer, consumer] = ios.as_mut_slice() else { unreachable!() };
            thread::scope(|scope| {
                scope.spawn(|| {
                    restore(producer);
                    for seq in 0..3 {
                        WorkerIo::<Snap>::beat(producer, Duration::ZERO);
                        for link in 0..links {
                            let msg = BoundaryMsg::new(seq, seq, vec![link as i64, -7]);
                            WorkerIo::<Snap>::send(producer, link, msg);
                        }
                    }
                    let open = producer.open.as_mut().unwrap();
                    open.outs[0].send(&Frame::Shutdown).unwrap();
                });
                scope.spawn(|| {
                    restore(consumer);
                    let wait = Duration::from_secs(5);
                    for seq in 0..3 {
                        for link in 0..links {
                            let msg = WorkerIo::<Snap>::recv(consumer, link, wait).unwrap();
                            assert_eq!((msg.seq, msg.values), (seq, vec![link as i64, -7]));
                            // The beat sent before this frame came first.
                            let beats = WorkerIo::<Snap>::producer_beats(consumer, link);
                            assert_eq!(beats, (generation - 1) * 3 + seq + 1);
                        }
                    }
                    let stray = WorkerIo::<Snap>::recv(consumer, 0, wait);
                    assert!(matches!(stray, Err(RecvError::Protocol(_))), "{stray:?}");
                });
            });
            let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert!(left.is_empty(), "socket files left behind: {left:?}");
        }
        drop(ios);
        std::fs::remove_dir(&dir).unwrap();
    }

    /// A producer whose consumer accepted the link but never reads
    /// fills the socket's buffer; its next send then gives up within
    /// two [`WRITE_TIMEOUT`]s instead of blocking the batch loop.
    #[test]
    fn a_send_to_a_consumer_that_never_reads_returns_within_the_bound() {
        let parts = partition(&pipeline(4), 2, &CutOptions::default()).unwrap();
        let dir = socket_dir("wedged");
        let listeners: Vec<UnixListener> = (0..parts.links.len())
            .map(|k| UnixListener::bind(dir.join(format!("g1-l{k}.sock"))).unwrap())
            .collect();
        let (worker_end, mut hub) = ChannelTransport::pair();
        hub.send(&Frame::Rollback { generation: 1, cycle: 0, snapshot: Vec::new() }).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let links = parts.links.clone();
        let link_dir = dir.clone();
        // Joined only once it has finished: were the write unbounded,
        // it would never return, and the receive below fails instead.
        let producer = thread::spawn(move || {
            let mut producer = SocketIo::new(worker_end, 0, &links, &link_dir);
            let next: Next<Snap> = producer.next();
            assert!(matches!(next, Next::Restore { cycle: 0, snapshot: None }));
            for seq in 0..1024 {
                let started = Instant::now();
                let msg = BoundaryMsg::new(seq, seq, vec![-1; 1 << 16]);
                WorkerIo::<Snap>::send(&mut producer, 0, msg);
                if started.elapsed() >= WRITE_TIMEOUT / 2 {
                    let _ = done_tx.send(started.elapsed());
                    return;
                }
            }
        });
        // Accept every link and hold it open without reading.
        let held: Vec<UnixStream> = listeners.iter().map(|l| l.accept().unwrap().0).collect();
        let outcome = done_rx.recv_timeout(WRITE_TIMEOUT * 5);
        if outcome.is_ok() || producer.is_finished() {
            producer.join().expect("the producer thread panicked");
        }
        let blocked = outcome.expect("no send returned from a full buffer within the bound");
        assert!(blocked < WRITE_TIMEOUT * 2 + Duration::from_secs(1), "send took {blocked:?}");
        drop(held);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A rendezvous that cannot open its links is a fault of its
    /// generation: the hub hears it, the generation's batches never
    /// run, and a receive on the missing link is a disconnect, not a
    /// panic.
    #[test]
    fn a_failed_rendezvous_is_a_fault_of_its_generation() {
        let parts = partition(&pipeline(4), 2, &CutOptions::default()).unwrap();
        let dir = socket_dir("failed");
        // The consumer cannot bind in a directory that does not exist.
        let missing = dir.join("missing");
        let (worker_end, mut hub) = ChannelTransport::pair();
        let mut io = SocketIo::new(worker_end, 1, &parts.links, &missing);
        hub.send(&Frame::Rollback { generation: 1, cycle: 12, snapshot: Vec::new() }).unwrap();
        let inputs = vec![0; 12 * parts.shards[1].inputs.len()];
        hub.send(&Frame::Batch { generation: 1, batch: Box::new(batch(12, 12, inputs)) }).unwrap();
        hub.send(&Frame::Shutdown).unwrap();
        assert!(matches!(WorkerIo::<Snap>::next(&mut io), Next::Stop));
        match hub.recv_timeout(Duration::from_secs(1)).unwrap() {
            Frame::Fault { worker: 1, generation: 1, start: 12, kind: DetectionKind::Crash } => {}
            other => panic!("expected the generation's fault, got {other:?}"),
        }
        let lost = WorkerIo::<Snap>::recv(&mut io, 0, Duration::ZERO);
        assert!(matches!(lost, Err(RecvError::Disconnected)), "{lost:?}");
        std::fs::remove_dir(&dir).unwrap();
    }

    /// A hand-written hub over channel transports: one batch on every
    /// worker, reports collected. Boundary frames travel on the
    /// workers' own link sockets.
    struct TestHub<'p> {
        parts: &'p PartitionedNetlist,
        stim: &'p Stimulus,
        ends: Vec<ChannelTransport>,
    }

    impl TestHub<'_> {
        fn batch(&mut self, generation: u64, start: u64, cycles: u64) -> Vec<BatchReport<Vec<u8>>> {
            for (w, end) in self.ends.iter_mut().enumerate() {
                let (shard, stim) = (&self.parts.shards[w], self.stim);
                let mut inputs = Vec::new();
                for c in start..start + cycles {
                    inputs.extend(shard.inputs.iter().map(|p| stim.inputs[p][c as usize]));
                }
                let batch = Box::new(batch(start, cycles, inputs));
                end.send(&Frame::Batch { generation, batch }).unwrap();
            }
            let mut reports: Vec<Option<BatchReport<Vec<u8>>>> = vec![None, None];
            while reports.iter().any(Option::is_none) {
                for (w, slot) in reports.iter_mut().enumerate() {
                    match self.ends[w].recv_timeout(Duration::from_millis(20)) {
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

    /// Drives two real `run_worker` loops with a hand-written hub over
    /// channel transports and real link sockets: Hello admission, a
    /// power-on rollback opening the first generation's links, batches
    /// out, link hashes crosschecked, then a power-on rollback with a
    /// bit-exact replay, a restore from the barrier snapshot bytes, and
    /// a clean shutdown.
    #[test]
    fn run_worker_speaks_the_protocol_end_to_end() {
        let netlist = pipeline(4);
        let parts = partition(&netlist, 2, &CutOptions::default()).unwrap();
        let stim = stimulus(24);
        let dir = socket_dir("e2e");
        thread::scope(|scope| {
            let mut hub = TestHub { parts: &parts, stim: &stim, ends: Vec::new() };
            let mut workers = Vec::new();
            for w in 0..2 {
                let (worker_end, hub_end) = ChannelTransport::pair();
                hub.ends.push(hub_end);
                let (parts, dir) = (&parts, &dir);
                workers.push(
                    scope.spawn(move || run_worker::<Simulator, _>(parts, w, worker_end, dir)),
                );
            }
            for (w, end) in hub.ends.iter_mut().enumerate() {
                match end.recv_timeout(Duration::from_secs(5)).unwrap() {
                    Frame::Hello { worker, fingerprint } => {
                        assert_eq!((worker as usize, fingerprint), (w, parts.fingerprint()));
                    }
                    other => panic!("expected Hello, got {other:?}"),
                }
            }

            // Generation 1 begins like every other, with a rollback.
            hub.rollback(1, 0, &[]);
            let mut first = BTreeMap::new();
            let head = hub.batch(1, 0, 12);
            hub.commit(&mut first, &head);
            let tail = hub.batch(1, 12, 12);
            hub.commit(&mut first, &tail);
            let oracle = run_single::<Simulator>(&netlist, &stim, None).unwrap();
            assert_eq!(first, oracle.ports, "partitioned run diverged from the oracle");

            // Power-on rollback: the frames of generation 2 replay the
            // whole frame bit for bit.
            hub.rollback(2, 0, &[]);
            let mut replay = BTreeMap::new();
            let replayed = hub.batch(2, 0, 12);
            hub.commit(&mut replay, &replayed);
            let replayed = hub.batch(2, 12, 12);
            hub.commit(&mut replay, &replayed);
            assert_eq!(first, replay, "replay diverged from the first pass");

            // Restore from the barrier at cycle 12 as portable bytes:
            // the second batch again, bit for bit.
            let barrier: Vec<Vec<u8>> = head.iter().map(|r| r.snapshot.clone()).collect();
            hub.rollback(3, 12, &barrier);
            let restored = hub.batch(3, 12, 12);
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
        let _ = std::fs::remove_dir_all(&dir);
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
