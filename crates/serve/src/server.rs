//! The multi-core serving runtime: work-stealing workers, bounded
//! ingress, deadline admission, breakers, retries and golden fallback.
//!
//! ## Queueing model
//!
//! One server lock guards every worker's job deque plus the shared
//! counters; a tile's execution (microseconds to milliseconds) dwarfs
//! the lock hold times (pointer shuffling), so a single lock beats a
//! lock-free deque here and keeps the admission decision — which must
//! see every queue — atomic. `submit` picks the best admissible worker
//! the way the virtual-time pool picks lanes: EWMA health discounted by
//! estimated queue wait, skipping workers whose breaker is open or
//! whose backlog would bust the request's wall-clock deadline. Idle
//! workers steal the *oldest* job from the *longest* peer queue, so
//! stealing repairs latency, not just utilisation.
//!
//! ## Degradation ladder
//!
//! Inside a worker, a tile climbs the recovery executor's own ladder
//! (replay → TMR spare → golden). If the whole ladder fails — or the
//! harness errors — the *server* ladder continues: bounded retries with
//! exponential backoff and deterministic jitter on other workers, and
//! finally the in-process software golden model, which cannot fail.
//! Every submitted request therefore gets exactly one response, and a
//! response is bit-exact by construction: hardware results are
//! DWC-verified against the golden stream as they emerge, and every
//! fallback *is* the golden model. Overload and chaos shed hardware
//! goodput, never correctness and never requests.

use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dwt_pool::admission::AdmissionConfig;
use dwt_pool::clock::{Clock, MonotonicClock};
use dwt_pool::health::sample_for;
use dwt_recover::executor::{TileExecutor, TileStatus};
use dwt_recover::injector::{FaultInjector, NoFaults};
use dwt_rtl::engine::Engine;
use dwt_rtl::sim::Simulator;

use crate::config::{OverloadPolicy, ServeConfig};
use crate::error::{Error, Result};
use crate::report::{Counters, ServeStats};
use crate::request::{ServedBy, ShedReason, TileRequest, TileResponse};
use crate::worker::{golden_tile, Job, WorkerSlot, WorkerStats};

/// A job parked in the retry delay queue, ordered soonest-due first.
#[derive(Debug)]
struct Delayed {
    due: u64,
    seq: u64,
    job: Job,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the soonest due.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// Lock-protected server state.
#[derive(Debug)]
struct State {
    workers: Vec<WorkerSlot>,
    /// Jobs sitting in worker deques (not executing, not in retry).
    queued: usize,
    /// Jobs currently held by worker threads.
    inflight: usize,
    /// Jobs parked in the retry delay queue.
    retry_pending: usize,
    shutdown: bool,
    counters: Counters,
}

/// State shared by the submit path, the workers and the retry timer.
struct Shared {
    cfg: ServeConfig,
    admission: AdmissionConfig,
    state: Mutex<State>,
    /// Workers wait here for jobs.
    work: Condvar,
    /// Blocked submitters wait here for queue space.
    space: Condvar,
    retry_heap: Mutex<BinaryHeap<Delayed>>,
    retry_cv: Condvar,
    retry_seq: std::sync::atomic::AtomicU64,
    clock: Arc<dyn Clock>,
}

/// Why a dispatch found no worker.
enum DispatchFail {
    /// At least one breaker admitted, but no admissible worker could
    /// meet the deadline.
    Deadline,
    /// Every live worker's breaker refused (or all workers are dead).
    Breakers,
}

impl Shared {
    /// Picks the best admissible worker for `job` and enqueues it, or
    /// hands the job back with the reason no worker would do.
    ///
    /// Untried workers are preferred; if none is admissible the search
    /// falls back to already-tried ones (their breaker state still
    /// gates re-use), so a retry on a recovered worker beats a shed.
    fn dispatch_locked(
        &self,
        st: &mut State,
        job: Job,
        now: u64,
    ) -> std::result::Result<usize, (Job, DispatchFail)> {
        let mut any_breaker_admitted = false;
        for include_tried in [false, true] {
            let mut best: Option<(usize, f64)> = None;
            for (i, slot) in st.workers.iter().enumerate() {
                if slot.dead || (!include_tried && job.tried.contains(&i)) {
                    continue;
                }
                if !slot.breaker.admits(now) {
                    continue;
                }
                any_breaker_admitted = true;
                let est = slot.cost.estimate().max(1);
                let backlog = slot.backlog_ns();
                let verdict =
                    self.admission.judge(job.arrival_ns, now.saturating_add(backlog), est);
                if verdict != dwt_pool::admission::AdmissionVerdict::Admit {
                    continue;
                }
                let score = slot.health.score() / (1.0 + backlog as f64 / est as f64);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
            if let Some((w, _)) = best {
                st.workers[w].queue.push_back(job);
                st.queued += 1;
                self.work.notify_all();
                return Ok(w);
            }
        }
        let fail =
            if any_breaker_admitted { DispatchFail::Deadline } else { DispatchFail::Breakers };
        Err((job, fail))
    }

    /// Serves `job` from the software golden model — the bottom of the
    /// ladder — and emits its response. `precomputed` carries golden
    /// coefficients a worker's own fallback already produced.
    fn shed_to_golden(
        &self,
        tx: &Sender<TileResponse>,
        job: Job,
        reason: ShedReason,
        precomputed: Option<(Vec<i64>, Vec<i64>)>,
    ) {
        let (low, high) = precomputed.unwrap_or_else(|| golden_tile(&job.req.pairs));
        {
            let mut st = self.state.lock().unwrap();
            st.counters.golden_served += 1;
            match reason {
                ShedReason::QueueFull => st.counters.shed_queue_full += 1,
                ShedReason::NoAdmissibleWorker => st.counters.shed_no_admissible += 1,
                ShedReason::DeadlineExceeded => st.counters.shed_deadline += 1,
                ShedReason::RetriesExhausted => st.counters.shed_retries += 1,
            }
        }
        let now = self.clock.now();
        let _ = tx.send(TileResponse {
            id: job.req.id,
            pairs: job.req.pairs.len(),
            low,
            high,
            served_by: ServedBy::Golden(reason),
            attempts: job.attempts,
            latency_ns: now.saturating_sub(job.arrival_ns),
        });
    }

    /// Re-dispatches `job` immediately (no attempt consumed): used
    /// when the worker that held it cannot run it (dead, or breaker
    /// opened while the job sat in its queue).
    fn redispatch(&self, tx: &Sender<TileResponse>, job: Job, now: u64) {
        if job.expired(now) {
            self.shed_to_golden(tx, job, ShedReason::DeadlineExceeded, None);
            return;
        }
        let verdict = {
            let mut st = self.state.lock().unwrap();
            st.counters.redispatches += 1;
            self.dispatch_locked(&mut st, job, now)
        };
        if let Err((job, fail)) = verdict {
            let reason = match fail {
                DispatchFail::Deadline => ShedReason::DeadlineExceeded,
                DispatchFail::Breakers => ShedReason::NoAdmissibleWorker,
            };
            self.shed_to_golden(tx, job, reason, None);
        }
    }

    /// After a failed hardware attempt: park the job for a jittered
    /// exponential backoff if the budget and deadline allow, else
    /// serve it golden.
    fn retry_or_golden(
        &self,
        tx: &Sender<TileResponse>,
        job: Job,
        precomputed: Option<(Vec<i64>, Vec<i64>)>,
    ) {
        let now = self.clock.now();
        let next = job.attempts + 1;
        if self.cfg.retry.allows(next) {
            let delay = self.cfg.retry.backoff_ns(self.cfg.seed, job.req.id, next);
            let due = now.saturating_add(delay);
            if job.deadline_ns.is_none_or(|d| due <= d) {
                {
                    let mut st = self.state.lock().unwrap();
                    st.counters.retries += 1;
                    st.retry_pending += 1;
                }
                let seq = self.retry_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.retry_heap.lock().unwrap().push(Delayed { due, seq, job });
                self.retry_cv.notify_all();
                return;
            }
            self.shed_to_golden(tx, job, ShedReason::DeadlineExceeded, precomputed);
            return;
        }
        self.shed_to_golden(tx, job, ShedReason::RetriesExhausted, precomputed);
    }

    /// Marks worker `w` dead and wakes everyone who might care.
    fn mark_dead(&self, w: usize) {
        let mut st = self.state.lock().unwrap();
        st.workers[w].dead = true;
        self.work.notify_all();
    }

    /// Worker/retry exit condition: shutdown requested and no job
    /// anywhere in the system.
    fn drained(&self, st: &State) -> bool {
        st.shutdown && st.queued == 0 && st.inflight == 0 && st.retry_pending == 0
    }
}

/// The serving runtime.
///
/// `Server::start` spawns one worker thread per configured worker
/// (each owning a `CompiledEngine`- or `Simulator`-backed
/// [`TileExecutor`]) plus a retry timer, and returns the response
/// channel. [`Server::submit`] is the bounded ingress;
/// [`Server::shutdown`] drains gracefully and returns the run's
/// statistics.
pub struct Server<E: Engine = Simulator> {
    shared: Arc<Shared>,
    tx: Sender<TileResponse>,
    workers: Vec<JoinHandle<()>>,
    retry_thread: Option<JoinHandle<()>>,
    _engine: PhantomData<E>,
}

impl<E> Server<E>
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    /// Validates `cfg`, builds one executor (and chaos injector) per
    /// worker, and spawns the runtime. Returns the server handle and
    /// the stream of responses.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a malformed configuration;
    /// harness construction errors from the executors or chaos
    /// injectors otherwise.
    pub fn start(cfg: ServeConfig) -> Result<(Self, Receiver<TileResponse>)> {
        cfg.validate()?;
        let mut execs = Vec::with_capacity(cfg.workers);
        let mut injectors: Vec<Box<dyn FaultInjector + Send>> = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let exec = TileExecutor::<E>::new(cfg.design, cfg.executor)?;
            let injector: Box<dyn FaultInjector + Send> = match &cfg.chaos {
                Some(chaos) => Box::new(chaos.injector_for(
                    w,
                    exec.primary_netlist(),
                    exec.spare_netlist()?,
                )?),
                None => Box::new(NoFaults),
            };
            execs.push(exec);
            injectors.push(injector);
        }

        let (tx, rx) = channel();
        let shared = Arc::new(Shared {
            admission: AdmissionConfig { deadline_cycles: cfg.deadline_ns },
            state: Mutex::new(State {
                workers: (0..cfg.workers).map(|_| WorkerSlot::new(&cfg)).collect(),
                queued: 0,
                inflight: 0,
                retry_pending: 0,
                shutdown: false,
                counters: Counters::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            retry_heap: Mutex::new(BinaryHeap::new()),
            retry_cv: Condvar::new(),
            retry_seq: std::sync::atomic::AtomicU64::new(0),
            clock: Arc::new(MonotonicClock::new()),
            cfg,
        });

        let mut workers = Vec::with_capacity(shared.cfg.workers);
        let mut spawn_failure: Option<std::io::Error> = None;
        for (w, (exec, injector)) in execs.into_iter().zip(injectors).enumerate() {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let slow = shared.cfg.chaos.as_ref().map_or(1.0, |c| c.slow_factor(w));
            let handle = std::thread::Builder::new()
                .name(format!("dwt-serve-{w}"))
                .spawn(move || worker_loop(w, &shared, exec, injector, slow, &tx));
            match handle {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    spawn_failure = Some(e);
                    break;
                }
            }
        }
        let retry_thread = if spawn_failure.is_none() {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            match std::thread::Builder::new()
                .name("dwt-serve-retry".into())
                .spawn(move || retry_loop(&shared, &tx))
            {
                Ok(handle) => Some(handle),
                Err(e) => {
                    spawn_failure = Some(e);
                    None
                }
            }
        } else {
            None
        };
        if let Some(e) = spawn_failure {
            // A partially-started runtime must not leak threads: flip
            // shutdown, wake everyone, and join whatever did spawn.
            shared.state.lock().unwrap().shutdown = true;
            shared.work.notify_all();
            shared.space.notify_all();
            shared.retry_cv.notify_all();
            for handle in workers {
                let _ = handle.join();
            }
            if let Some(handle) = retry_thread {
                let _ = handle.join();
            }
            return Err(Error::Spawn(e.to_string()));
        }

        Ok((Server { shared, tx, workers, retry_thread, _engine: PhantomData }, rx))
    }

    /// Submits one tile request. Exactly one [`TileResponse`] will
    /// arrive on the response channel for it.
    ///
    /// Under a full queue this blocks
    /// ([`OverloadPolicy::Block`]) or serves the request from the
    /// golden model immediately ([`OverloadPolicy::Shed`]); either
    /// way the request is never dropped.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyRequest`] for a request without pairs;
    /// [`Error::ShuttingDown`] after [`Server::shutdown`] has begun.
    pub fn submit(&self, req: TileRequest) -> Result<()> {
        if req.pairs.is_empty() {
            return Err(Error::EmptyRequest);
        }
        let now = self.shared.clock.now();
        let job = Job {
            arrival_ns: now,
            deadline_ns: self.shared.cfg.deadline_ns.map(|d| now.saturating_add(d)),
            attempts: 0,
            tried: Vec::new(),
            req,
        };
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(Error::ShuttingDown);
        }
        st.counters.submitted += 1;
        while st.queued >= self.shared.cfg.queue_capacity {
            match self.shared.cfg.overload {
                OverloadPolicy::Shed => {
                    drop(st);
                    self.shared.shed_to_golden(&self.tx, job, ShedReason::QueueFull, None);
                    return Ok(());
                }
                OverloadPolicy::Block => {
                    st = self.shared.space.wait(st).unwrap();
                    if st.shutdown {
                        return Err(Error::ShuttingDown);
                    }
                }
            }
        }
        let now = self.shared.clock.now();
        if let Err((job, fail)) = self.shared.dispatch_locked(&mut st, job, now) {
            drop(st);
            let reason = match fail {
                DispatchFail::Deadline => ShedReason::DeadlineExceeded,
                DispatchFail::Breakers => ShedReason::NoAdmissibleWorker,
            };
            self.shared.shed_to_golden(&self.tx, job, reason, None);
        }
        Ok(())
    }

    /// Requests graceful shutdown, drains every queued and retrying
    /// job, joins the threads and returns the run's statistics.
    #[must_use]
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        self.shared.retry_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.retry_thread.take() {
            let _ = handle.join();
        }
        let st = self.shared.state.lock().unwrap();
        ServeStats {
            counters: st.counters.clone(),
            workers: st
                .workers
                .iter()
                .enumerate()
                .map(|(i, s)| WorkerStats {
                    worker: i,
                    tiles: s.tiles,
                    hardware_tiles: s.hardware_tiles,
                    health: s.health.score(),
                    breaker_state: s.breaker.state(),
                    breaker_transitions: s.breaker.transitions().len(),
                    dead: s.dead,
                })
                .collect(),
        }
    }
}

/// One worker thread: pop own jobs, steal when idle, execute through
/// the recovery ladder, account into breaker/health/cost, and route
/// failures to retry or golden.
fn worker_loop<E>(
    w: usize,
    shared: &Shared,
    mut exec: TileExecutor<E>,
    mut injector: Box<dyn FaultInjector + Send>,
    slow_factor: f64,
    tx: &Sender<TileResponse>,
) where
    E: Engine,
{
    loop {
        // Acquire a job: own deque first, then steal the oldest job
        // from the longest peer queue.
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.workers[w].queue.pop_front() {
                    st.queued -= 1;
                    st.inflight += 1;
                    st.workers[w].executing = 1;
                    break job;
                }
                let victim = (0..st.workers.len())
                    .filter(|&v| v != w && !st.workers[v].queue.is_empty())
                    .max_by_key(|&v| st.workers[v].queue.len());
                if let Some(v) = victim {
                    let job = st.workers[v].queue.pop_front().expect("non-empty victim");
                    st.queued -= 1;
                    st.inflight += 1;
                    st.workers[w].executing = 1;
                    break job;
                }
                if shared.drained(&st) {
                    shared.work.notify_all();
                    shared.retry_cv.notify_all();
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        shared.space.notify_all();

        process_job(w, shared, &mut exec, injector.as_mut(), slow_factor, tx, job);

        let dead = {
            let mut st = shared.state.lock().unwrap();
            st.inflight -= 1;
            st.workers[w].executing = 0;
            if st.shutdown {
                shared.work.notify_all();
                shared.retry_cv.notify_all();
            }
            st.workers[w].dead
        };
        if dead {
            // Re-route any jobs still addressed to this worker, then
            // leave. The orphans count as inflight while in limbo so
            // a draining shutdown cannot conclude under them.
            let orphans: Vec<Job> = {
                let mut st = shared.state.lock().unwrap();
                let orphans: Vec<Job> = st.workers[w].queue.drain(..).collect();
                st.queued -= orphans.len();
                st.inflight += orphans.len();
                orphans
            };
            let now = shared.clock.now();
            for job in orphans {
                shared.redispatch(tx, job, now);
                let mut st = shared.state.lock().unwrap();
                st.inflight -= 1;
            }
            shared.work.notify_all();
            shared.retry_cv.notify_all();
            return;
        }
    }
}

/// Executes one job on worker `w`, emitting exactly one of: a
/// hardware response, a retry park, or a golden response.
fn process_job<E>(
    w: usize,
    shared: &Shared,
    exec: &mut TileExecutor<E>,
    injector: &mut dyn FaultInjector,
    slow_factor: f64,
    tx: &Sender<TileResponse>,
    mut job: Job,
) where
    E: Engine,
{
    let clock = &shared.clock;
    let now = clock.now();
    if job.expired(now) {
        shared.shed_to_golden(tx, job, ShedReason::DeadlineExceeded, None);
        return;
    }

    // Breaker gate at the moment of execution (the breaker may have
    // opened while the job sat in the queue), plus canary detection.
    let is_canary = {
        let mut st = shared.state.lock().unwrap();
        let slot = &mut st.workers[w];
        if slot.dead || !slot.breaker.admits(now) {
            drop(st);
            job.tried.push(w);
            shared.redispatch(tx, job, now);
            return;
        }
        let canary = slot.breaker.on_dispatch(now);
        if canary {
            st.counters.canaries += 1;
        }
        canary
    };
    if is_canary {
        // Power-cycle before probing a suspect lane: state is repaired,
        // injector-owned physics (hard faults) deliberately survive.
        if exec.reset().is_err() {
            shared.mark_dead(w);
            job.tried.push(w);
            shared.redispatch(tx, job, now);
            return;
        }
    }

    let start = clock.now();
    let result = exec.run_tile(&job.req.pairs, injector);
    let mut elapsed = clock.now().saturating_sub(start);
    if slow_factor > 1.0 {
        // A chaos "slow worker" stalls for real wall time, so the cost
        // model and deadline admission see the slowdown.
        let stall = ((slow_factor - 1.0) * elapsed as f64) as u64;
        std::thread::sleep(Duration::from_nanos(stall));
        elapsed = clock.now().saturating_sub(start);
    }
    let end = clock.now();

    job.attempts += 1;
    job.tried.push(w);
    match result {
        Ok((outcome, low, high)) => {
            let status = outcome.status();
            let hw = status.hardware_served();
            {
                let mut st = shared.state.lock().unwrap();
                let slot = &mut st.workers[w];
                slot.breaker.record(hw, end);
                slot.health.observe(sample_for(status));
                slot.cost.observe(elapsed);
                slot.tiles += 1;
                if hw {
                    slot.hardware_tiles += 1;
                    st.counters.hardware_served += 1;
                }
            }
            if hw {
                let _ = tx.send(TileResponse {
                    id: job.req.id,
                    pairs: job.req.pairs.len(),
                    low,
                    high,
                    served_by: ServedBy::Worker { worker: w, rung: outcome.rung },
                    attempts: job.attempts,
                    latency_ns: end.saturating_sub(job.arrival_ns),
                });
            } else {
                // The worker's whole ladder failed. Its own golden
                // fallback output is correct (keep it in case retries
                // are exhausted); a silent corruption's output is
                // poison and must be discarded.
                let precomputed = (status == TileStatus::Shed).then_some((low, high));
                shared.retry_or_golden(tx, job, precomputed);
            }
        }
        Err(_) => {
            // Harness failure: count it against the worker and try to
            // re-arm the lane; a lane that cannot even reset is dead.
            {
                let mut st = shared.state.lock().unwrap();
                let slot = &mut st.workers[w];
                slot.breaker.record(false, end);
                slot.health.observe(0.0);
                slot.cost.observe(elapsed.max(1));
            }
            if exec.reset().is_err() {
                shared.mark_dead(w);
            }
            shared.retry_or_golden(tx, job, None);
        }
    }
}

/// The retry timer thread: holds backed-off jobs until due, then
/// re-dispatches them (preferring untried workers).
fn retry_loop(shared: &Shared, tx: &Sender<TileResponse>) {
    loop {
        enum Wake {
            Job(Job),
            Idle,
        }
        let wake = {
            let mut heap = shared.retry_heap.lock().unwrap();
            loop {
                let now = shared.clock.now();
                match heap.peek() {
                    Some(top) if top.due <= now => {
                        break Wake::Job(heap.pop().expect("peeked").job);
                    }
                    Some(top) => {
                        let wait = Duration::from_nanos(top.due - now);
                        let (h, _) = shared
                            .retry_cv
                            .wait_timeout(heap, wait.min(Duration::from_millis(5)))
                            .unwrap();
                        heap = h;
                    }
                    None => break Wake::Idle,
                }
            }
        };
        match wake {
            Wake::Job(job) => {
                let now = shared.clock.now();
                {
                    let mut st = shared.state.lock().unwrap();
                    st.retry_pending -= 1;
                    if job.expired(now) {
                        drop(st);
                        shared.shed_to_golden(tx, job, ShedReason::DeadlineExceeded, None);
                        continue;
                    }
                    if let Err((job, fail)) = shared.dispatch_locked(&mut st, job, now) {
                        drop(st);
                        let reason = match fail {
                            DispatchFail::Deadline => ShedReason::DeadlineExceeded,
                            DispatchFail::Breakers => ShedReason::NoAdmissibleWorker,
                        };
                        shared.shed_to_golden(tx, job, reason, None);
                    }
                }
                shared.work.notify_all();
            }
            Wake::Idle => {
                {
                    let st = shared.state.lock().unwrap();
                    if shared.drained(&st) {
                        drop(st);
                        shared.work.notify_all();
                        return;
                    }
                }
                let heap = shared.retry_heap.lock().unwrap();
                let _ = shared.retry_cv.wait_timeout(heap, Duration::from_millis(2)).unwrap();
            }
        }
    }
}
