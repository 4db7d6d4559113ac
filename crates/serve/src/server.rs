//! The multi-core serving runtime: work-stealing workers, bounded
//! ingress, deadline admission, breakers, retries and golden fallback.
//!
//! ## Queueing model
//!
//! One server lock guards every worker's job deque, the parked
//! retries and the shared counters; a tile's execution (microseconds
//! to milliseconds) dwarfs the lock hold times (pointer shuffling), so
//! a single lock beats a lock-free deque here and keeps the admission
//! decision — which must see every queue — atomic. `submit` picks a
//! worker by the dispatch rule the virtual-time pool uses
//! ([`AdmissionConfig::pick`]: EWMA health discounted by estimated
//! queue wait, skipping workers whose backlog would bust the request's
//! wall-clock deadline), among the workers whose breaker admits it.
//! Idle workers steal the *oldest* job from the *longest* peer queue,
//! so stealing repairs latency, not just utilisation.
//!
//! ## Degradation ladder
//!
//! Inside a worker, a tile climbs the recovery executor's own ladder
//! (replay → TMR spare → golden). If the whole ladder fails — or the
//! harness errors — the *server* ladder continues: bounded retries with
//! exponential backoff and deterministic jitter on other workers, and
//! finally the in-process software golden model, which cannot fail.
//! A retry parks under the server lock until it is due; the workers
//! route due retries before they take a job, and an idle worker sleeps
//! only until the earliest one is due, so the runtime needs no thread
//! beyond its workers. Every submitted request therefore gets exactly
//! one response, and a response is bit-exact by construction: hardware
//! results are DWC-verified against the golden stream as they emerge,
//! and every fallback *is* the golden model. Overload and chaos shed
//! hardware goodput, never correctness and never requests.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use dwt_arch::golden::golden_tile;
use dwt_pool::admission::AdmissionConfig;
use dwt_pool::chaos::ChaosSites;
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
use crate::worker::{Job, WorkerSlot, WorkerStats};

/// Lock-protected server state.
#[derive(Debug)]
struct State {
    workers: Vec<WorkerSlot>,
    /// Jobs sitting in worker deques (not executing, not parked).
    queued: usize,
    /// Jobs currently held by worker threads.
    inflight: usize,
    /// Jobs parked for a retry backoff, soonest due first: keyed by
    /// due time, then by `retry_seq` at parking.
    retries: BTreeMap<(u64, u64), Job>,
    /// Retries parked so far.
    retry_seq: u64,
    shutdown: bool,
    counters: Counters,
}

/// Why the server lock is never poisoned.
const POISONED: &str = "no thread panics holding the server lock";

/// State shared by the submit path and the workers.
struct Shared {
    cfg: ServeConfig,
    admission: AdmissionConfig,
    state: Mutex<State>,
    /// Workers wait here for jobs and due retries.
    work: Condvar,
    /// Blocked submitters wait here for queue space.
    space: Condvar,
    clock: Arc<dyn Clock>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    fn new(cfg: ServeConfig) -> Self {
        Shared {
            admission: AdmissionConfig { deadline_cycles: cfg.deadline_ns },
            state: Mutex::new(State {
                workers: (0..cfg.workers).map(|_| WorkerSlot::new(&cfg)).collect(),
                queued: 0,
                inflight: 0,
                retries: BTreeMap::new(),
                retry_seq: 0,
                shutdown: false,
                counters: Counters::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            clock: Arc::new(MonotonicClock::new()),
            cfg,
        }
    }

    /// Enqueues `job` on the worker the shared dispatch rule picks, or
    /// hands it back with the reason no worker would do.
    ///
    /// Untried workers are preferred; if none is admissible the search
    /// falls back to already-tried ones (their breaker state still
    /// gates re-use), so a retry on a recovered worker beats a shed.
    fn dispatch_locked(
        &self,
        st: &mut State,
        job: Job,
        now: u64,
    ) -> std::result::Result<(), (Job, ShedReason)> {
        let mut any_breaker_admitted = false;
        for include_tried in [false, true] {
            let candidates = st
                .workers
                .iter()
                .enumerate()
                .filter(|&(i, slot)| {
                    let open = !slot.dead
                        && (include_tried || !job.tried.contains(&i))
                        && slot.breaker.admits(now);
                    any_breaker_admitted |= open;
                    open
                })
                .map(|(i, slot)| {
                    (i, slot.health.score(), slot.cost.estimate().max(1), slot.backlog_ns())
                });
            if let Some(w) = self.admission.pick(job.arrival_ns, now, candidates) {
                st.workers[w].queue.push_back(job);
                st.queued += 1;
                self.work.notify_all();
                return Ok(());
            }
        }
        // Some breaker admitted: only the deadline stood in the way.
        let reason = if any_breaker_admitted {
            ShedReason::DeadlineExceeded
        } else {
            ShedReason::NoAdmissibleWorker
        };
        Err((job, reason))
    }

    /// Routes a job no worker holds — an orphan, one whose worker's
    /// breaker opened, or a due retry: sheds it if its deadline has
    /// passed, else dispatches it. A `redispatch` (the job consumed no
    /// attempt) is counted once it is not shed for its deadline.
    fn route_locked(
        &self,
        st: &mut State,
        job: Job,
        now: u64,
        redispatch: bool,
    ) -> std::result::Result<(), (Job, ShedReason)> {
        if job.expired(now) {
            return Err((job, ShedReason::DeadlineExceeded));
        }
        st.counters.redispatches += u64::from(redispatch);
        self.dispatch_locked(st, job, now)
    }

    /// Re-routes `job` without consuming an attempt, then releases the
    /// lock; a job no worker takes is served golden.
    fn redispatch(
        &self,
        tx: &Sender<TileResponse>,
        mut st: MutexGuard<'_, State>,
        job: Job,
        now: u64,
    ) {
        if let Err((job, reason)) = self.route_locked(&mut st, job, now, true) {
            drop(st);
            self.shed_to_golden(tx, job, reason, None);
        }
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
            let mut st = self.lock();
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

    /// After a failed hardware attempt: park the job for a jittered
    /// exponential backoff if the budget and deadline allow, else
    /// serve it golden.
    fn retry_or_golden(
        &self,
        tx: &Sender<TileResponse>,
        job: Job,
        precomputed: Option<(Vec<i64>, Vec<i64>)>,
    ) {
        let next = job.attempts + 1;
        if !self.cfg.retry.allows(next) {
            return self.shed_to_golden(tx, job, ShedReason::RetriesExhausted, precomputed);
        }
        let delay = self.cfg.retry.backoff_ns(self.cfg.seed, job.req.id, next);
        let due = self.clock.now().saturating_add(delay);
        if job.deadline_ns.is_some_and(|d| due > d) {
            return self.shed_to_golden(tx, job, ShedReason::DeadlineExceeded, precomputed);
        }
        let mut st = self.lock();
        st.counters.retries += 1;
        let seq = st.retry_seq;
        st.retry_seq += 1;
        st.retries.insert((due, seq), job);
        self.work.notify_all();
    }

    /// Marks worker `w` dead and wakes everyone who might care.
    fn mark_dead(&self, w: usize) {
        let mut st = self.lock();
        st.workers[w].dead = true;
        self.work.notify_all();
    }

    /// The exit of dead worker `w`: re-routes the jobs still queued on
    /// it and, when no live worker is left to route retries as they
    /// fall due, every parked retry too.
    fn leave(&self, w: usize, tx: &Sender<TileResponse>) {
        let now = self.clock.now();
        let shed: Vec<(Job, ShedReason)> = {
            let mut st = self.lock();
            let orphans: Vec<Job> = st.workers[w].queue.drain(..).collect();
            st.queued -= orphans.len();
            let mut shed: Vec<_> = orphans
                .into_iter()
                .filter_map(|job| self.route_locked(&mut st, job, now, true).err())
                .collect();
            if st.workers.iter().all(|s| s.dead) {
                for job in std::mem::take(&mut st.retries).into_values() {
                    shed.extend(self.route_locked(&mut st, job, now, false).err());
                }
            }
            shed
        };
        for (job, reason) in shed {
            self.shed_to_golden(tx, job, reason, None);
        }
        self.work.notify_all();
    }

    /// Worker exit condition: shutdown requested and no job anywhere in
    /// the system.
    fn drained(&self, st: &State) -> bool {
        st.shutdown && st.queued == 0 && st.inflight == 0 && st.retries.is_empty()
    }
}

/// One worker's executor and fault injector.
type WorkerLane<E> = (TileExecutor<E>, Box<dyn FaultInjector + Send>);

/// Every worker's executor and fault injector for a validated `cfg`.
/// The executors are clones of one power-on executor, and the
/// injectors share one set of chaos sites, so the server builds each
/// netlist, engine image and site list once.
fn worker_lanes<E: Engine>(cfg: &ServeConfig) -> Result<Vec<WorkerLane<E>>> {
    let exec = TileExecutor::<E>::new(cfg.design, cfg.executor)?;
    let chaos = match &cfg.chaos {
        Some(chaos) => {
            Some((chaos, ChaosSites::new(exec.primary_netlist(), exec.spare_netlist()?)))
        }
        None => None,
    };
    let mut injectors: Vec<Box<dyn FaultInjector + Send>> = Vec::with_capacity(cfg.workers);
    for w in 0..cfg.workers {
        injectors.push(match &chaos {
            Some((chaos, sites)) => Box::new(chaos.injector_for(w, sites)?),
            None => Box::new(NoFaults),
        });
    }
    Ok(std::iter::repeat_n(exec, cfg.workers).zip(injectors).collect())
}

/// The serving runtime.
///
/// `Server::start` spawns one worker thread per configured worker,
/// each owning a `CompiledEngine`- or `Simulator`-backed
/// [`TileExecutor`], and returns the response channel. The workers are
/// the runtime's only threads. [`Server::submit`] is the bounded
/// ingress; [`Server::shutdown`] drains gracefully and returns the
/// run's statistics.
pub struct Server<E: Engine = Simulator> {
    shared: Arc<Shared>,
    tx: Sender<TileResponse>,
    workers: Vec<JoinHandle<()>>,
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
        let lanes = worker_lanes::<E>(&cfg)?;
        let (tx, rx) = channel();
        let shared = Arc::new(Shared::new(cfg));
        let mut workers = Vec::with_capacity(shared.cfg.workers);
        for (w, (exec, injector)) in lanes.into_iter().enumerate() {
            let shared_w = Arc::clone(&shared);
            let tx = tx.clone();
            let slow = shared.cfg.chaos.as_ref().map_or(1.0, |c| c.slow_factor(w));
            let handle = std::thread::Builder::new()
                .name(format!("dwt-serve-{w}"))
                .spawn(move || worker_loop(w, &shared_w, exec, injector, slow, &tx));
            match handle {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // A partially-started runtime must not leak threads:
                    // flip shutdown, wake everyone, and join whatever
                    // did spawn.
                    shared.lock().shutdown = true;
                    shared.work.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(Error::Spawn(e.to_string()));
                }
            }
        }
        Ok((Server { shared, tx, workers, _engine: PhantomData }, rx))
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
        let mut st = self.shared.lock();
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
                    st = self.shared.space.wait(st).expect(POISONED);
                    if st.shutdown {
                        return Err(Error::ShuttingDown);
                    }
                }
            }
        }
        let now = self.shared.clock.now();
        if let Err((job, reason)) = self.shared.dispatch_locked(&mut st, job, now) {
            drop(st);
            self.shared.shed_to_golden(&self.tx, job, reason, None);
        }
        Ok(())
    }

    /// Requests graceful shutdown, drains every queued and retrying
    /// job, joins the workers and returns the run's statistics.
    #[must_use]
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let st = self.shared.lock();
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

/// One worker thread: route due retries, pop own jobs, steal when
/// idle, execute through the recovery ladder, account into
/// breaker/health/cost, and route failures to retry or golden.
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
        let job = {
            let mut st = shared.lock();
            loop {
                let now = shared.clock.now();
                if st.retries.first_key_value().is_some_and(|(&(due, _), _)| due <= now) {
                    let (_, job) = st.retries.pop_first().expect("a retry is parked");
                    if let Err((job, reason)) = shared.route_locked(&mut st, job, now, false) {
                        drop(st);
                        shared.shed_to_golden(tx, job, reason, None);
                        st = shared.lock();
                    }
                    continue;
                }
                // Own deque first, then the oldest job of the longest
                // peer queue.
                let victim = if st.workers[w].queue.is_empty() {
                    (0..st.workers.len())
                        .filter(|&v| !st.workers[v].queue.is_empty())
                        .max_by_key(|&v| st.workers[v].queue.len())
                } else {
                    Some(w)
                };
                if let Some(v) = victim {
                    let job = st.workers[v].queue.pop_front().expect("non-empty queue");
                    st.queued -= 1;
                    st.inflight += 1;
                    st.workers[w].executing = 1;
                    break job;
                }
                if shared.drained(&st) {
                    shared.work.notify_all();
                    return;
                }
                // Sleep until woken, or until the earliest retry is due.
                st = match st.retries.first_key_value() {
                    Some((&(due, _), _)) => {
                        let wait = Duration::from_nanos(due - now);
                        shared.work.wait_timeout(st, wait).expect(POISONED).0
                    }
                    None => shared.work.wait(st).expect(POISONED),
                };
            }
        };
        shared.space.notify_all();

        process_job(w, shared, &mut exec, injector.as_mut(), slow_factor, tx, job);

        let dead = {
            let mut st = shared.lock();
            st.inflight -= 1;
            st.workers[w].executing = 0;
            if st.shutdown {
                shared.work.notify_all();
            }
            st.workers[w].dead
        };
        if dead {
            shared.leave(w, tx);
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
        let mut st = shared.lock();
        let slot = &mut st.workers[w];
        if slot.dead || !slot.breaker.admits(now) {
            job.tried.push(w);
            shared.redispatch(tx, st, job, now);
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
            shared.redispatch(tx, shared.lock(), job, now);
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
                let mut st = shared.lock();
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
                let mut st = shared.lock();
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

#[cfg(test)]
mod tests {
    use super::*;
    use dwt_arch::designs::Design;
    use dwt_arch::golden::still_tone_pairs;

    fn job(id: u64) -> Job {
        Job {
            req: TileRequest { id, pairs: still_tone_pairs(6, id) },
            arrival_ns: 0,
            deadline_ns: None,
            attempts: 1,
            tried: vec![0],
        }
    }

    #[test]
    fn a_chaos_server_s_workers_share_one_primary_and_one_spare_netlist() {
        let mut cfg = ServeConfig::new(Design::D5);
        cfg.workers = 3;
        cfg.chaos = Some(dwt_pool::chaos::ChaosConfig::default());
        cfg.validate().unwrap();
        let lanes = worker_lanes::<dwt_rtl::compile::CompiledEngine>(&cfg).unwrap();
        assert_eq!(lanes.len(), 3);
        let first = &lanes[0].0;
        for (exec, _) in &lanes[1..] {
            assert!(Arc::ptr_eq(exec.primary_netlist(), first.primary_netlist()));
            assert!(Arc::ptr_eq(exec.spare_netlist().unwrap(), first.spare_netlist().unwrap()));
        }
    }

    #[test]
    fn the_last_worker_to_leave_routes_every_parked_retry() {
        let mut cfg = ServeConfig::new(Design::D3);
        cfg.workers = 2;
        // Retries fall due a minute from now, long after this test.
        cfg.retry.base_backoff_ns = 60_000_000_000;
        cfg.retry.max_backoff_ns = 60_000_000_000;
        let shared = Shared::new(cfg);
        let (tx, rx) = channel();
        shared.retry_or_golden(&tx, job(0), None);
        shared.retry_or_golden(&tx, job(1), None);
        {
            let mut st = shared.lock();
            st.workers[0].queue.push_back(job(2));
            st.queued += 1;
        }

        // Worker 1 still lives: worker 0's orphan moves to it, and the
        // retries stay parked for it to route when they fall due.
        shared.mark_dead(0);
        shared.leave(0, &tx);
        {
            let st = shared.lock();
            assert_eq!(st.retries.len(), 2);
            assert_eq!((st.queued, st.workers[1].queue.len()), (1, 1));
        }
        assert!(rx.try_recv().is_err(), "nothing was shed while a worker lives");

        // The last live worker leaves: no one else would route the
        // parked retries, so it routes them all, due or not.
        shared.mark_dead(1);
        shared.leave(1, &tx);
        let mut responses: Vec<TileResponse> = rx.try_iter().collect();
        responses.sort_by_key(|r| r.id);
        assert_eq!(responses.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        for r in &responses {
            assert_eq!(r.served_by, ServedBy::Golden(ShedReason::NoAdmissibleWorker));
            assert_eq!((r.low.clone(), r.high.clone()), golden_tile(&still_tone_pairs(6, r.id)));
        }
        let mut st = shared.lock();
        st.shutdown = true;
        assert!(shared.drained(&st), "no job is left anywhere: {st:?}");
        assert_eq!((st.counters.retries, st.counters.redispatches), (2, 2));
        assert_eq!(st.counters.shed_no_admissible, 3);
    }
}
