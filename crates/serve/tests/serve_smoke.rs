//! Threaded end-to-end tests of the serving runtime.
//!
//! Wall-clock timing is non-deterministic, so these tests assert the
//! properties the runtime actually guarantees — every request answered
//! exactly once, every answer bit-exact against the software golden
//! model, breakers opening on chaos-killed workers — never specific
//! latencies or schedules.

use std::collections::HashMap;

use dwt_arch::designs::Design;
use dwt_pool::breaker::BreakerState;
use dwt_pool::chaos::{ChaosConfig, SlowLaneSpec, StuckLaneSpec};
use dwt_rtl::compile::CompiledEngine;
use dwt_serve::{
    golden_tile, OverloadPolicy, RetryPolicy, ServeConfig, ServedBy, Server, ShedReason,
    TileRequest, TileResponse,
};

fn tile(id: u64, pairs: usize) -> TileRequest {
    // In-range 8-bit stimulus; a distinct seed per request keeps the
    // bit-exactness audit honest about response routing.
    TileRequest { id, pairs: dwt_arch::golden::still_tone_pairs(pairs, id ^ 0xABCD) }
}

fn drain(rx: &std::sync::mpsc::Receiver<TileResponse>, n: usize) -> Vec<TileResponse> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(
            rx.recv_timeout(std::time::Duration::from_secs(60)).expect("response within timeout"),
        );
    }
    out
}

/// Every response must carry the golden model's coefficients for its
/// request, no matter who served it.
fn assert_bit_exact(requests: &[TileRequest], responses: &[TileResponse]) {
    let by_id: HashMap<u64, &TileRequest> = requests.iter().map(|r| (r.id, r)).collect();
    for resp in responses {
        let req = by_id[&resp.id];
        let (low, high) = golden_tile(&req.pairs);
        assert_eq!(resp.low, low, "low coefficients of request {}", resp.id);
        assert_eq!(resp.high, high, "high coefficients of request {}", resp.id);
    }
}

fn base_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(Design::D3);
    cfg.workers = 2;
    cfg.executor.tile_pairs = 8;
    cfg.queue_capacity = 32;
    cfg
}

#[test]
fn fault_free_requests_complete_bit_exact_on_hardware() {
    let cfg = base_config();
    let (server, rx) = Server::<CompiledEngine>::start(cfg).unwrap();
    let requests: Vec<TileRequest> = (0..40).map(|id| tile(id, 8)).collect();
    for req in &requests {
        server.submit(req.clone()).unwrap();
    }
    let responses = drain(&rx, requests.len());
    let stats = server.shutdown();

    assert_bit_exact(&requests, &responses);
    assert_eq!(stats.counters.submitted, 40);
    assert_eq!(stats.counters.completed(), 40);
    assert_eq!(stats.counters.hardware_served, 40, "no faults, no golden fallback");
    assert!((stats.availability() - 1.0).abs() < 1e-12);
    // Exactly one response per id.
    let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..40).collect::<Vec<u64>>());
}

/// A chaos-killed worker's breaker opens, and the request stream still
/// completes bit-exact — the threaded half of the breaker-through-`Clock`
/// coverage.
///
/// The breaker needs `min_samples` tiles on worker 0. Workers only take
/// a peer's job once their own queue is empty, so the healthy workers
/// are chaos-slowed: each stalls for 50 times its tile's run time, and
/// their own queues outlast worker 0's first failed tile by that
/// factor. Worker 0 therefore always finds a job, its own or a peer's,
/// after its first tile, however the host schedules the threads.
#[test]
fn chaos_killed_worker_opens_breaker_and_stream_stays_bit_exact() {
    let mut cfg = base_config();
    cfg.workers = 3;
    cfg.seed = 7;
    // Worker 0 is wrecked from the first executed cycle: every
    // hardware attempt on it fails through the whole ladder.
    cfg.chaos = Some(ChaosConfig {
        stuck_lanes: vec![StuckLaneSpec { lane: 0, from_cycle: 0 }],
        slow_lanes: vec![
            SlowLaneSpec { lane: 1, factor: 50.0 },
            SlowLaneSpec { lane: 2, factor: 50.0 },
        ],
        seed: 7,
        ..ChaosConfig::default()
    });
    // Make the breaker trip fast and stay open past the test's tail.
    cfg.breaker.min_samples = 2;
    cfg.breaker.open_cycles = 200_000_000; // 200 ms
    cfg.retry = RetryPolicy {
        max_attempts: 3,
        base_backoff_ns: 50_000,
        max_backoff_ns: 1_000_000,
        jitter: 0.5,
    };

    let (server, rx) = Server::<CompiledEngine>::start(cfg).unwrap();
    let requests: Vec<TileRequest> = (0..60).map(|id| tile(id, 8)).collect();
    for req in &requests {
        server.submit(req.clone()).unwrap();
    }
    let responses = drain(&rx, requests.len());
    let stats = server.shutdown();

    assert_bit_exact(&requests, &responses);
    assert_eq!(stats.counters.completed(), 60, "every request answered exactly once");

    let w0 = &stats.workers[0];
    assert!(w0.tiles >= 2, "worker 0 ran fewer tiles than its breaker needs: {stats:?}");
    assert!(w0.breaker_transitions > 0, "stuck worker's breaker never moved: {stats:?}");
    assert!(
        w0.breaker_state == BreakerState::Open || w0.breaker_state == BreakerState::HalfOpen,
        "stuck worker's breaker should be open(ish) at shutdown, was {:?}",
        w0.breaker_state
    );
    // The healthy workers carried the stream: hardware availability
    // stays high because retries re-route around the stuck worker.
    assert!(
        stats.availability() >= 0.9,
        "availability {} too low: {stats:?}",
        stats.availability()
    );
    assert!(stats.counters.retries > 0, "stuck worker should have forced retries");
}

#[test]
fn shed_policy_serves_golden_under_overload_without_blocking() {
    let mut cfg = base_config();
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    cfg.overload = OverloadPolicy::Shed;
    let (server, rx) = Server::<CompiledEngine>::start(cfg).unwrap();
    let requests: Vec<TileRequest> = (0..30).map(|id| tile(id, 8)).collect();
    for req in &requests {
        server.submit(req.clone()).unwrap();
    }
    let responses = drain(&rx, requests.len());
    let stats = server.shutdown();

    assert_bit_exact(&requests, &responses);
    assert_eq!(stats.counters.completed(), 30);
    // With a 2-deep queue and a burst of 30, some requests must have
    // been shed to golden — and shed responses are still bit-exact.
    assert_eq!(stats.counters.hardware_served + stats.counters.golden_served, 30);
}

#[test]
fn deadline_admission_sheds_rather_than_serving_late() {
    let mut cfg = base_config();
    cfg.workers = 1;
    // An absurd 1 µs deadline: the queue estimate alone busts it for
    // almost everything, so requests shed to golden instead of queueing.
    cfg.deadline_ns = Some(1_000);
    let (server, rx) = Server::<CompiledEngine>::start(cfg).unwrap();
    let requests: Vec<TileRequest> = (0..20).map(|id| tile(id, 8)).collect();
    for req in &requests {
        server.submit(req.clone()).unwrap();
    }
    let responses = drain(&rx, requests.len());
    let stats = server.shutdown();

    assert_bit_exact(&requests, &responses);
    assert_eq!(stats.counters.completed(), 20);
    assert!(stats.counters.shed_deadline > 0, "a 1 µs deadline must shed: {stats:?}");
}

#[test]
fn submit_after_shutdown_is_refused() {
    let cfg = base_config();
    let (server, rx) = Server::<CompiledEngine>::start(cfg).unwrap();
    server.submit(tile(0, 4)).unwrap();
    let _ = drain(&rx, 1);
    let stats = server.shutdown();
    assert_eq!(stats.counters.completed(), 1);
    drop(rx);
}

#[test]
fn spawn_error_reports_the_os_detail() {
    let err = dwt_serve::Error::Spawn("resource temporarily unavailable".into());
    assert_eq!(
        err.to_string(),
        "failed to spawn a runtime thread: resource temporarily unavailable"
    );
    assert!(std::error::Error::source(&err).is_none());
}

#[test]
fn empty_request_is_rejected() {
    let cfg = base_config();
    let (server, _rx) = Server::<CompiledEngine>::start(cfg).unwrap();
    let err = server.submit(TileRequest { id: 0, pairs: Vec::new() }).unwrap_err();
    assert_eq!(err, dwt_serve::Error::EmptyRequest);
    let _ = server.shutdown();
}

/// One worker, stuck from its first cycle, with exactly one retry
/// allowed after a fixed 2 ms backoff and a breaker that cannot trip.
fn lone_stuck_worker_config() -> ServeConfig {
    let mut cfg = base_config();
    cfg.workers = 1;
    cfg.chaos = Some(ChaosConfig {
        stuck_lanes: vec![StuckLaneSpec { lane: 0, from_cycle: 0 }],
        ..ChaosConfig::default()
    });
    cfg.breaker.min_samples = 1_000;
    cfg.retry = RetryPolicy {
        max_attempts: 2,
        base_backoff_ns: 2_000_000,
        max_backoff_ns: 2_000_000,
        jitter: 0.0,
    };
    cfg
}

/// With no thread but the worker, the worker itself must wake when its
/// parked retry falls due: nothing else is submitted to wake it.
#[test]
fn a_lone_worker_routes_its_own_parked_retry() {
    let (server, rx) = Server::<CompiledEngine>::start(lone_stuck_worker_config()).unwrap();
    let request = tile(0, 8);
    server.submit(request.clone()).unwrap();
    let responses = drain(&rx, 1);
    let stats = server.shutdown();

    assert_bit_exact(std::slice::from_ref(&request), &responses);
    assert_eq!(responses[0].served_by, ServedBy::Golden(ShedReason::RetriesExhausted));
    assert_eq!(responses[0].attempts, 2);
    assert_eq!(stats.counters.retries, 1);
    assert_eq!(stats.counters.completed(), 1);
}

/// Shutdown waits out a parked retry instead of dropping it.
#[test]
fn shutdown_drains_a_parked_retry() {
    let (server, rx) = Server::<CompiledEngine>::start(lone_stuck_worker_config()).unwrap();
    let request = tile(0, 8);
    server.submit(request.clone()).unwrap();
    let stats = server.shutdown();
    // Every sender is gone once shutdown returns, so this collects
    // every response there will ever be.
    let responses: Vec<TileResponse> = rx.iter().collect();

    assert_eq!(responses.len(), 1);
    assert_bit_exact(std::slice::from_ref(&request), &responses);
    assert_eq!(stats.counters.retries, 1);
}
