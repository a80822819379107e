//! Regression tests for the fault-injection serving path: panic
//! isolation, worker respawn (and its bound), deadline-aware retries,
//! degradation tagging/caching rules, retry budgets, and a mixed chaos
//! workload that combines them all.

// R1-approved timing module (see check/r1.allow): wall-clock calls are
// deliberate here, so the clippy mirror of the rule is waived file-wide.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Duration;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, Query, TnnError};
use tnn_geom::Rect;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, ChannelFaults, Degradation, FaultPlan, Priority, Qos, RetryPolicy,
    ServeConfig, Server, ShutdownMode,
};

fn env(k: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..k)
        .map(|i| {
            let pts = tnn_datasets::uniform_points(100 + 25 * i, &region, 0xFA117 + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    let phases: Vec<u64> = (0..k as u64).map(|i| i * 5 + 3).collect();
    MultiChannelEnv::new(trees, params, &phases)
}

fn queries(n: usize) -> Vec<Query> {
    tnn_datasets::uniform_points(n, &Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 0xDEAD)
        .into_iter()
        .map(Query::tnn)
        .collect()
}

/// A plan whose channels are *always* mid-outage at attempt 0 and for
/// far more attempts than any policy in these tests retries.
fn permanent_outage(k: usize, seed: u64) -> FaultPlan {
    FaultPlan::new(seed).all_channels(k, ChannelFaults::NONE.outage(1, 1 << 40))
}

#[test]
fn injected_engine_panic_is_isolated_and_serving_continues() {
    // Panic exactly on the second admitted job (seq 1). The panic must
    // resolve that ticket `Internal` without killing the worker — and
    // the jobs before and after it get real answers.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1),
        FaultPlan::new(7).panic_at(1),
    );
    let qs = queries(3);
    let expect: Vec<_> = qs.iter().map(|q| server.engine().run(q).unwrap()).collect();
    assert_eq!(
        server.submit(qs[0].clone()).unwrap().wait().unwrap(),
        expect[0]
    );
    assert_eq!(
        server.submit(qs[1].clone()).unwrap().wait().unwrap_err(),
        TnnError::Internal
    );
    // The regression this pins down: a panicked query used to fail the
    // server closed — now the very next submission is served normally.
    assert_eq!(
        server.submit(qs[2].clone()).unwrap().wait().unwrap(),
        expect[2]
    );
    let faults = server.fault_stats().unwrap();
    assert_eq!(faults.engine_panics, 1);
    assert_eq!(faults.worker_kills, 0);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_restarts, 0, "panics are isolated, not fatal");
    assert_eq!(stats.completed, 3);
    assert!(stats.conserved());
}

#[test]
fn worker_kill_respawns_in_place_and_keeps_serving() {
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1),
        FaultPlan::new(7).kill_at(0),
    );
    let qs = queries(2);
    // The killed worker abandons the job: its ticket resolves `Internal`
    // when the batch buffer unwinds.
    assert_eq!(
        server.submit(qs[0].clone()).unwrap().wait().unwrap_err(),
        TnnError::Internal
    );
    // The same OS thread respawns and serves the next submission.
    let expect = server.engine().run(&qs[1]).unwrap();
    assert_eq!(
        server.submit(qs[1].clone()).unwrap().wait().unwrap(),
        expect
    );
    assert_eq!(server.fault_stats().unwrap().worker_kills, 1);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.completed, 2, "abandoned jobs still complete");
    assert!(stats.conserved());
}

#[test]
fn restart_bound_fails_the_server_closed() {
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1).max_worker_restarts(1),
        FaultPlan::new(7).kill_at(0).kill_at(1),
    );
    let qs = queries(3);
    assert_eq!(
        server.submit(qs[0].clone()).unwrap().wait().unwrap_err(),
        TnnError::Internal
    );
    assert_eq!(
        server.submit(qs[1].clone()).unwrap().wait().unwrap_err(),
        TnnError::Internal
    );
    // The second restart exceeds the bound: the pool declares a crash
    // loop and fails closed. The ticket resolving (`Job::drop`) races
    // the restart accounting by a hair, so spin briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().worker_restarts < 2 {
        assert!(std::time::Instant::now() < deadline, "restart not counted");
        std::thread::yield_now();
    }
    assert_eq!(
        server.submit(qs[2].clone()).unwrap_err(),
        TnnError::Cancelled,
        "a crash-looping server refuses new work instead of stranding it"
    );
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_restarts, 2);
    assert!(stats.conserved());
}

#[test]
fn expired_deadline_under_outage_resolves_deadline_exceeded() {
    // A 0-TTL deadline dies while queued; the dequeue check refuses to
    // burn retry time on it even though the channels are mid-outage.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1),
        permanent_outage(2, 11),
    );
    let ticket = server
        .submit_with(
            queries(1)[0].clone(),
            Qos::new().deadline_in(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(ticket.wait().unwrap_err(), TnnError::DeadlineExceeded);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.expired, 1);
    assert!(stats.conserved());
}

#[test]
fn deadline_expiring_mid_retry_resolves_instead_of_hanging() {
    // Alive at dequeue, dead before the ladder can ever tune in: the
    // retry loop must notice and resolve `DeadlineExceeded` — a retry
    // never outlives the submitter's deadline.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1).retry(
            RetryPolicy::new()
                .max_attempts(u32::MAX)
                .base(Duration::from_micros(500))
                .cap(Duration::from_millis(2)),
        ),
        permanent_outage(2, 13),
    );
    let ticket = server
        .submit_with(
            queries(1)[0].clone(),
            Qos::new().deadline_in(Duration::from_millis(20)),
        )
        .unwrap();
    assert_eq!(
        ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("no hang"),
        Err(TnnError::DeadlineExceeded)
    );
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.expired, 1);
    assert!(stats.retried > 0, "the ladder ran before the deadline hit");
    assert!(stats.conserved());
}

#[test]
fn degraded_outcomes_are_tagged_and_never_cached() {
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new()
            .workers(1)
            .retry(RetryPolicy::NONE)
            .degradation(Degradation::Approximate),
        permanent_outage(2, 17),
    );
    let query = queries(1)[0].clone();
    let mut expect = server
        .engine()
        .run(&query.clone().algorithm(Algorithm::ApproximateTnn))
        .unwrap();
    expect.degraded = true;
    let first = server.submit(query.clone()).unwrap().wait().unwrap();
    assert!(first.degraded);
    assert_eq!(first, expect, "the fallback is a real approximate run");
    // Same query again: a cached degraded answer would hit here — it
    // must not, because degraded outcomes are never inserted.
    let second = server.submit(query).unwrap().wait().unwrap();
    assert!(second.degraded);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_hits, 0, "degraded answers are not replayed");
    assert_eq!(stats.degraded, 2);
    assert_eq!(stats.cache_bypass, 2);
    assert!(stats.conserved());
}

#[test]
fn replica_degradation_returns_the_exact_answer_tagged() {
    let server = Server::spawn_with_faults(
        env(3),
        ServeConfig::new()
            .workers(1)
            .retry(RetryPolicy::NONE)
            .degradation(Degradation::Replica),
        permanent_outage(3, 19),
    );
    let query = queries(1)[0].clone();
    let mut expect = server.engine().run(&query).unwrap();
    expect.degraded = true;
    let got = server.submit(query).unwrap().wait().unwrap();
    assert_eq!(got, expect, "a replica fallback re-runs the exact query");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.degraded, 1);
    assert!(stats.conserved());
}

#[test]
fn retries_escape_a_finite_outage_with_the_exact_answer() {
    // Outage of length 2 at every 4th sequence position: attempts count
    // the outage down, so a 4-attempt ladder always escapes — and the
    // answer it then produces is byte-identical to a fault-free run.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1).retry(
            RetryPolicy::new()
                .max_attempts(4)
                .base(Duration::from_micros(100))
                .cap(Duration::from_micros(800)),
        ),
        FaultPlan::new(23).all_channels(2, ChannelFaults::NONE.outage(4, 2)),
    );
    let qs = queries(8);
    for q in &qs {
        let expect = server.engine().run(q).unwrap();
        let got = server.submit(q.clone()).unwrap().wait().unwrap();
        assert!(!got.degraded);
        assert_eq!(got, expect);
    }
    let faults = server.fault_stats().unwrap();
    assert!(faults.outages > 0, "the outage schedule actually fired");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.retried > 0);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.degraded, 0);
    assert!(stats.conserved());
}

#[test]
fn exhausted_retry_budget_skips_the_ladder() {
    // One retry attempt in the Batch pool, endless outage, Fail
    // degradation: the first job spends the budget on its single retry,
    // the second cannot retry at all.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new()
            .workers(1)
            .retry(
                RetryPolicy::new()
                    .max_attempts(8)
                    .base(Duration::from_micros(100)),
            )
            .retry_budget(Priority::Batch, 1),
        permanent_outage(2, 29),
    );
    let qs = queries(2);
    for q in &qs {
        let err = server.submit(q.clone()).unwrap().wait().unwrap_err();
        assert!(
            matches!(err, TnnError::ChannelUnavailable { .. }),
            "Fail degradation surfaces the recoverable error: {err:?}"
        );
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.retried, 1, "exactly the budgeted retry was taken");
    assert!(stats.conserved());
}

#[test]
fn zero_fault_plan_keeps_stats_clean() {
    let server =
        Server::spawn_with_faults(env(2), ServeConfig::new().workers(2), FaultPlan::none());
    let qs = queries(10);
    for q in &qs {
        let expect = server.engine().run(q).unwrap();
        assert_eq!(server.submit(q.clone()).unwrap().wait().unwrap(), expect);
    }
    let faults = server.fault_stats().unwrap();
    assert_eq!(faults.injected(), 0);
    assert_eq!(faults.clean_rounds, 10);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(
        (stats.retried, stats.degraded, stats.worker_restarts),
        (0, 0, 0)
    );
    assert!(stats.conserved());
}

#[test]
fn latency_histograms_cover_every_completion() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(2));
    let tickets: Vec<_> = queries(30)
        .into_iter()
        .map(|q| server.submit(q).unwrap())
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    let recorded: u64 = stats.classes.iter().map(|c| c.latency.count()).sum();
    assert_eq!(recorded, 30, "every completion records one latency");
    let batch = &stats.classes[Priority::Batch.index()];
    assert!(batch.latency.p50() <= batch.latency.p99());
    assert!(batch.latency.p99() > Duration::ZERO);
    assert!(stats.conserved());
}

/// A mixed-priority workload under every fault at once — drops plus
/// jitter on one channel, a periodic outage on the other, one injected
/// engine panic and two worker kills — served with `Block` and drained:
/// every ticket resolves (an answer, or `Internal` for the panicked and
/// the abandoned jobs), nothing is lost, and both killed workers respawn.
#[test]
fn chaos_mix_resolves_every_ticket_and_respawns_both_kills() {
    let n = 96u64;
    let plan = FaultPlan::new(0xC7A05)
        .channel(0, ChannelFaults::NONE.drop_rate(80).jitter(2))
        .channel(1, ChannelFaults::NONE.outage(16, 2))
        .panic_at(2 * n / 3)
        .kill_at(n / 8)
        .kill_at(n / 3);
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(32)
            .backpressure(Backpressure::Block)
            .cache(CacheConfig::disabled())
            .batch_window(4)
            .retry(
                RetryPolicy::new()
                    .max_attempts(6)
                    .base(Duration::from_micros(50))
                    .cap(Duration::from_micros(500)),
            )
            .degradation(Degradation::Approximate),
        plan,
    );
    // Submitted one at a time from one thread, so every fault draw lands
    // on a fixed job seq.
    let tickets: Vec<_> = queries(n as usize)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let class = Priority::ALL[i % Priority::COUNT];
            server.submit_with(q, Qos::new().priority(class)).unwrap()
        })
        .collect();
    let mut internal = 0u64;
    for ticket in &tickets {
        match ticket.wait() {
            Ok(_) => {}
            Err(TnnError::Internal) => internal += 1,
            Err(other) => panic!("unexpected chaos outcome {other:?}"),
        }
    }
    assert!(internal >= 1, "the injected panic resolves Internal");
    let faults = server.fault_stats().unwrap();
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!(stats.completed, n, "Block + Drain completes all: {stats:?}");
    assert!(
        faults.injected() > 0,
        "the plan injected nothing: {faults:?}"
    );
    assert_eq!(faults.worker_kills, 2, "both kills fire: {faults:?}");
    assert_eq!(stats.worker_restarts, 2, "both respawn in place: {stats:?}");
    assert!(
        stats.retried > 0,
        "drops and the outage force retries: {stats:?}"
    );
}
