//! Behavioural tests for serving under data churn: environment swaps
//! must kill stale cache entries (epoch-stamped keys), post-swap
//! answers must match a fresh engine over the new data, and identical
//! queued misses must run the engine once — the duplicates hit the
//! result cache at dequeue, with or without a fault plan.

use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Query, TnnError};
use tnn_geom::{Point, Rect};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{ChannelFaults, FaultPlan, MetricsRegistry, ServeConfig, Server, ShutdownMode};

fn env_seeded(k: usize, seed: u64) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..k)
        .map(|i| {
            let pts = tnn_datasets::uniform_points(150 + 20 * i, &region, seed + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    let phases: Vec<u64> = (0..k as u64).map(|i| i * 5 + 1).collect();
    MultiChannelEnv::new(trees, params, &phases)
}

/// New trees for every channel of `env` — same shape, next epoch.
fn advanced(env: &MultiChannelEnv, seed: u64) -> MultiChannelEnv {
    let params = *env.channel(0).params();
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..env.len())
        .map(|i| {
            let pts = tnn_datasets::uniform_points(130 + 10 * i, &region, seed + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    env.advance(trees)
}

/// Swapping the environment must make every pre-swap cache entry miss:
/// a query primed before the swap runs fresh afterwards and returns the
/// new data's answer, never the cached pre-swap one.
#[test]
fn env_swap_invalidates_stale_cache_entries() {
    let env = env_seeded(2, 0xC0FFEE);
    let server = Server::spawn(env.clone(), ServeConfig::new().workers(1));
    let query = Query::tnn(Point::new(481.0, 522.0)).issued_at(9);

    // Prime the cache and prove it hits.
    let old_answer = server.submit(query.clone()).unwrap().wait().unwrap();
    let hit = server.submit(query.clone()).unwrap().wait().unwrap();
    assert_eq!(hit, old_answer);
    assert_eq!(server.stats().cache_hits, 1);

    let next = advanced(&env, 0xD00F);
    server.swap_env(next.clone()).unwrap();
    assert_eq!(server.engine().env().epoch(), env.epoch() + 1);

    // Same query bytes, new epoch: the old entry must not be served.
    let fresh = server.submit(query.clone()).unwrap().wait().unwrap();
    let want = server.engine().run(&query).unwrap();
    assert_eq!(fresh, want, "post-swap answer must come from the new data");
    assert_ne!(
        fresh.route, old_answer.route,
        "swapped-in data was chosen to change this answer"
    );
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_hits, 1, "no hit may cross the swap");
    assert_eq!(stats.cache_misses, 2);
    assert!(stats.conserved(), "{stats:?}");
}

/// After a swap, the cache works normally at the new epoch: a repeat
/// query hits, and the hit is byte-identical to a fresh engine run over
/// the swapped-in environment.
#[test]
fn post_swap_cache_hit_equals_fresh_run() {
    let env = env_seeded(3, 0xAB1E);
    let server = Server::spawn(env.clone(), ServeConfig::new().workers(1));
    let next = advanced(&env, 0x5EED);
    server.swap_env(next.clone()).unwrap();

    let query = Query::chain(Point::new(40.0, 900.0)).issued_at(3);
    let first = server.submit(query.clone()).unwrap().wait().unwrap();
    let hit = server.submit(query.clone()).unwrap().wait().unwrap();
    let fresh = tnn_core::QueryEngine::new(next).run(&query).unwrap();
    assert_eq!(first, fresh);
    assert_eq!(hit, fresh, "post-swap hit is byte-identical to fresh run");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    assert!(stats.conserved(), "{stats:?}");
}

/// A swap cannot change the environment's shape, and a shut-down server
/// refuses swaps outright.
#[test]
fn swap_env_rejects_shape_changes() {
    let server = Server::spawn(env_seeded(2, 0xFEED), ServeConfig::new().workers(1));
    assert_eq!(
        server.swap_env(env_seeded(3, 0xFEED)),
        Err(TnnError::WrongChannelCount {
            needed: 2,
            available: 3,
        })
    );
    server.shutdown(ShutdownMode::Drain);
}

/// Submits eight copies of one query as a single batch to a 1-worker
/// caching server and checks the dedupe bookkeeping. The batch is
/// admitted under one queue-lock acquisition, so all eight admission
/// probes miss before the worker runs anything. The worker then runs
/// the first copy (one miss) and answers the other seven from the
/// cache at dequeue. Every answer must be byte-equal to the engine.
fn assert_queued_duplicates_hit_at_dequeue(server: &Server) {
    let query = Query::order_free(Point::new(250.0, 750.0)).issued_at(5);
    let want = server.engine().run(&query).unwrap();
    let tickets = server.submit_batch(std::iter::repeat_n(query, 8));
    for ticket in tickets {
        let outcome = ticket.unwrap().wait().unwrap();
        assert_eq!(outcome, want, "a dequeue hit replays the engine's bytes");
    }
    let cache = server.cache_stats().expect("caching server");
    // 8 admission misses + 1 dequeue miss; 7 dequeue hits.
    assert_eq!((cache.misses, cache.hits), (9, 7), "{cache:?}");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_misses, 1, "one engine run for eight arrivals");
    assert_eq!(stats.cache_hits, 7, "{stats:?}");
    assert_eq!(stats.completed, 8);
    assert!(stats.conserved(), "{stats:?}");
}

/// Identical queued misses run the engine once: the duplicates hit the
/// result cache at dequeue.
#[test]
fn identical_queued_misses_run_the_engine_once() {
    let server = Server::spawn(
        env_seeded(2, 0xF11E),
        ServeConfig::new().workers(1).queue_capacity(64),
    );
    assert_queued_duplicates_hit_at_dequeue(&server);
}

/// The same dedupe holds under a fault plan. The plan panics the engine
/// run of every duplicate (seqs 1..=7), so any duplicate that ran the
/// engine would resolve `Internal`. Dequeue hits need no tune-in: only
/// the first copy tunes in, and no panic fires.
#[test]
fn identical_queued_misses_dedupe_under_a_fault_plan() {
    let plan = (1..=7).fold(
        FaultPlan::new(0x5EED).all_channels(2, ChannelFaults::default().jitter(3)),
        FaultPlan::panic_at,
    );
    let server = Server::spawn_with_faults(
        env_seeded(2, 0xF11E),
        ServeConfig::new().workers(1).queue_capacity(64),
        plan,
    );
    assert_queued_duplicates_hit_at_dequeue(&server);
    let faults = server.fault_stats().expect("faulted spawn");
    assert_eq!(faults.clean_rounds, 1, "only the first copy tunes in");
    assert_eq!(faults.engine_panics, 0, "{faults:?}");
}

/// Concurrent identical misses on separate workers each run the engine:
/// nothing coalesces them. Each worker misses at most once, because its
/// own insert lands before it probes again, so the cost is bounded by
/// the worker count. Every answer is still byte-equal to the engine.
#[test]
fn concurrent_misses_on_separate_workers_each_run_and_agree() {
    let workers = 4;
    let server = Server::spawn(
        env_seeded(2, 0xF13E),
        ServeConfig::new()
            .workers(workers)
            .queue_capacity(64)
            .batch_window(1),
    );
    let query = Query::tnn(Point::new(610.0, 140.0)).issued_at(2);
    let want = server.engine().run(&query).unwrap();
    for ticket in server.submit_batch(std::iter::repeat_n(query, 16)) {
        assert_eq!(ticket.unwrap().wait().unwrap(), want);
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_hits + stats.cache_misses, 16, "{stats:?}");
    assert!(
        (1..=workers as u64).contains(&stats.cache_misses),
        "{stats:?}"
    );
    assert_eq!(stats.cache_coalesced, 0);
    assert!(stats.conserved(), "{stats:?}");
}

/// The published cache-outcome families are the four live ones; the
/// always-zero `cache_coalesced` field is not exported.
#[test]
fn published_cache_outcomes_omit_coalesced() {
    let server = Server::spawn(env_seeded(2, 0xF14E), ServeConfig::new().workers(1));
    let query = Query::tnn(Point::new(90.0, 420.0));
    server.submit(query.clone()).unwrap().wait().unwrap();
    server.submit(query).unwrap().wait().unwrap();
    let registry = MetricsRegistry::new();
    server.publish_metrics(&registry);
    let text = registry.render_prometheus();
    for family in ["hits", "misses", "expired", "bypass"] {
        let series = format!("tnn_serve_cache_{family}_total");
        assert!(text.contains(&series), "missing {series}:\n{text}");
    }
    assert!(!text.contains("coalesced"), "{text}");
    server.shutdown(ShutdownMode::Drain);
}
