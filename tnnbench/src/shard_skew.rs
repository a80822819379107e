//! `shard-skew`: a closed loop of two client threads calling
//! `ShardRouter::run` over four grid shards, with hot-shard replication
//! up to two, a two-slot per-replica queue under `Reject`, and the cache
//! off. Traffic is corner-skewed Zipf: the most popular fifth of the
//! query pool lies in the lower-left quarter of the region, so one shard
//! takes most primary sub-queries.
//!
//! Scatter, gather pruning, merge, fallbacks and replication run nowhere
//! else in the benchmark.

use crate::fixture::{self, Rng, Zipf, ALGORITHMS};
use crate::metrics::{Report, CLASSES};
use crate::spans::{SpanBuf, Trace};
use crate::stats::{self, Reservoir};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnn_broadcast::MultiChannelEnv;
use tnn_core::{Query, QueryEngine, RouteStop};
use tnn_datasets::paper_region;
use tnn_geom::Rect;
use tnn_rtree::RTree;
use tnn_serve::{Backpressure, CacheConfig, ServeConfig, ShutdownMode};
use tnn_shard::{ShardConfig, ShardRouter, ShardStats};

/// Distinct queries in the pool.
pub const POOL: usize = 6_000;
/// Zipf exponent of the draws.
pub const ZIPF_S: f64 = 1.1;
/// Load-generating client threads.
pub const CLIENTS: usize = 2;

/// The router configuration.
pub fn shard_config() -> ShardConfig {
    ShardConfig::new()
        .shards(4)
        .replication(2)
        .replication_warmup(16)
        .serve(
            ServeConfig::new()
                .workers(1)
                .queue_capacity(2)
                .backpressure(Backpressure::Reject)
                .cache(CacheConfig::disabled())
                .batch_window(1),
        )
}

/// The fixture: two channel trees, their environment, the router, and
/// an unsharded engine over the same environment for the answer checks.
pub struct Fixture {
    /// The channel trees.
    pub trees: Vec<Arc<RTree>>,
    /// The environment.
    pub env: MultiChannelEnv,
    /// The router under test.
    pub router: ShardRouter,
    /// Wall time of each tree build, in milliseconds.
    pub build_ms: Vec<f64>,
}

/// Builds the fixture and starts the router.
pub fn setup() -> Fixture {
    let (trees, build_ms) = fixture::build_trees(2);
    let env = fixture::env_over(&trees);
    let router = ShardRouter::spawn(env.clone(), shard_config());
    Fixture {
        trees,
        env,
        router,
        build_ms,
    }
}

/// The corner-skewed pool: ranks below a fifth of the pool lie in the
/// lower-left quarter cell, the rest anywhere in the region.
pub fn pool(seed: u64, env: &MultiChannelEnv) -> Vec<Query> {
    let region = paper_region();
    let hot = Rect::from_coords(
        region.min.x,
        region.min.y,
        region.min.x + 0.25 * region.width(),
        region.min.y + 0.25 * region.height(),
    );
    (0..POOL)
        .map(|j| {
            let mut rng = Rng::new(seed, 0x5A_0000_0000 + j as u64);
            let cell = if j < POOL / 5 { &hot } else { &region };
            let p = rng.point_in(cell);
            fixture::query_at(&mut rng, env, p, ALGORITHMS[j % 3])
        })
        .collect()
}

/// One answer: the merged route and its total.
#[derive(PartialEq)]
struct Answer {
    route: Vec<RouteStop>,
    total: Option<u64>,
}

/// What the clients measured. Memory stays flat in the run length: each
/// distinct query keeps its first answer, and every later answer to it
/// is only compared with that one.
struct Window {
    /// First answer per pool query, checked against the unsharded
    /// engine after the run.
    firsts: Vec<Option<Answer>>,
    /// Answers that differed from the first answer to the same query.
    differing: u64,
    completed: u64,
    failed: u64,
    latencies_us: Reservoir,
    elapsed: Duration,
    /// Per traced query: pool index and `ShardRouter::run` time.
    run_ns: Vec<(usize, f64)>,
    depths: Vec<f64>,
    bufs: Vec<SpanBuf>,
}

impl Window {
    fn new(stream: u64) -> Self {
        Window {
            firsts: (0..POOL).map(|_| None).collect(),
            differing: 0,
            completed: 0,
            failed: 0,
            latencies_us: Reservoir::new(stream),
            elapsed: Duration::ZERO,
            run_ns: Vec::new(),
            depths: Vec::new(),
            bufs: Vec::new(),
        }
    }

    fn answer(&mut self, idx: usize, answer: Answer) {
        self.completed += 1;
        match &self.firsts[idx] {
            Some(first) => self.differing += u64::from(*first != answer),
            None => self.firsts[idx] = Some(answer),
        }
    }

    fn merge(&mut self, other: Window) {
        for (idx, answer) in other.firsts.into_iter().enumerate() {
            if let Some(a) = answer {
                self.completed -= 1;
                self.answer(idx, a);
            }
        }
        self.completed += other.completed;
        self.differing += other.differing;
        self.failed += other.failed;
        self.latencies_us.merge(other.latencies_us);
        self.run_ns.extend(other.run_ns);
        self.depths.extend(other.depths);
        self.bufs.extend(other.bufs);
    }
}

/// One client: a closed loop over its own Zipf stream until `budget`.
fn client(
    router: &ShardRouter,
    pool: &[Query],
    zipf: &Zipf,
    (seed, c): (u64, usize),
    (origin, budget): (Instant, Duration),
    traced: bool,
) -> Window {
    let mut rng = Rng::new(seed, 0xC11E + c as u64);
    let mut buf = traced.then(|| SpanBuf::new(origin));
    let mut w = Window::new(seed ^ c as u64);
    let mut n = 0u64;
    while origin.elapsed() < budget {
        let idx = zipf.sample(&mut rng);
        let q = &pool[idx];
        let t0 = Instant::now();
        let result = match buf.as_mut() {
            Some(b) => b.time(n, "shard.run", CLASSES[idx % 3], None, || router.run(q)),
            None => router.run(q),
        };
        let latency = t0.elapsed();
        let ns = latency.as_nanos() as f64;
        w.latencies_us.push(ns / 1e3);
        if traced {
            w.run_ns.push((idx, ns));
            if c == 0 && n.is_multiple_of(64) {
                w.depths.push(router.stats().serve.queued as f64);
            }
        }
        match result {
            Ok(o) => w.answer(
                idx,
                Answer {
                    route: o.route,
                    total: o.total_dist.map(f64::to_bits),
                },
            ),
            Err(_) => w.failed += 1,
        }
        n += 1;
    }
    w.bufs.extend(buf);
    w
}

/// Runs the clients for `seconds`. Client `c` draws its own Zipf stream.
fn closed_loop(
    router: &ShardRouter,
    pool: &[Query],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Window {
    let zipf = Zipf::new(POOL, ZIPF_S);
    let budget = Duration::from_secs_f64(seconds);
    let origin = Instant::now();
    let windows: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let zipf = &zipf;
                scope.spawn(move || client(router, pool, zipf, (seed, c), (origin, budget), traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut w = Window::new(seed);
    w.elapsed = origin.elapsed();
    for client in windows {
        w.merge(client);
    }
    w
}

/// Every answer against the unsharded engine's route and total: the first
/// answer per query directly, later ones through their equality with it.
fn check(engine: &QueryEngine, pool: &[Query], w: &Window) -> u64 {
    let wrong_firsts = w
        .firsts
        .iter()
        .enumerate()
        .filter_map(|(idx, a)| a.as_ref().map(|a| (idx, a)))
        .filter(|(idx, a)| {
            let want = engine.run(&pool[*idx]).expect("pool queries are valid");
            want.route != a.route || want.total_dist.map(f64::to_bits) != a.total
        })
        .count() as u64;
    wrong_firsts + w.differing
}

fn report_shard_stats(report: &mut Report, s: &ShardStats) {
    let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    report.set(
        "shard.scatter_pruned_share",
        share(
            s.scatter_pruned,
            s.scattered + s.scatter_rejected + s.scatter_pruned,
        ),
    );
    report.set("shard.gather_prune_rate", s.gather_prune_rate());
    report.set("shard.fallback_share", share(s.fallbacks, s.queries));
    report.set(
        "shard.scatter_rejected_share",
        share(s.scatter_rejected, s.scattered + s.scatter_rejected),
    );
    report.set("shard.replicas_spawned", s.replicas_spawned as f64);
}

/// Warm-up: the router's replicas spawn under the same skew.
fn warmup_seconds(seconds: f64) -> f64 {
    (seconds * 0.05).clamp(0.1, 0.5)
}

/// Runs the workload. With `traced`, half the window runs untraced and
/// half traced on a fresh router.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Report, Option<Trace>) {
    let mut report = Report::default();
    let mut build_ms = Vec::new();
    let (fixture, setup_s) = fixture::repeat_setup(
        || {
            let f = setup();
            build_ms.extend_from_slice(&f.build_ms);
            f
        },
        |f| {
            f.router.shutdown(ShutdownMode::Drain);
        },
    );
    report.set("setup_s", setup_s);
    let pool = pool(seed, &fixture.env);
    let counts = fixture::pool_counts(&fixture.env, &pool);
    crate::engine_exact::report_counts(&mut report, &counts);
    let engine = QueryEngine::new(fixture.env.clone());

    closed_loop(
        &fixture.router,
        &pool,
        seed ^ 0x3A,
        warmup_seconds(seconds),
        false,
    );
    let measured = if traced { seconds / 2.0 } else { seconds };
    let mut w = closed_loop(&fixture.router, &pool, seed, measured, false);
    let mismatches = check(&engine, &pool, &w);
    report.mismatches += mismatches;
    report.note(format!(
        "answer check: {} routes against the unsharded engine, {mismatches} mismatches",
        w.completed
    ));
    let untraced_qps = w.completed as f64 / w.elapsed.as_secs_f64();
    report.closed_loop(
        (w.completed, w.failed),
        untraced_qps,
        w.latencies_us.values(),
    );
    let stats = fixture.router.shutdown(ShutdownMode::Drain);
    report.note(format!(
        "shard stats: queries {} scattered {} rejected {} pruned {} fallbacks {} replicas {} gather prune {:.3}",
        stats.queries,
        stats.scattered,
        stats.scatter_rejected,
        stats.scatter_pruned,
        stats.fallbacks,
        stats.replicas_spawned,
        stats.gather_prune_rate()
    ));
    report.set("peak_rss_mb", crate::host::peak_rss_mb());
    if !traced {
        return (report, None);
    }

    // The traced replay on a fresh router: same warm-up, same streams.
    let router = ShardRouter::spawn(fixture.env.clone(), shard_config());
    closed_loop(&router, &pool, seed ^ 0x3A, warmup_seconds(seconds), false);
    let mut tw = closed_loop(&router, &pool, seed, measured, true);
    report.mismatches += check(&engine, &pool, &tw);
    let mut trace = Trace::default();
    for b in std::mem::take(&mut tw.bufs) {
        trace.push(b);
    }
    report.attempted += tw.completed + tw.failed;
    report.failed += tw.failed;
    let traced_qps = tw.completed as f64 / tw.elapsed.as_secs_f64();
    report.set("trace.overhead_ratio", traced_qps / untraced_qps);
    report_shard_stats(&mut report, &router.shutdown(ShutdownMode::Drain));
    report.set(
        "serve.queue_depth_p99",
        stats::quantile(&mut tw.depths, 0.99),
    );
    let mut run = trace.durations_ns("shard.run", None);
    report.set("shard.run_us", stats::median(&mut run) / 1e3);

    // The unsharded engine on the same queries, once per distinct query,
    // summed over the traced multiset.
    let mut scratch = engine.scratch();
    let mut bare_ns: HashMap<usize, f64> = HashMap::new();
    let (mut sharded, mut unsharded) = (0.0, 0.0);
    for &(idx, ns) in &tw.run_ns {
        let bare = *bare_ns.entry(idx).or_insert_with(|| {
            let t0 = Instant::now();
            engine
                .run_with(&pool[idx], &mut scratch)
                .expect("pool queries are valid");
            t0.elapsed().as_nanos() as f64
        });
        sharded += ns;
        unsharded += bare;
    }
    report.set("shard.overhead_ratio", sharded / unsharded.max(1.0));
    crate::engine_exact::core_probe(seed, &fixture.trees, &mut report, &mut trace);
    report.set(
        "rtree.materialize_ms",
        fixture::materialize_probe(&fixture.trees[1], seed, &mut trace),
    );
    report.set("rtree.build_ms", stats::median(&mut build_ms));
    let points: Vec<_> = pool.iter().take(256).map(Query::point).collect();
    report.set(
        "geom.min_max_dist_sq_ns",
        fixture::min_max_dist_sq_ns(&fixture.trees[0], &points),
    );
    (report, Some(trace))
}
