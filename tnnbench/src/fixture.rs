//! Seeded inputs shared by every workload: the fixture trees, the query
//! generators, and the deterministic per-query work counters.
//!
//! Everything here is a pure function of the `--seed` argument, so two
//! runs with one seed see identical datasets, queries and schedules.
//! The datasets are the same for every seed; the seed varies the load.

use crate::spans::{SpanBuf, Trace};
use std::sync::Arc;
use std::time::Instant;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, Query, QueryOutcome};
use tnn_datasets::{paper_region, uniform_points};
use tnn_geom::{Point, Rect};
use tnn_rtree::{DeltaOverlay, ObjectId, PackingAlgorithm, RTree};

/// Points per channel: the paper's default dataset size.
pub const POINTS: usize = 10_000;

/// Page capacity in bytes (the paper's default 64-byte pages).
pub const PAGE_BYTES: usize = 64;

/// How many times each workload builds its fixtures; `setup_s` is the
/// median, so one slow build on a shared host does not move it.
pub const SETUP_REPS: usize = 11;

/// Queries of each workload's deterministic pass: the work counters and
/// the paper's client costs are taken over exactly these, untimed, so
/// they repeat bit for bit for one seed.
pub const DETERMINISTIC_QUERIES: usize = 4_800;

/// Runs `setup` [`SETUP_REPS`] times, tearing each fixture down before
/// the next is built, and returns the last fixture with the median
/// set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(fixture) = last.take() {
            teardown(fixture);
        }
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPS > 0"),
        crate::stats::median(&mut times),
    )
}

/// The exact algorithms the workloads cycle through. Approximate-TNN is
/// left out: its k = 3 cost is about ten times the exact algorithms',
/// so it would dominate any mix it joined (see README.md).
pub const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::WindowBased,
    Algorithm::DoubleNn,
    Algorithm::HybridNn,
];

/// SplitMix64: a small, fast, seedable generator whose streams do not
/// depend on any crate of the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential with rate `rate` (mean `1 / rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A uniform point in `region`.
    pub fn point_in(&mut self, region: &Rect) -> Point {
        Point::new(
            self.range(region.min.x, region.max.x),
            self.range(region.min.y, region.max.y),
        )
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The broadcast parameters every workload uses.
pub fn params() -> BroadcastParams {
    BroadcastParams::new(PAGE_BYTES)
}

/// The seed of the channel datasets.
const DATA_SEED: u64 = 1;

/// Channel `channel`'s dataset: [`POINTS`] uniform points over the paper
/// region. It is the same for every `--seed`, as the paper's datasets
/// are fixed: the seed draws the queries, phases, arrivals and writes.
/// The paper's client costs then differ between seeds by the queries
/// alone, not by each seed's tree layout (2–3% between seeds when the
/// data, too, came from the seed).
pub fn dataset(channel: usize) -> Vec<Point> {
    let stream = Rng::new(DATA_SEED, 0xDA7A + channel as u64).next_u64();
    uniform_points(POINTS, &paper_region(), stream)
}

/// Packs one channel tree (STR, the paper's packing).
pub fn build_tree(points: &[Point]) -> Arc<RTree> {
    Arc::new(
        RTree::build(points, params().rtree_params(), PackingAlgorithm::Str)
            .expect("fixture datasets are non-empty and finite"),
    )
}

/// Builds `k` channel trees, returning them with each build's wall time
/// in milliseconds.
pub fn build_trees(k: usize) -> (Vec<Arc<RTree>>, Vec<f64>) {
    let mut build_ms = Vec::with_capacity(k);
    let trees = (0..k)
        .map(|c| {
            let points = dataset(c);
            let t0 = Instant::now();
            let tree = build_tree(&points);
            build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tree
        })
        .collect();
    (trees, build_ms)
}

/// An environment over `trees`, every channel at phase 0 (queries carry
/// their own per-channel phases).
pub fn env_over(trees: &[Arc<RTree>]) -> MultiChannelEnv {
    MultiChannelEnv::new(trees.to_vec(), params(), &vec![0; trees.len()])
}

/// One TNN query at a uniform point of the paper region, with a uniform
/// random phase per channel of `env` (the paper's random tune-in time).
pub fn random_query(rng: &mut Rng, env: &MultiChannelEnv, algorithm: Algorithm) -> Query {
    let p = rng.point_in(&paper_region());
    query_at(rng, env, p, algorithm)
}

/// A TNN query at `p` with uniform random per-channel phases.
pub fn query_at(rng: &mut Rng, env: &MultiChannelEnv, p: Point, algorithm: Algorithm) -> Query {
    let phases: Vec<u64> = env
        .channels()
        .iter()
        .map(|c| rng.below(c.layout().cycle_len().max(1)))
        .collect();
    Query::tnn(p).algorithm(algorithm).phases(&phases)
}

/// The paper's memory bound `(H−1)(M−1)` for channel `c` of `env`.
pub fn queue_bound(env: &MultiChannelEnv, c: usize) -> u64 {
    let tree = env.channel(c).tree();
    let h = tree.height() as u64;
    let m = tree.params().fanout as u64;
    (h.saturating_sub(1) * m.saturating_sub(1)).max(1)
}

/// Work counters of the first [`DETERMINISTIC_QUERIES`] queries of a
/// k = 2 pool whose query `j` runs algorithm `ALGORITHMS[j % 3]`, on a
/// bare engine over `env`, per class.
pub fn pool_counts(
    env: &MultiChannelEnv,
    pool: &[Query],
) -> std::collections::BTreeMap<&'static str, WorkCounts> {
    let engine = tnn_core::QueryEngine::new(env.clone());
    let mut counts = std::collections::BTreeMap::<&'static str, WorkCounts>::new();
    for (j, q) in pool.iter().take(DETERMINISTIC_QUERIES).enumerate() {
        let outcome = engine.run(q).expect("pool queries are valid");
        counts
            .entry(crate::metrics::CLASSES[j % 3])
            .or_default()
            .add(env, &outcome);
    }
    counts
}

/// Deterministic work counters of one algorithm × channel-count class,
/// summed from [`QueryOutcome`]s. They depend only on the queries and the
/// data, never on the host or the timing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkCounts {
    /// Queries counted.
    pub queries: u64,
    /// Access time in slots, summed.
    pub access_slots: u64,
    /// Tune-in pages, summed.
    pub tune_in_pages: u64,
    /// Estimate-phase pages, summed.
    pub estimate_pages: u64,
    /// Filter-phase pages, summed.
    pub filter_pages: u64,
    /// Filter-phase candidates, summed.
    pub candidates: u64,
    /// Delayed-pruning hits, summed.
    pub prune_hits: u64,
    /// Maximum over queries and hops of `peak_queue / (H−1)(M−1)`.
    pub peak_queue_over_bound: f64,
    /// Hops counted (one per channel of each query).
    pub hops: u64,
    /// Hops whose `peak_queue` exceeded `(H−1)(M−1)`.
    pub bound_violations: u64,
}

impl WorkCounts {
    /// Adds one outcome of a query run on `env`.
    pub fn add(&mut self, env: &MultiChannelEnv, outcome: &QueryOutcome) {
        self.queries += 1;
        self.access_slots += outcome.access_time();
        self.tune_in_pages += outcome.tune_in();
        self.estimate_pages += outcome.tune_in_estimate();
        self.filter_pages += outcome.tune_in_filter();
        self.candidates += outcome.total_candidates() as u64;
        self.prune_hits += outcome.prune_hits();
        for (c, cost) in outcome.channels.iter().enumerate() {
            let bound = queue_bound(env, c);
            let ratio = cost.peak_queue as f64 / bound as f64;
            self.peak_queue_over_bound = self.peak_queue_over_bound.max(ratio);
            self.hops += 1;
            self.bound_violations += u64::from(cost.peak_queue > bound);
        }
    }

    /// Folds another class's counters in.
    pub fn merge(&mut self, other: &WorkCounts) {
        self.queries += other.queries;
        self.access_slots += other.access_slots;
        self.tune_in_pages += other.tune_in_pages;
        self.estimate_pages += other.estimate_pages;
        self.filter_pages += other.filter_pages;
        self.candidates += other.candidates;
        self.prune_hits += other.prune_hits;
        self.peak_queue_over_bound = self.peak_queue_over_bound.max(other.peak_queue_over_bound);
        self.hops += other.hops;
        self.bound_violations += other.bound_violations;
    }

    /// Per-query mean of a summed counter.
    pub fn mean(&self, total: u64) -> f64 {
        total as f64 / self.queries.max(1) as f64
    }
}

/// Per-call time of `Rect::min_max_dist_sq` in nanoseconds, over every
/// (internal-node MBR, query point) pair of the fixture: the MBRs of
/// `tree`'s child entries against `points`. The median of several
/// passes is returned.
pub fn min_max_dist_sq_ns(tree: &RTree, points: &[Point]) -> f64 {
    let mbrs: Vec<Rect> = tree
        .nodes()
        .iter()
        .filter_map(|n| n.children())
        .flatten()
        .map(|c| c.mbr)
        .collect();
    let calls = (mbrs.len() * points.len()).max(1) as f64;
    let mut passes: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0.0f64;
            for &p in points {
                for mbr in &mbrs {
                    acc += std::hint::black_box(mbr).min_max_dist_sq(std::hint::black_box(p));
                }
            }
            std::hint::black_box(acc);
            t0.elapsed().as_nanos() as f64 / calls
        })
        .collect();
    crate::stats::median(&mut passes)
}

/// Moves `count` random objects of `delta`: each is deleted and inserted
/// again at a uniform point. Object ids stay dense, as the broadcast
/// layout needs.
pub fn move_objects(delta: &mut DeltaOverlay, rng: &mut Rng, count: usize) {
    let n = delta.base().num_objects() as u64;
    for _ in 0..count {
        let id = ObjectId(rng.below(n) as u32);
        assert!(delta.delete(id), "every id below the object count is live");
        delta
            .insert(id, rng.point_in(&paper_region()))
            .expect("uniform points are finite");
    }
}

/// Times `DeltaOverlay::materialize` after five edits of `tree` that each
/// move 1% of its objects, as `rtree.materialize` spans: the rtree layer's
/// write path on a workload that does not write.
/// Returns the median in milliseconds.
pub fn materialize_probe(tree: &Arc<RTree>, seed: u64, trace: &mut Trace) -> f64 {
    let mut rng = Rng::new(seed, 0x3A7E);
    let mut buf = SpanBuf::new(Instant::now());
    for edit in 0..5 {
        let mut delta = DeltaOverlay::new(Arc::clone(tree));
        move_objects(&mut delta, &mut rng, tree.num_objects() / 100);
        buf.time(edit, "rtree.materialize", "", None, || {
            delta.materialize().expect("the live set is non-empty")
        });
    }
    let mut ms: Vec<f64> = buf
        .spans()
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    trace.push(buf);
    crate::stats::median(&mut ms)
}
