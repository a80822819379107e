//! `engine-exact`: a closed loop of one client thread calling
//! `QueryEngine::run_with` directly, with no server in between.
//!
//! Queries are unique, uniform over the paper region, with random
//! per-channel phases. They alternate between a k = 2 and a k = 3 engine
//! built over the same fixture trees and cycle Window-Based → Double-NN
//! → Hybrid-NN, so nearly all the time goes to geom, rtree, broadcast
//! and core, and none to serve, qos or shard.

use crate::fixture::{self, Rng, WorkCounts, ALGORITHMS, DETERMINISTIC_QUERIES};
use crate::metrics::{Report, CLASSES};
use crate::spans::{SpanBuf, Trace};
use crate::stats::{self, Reservoir};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnn_broadcast::{MultiChannelEnv, PhaseOverlay};
use tnn_core::task::{NnSearchTask, WindowQueryTask};
use tnn_core::{
    exact_chain_tnn, exact_tnn, merge_route_layers, Algorithm, AnnMode, JoinScratch, Query,
    QueryEngine, QueryOutcome, RouteObjective, SearchMode,
};
use tnn_geom::{Circle, Point};
use tnn_rtree::RTree;

/// Every this-many-th timed query is checked against the exact oracle.
const CHECK_EVERY: u64 = 97;

/// At most this many timed queries are checked (the k = 3 oracle joins
/// whole datasets).
const MAX_CHECKS: usize = 40;

/// The fixture: three channel trees, and a k = 2 and a k = 3 engine over
/// the first two and all three of them.
pub struct Fixture {
    /// The channel trees.
    pub trees: Vec<Arc<RTree>>,
    /// Engine environments, k = 2 then k = 3.
    pub envs: [MultiChannelEnv; 2],
    /// Engines, k = 2 then k = 3.
    pub engines: [QueryEngine; 2],
    /// Wall time of each tree build, in milliseconds.
    pub build_ms: Vec<f64>,
}

/// Builds the fixture.
pub fn setup() -> Fixture {
    let (trees, build_ms) = fixture::build_trees(3);
    fixture_over(trees, build_ms)
}

/// The engines over three channel trees.
fn fixture_over(trees: Vec<Arc<RTree>>, build_ms: Vec<f64>) -> Fixture {
    let envs = [fixture::env_over(&trees[..2]), fixture::env_over(&trees)];
    let engines = [
        QueryEngine::new(envs[0].clone()),
        QueryEngine::new(envs[1].clone()),
    ];
    Fixture {
        trees,
        envs,
        engines,
        build_ms,
    }
}

/// Query `i` of the stream: its engine (0 for k = 2, 1 for k = 3), its
/// algorithm, and the query itself.
pub fn query(fixture: &Fixture, seed: u64, i: u64) -> (usize, Algorithm, Query) {
    let engine = (i % 2) as usize;
    let algorithm = ALGORITHMS[((i / 2) % 3) as usize];
    let mut rng = Rng::new(seed, 0xE0_0000_0000 + i);
    let q = fixture::random_query(&mut rng, &fixture.envs[engine], algorithm);
    (engine, algorithm, q)
}

/// The class label (`double.k3`, …) of an engine index and algorithm.
pub fn class_of(engine: usize, algorithm: Algorithm) -> &'static str {
    let a = ALGORITHMS
        .iter()
        .position(|&x| x == algorithm)
        .expect("only exact algorithms are generated");
    CLASSES[engine * 3 + a]
}

/// Runs the deterministic pass: the first [`DETERMINISTIC_QUERIES`]
/// queries, untimed, with their work counters per class. It also warms
/// the caches before timing.
pub fn deterministic_counts(fixture: &Fixture, seed: u64) -> BTreeMap<&'static str, WorkCounts> {
    let mut scratch = fixture.engines[0].scratch();
    let mut counts: BTreeMap<&'static str, WorkCounts> = BTreeMap::new();
    for i in 0..DETERMINISTIC_QUERIES as u64 {
        let (e, algorithm, q) = query(fixture, seed, i);
        let outcome = fixture.engines[e]
            .run_with(&q, &mut scratch)
            .expect("generated queries are valid");
        counts
            .entry(class_of(e, algorithm))
            .or_default()
            .add(&fixture.envs[e], &outcome);
    }
    counts
}

/// Reports the deterministic counters: the client costs end to end, and
/// the per-class core counters.
pub fn report_counts(report: &mut Report, counts: &BTreeMap<&'static str, WorkCounts>) {
    let mut all = WorkCounts::default();
    for (class, c) in counts {
        all.merge(c);
        report.set(
            &format!("core.estimate_pages.{class}"),
            c.mean(c.estimate_pages),
        );
        report.set(
            &format!("core.filter_pages.{class}"),
            c.mean(c.filter_pages),
        );
        report.set(&format!("core.candidates.{class}"), c.mean(c.candidates));
        report.set(&format!("core.prune_hits.{class}"), c.mean(c.prune_hits));
        report.set(
            &format!("core.peak_queue_over_bound.{class}"),
            c.peak_queue_over_bound,
        );
    }
    report.set("access_slots_mean", all.mean(all.access_slots));
    report.set("tune_in_pages_mean", all.mean(all.tune_in_pages));
    if all.bound_violations > 0 {
        report.note(format!(
            "finding: {} of {} hops exceeded the paper's (H-1)(M-1) queue bound (max ratio {:.3})",
            all.bound_violations, all.hops, all.peak_queue_over_bound
        ));
    }
}

/// A timed query kept for the oracle check.
struct Sample {
    engine: usize,
    p: Point,
    total: Option<f64>,
}

/// What one measured window produced.
struct Window {
    completed: u64,
    failed: u64,
    elapsed: Duration,
    latencies_us: Reservoir,
    samples: Vec<Sample>,
}

impl Window {
    fn new(stream: u64) -> Self {
        Window {
            completed: 0,
            failed: 0,
            elapsed: Duration::ZERO,
            latencies_us: Reservoir::new(stream),
            samples: Vec::new(),
        }
    }
}

/// The closed loop, untraced: query `first`, `first + 1`, … until
/// `seconds` have passed.
fn closed_loop(fixture: &Fixture, seed: u64, first: u64, seconds: f64) -> Window {
    let mut scratch = fixture.engines[0].scratch();
    let mut w = Window::new(first);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = first;
    while start.elapsed() < budget {
        let (e, _, q) = query(fixture, seed, i);
        let t0 = Instant::now();
        let result = fixture.engines[e].run_with(&q, &mut scratch);
        w.latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        record(&mut w, e, &q, result.ok(), i);
        i += 1;
    }
    w.elapsed = start.elapsed();
    w
}

fn record(w: &mut Window, engine: usize, q: &Query, outcome: Option<QueryOutcome>, i: u64) {
    match outcome {
        Some(o) if !o.failed() => {
            w.completed += 1;
            if i.is_multiple_of(CHECK_EVERY) && w.samples.len() < MAX_CHECKS {
                w.samples.push(Sample {
                    engine,
                    p: q.point(),
                    total: o.total_dist,
                });
            }
        }
        _ => w.failed += 1,
    }
}

/// Checks the sampled answers against the exact oracles; returns the
/// number of mismatches.
fn check_samples(fixture: &Fixture, samples: &[Sample]) -> u64 {
    let t = &fixture.trees;
    samples
        .iter()
        .filter(|s| {
            let want = if s.engine == 0 {
                exact_tnn(s.p, &t[0], &t[1]).dist
            } else {
                exact_chain_tnn(s.p, &[&*t[0], &*t[1], &*t[2]]).1
            };
            s.total
                .is_none_or(|got| (got - want).abs() > 1e-9 * want.abs().max(1.0))
        })
        .count() as u64
}

/// The Double-NN phases rebuilt from public primitives: one
/// `BroadcastNnSearch` per channel from `p`, one `WindowQueryTask` per
/// channel over the padded chain-length circle, and the chain merge.
/// Returns whether route, estimate pages and filter pages equal the
/// engine's outcome for the same query.
fn decompose(
    buf: &mut SpanBuf,
    env: &MultiChannelEnv,
    q: &Query,
    id: u64,
    k_label: &'static str,
    engine_outcome: &QueryOutcome,
    join: &mut JoinScratch,
) -> bool {
    let overlay = match q.phase_overrides() {
        Some(phases) => PhaseOverlay::new(env, phases),
        None => PhaseOverlay::identity(env),
    };
    let (p, start, k) = (q.point(), q.issue_slot(), overlay.len());
    let root = buf.open(id, "core.double_nn_phases", k_label, None);

    let est = buf.open(id, "core.estimate", k_label, Some(root));
    let (mut end, mut estimate_pages, mut radius, mut prev) = (start, 0, 0.0, p);
    for c in 0..k {
        let mut task = NnSearchTask::new(
            overlay.view(c),
            SearchMode::Point { q: p },
            AnnMode::Exact,
            start,
        );
        end = end.max(task.run_to_completion());
        estimate_pages += task.tuner().pages;
        let (nn, _, _) = task.best().expect("fixture channels are non-empty");
        radius += prev.dist(nn);
        prev = nn;
    }
    buf.close(est);

    let filter = buf.open(id, "core.filter", k_label, Some(root));
    let range = Circle::new(p, radius * (1.0 + 4.0 * f64::EPSILON));
    let mut filter_pages = 0;
    let layers: Vec<_> = (0..k)
        .map(|c| {
            let mut w = WindowQueryTask::new(overlay.view(c), range, end);
            w.run_to_completion();
            filter_pages += w.tuner().pages;
            w.into_hits()
        })
        .collect();
    buf.close(filter);

    let merged = buf.time(id, "core.join", k_label, Some(root), || {
        merge_route_layers(join, RouteObjective::Chain, p, &layers, None)
    });
    buf.close(root);

    let route_ok = merged.is_some_and(|m| {
        m.total_dist.to_bits() == engine_outcome.total_dist.unwrap_or(f64::NAN).to_bits()
            && m.stops.len() == engine_outcome.route.len()
            && m.stops
                .iter()
                .zip(&engine_outcome.route)
                .all(|(&(pt, obj, layer), stop)| {
                    pt == stop.point && obj == stop.object && layer == stop.channel
                })
    });
    route_ok
        && estimate_pages == engine_outcome.tune_in_estimate()
        && filter_pages == engine_outcome.tune_in_filter()
}

/// The closed loop, traced: the same stream with spans around
/// `QueryEngine::env` and `QueryEngine::run_on` (what `run_with` does),
/// and, for Double-NN queries, the phase decomposition outside the
/// timed share.
fn traced_loop(
    fixture: &Fixture,
    seed: u64,
    (first, count): (u64, u64),
    seconds: f64,
    buf: &mut SpanBuf,
) -> (Window, u64, u64) {
    let mut scratch = fixture.engines[0].scratch();
    let mut join = JoinScratch::default();
    let mut w = Window::new(first);
    let (mut decomposed, mut decomposition_mismatches) = (0u64, 0u64);
    let mut side = Duration::ZERO;
    let budget = Duration::try_from_secs_f64(seconds).unwrap_or(Duration::MAX);
    let start = Instant::now();
    let mut i = first;
    while i - first < count && start.elapsed() < budget {
        let (e, algorithm, q) = query(fixture, seed, i);
        let class = class_of(e, algorithm);
        let engine = &fixture.engines[e];
        let t0 = Instant::now();
        let root = buf.open(i, "query", class, None);
        let env = buf.time(i, "core.env_snapshot", "", Some(root), || engine.env());
        let result = buf.time(i, "core.run_on", class, Some(root), || {
            engine.run_on(&env, &q, &mut scratch)
        });
        buf.close(root);
        w.latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if let (Algorithm::DoubleNn, Ok(outcome)) = (algorithm, &result) {
            let t1 = Instant::now();
            let k_label = if e == 0 { "k2" } else { "k3" };
            decomposed += 1;
            if !decompose(buf, &env, &q, i, k_label, outcome, &mut join) {
                decomposition_mismatches += 1;
            }
            side += t1.elapsed();
        }
        record(&mut w, e, &q, result.ok(), i);
        i += 1;
    }
    // The decomposition is the benchmark's own extra work, not the
    // workload's: it is left out of the traced throughput.
    w.elapsed = start.elapsed().saturating_sub(side);
    (w, decomposed, decomposition_mismatches)
}

/// Runs the workload. With `traced`, half the window runs untraced and
/// half traced, and the per-layer metrics come from the traced half.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Report, Option<Trace>) {
    let mut report = Report::default();
    let mut build_ms = Vec::new();
    let (fixture, setup_s) = fixture::repeat_setup(
        || {
            let f = setup();
            build_ms.extend_from_slice(&f.build_ms);
            f
        },
        drop,
    );
    report.set("setup_s", setup_s);

    let counts = deterministic_counts(&fixture, seed);
    report_counts(&mut report, &counts);

    let untraced_seconds = if traced { seconds / 2.0 } else { seconds };
    let first = DETERMINISTIC_QUERIES as u64;
    let mut w = closed_loop(&fixture, seed, first, untraced_seconds);
    let mismatches = check_samples(&fixture, &w.samples);
    report.mismatches += mismatches;
    report.note(format!(
        "answer check: {} sampled answers against the exact oracle, {mismatches} mismatches",
        w.samples.len()
    ));
    let next = first + w.completed + w.failed;
    let untraced_qps = w.completed as f64 / w.elapsed.as_secs_f64();
    report.closed_loop(
        (w.completed, w.failed),
        untraced_qps,
        w.latencies_us.values(),
    );
    report.set("peak_rss_mb", crate::host::peak_rss_mb());
    if !traced {
        return (report, None);
    }

    let mut buf = SpanBuf::new(Instant::now());
    let (tw, decomposed, decomposition_mismatches) =
        traced_loop(&fixture, seed, (next, u64::MAX), seconds / 2.0, &mut buf);
    let mismatches = check_samples(&fixture, &tw.samples);
    report.mismatches += mismatches;
    report.attempted += tw.completed + tw.failed;
    report.failed += tw.failed;
    let traced_qps = tw.completed as f64 / tw.elapsed.as_secs_f64();
    report.set("trace.overhead_ratio", traced_qps / untraced_qps);
    let mut trace = Trace::default();
    trace.push(buf);

    report.set("rtree.build_ms", stats::median(&mut build_ms));
    report.set(
        "rtree.materialize_ms",
        fixture::materialize_probe(&fixture.trees[1], seed, &mut trace),
    );
    let points: Vec<Point> = (0..256)
        .map(|i| query(&fixture, seed, i).2.point())
        .collect();
    report.set(
        "geom.min_max_dist_sq_ns",
        fixture::min_max_dist_sq_ns(&fixture.trees[0], &points),
    );
    report_core_spans(&mut report, &trace);
    report_phases(&mut report, &trace, decomposed, decomposition_mismatches);
    let env_ns = stats::mean(&trace.durations_ns("core.env_snapshot", None));
    let query_ns = stats::mean(&trace.durations_ns("query", None));
    report.note(format!(
        "finding: Approximate-TNN at k = 3 takes {:.1} us per query (median of 200)",
        approximate_k3_us(&fixture, seed, 200)
    ));
    report.note(format!(
        "finding: QueryEngine::env() takes {:.1}% of per-query time ({env_ns:.0} of {query_ns:.0} ns, traced half)",
        100.0 * env_ns / query_ns
    ));
    (report, Some(trace))
}

/// The Double-NN phase medians from a trace, unless the decomposition
/// differed from the engine on any query.
fn report_phases(report: &mut Report, trace: &Trace, decomposed: u64, mismatches: u64) {
    report.note(format!(
        "double-nn decomposition: {decomposed} queries, {mismatches} differ from the engine"
    ));
    if mismatches > 0 || decomposed == 0 {
        report.note("double-nn phase numbers rejected: the decomposition differs from the engine");
        return;
    }
    for k in ["k2", "k3"] {
        for phase in ["estimate", "filter", "join"] {
            let mut d = trace.durations_ns(&format!("core.{phase}"), Some(k));
            report.set(&format!("core.{phase}_us.{k}"), stats::median(&mut d) / 1e3);
        }
    }
}

/// Queries of the core probe.
pub const PROBE_QUERIES: u64 = 1_200;

/// The core layer's timings for a workload whose own traffic reaches
/// only part of it: the first [`PROBE_QUERIES`] queries of the
/// `engine-exact` stream, traced, over the fixture trees. `trees` are the
/// workload's two channel trees, which equal `engine-exact`'s first two;
/// the third is built here.
pub fn core_probe(seed: u64, trees: &[Arc<RTree>], report: &mut Report, trace: &mut Trace) {
    let mut trees = trees.to_vec();
    trees.push(fixture::build_tree(&fixture::dataset(2)));
    let probe = fixture_over(trees, Vec::new());
    let mut buf = SpanBuf::new(Instant::now());
    let (w, decomposed, mismatches) =
        traced_loop(&probe, seed, (0, PROBE_QUERIES), f64::INFINITY, &mut buf);
    report.mismatches += check_samples(&probe, &w.samples);
    trace.push(buf);
    report_core_spans(report, trace);
    report_phases(report, trace, decomposed, mismatches);
}

/// Per-class `run_on` medians and the env snapshot median from a trace.
pub fn report_core_spans(report: &mut Report, trace: &Trace) {
    let mut env = trace.durations_ns("core.env_snapshot", None);
    if !env.is_empty() {
        report.set("core.env_snapshot_ns", stats::median(&mut env));
    }
    for class in CLASSES {
        let mut d = trace.durations_ns("core.run_on", Some(class));
        if !d.is_empty() {
            report.set(&format!("core.run_us.{class}"), stats::median(&mut d) / 1e3);
        }
    }
}

/// Measures Approximate-TNN at k = 3 over `n` queries of the fixture: the
/// per-query time that keeps it out of this workload's mix.
pub fn approximate_k3_us(fixture: &Fixture, seed: u64, n: u64) -> f64 {
    let mut scratch = fixture.engines[1].scratch();
    let mut times: Vec<f64> = (0..n)
        .map(|i| {
            let mut rng = Rng::new(seed, 0xA9_0000 + i);
            let q = fixture::random_query(&mut rng, &fixture.envs[1], Algorithm::ApproximateTnn);
            let t0 = Instant::now();
            let _ = std::hint::black_box(fixture.engines[1].run_with(&q, &mut scratch));
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&mut times)
}
