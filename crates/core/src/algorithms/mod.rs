//! The four TNN query-processing algorithms and the k-channel variants.
//!
//! All share the estimate–filter skeleton of §3.1, generalized from the
//! paper's two-channel special case to `k ≥ 2` channels: an
//! algorithm-specific **estimate** phase produces a search radius `d`
//! (from a feasible `k`-hop chain, except for Approximate-TNN), then the
//! common **filter** phase runs window queries over `circle(p, d)` on
//! every channel in parallel, joins the candidates locally (the
//! two-channel bound-pruned join for `k = 2`, the layered sweep join for
//! `k > 2`), and finally retrieves the answer objects' data pages.
//!
//! Every step is generic over the candidate-queue backend of the NN
//! search tasks (see [`crate::task::queue`]): the default backend is the
//! heap-ordered production queue, while
//! `QueryEngine::<LinearQueue>::with_queue_backend` drives the identical
//! algorithm code over the paper-literal linear-scan reference for the
//! equivalence tests. Driven through [`crate::QueryEngine::run_with`]
//! with a reused [`QueryScratch`], every growth-prone buffer (NN queues
//! and parked lists, window queues and hit lists, join order/sweep/DP tables,
//! order-free permutation table) is recycled across queries; what
//! remains per query is a handful of k-element transient vectors (the
//! estimate task/result fan-out, the filter-task list, and the
//! returned route/cost vectors). Per-query phase randomization goes
//! through [`run_query_overlay`] without cloning the environment.

mod approximate;
mod double_nn;
mod hybrid_nn;
mod variants;
mod window_based;

pub use approximate::{approximate_radius, approximate_radius_for_env};
pub use variants::{
    order_free_tnn_overlay, round_trip_join, round_trip_tnn_overlay, VariantRun, VisitOrder,
};

use crate::join::JoinScratch;
use crate::task::queue::{ArrivalHeap, CandidateQueue};
use crate::task::{BroadcastNnSearch, NnScratch, WindowQueryTask, WindowScratch};
use crate::SearchMode;
use crate::{Algorithm, ChannelCost, TnnConfig, TnnError, TnnRun};
use tnn_broadcast::{InlineVec, MultiChannelEnv, PhaseOverlay, Tuner};
use tnn_geom::{Circle, Point};
use tnn_rtree::ObjectId;

/// Per-channel estimate-phase tuners, inline up to four channels (the
/// evaluation's workloads never spill).
pub(crate) type TunerVec = InlineVec<Tuner, 4>;

/// Per-channel estimate-phase queue statistics, inline up to four
/// channels like [`TunerVec`].
pub(crate) type HopStatsVec = InlineVec<HopStats, 4>;

/// Client-side queue accounting of one hop's estimate-phase NN search,
/// surfaced on [`ChannelCost`] for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HopStats {
    /// Peak queued + parked entries — the `(H−1)(M−1)`-bounded metric.
    pub peak_queue: u64,
    /// Entries still parked (pruned by §4.2.4) when the search ended.
    pub prune_hits: u64,
}

/// Reusable per-worker buffers for the whole query pipeline: one NN
/// search task and one window query per channel, plus the local join —
/// k-ary, growing on demand to the environment's channel count, so the
/// two-channel TNN and every `k > 2` route share one shape. After the
/// first query has grown the buffers, subsequent queries through
/// [`crate::QueryEngine::run_with`] allocate only small k-element
/// transient vectors (see the module docs).
#[derive(Debug, Default)]
pub struct QueryScratch<Q: CandidateQueue = ArrivalHeap> {
    /// Estimate-phase NN task buffers, one per channel.
    pub(crate) nn: Vec<NnScratch<Q>>,
    /// Filter-phase window query buffers, one per channel.
    pub(crate) window: Vec<WindowScratch>,
    /// Join working memory.
    pub(crate) join: JoinScratch,
    /// Cached visit-order permutation table for order-free queries
    /// (depends only on the channel count; rebuilt when it changes).
    pub(crate) visit_orders: Vec<Vec<usize>>,
}

impl<Q: CandidateQueue> QueryScratch<Q> {
    /// Grows the per-channel buffers to at least `k` channels.
    pub(crate) fn ensure_channels(&mut self, k: usize) {
        while self.nn.len() < k {
            self.nn.push(NnScratch::default());
        }
        while self.window.len() < k {
            self.window.push(WindowScratch::default());
        }
    }

    /// The first `k` NN scratches, mutably — one per estimate-phase
    /// search task.
    pub(crate) fn nn_slice(&mut self, k: usize) -> &mut [NnScratch<Q>] {
        self.ensure_channels(k);
        &mut self.nn[..k]
    }

    /// Ensures the cached permutation table covers `0..k` (all `k!`
    /// visit orders, lexicographic, identity first).
    pub(crate) fn ensure_visit_orders(&mut self, k: usize) {
        if self.visit_orders.first().map(Vec::len) != Some(k) {
            self.visit_orders = permutations(k);
        }
    }
}

/// All permutations of `0..k`, lexicographically, identity first — the
/// candidate visit orders of an order-free query.
pub(crate) fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn rec(used: &mut Vec<bool>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let k = used.len();
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(used, cur, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(&mut vec![false; k], &mut Vec::with_capacity(k), &mut out);
    out
}

/// [`run_query_overlay`] against an environment's own phases —
/// equivalent to an identity overlay. The queue-generic single-query
/// entry point for code that owns a scratch but no engine.
pub fn run_query_impl<Q: CandidateQueue>(
    env: &MultiChannelEnv,
    p: Point,
    issued_at: u64,
    cfg: &TnnConfig,
    scratch: &mut QueryScratch<Q>,
) -> Result<TnnRun, TnnError> {
    run_query_overlay(&PhaseOverlay::identity(env), p, issued_at, cfg, scratch)
}

/// The queue-generic query pipeline behind every TNN entry point, over a
/// [`PhaseOverlay`] — per-query phase randomization without cloning the
/// environment. [`crate::QueryEngine`] and the batch runners drive this
/// directly; any `k ≥ 2` channel count is accepted, with the two-channel
/// case reproducing the paper's algorithms bit-for-bit.
///
/// # Errors
/// [`TnnError::WrongChannelCount`] for fewer than two channels;
/// [`TnnError::NonFiniteQuery`] for NaN/infinite query points;
/// [`TnnError::EmptyChannel`] when a channel broadcasts an empty dataset
/// (no feasible route can exist through it).
///
/// # Panics
/// Panics when `cfg.ann` does not hold one mode per channel.
pub fn run_query_overlay<Q: CandidateQueue>(
    overlay: &PhaseOverlay<'_>,
    p: Point,
    issued_at: u64,
    cfg: &TnnConfig,
    scratch: &mut QueryScratch<Q>,
) -> Result<TnnRun, TnnError> {
    let k = overlay.len();
    if k < 2 {
        return Err(TnnError::WrongChannelCount {
            needed: 2,
            available: k,
        });
    }
    if !p.is_finite() {
        return Err(TnnError::NonFiniteQuery);
    }
    assert_eq!(cfg.ann.len(), k, "one ANN mode per channel is required");
    check_channels_non_empty(overlay)?;
    scratch.ensure_channels(k);
    let est = match cfg.algorithm {
        Algorithm::WindowBased => window_based::estimate(overlay, p, issued_at, cfg, scratch)?,
        Algorithm::ApproximateTnn => approximate::estimate(overlay.env(), issued_at),
        Algorithm::DoubleNn => double_nn::estimate(overlay, p, issued_at, cfg, scratch)?,
        Algorithm::HybridNn => hybrid_nn::estimate(overlay, p, issued_at, cfg, scratch)?,
    };
    Ok(filter_and_finish(overlay, p, issued_at, est, cfg, scratch))
}

/// Returns [`TnnError::EmptyChannel`] for the first channel whose dataset
/// holds no objects — shared degenerate-input gate of every pipeline.
pub(crate) fn check_channels_non_empty(overlay: &PhaseOverlay<'_>) -> Result<(), TnnError> {
    for i in 0..overlay.len() {
        if overlay.channel(i).tree().num_objects() == 0 {
            return Err(TnnError::EmptyChannel { channel: i });
        }
    }
    Ok(())
}

/// Result of an estimate phase: the filter radius plus cost accounting.
pub(crate) struct Estimate {
    /// Search radius `d` for the filter phase.
    pub radius: f64,
    /// Estimate-phase page accounting, one tuner per channel.
    pub tuners: TunerVec,
    /// Global slot at which the radius became known (the filter phase
    /// starts here on every channel).
    pub end: u64,
    /// Per-channel queue statistics of the estimate searches (all zero
    /// for Approximate-TNN, which runs no searches).
    pub hops: HopStatsVec,
}

/// Length of the feasible chain `p → pts₀ → … → pts_{k−1}` — the
/// generalized estimate radius `dis(p, n₁) + Σ dis(nᵢ, nᵢ₊₁)`.
pub(crate) fn chain_length(p: Point, pts: impl IntoIterator<Item = Point>) -> f64 {
    let mut total = 0.0;
    let mut prev = p;
    for pt in pts {
        total += prev.dist(pt);
        prev = pt;
    }
    total
}

/// The common filter + retrieve tail shared by all four algorithms, over
/// `k ≥ 2` channels.
pub(crate) fn filter_and_finish<Q: CandidateQueue>(
    overlay: &PhaseOverlay<'_>,
    p: Point,
    issued_at: u64,
    est: Estimate,
    cfg: &TnnConfig,
    scratch: &mut QueryScratch<Q>,
) -> TnnRun {
    let k = overlay.len();
    // The search range is mathematically *closed*: the feasible chain that
    // produced the radius lies exactly on its boundary. Pad by a few ULPs
    // so sqrt/square rounding cannot exclude boundary candidates.
    let range = Circle::new(p, est.radius * (1.0 + 4.0 * f64::EPSILON));

    // Filter phase: window queries on every channel, in parallel (each
    // has its own timeline starting at the estimate end). Field
    // destructuring keeps the window and join borrows disjoint.
    let QueryScratch { window, join, .. } = scratch;
    let mut windows: Vec<WindowQueryTask<'_>> = Vec::with_capacity(k);
    let mut filter_end = est.end;
    for (i, w_scratch) in window.iter_mut().take(k).enumerate() {
        let mut w = WindowQueryTask::with_scratch(overlay.view(i), range, est.end, w_scratch);
        filter_end = filter_end.max(w.run_to_completion());
        windows.push(w);
    }

    let candidates: Vec<usize> = windows.iter().map(|w| w.hits().len()).collect();
    // Local join through the shared candidate-merge entry point (the
    // two-channel bound-pruned join stays verbatim for k = 2 — bit-
    // identical to the paper pipeline; k > 2 routes go through the
    // layered sweep join).
    let layers: Vec<&[(Point, ObjectId)]> = windows.iter().map(|w| w.hits()).collect();
    let (route, total_dist) = match crate::merge::merge_route_layers(
        join,
        crate::merge::RouteObjective::Chain,
        p,
        &layers,
        None,
    ) {
        Some(merged) => (
            merged
                .stops
                .into_iter()
                .map(|(pt, object, _)| (pt, object))
                .collect(),
            Some(merged.total_dist),
        ),
        None => (Vec::new(), None),
    };

    let mut channels: Vec<ChannelCost> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| ChannelCost {
            estimate_pages: est.tuners[i].pages,
            filter_pages: w.tuner().pages,
            retrieve_pages: 0,
            finish_time: est.tuners[i].finish_time.unwrap_or(issued_at).max(w.now()),
            peak_queue: est.hops[i].peak_queue,
            prune_hits: est.hops[i].prune_hits,
        })
        .collect();
    for (w, w_scratch) in windows.into_iter().zip(window.iter_mut()) {
        w.recycle(w_scratch);
    }

    // Retrieval phase: wake up when the answer objects' data pages are on
    // air. The join is local computation, which the paper neglects, so
    // retrieval starts as soon as every candidate stream is complete.
    if cfg.retrieve_answer_objects {
        for (i, &(_, object)) in route.iter().enumerate() {
            let (done, pages) = overlay.view(i).retrieve_object(object, filter_end);
            channels[i].retrieve_pages = pages;
            channels[i].finish_time = channels[i].finish_time.max(done);
        }
    }

    let completed_at = channels
        .iter()
        .map(|c| c.finish_time)
        .max()
        .unwrap_or(est.end)
        .max(est.end);

    TnnRun {
        route,
        total_dist,
        search_radius: est.radius,
        issued_at,
        estimate_end: est.end,
        completed_at,
        candidates,
        channels,
    }
}

/// Event loop running `k` NN search tasks concurrently in global time
/// order: repeatedly steps the task with the earliest `next_arrival`
/// (lowest channel index wins ties, making runs deterministic) and fires
/// `on_completion(i, finished_best, at, tasks)` whenever task `i`
/// finishes while at least one other task is still running — the hook
/// the generalized Hybrid-NN uses to re-target the surviving neighbor
/// hops. `at` is the finishing task's clock, the global time of the
/// switch.
///
/// `next_arrival` is an O(1) heap peek, so the interleaving loop adds
/// only an O(k) scan per step.
pub(crate) fn run_interleaved<Q: CandidateQueue>(
    tasks: &mut [BroadcastNnSearch<'_, Q>],
    mut on_completion: impl FnMut(
        usize,
        Option<(Point, ObjectId, f64)>,
        u64,
        &mut [BroadcastNnSearch<'_, Q>],
    ),
) {
    loop {
        let mut next: Option<(u64, usize)> = None;
        for (i, t) in tasks.iter().enumerate() {
            if let Some(arrival) = t.next_arrival() {
                if next.is_none_or(|(best, _)| arrival < best) {
                    next = Some((arrival, i));
                }
            }
        }
        let Some((_, i)) = next else { break };
        tasks[i].step();
        if tasks[i].is_done() {
            let best = tasks[i].best();
            let at = tasks[i].now();
            let others_running = tasks
                .iter()
                .enumerate()
                .any(|(j, t)| j != i && !t.is_done());
            if others_running {
                on_completion(i, best, at, tasks);
            }
        }
    }
}

/// Shared estimate fan-out: spawns one NN search from `from` on every
/// channel (all `k` searches start "at the earliest opportunity", §4.1)
/// and runs them to completion through [`run_interleaved`] with the
/// given completion hook. Returns the tasks for the caller to harvest
/// results from; pass them back through [`harvest_searches`].
pub(crate) fn spawn_parallel_searches<'a, Q: CandidateQueue>(
    overlay: &PhaseOverlay<'a>,
    from: Point,
    issued_at: u64,
    ann: impl Fn(usize) -> crate::AnnMode,
    scratch: &mut [NnScratch<Q>],
) -> Vec<BroadcastNnSearch<'a, Q>> {
    scratch
        .iter_mut()
        .enumerate()
        .map(|(i, nn_scratch)| {
            BroadcastNnSearch::with_scratch(
                overlay.view(i),
                SearchMode::Point { q: from },
                ann(i),
                issued_at,
                nn_scratch,
            )
        })
        .collect()
}

/// Collects each task's best point, tuner, clock, and queue statistics,
/// recycling the task buffers into `scratch`. Returns
/// [`TnnError::EmptyChannel`] when a search ended without reaching any
/// data point.
#[allow(clippy::type_complexity)]
pub(crate) fn harvest_searches<Q: CandidateQueue>(
    tasks: Vec<BroadcastNnSearch<'_, Q>>,
    scratch: &mut [NnScratch<Q>],
) -> Result<(Vec<(Point, ObjectId)>, TunerVec, u64, HopStatsVec), TnnError> {
    let mut nns = Vec::with_capacity(tasks.len());
    let mut tuners = TunerVec::new();
    let mut end = 0u64;
    let mut hops = HopStatsVec::new();
    for (i, (task, nn_scratch)) in tasks.into_iter().zip(scratch.iter_mut()).enumerate() {
        let (pt, object, _) = task.best().ok_or(TnnError::EmptyChannel { channel: i })?;
        nns.push((pt, object));
        tuners.push(*task.tuner());
        end = end.max(task.now());
        hops.push(HopStats {
            peak_queue: task.peak_memory() as u64,
            prune_hits: task.parked_len() as u64,
        });
        task.recycle(nn_scratch);
    }
    Ok((nns, tuners, end, hops))
}

/// Property tests asserting the heap-ordered production queue and the
/// paper-literal linear-scan reference produce **byte-identical**
/// [`TnnRun`]s — same pages, same finish times, same answers — across all
/// four algorithms, random datasets, phases, ANN modes, channel counts,
/// and the arrival-tie / mid-flight-switch cases Hybrid-NN exercises.
#[cfg(test)]
mod equivalence_tests {
    use super::*;
    use crate::task::queue::LinearQueue;
    use crate::AnnMode;
    use proptest::prelude::*;
    use std::sync::Arc;
    use tnn_broadcast::BroadcastParams;
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn build_env(layers: &[Vec<Point>], page: usize, phases: &[u64]) -> MultiChannelEnv {
        let params = BroadcastParams::new(page);
        let trees = layers
            .iter()
            .map(|pts| {
                Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, phases)
    }

    fn pts_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
        prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)),
            1..max,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn heap_and_linear_runs_are_byte_identical(
            s in pts_strategy(220),
            r in pts_strategy(220),
            (ph0, ph1) in (0u64..50_000, 0u64..50_000),
            page in prop::sample::select(vec![64usize, 128]),
            (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
            issued_at in 0u64..20_000,
            ann_factor in 0.0f64..2.0,
        ) {
            let env = build_env(&[s, r], page, &[ph0, ph1]);
            let p = Point::new(qx, qy);
            let mut heap_scratch = QueryScratch::<ArrivalHeap>::default();
            let mut linear_scratch = QueryScratch::<LinearQueue>::default();
            for alg in Algorithm::ALL {
                for ann in [AnnMode::Exact, AnnMode::Dynamic { factor: ann_factor }] {
                    let cfg = TnnConfig::exact(alg).with_ann_modes(&[ann, ann]);
                    let heap_run =
                        run_query_impl(&env, p, issued_at, &cfg, &mut heap_scratch).unwrap();
                    let linear_run =
                        run_query_impl(&env, p, issued_at, &cfg, &mut linear_scratch).unwrap();
                    prop_assert_eq!(
                        &heap_run, &linear_run,
                        "divergent run for {} / {:?}", alg.name(), ann
                    );
                }
            }
        }

        /// The same backend-equivalence gate over three and four channels
        /// — the generalized event loop and the layered join must be as
        /// backend-independent as the two-channel pipeline.
        #[test]
        fn heap_and_linear_agree_beyond_two_channels(
            layers in prop::collection::vec(pts_strategy(140), 3..5),
            phase_seed in 0u64..60_000,
            (qx, qy) in (0.0f64..1000.0, 0.0f64..1000.0),
            issued_at in 0u64..10_000,
        ) {
            let k = layers.len();
            let phases: Vec<u64> =
                (0..k as u64).map(|i| phase_seed.wrapping_mul(i * i + 1) % 40_000).collect();
            let env = build_env(&layers, 64, &phases);
            let p = Point::new(qx, qy);
            let mut heap_scratch = QueryScratch::<ArrivalHeap>::default();
            let mut linear_scratch = QueryScratch::<LinearQueue>::default();
            for alg in Algorithm::ALL {
                let cfg = TnnConfig::exact_for(alg, k);
                let heap_run =
                    run_query_impl(&env, p, issued_at, &cfg, &mut heap_scratch).unwrap();
                let linear_run =
                    run_query_impl(&env, p, issued_at, &cfg, &mut linear_scratch).unwrap();
                prop_assert_eq!(&heap_run, &linear_run, "k={} {}", k, alg.name());
            }
        }

        /// Small, highly symmetric grids force equal-bound tie cases; the
        /// asymmetric sizes force both Hybrid switch directions.
        #[test]
        fn equivalence_on_tie_heavy_grids(
            side in 2usize..7,
            big in 150usize..400,
            phase in 0u64..10_000,
        ) {
            let grid: Vec<Point> = (0..side * side)
                .map(|i| Point::new((i % side) as f64 * 10.0, (i / side) as f64 * 10.0))
                .collect();
            let cloud: Vec<Point> = (0..big)
                .map(|i| Point::new((i * 37 % 211) as f64, (i * 53 % 223) as f64))
                .collect();
            // Query at the exact grid center: equidistant candidates.
            let p = Point::new((side - 1) as f64 * 5.0, (side - 1) as f64 * 5.0);
            for (s, r) in [(&grid, &cloud), (&cloud, &grid)] {
                let env = build_env(&[s.clone(), r.clone()], 64, &[phase, phase / 2]);
                for alg in Algorithm::ALL {
                    let cfg = TnnConfig::exact(alg);
                    let heap_run = run_query_impl(
                        &env, p, 3, &cfg, &mut QueryScratch::<ArrivalHeap>::default(),
                    )
                    .unwrap();
                    let linear_run = run_query_impl(
                        &env, p, 3, &cfg, &mut QueryScratch::<LinearQueue>::default(),
                    )
                    .unwrap();
                    prop_assert_eq!(&heap_run, &linear_run, "{}", alg.name());
                }
            }
        }
    }

    /// The chained extension uses the same task machinery; spot-check the
    /// heap path against the linear one through the public single-query
    /// entry points.
    #[test]
    fn peak_memory_is_backend_independent() {
        let pts: Vec<Point> = (0..800)
            .map(|i| Point::new((i * 37 % 211) as f64, (i * 53 % 223) as f64))
            .collect();
        let params = BroadcastParams::new(64);
        let tree = RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        let ch = tnn_broadcast::Channel::new(Arc::new(tree), params, 9);
        let q = Point::new(77.0, 133.0);
        let mut heap =
            crate::task::NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 2);
        let mut linear =
            crate::task::LinearNnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 2);
        heap.run_to_completion();
        linear.run_to_completion();
        assert_eq!(heap.peak_memory(), linear.peak_memory());
        assert_eq!(heap.tuner().pages, linear.tuner().pages);
    }

    /// Empty channels error out on every algorithm and both backends —
    /// the degenerate-input regression for the former
    /// `expect("non-empty S")` panics.
    #[test]
    fn empty_channels_error_on_all_algorithms_and_backends() {
        let params = BroadcastParams::new(64);
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i * 7 % 53) as f64, (i * 11 % 59) as f64))
            .collect();
        let full =
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let empty = Arc::new(RTree::empty(params.rtree_params()));
        for (layout, expect_channel) in [
            (vec![Arc::clone(&empty), Arc::clone(&full)], 0usize),
            (vec![Arc::clone(&full), Arc::clone(&empty)], 1),
            (
                vec![Arc::clone(&full), Arc::clone(&empty), Arc::clone(&full)],
                1,
            ),
        ] {
            let k = layout.len();
            let env = MultiChannelEnv::new(layout, params, &vec![0; k]);
            let p = Point::new(10.0, 10.0);
            for alg in Algorithm::ALL {
                let cfg = TnnConfig::exact_for(alg, k);
                let heap = run_query_impl(
                    &env,
                    p,
                    0,
                    &cfg,
                    &mut QueryScratch::<ArrivalHeap>::default(),
                );
                assert_eq!(
                    heap.unwrap_err(),
                    TnnError::EmptyChannel {
                        channel: expect_channel
                    },
                    "heap backend, {}",
                    alg.name()
                );
                let linear = run_query_impl(
                    &env,
                    p,
                    0,
                    &cfg,
                    &mut QueryScratch::<LinearQueue>::default(),
                );
                assert_eq!(
                    linear.unwrap_err(),
                    TnnError::EmptyChannel {
                        channel: expect_channel
                    },
                    "linear backend, {}",
                    alg.name()
                );
            }
        }
    }

    /// Single-point datasets work on every algorithm (no panic, exact
    /// answer) — the other half of the degenerate-input regression.
    #[test]
    fn single_point_channels_answer_exactly() {
        let params = BroadcastParams::new(64);
        let lone_s = vec![Point::new(10.0, 10.0)];
        let lone_r = vec![Point::new(20.0, 10.0)];
        let env = build_env(&[lone_s, lone_r], 64, &[3, 7]);
        let _ = params;
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            for issued_at in [0u64, 99] {
                let run = run_query_impl(
                    &env,
                    Point::new(0.0, 0.0),
                    issued_at,
                    &TnnConfig::exact(alg),
                    &mut QueryScratch::<ArrivalHeap>::default(),
                )
                .unwrap();
                let pair = run.answer().expect("single-point channels still answer");
                let expect = Point::new(0.0, 0.0).dist(Point::new(10.0, 10.0)) + 10.0;
                assert!((pair.dist - expect).abs() < 1e-9, "{}", alg.name());
            }
        }
    }
}
