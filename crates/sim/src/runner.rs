//! The query-batch runner: the paper's methodology (§6) as an engine.
//!
//! For one configuration (datasets, page capacity, algorithm, ANN modes)
//! it executes `N` queries. Per query, a point is drawn uniformly over
//! the evaluation region and **each channel gets an independent random
//! phase** — the paper's "two random numbers are generated to simulate
//! the waiting time to get the two roots". Queries are deterministic in
//! the seed and identical across algorithm configurations, so algorithm
//! comparisons are paired.
//!
//! ## Performance shape
//!
//! All batches are driven through one shared [`QueryEngine`]; work is
//! spread over all CPUs in contiguous chunks, and each worker thread owns
//! one [`QueryScratch`] passed to [`QueryEngine::run_with`], so the
//! per-query hot path performs no buffer allocations after the first
//! query has grown them. Per-query phase randomization rides the engine's
//! `PhaseOverlay` — no channel vector is cloned per query (the former
//! `with_phases` hot-path cost). Per-query
//! metric samples are written into a pre-sized slot array and reduced
//! **in query order**, making every [`BatchStats`] bit-identical for a
//! fixed seed regardless of thread count or scheduling — which is also
//! what lets the `linear-reference` equivalence gate demand exact equality.

use crate::metrics::{QuerySample, StatsAccumulator};
use crate::BatchStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{
    exact_chain_tnn, exact_tnn, AnnMode, CandidateQueue, Query, QueryEngine, QueryScratch,
    TnnConfig,
};
use tnn_geom::{Point, Rect};
use tnn_rtree::RTree;

/// Tolerance when comparing an algorithm's answer against the oracle: an
/// answer farther than this (relatively) counts as failed.
const FAIL_EPS: f64 = 1e-6;

/// One batch to execute.
#[derive(Clone)]
pub struct BatchConfig {
    /// Broadcast parameters (page capacity, interleaving, object size).
    pub params: BroadcastParams,
    /// Query-processing configuration.
    pub tnn: TnnConfig,
    /// Number of queries (the paper uses 1,000).
    pub queries: usize,
    /// Batch seed; queries and phases derive deterministically from it.
    pub seed: u64,
    /// Compare every answer against the exact oracle (needed for fail
    /// rates; costs one in-memory TNN per query).
    pub check_oracle: bool,
}

/// Reads the batch size from `TNN_QUERIES` (default 1,000 — the paper's
/// query count per configuration).
pub fn queries_per_batch() -> usize {
    std::env::var("TNN_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000)
}

fn worker_threads(queries: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(queries.max(1))
}

/// Shared parallel scaffolding of the batch runners: splits `queries`
/// into contiguous chunks across all CPUs, runs `run_one(query_index,
/// slot)` per query, and reduces the samples **in query order** — so
/// every [`BatchStats`] is bit-identical for a fixed seed regardless of
/// thread count or scheduling.
fn run_samples(queries: usize, run_chunk: impl Fn(usize, &mut [QuerySample]) + Sync) -> BatchStats {
    let threads = worker_threads(queries);
    let chunk_len = queries.div_ceil(threads.max(1)).max(1);
    let mut samples = vec![QuerySample::default(); queries];
    std::thread::scope(|scope| {
        for (t, chunk) in samples.chunks_mut(chunk_len).enumerate() {
            let run_chunk = &run_chunk;
            scope.spawn(move || run_chunk(t * chunk_len, chunk));
        }
    });
    let mut acc = StatsAccumulator::default();
    for s in &samples {
        acc.record_sample(s);
    }
    acc.finish()
}

/// Executes one batch of TNN queries over `(s_tree, r_tree)` and
/// aggregates the paper's metrics — the paper's two-channel workload,
/// a thin wrapper over the k-ary [`run_tnn_batch`]. Work is spread over
/// all CPUs; results are bit-identical in the seed regardless of thread
/// count.
pub fn run_batch(
    s_tree: &Arc<RTree>,
    r_tree: &Arc<RTree>,
    region: &Rect,
    cfg: &BatchConfig,
) -> BatchStats {
    run_tnn_batch_impl::<tnn_core::ArrivalHeap>(
        &[Arc::clone(s_tree), Arc::clone(r_tree)],
        region,
        cfg,
    )
}

/// Executes one batch of TNN queries over `k ≥ 2` trees, one broadcast
/// channel per tree — the channel-count axis of the evaluation. The
/// configured algorithm runs the generalized `k`-hop pipeline;
/// `cfg.tnn.ann` must hold one mode per channel (see
/// [`TnnConfig::exact_for`]). With `check_oracle` every answer is
/// verified against the exact chain oracle.
///
/// Parallelized like [`run_batch`]: contiguous chunks across all CPUs
/// with an in-order reduction, bit-identical in the seed regardless of
/// thread count.
pub fn run_tnn_batch(trees: &[Arc<RTree>], region: &Rect, cfg: &BatchConfig) -> BatchStats {
    run_tnn_batch_impl::<tnn_core::ArrivalHeap>(trees, region, cfg)
}

/// [`run_batch`] over the paper-literal pre-optimization hot path:
/// linear-scan candidate queues (O(n) per queue operation, eager purge
/// rescans) and fresh per-query buffer allocations, exactly as the
/// original implementation behaved. Identical workload and (by
/// construction) identical [`BatchStats`]. Only for the equivalence gate.
#[cfg(feature = "linear-reference")]
pub fn run_batch_linear(
    s_tree: &Arc<RTree>,
    r_tree: &Arc<RTree>,
    region: &Rect,
    cfg: &BatchConfig,
) -> BatchStats {
    run_tnn_batch_impl::<tnn_core::LinearQueue>(
        &[Arc::clone(s_tree), Arc::clone(r_tree)],
        region,
        cfg,
    )
}

fn run_tnn_batch_impl<Q: CandidateQueue>(
    trees: &[Arc<RTree>],
    region: &Rect,
    cfg: &BatchConfig,
) -> BatchStats {
    let engine = QueryEngine::<Q>::with_queue_backend(MultiChannelEnv::new(
        trees.to_vec(),
        cfg.params,
        &vec![0; trees.len()],
    ));
    run_samples(cfg.queries, |first, chunk| {
        // The production backend reuses one scratch per worker (zero
        // buffer allocations per query); the linear reference allocates
        // fresh buffers per query like the pre-optimization
        // implementation did. Scratch handling is invisible to results
        // either way.
        let mut scratch = QueryScratch::<Q>::default();
        let mut phases: Vec<u64> = Vec::with_capacity(engine.channels());
        for (j, slot) in chunk.iter_mut().enumerate() {
            if Q::IS_REFERENCE {
                scratch = QueryScratch::<Q>::default();
            }
            *slot = run_one(
                &engine,
                region,
                cfg,
                (first + j) as u64,
                &mut scratch,
                &mut phases,
            );
        }
    })
}

fn run_one<Q: CandidateQueue>(
    engine: &QueryEngine<Q>,
    region: &Rect,
    cfg: &BatchConfig,
    query_index: u64,
    scratch: &mut QueryScratch<Q>,
    phases: &mut Vec<u64>,
) -> QuerySample {
    // Per-query randomness independent of the algorithm configuration, so
    // different algorithms see identical workloads.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ query_index.wrapping_mul(0x9E3779B97F4A7C15));
    let p = Point::new(
        rng.gen_range(region.min.x..=region.max.x),
        rng.gen_range(region.min.y..=region.max.y),
    );
    let env = engine.env();
    // Per-query phases go through the engine's `PhaseOverlay`: nothing is
    // cloned — the old `env.with_phases(&phases)` materialized a fresh
    // channel vector on every query of every batch. One independent
    // random phase per channel, drawn in channel order (so the k = 2
    // case reproduces the paper's "two random numbers" bit-for-bit).
    phases.clear();
    phases.extend(
        env.channels()
            .iter()
            .map(|c| rng.gen_range(0..c.layout().cycle_len().max(1))),
    );
    let query = Query::tnn(p)
        .algorithm(cfg.tnn.algorithm)
        .ann_modes(&cfg.tnn.ann)
        .retrieve_answer_objects(cfg.tnn.retrieve_answer_objects)
        .phases(phases);

    let run = engine
        .run_with(&query, scratch)
        .expect("k >= 2 channels, finite query");
    let no_answer = run.failed();
    let failed = if cfg.check_oracle {
        match run.total_dist {
            None => true,
            Some(dist) => {
                let oracle = if engine.channels() == 2 {
                    exact_tnn(p, env.channel(0).tree(), env.channel(1).tree()).dist
                } else {
                    let trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
                    exact_chain_tnn(p, &trees).1
                };
                dist > oracle * (1.0 + FAIL_EPS) + FAIL_EPS
            }
        }
    } else {
        no_answer
    };
    QuerySample {
        access: run.access_time(),
        tune_in: run.tune_in(),
        tune_estimate: run.tune_in_estimate(),
        tune_filter: run.tune_in_filter(),
        radius: run.search_radius,
        candidates: run.total_candidates(),
        no_answer,
        failed,
    }
}

/// Executes one batch of **chained** TNN queries over `k` trees (the
/// future-work extension); reports the same aggregate metrics (fail rate
/// is always 0 — the chained estimate is exact by construction).
///
/// Parallelized the same way as [`run_batch`]: contiguous chunks across
/// all CPUs with an in-order reduction, so results are bit-identical in
/// the seed regardless of thread count.
pub fn run_chain_batch(
    trees: &[Arc<RTree>],
    region: &Rect,
    params: BroadcastParams,
    ann: AnnMode,
    queries: usize,
    seed: u64,
) -> BatchStats {
    let engine = QueryEngine::new(MultiChannelEnv::new(
        trees.to_vec(),
        params,
        &vec![0; trees.len()],
    ));
    run_samples(queries, |first, chunk| {
        let mut scratch = QueryScratch::default();
        // Reused per worker; the per-query engine overlay copies it into
        // inline storage, so no channel vector is cloned per query.
        let mut phases: Vec<u64> = Vec::with_capacity(engine.channels());
        for (j, slot) in chunk.iter_mut().enumerate() {
            let i = (first + j) as u64;
            let mut rng = StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E3779B97F4A7C15));
            let p = Point::new(
                rng.gen_range(region.min.x..=region.max.x),
                rng.gen_range(region.min.y..=region.max.y),
            );
            phases.clear();
            phases.extend(
                engine
                    .env()
                    .channels()
                    .iter()
                    .map(|c| rng.gen_range(0..c.layout().cycle_len().max(1))),
            );
            let query = Query::chain(p).ann(ann).phases(&phases);
            let run = engine
                .run_with(&query, &mut scratch)
                .expect("valid chain environment");
            *slot = QuerySample {
                access: run.access_time(),
                tune_in: run.tune_in(),
                tune_estimate: run.tune_in_estimate(),
                tune_filter: run.tune_in_filter(),
                radius: run.search_radius,
                candidates: 0,
                no_answer: false,
                failed: false,
            };
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_core::Algorithm;
    use tnn_datasets::uniform_points;
    use tnn_rtree::PackingAlgorithm;

    fn tree(n: usize, seed: u64, params: &BroadcastParams) -> Arc<RTree> {
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let pts = uniform_points(n, &region, seed);
        Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
    }

    #[test]
    fn batch_is_deterministic_across_thread_schedules() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let s = tree(150, 1, &params);
        let r = tree(120, 2, &params);
        let cfg = BatchConfig {
            params,
            tnn: TnnConfig::exact(Algorithm::DoubleNn),
            queries: 40,
            seed: 99,
            check_oracle: true,
        };
        let a = run_batch(&s, &r, &region, &cfg);
        let b = run_batch(&s, &r, &region, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.queries, 40);
        assert_eq!(a.fail_rate, 0.0, "exact algorithm must never fail");
        assert!(a.mean_access > 0.0);
        assert!(a.mean_tune_in > 0.0);
    }

    #[test]
    fn exact_algorithms_never_fail_in_batches() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let s = tree(100, 3, &params);
        let r = tree(200, 4, &params);
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let cfg = BatchConfig {
                params,
                tnn: TnnConfig::exact(alg),
                queries: 25,
                seed: 7,
                check_oracle: true,
            };
            let stats = run_batch(&s, &r, &region, &cfg);
            assert_eq!(stats.fail_rate, 0.0, "{}", alg.name());
        }
    }

    // The heap-vs-linear BatchStats equality gate lives in
    // crates/bench/tests/linear_equivalence.rs, where the
    // `linear-reference` feature is always enabled.

    #[test]
    fn k_channel_tnn_batches_run_and_are_deterministic() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        for k in [2usize, 3, 4] {
            let trees: Vec<Arc<RTree>> = (0..k)
                .map(|i| tree(60 + 20 * i, 40 + i as u64, &params))
                .collect();
            for alg in [Algorithm::DoubleNn, Algorithm::HybridNn] {
                let cfg = BatchConfig {
                    params,
                    tnn: TnnConfig::exact_for(alg, k),
                    queries: 16,
                    seed: 0xA1,
                    check_oracle: true,
                };
                let a = run_tnn_batch(&trees, &region, &cfg);
                let b = run_tnn_batch(&trees, &region, &cfg);
                assert_eq!(a, b, "{} k={k}", alg.name());
                assert_eq!(a.queries, 16);
                assert_eq!(a.fail_rate, 0.0, "{} k={k}", alg.name());
                assert!(a.mean_tune_in > 0.0);
            }
        }
    }

    #[test]
    fn two_channel_wrapper_equals_k_ary_runner() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let s = tree(120, 51, &params);
        let r = tree(90, 52, &params);
        let cfg = BatchConfig {
            params,
            tnn: TnnConfig::exact(Algorithm::HybridNn),
            queries: 20,
            seed: 7,
            check_oracle: false,
        };
        let wrapped = run_batch(&s, &r, &region, &cfg);
        let k_ary = run_tnn_batch(&[Arc::clone(&s), Arc::clone(&r)], &region, &cfg);
        assert_eq!(wrapped, k_ary);
    }

    #[test]
    fn chain_batch_runs() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let trees = vec![
            tree(50, 5, &params),
            tree(60, 6, &params),
            tree(40, 7, &params),
        ];
        let stats = run_chain_batch(&trees, &region, params, AnnMode::Exact, 10, 3);
        assert_eq!(stats.queries, 10);
        assert_eq!(stats.fail_rate, 0.0);
        assert!(stats.mean_tune_in > 0.0);
    }

    #[test]
    fn chain_batch_is_deterministic() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let trees = vec![tree(80, 8, &params), tree(70, 9, &params)];
        let a = run_chain_batch(&trees, &region, params, AnnMode::Exact, 24, 5);
        let b = run_chain_batch(&trees, &region, params, AnnMode::Exact, 24, 5);
        assert_eq!(a, b);
        assert_eq!(a.queries, 24);
    }

    #[test]
    fn queries_per_batch_env_override() {
        // Can't mutate the environment safely in parallel tests; just
        // check the default path parses.
        let n = queries_per_batch();
        assert!(n > 0);
    }
}
