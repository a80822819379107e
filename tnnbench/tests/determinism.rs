//! The benchmark's own checks: deterministic counters repeat exactly for
//! one seed, a second seed gives other queries over the same data, and
//! the paper's client memory bound holds on `engine-exact`.

#![allow(clippy::disallowed_methods)]

use tnnbench::fixture::{self, queue_bound};
use tnnbench::{engine_exact, serve, shard_skew};

#[test]
fn engine_exact_counters_repeat_for_one_seed() {
    let a = engine_exact::deterministic_counts(&engine_exact::setup(), 7);
    let b = engine_exact::deterministic_counts(&engine_exact::setup(), 7);
    assert_eq!(a, b);
    assert_eq!(a.len(), 6, "every algorithm x k class is counted");
}

#[test]
fn serve_and_shard_counters_repeat_for_one_seed() {
    let counts = |seed: u64| {
        let (trees, _) = fixture::build_trees(2);
        let env = fixture::env_over(&trees);
        (
            fixture::pool_counts(&env, &serve::pool(seed, &env)),
            fixture::pool_counts(&env, &shard_skew::pool(seed, &env)),
        )
    };
    assert_eq!(counts(11), counts(11));
}

#[test]
fn a_second_seed_gives_other_queries_over_the_same_data() {
    let (f1, f2) = (engine_exact::setup(), engine_exact::setup());
    for i in 0..32 {
        let (_, _, q1) = engine_exact::query(&f1, 1, i);
        let (_, _, q2) = engine_exact::query(&f2, 2, i);
        assert_ne!(q1.point(), q2.point(), "query {i}");
    }
    for (t1, t2) in f1.trees.iter().zip(&f2.trees) {
        assert_eq!(t1.content_fingerprint(), t2.content_fingerprint());
    }
    let (p1, p2) = (
        shard_skew::pool(1, &f1.envs[0]),
        shard_skew::pool(2, &f2.envs[0]),
    );
    assert_ne!(p1[0].point(), p2[0].point());
}

/// The paper (§4.2.4) bounds a client's NN-search queue by `(H−1)(M−1)`
/// entries per channel. Checked per hop and per query on the
/// `engine-exact` stream.
#[test]
fn peak_queue_respects_the_paper_bound_on_engine_exact() {
    let f = engine_exact::setup();
    let mut scratch = f.engines[0].scratch();
    let mut worst = (0u64, 0u64, 0u64);
    let mut violations = 0;
    for i in 0..600 {
        let (e, _, q) = engine_exact::query(&f, 3, i);
        let outcome = f.engines[e].run_with(&q, &mut scratch).unwrap();
        for (c, cost) in outcome.channels.iter().enumerate() {
            let bound = queue_bound(&f.envs[e], c);
            if cost.peak_queue > bound {
                violations += 1;
                if cost.peak_queue * worst.2.max(1) > worst.1 * bound {
                    worst = (i, cost.peak_queue, bound);
                }
            }
        }
    }
    assert_eq!(
        violations, 0,
        "{violations} hops exceed (H-1)(M-1); worst: query {} peak_queue {} vs bound {}",
        worst.0, worst.1, worst.2
    );
}
