//! Load generator for the `tnn-serve` front-end: measures serving
//! throughput, latency percentiles, cache effectiveness, and
//! deadline-miss behaviour against the batch-runner ceiling and writes a
//! `BENCH_<tag>.json` trajectory point.
//!
//! Phases (k = 2, 3, 4 by default, override with positional arguments):
//!
//! 1. **Closed loop** (per k) — the run_tnn_batch workload (Hybrid-NN,
//!    identical per-query rng streams) pushed through a 1-worker server
//!    via `submit_batch` with the cache disabled; its throughput is
//!    compared against a direct `run_tnn_batch` of the same queries (the
//!    serving overhead must be small — the acceptance gate wants the
//!    1-worker path within 15% on a single-CPU host).
//! 2. **Open loop** (per k) — Poisson-ish arrivals (exponential
//!    inter-arrival times from the rand shim) at ~70% of measured
//!    capacity, mixing **all four algorithms**, against a multi-worker
//!    `Reject` server, cache disabled; `Ticket::latency()` p50/p99.
//! 3. **Zipf cache axis** (per k) — a skewed repeat-query workload
//!    (`TNN_POOL` distinct queries, Zipf exponent `TNN_ZIPF`) served
//!    cold through an uncached and a cached server; reports the cache
//!    speedup and hit rate, and **asserts a nonzero hit rate** (the CI
//!    smoke gate).
//! 4. **Deadline axis** (k = 2) — saturating bursts of mixed tight/
//!    generous deadlines against a `Shed` server, once per shed
//!    discipline; reports the client-observed deadline-miss rate of
//!    expiry-aware shedding vs. the old shed-oldest.
//! 5. **Ablation** (k = 2) — the deferred `batch_window` ×
//!    `queue_capacity` grid: closed-loop throughput per combination.
//! 6. **Shard axis** (k = 2, `--shards` only) — spatially skewed Zipf
//!    traffic (the hot head of the query pool lives in one corner cell)
//!    pushed by concurrent clients through a [`tnn_shard::ShardRouter`]
//!    over the shard-count × replication grid, with a deliberately tiny
//!    per-replica queue under `Reject` backpressure. Reports throughput,
//!    scatter rejections, fallbacks, the gather prune rate, and spawned
//!    replicas per configuration; the binary *asserts* a nonzero gather
//!    prune rate on the ≥ 4-shard grids — this is the CI shard smoke
//!    gate — and the single-copy vs replicated rejection counts show
//!    hot-shard replication absorbing the skew.
//! 7. **Chaos axis** (k = 2, `--faults` only) — a mixed-priority
//!    workload through [`Server::spawn_with_faults`] under a nonzero
//!    fault schedule (channel drops + jitter, a periodic outage, an
//!    injected engine panic, and two worker kills). The binary itself
//!    *asserts* zero lost tickets and nonzero `worker_restarts` — this
//!    is the CI chaos smoke gate — and reports per-class p50/p99 from
//!    the server-side [`tnn_serve::ServeStats`] latency histograms.
//! 8. **Churn axis** (k = 2, `--churn` only) — a skewed repeat-query
//!    workload against a caching server whose environment
//!    is swapped (`Server::swap_env`) between rounds: every channel's
//!    data is replaced and the epoch bumped. The binary *asserts* — the
//!    CI churn smoke gate — that the epoch actually advanced, that the
//!    cache was exercised (nonzero hits), and that **zero** served
//!    answers diverge from a fresh reference engine over the
//!    then-current environment (a stale cache entry surviving a swap
//!    would fail the count).
//!
//! 9. **Trace axis** (k = 2, `--trace` only) — a skewed repeat-query
//!    workload through a traced, caching server
//!    ([`tnn_serve::TraceConfig::on`]). The binary *asserts* — the CI
//!    observability smoke gate — that the flight recorder retained
//!    traces, that every retained trace carries stamped spans whose sum
//!    reconciles with the recorded end-to-end latency to within one
//!    log₂ histogram bucket (totals under 16 µs are skipped: all seam),
//!    and that the rendered Prometheus snapshot's per-class completion
//!    counters conserve the server's own completion count.
//!
//! ```sh
//! cargo run --release -p tnn-sim --bin serve_load -- --tag pr7 --faults --shards --churn --trace 2 3 4
//! ```
//!
//! Environment knobs: `TNN_QUERIES` (closed-loop batch size, default
//! 1,000), `TNN_LOAD_POINTS` (points per channel, default 10,000),
//! `TNN_LOAD_SECS` (open-loop duration per k, default 2),
//! `TNN_BENCH_REPS` (min-of-reps, default 3), `TNN_POOL` (Zipf pool
//! size, default 200), `TNN_ZIPF` (Zipf exponent, default 1.1),
//! `TNN_SHARD_QUERIES` (shard-axis workload size, default 400),
//! `TNN_CHAOS_QUERIES` (chaos-axis workload size, default 300),
//! `TNN_CHURN_QUERIES` (churn-axis queries per epoch, default 240), and
//! `TNN_TRACE_QUERIES` (trace-axis workload size, default 300).

#![forbid(unsafe_code)]
// R1-approved timing module (see check/r1.allow): wall-clock calls are
// deliberate here, so the clippy mirror of the rule is waived file-wide.
#![allow(clippy::disallowed_methods)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, Query, TnnConfig, TnnError};
use tnn_datasets::{paper_region, uniform_points};
use tnn_geom::{Point, Rect};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, ChannelFaults, Degradation, FaultPlan, MetricsRegistry, Priority,
    Qos, RetryPolicy, ServeConfig, Server, ShedDiscipline, ShutdownMode, TraceConfig,
};
use tnn_shard::{ShardConfig, ShardRouter};
use tnn_sim::{format_table, run_tnn_batch, BatchConfig, Table, ZipfSampler};

const SEED_GAMMA: u64 = 0x9E3779B97F4A7C15;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The exact per-query workload of `run_tnn_batch`'s `run_one`: point
/// and per-channel phases from the seed-premixed per-query stream, so
/// the served batch is the batch runner's workload query for query.
fn batch_query(
    region: &Rect,
    cycle_lens: &[u64],
    seed: u64,
    index: u64,
    algorithm: Algorithm,
) -> Query {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(SEED_GAMMA));
    let p = tnn_geom::Point::new(
        rng.gen_range(region.min.x..=region.max.x),
        rng.gen_range(region.min.y..=region.max.y),
    );
    let phases: Vec<u64> = cycle_lens
        .iter()
        .map(|&len| rng.gen_range(0..len.max(1)))
        .collect();
    Query::tnn(p).algorithm(algorithm).phases(&phases)
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Minimal `BENCH_*.json` writer (format-identical to
/// `tnn-bench::write_bench_json`; duplicated here because `tnn-bench`
/// depends on this crate).
fn write_bench_json(
    path: &std::path::Path,
    tag: &str,
    workload: &str,
    records: &[(String, f64, u64)],
    derived: &[(String, f64)],
) -> std::io::Result<()> {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"tag\": \"{}\",", esc(tag))?;
    writeln!(f, "  \"workload\": \"{}\",", esc(workload))?;
    writeln!(f, "  \"benchmarks\": [")?;
    for (i, (id, ns, iters)) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"id\": \"{}\", \"ns_per_iter\": {ns:.1}, \"iters\": {iters}}}{comma}",
            esc(id)
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"derived\": {{")?;
    for (i, (k, v)) in derived.iter().enumerate() {
        let comma = if i + 1 < derived.len() { "," } else { "" };
        writeln!(f, "    \"{}\": {v:.4}{comma}", esc(k))?;
    }
    writeln!(f, "  }}")?;
    writeln!(f, "}}")
}

/// Pushes `workload` through a fresh 1-worker server (cold cache) and
/// returns the elapsed nanoseconds plus the server's final stats.
fn closed_loop_once(
    env: &tnn_broadcast::MultiChannelEnv,
    workload: &[Query],
    cache: CacheConfig,
) -> (f64, tnn_serve::ServeStats) {
    let server = Server::spawn(
        env.clone(),
        ServeConfig::new()
            .workers(1)
            .queue_capacity(workload.len())
            .backpressure(Backpressure::Block)
            .cache(cache)
            .batch_window(32),
    );
    let t0 = Instant::now();
    let tickets = server.submit_batch(workload.to_vec());
    // Wait in reverse submission order: completions are FIFO, so
    // blocking on the *last* ticket sleeps exactly once instead of
    // ping-ponging worker and collector on every resolve.
    for ticket in tickets.into_iter().rev() {
        ticket
            .expect("capacity covers the batch")
            .wait()
            .expect("closed-loop queries are valid");
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "closed loop lost tickets: {stats:?}");
    (elapsed, stats)
}

fn main() {
    let mut tag = String::from("pr5");
    let mut ks: Vec<usize> = Vec::new();
    let mut faults = false;
    let mut shards_axis = false;
    let mut churn = false;
    let mut trace_axis = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--tag" {
            tag = args.next().expect("--tag needs a value");
        } else if arg == "--faults" {
            faults = true;
        } else if arg == "--shards" {
            shards_axis = true;
        } else if arg == "--churn" {
            churn = true;
        } else if arg == "--trace" {
            trace_axis = true;
        } else if let Ok(k) = arg.parse::<usize>() {
            assert!(k >= 2, "TNN needs at least two channels");
            ks.push(k);
        } else {
            panic!(
                "unknown argument {arg:?} \
                 (usage: serve_load [--tag T] [--faults] [--shards] [--churn] [--trace] [k...])"
            );
        }
    }
    if ks.is_empty() {
        ks = vec![2, 3, 4];
    }
    let queries = env_usize("TNN_QUERIES", 1_000);
    let points = env_usize("TNN_LOAD_POINTS", 10_000);
    let open_secs = env_f64("TNN_LOAD_SECS", 2.0);
    let reps = env_usize("TNN_BENCH_REPS", 3).max(1);
    let pool_size = env_usize("TNN_POOL", 200).max(1);
    let zipf_s = env_f64("TNN_ZIPF", 1.1);
    let open_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "serve_load: {queries} queries/batch over {points} points/channel, k = {ks:?}, \
         {reps} reps, {open_secs} s open loop ({open_workers} workers), \
         Zipf({zipf_s}) over a {pool_size}-query pool"
    );

    let params = BroadcastParams::new(64);
    let region = paper_region();
    let mut table = Table::new(
        "tnn-serve load: closed-loop vs batch runner, open-loop latency, Zipf cache axis",
        &[
            "k",
            "batch [q/s]",
            "serve 1w [q/s]",
            "serve/batch",
            "p50 [ms]",
            "p99 [ms]",
            "rejected",
            "cache speedup",
            "hit rate",
        ],
    );
    let mut records: Vec<(String, f64, u64)> = Vec::new();
    let mut derived: Vec<(String, f64)> = Vec::new();
    let mut k2_serve_qps = 0.0f64;
    let mut k2_env = None;
    let mut k2_workload = Vec::new();

    for &k in &ks {
        let trees: Vec<Arc<RTree>> = (0..k)
            .map(|i| {
                let pts = uniform_points(points, &region, 10 + i as u64);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let seed = 0xF19 + k as u64;
        let cfg = BatchConfig {
            params,
            tnn: TnnConfig::exact_for(Algorithm::HybridNn, k),
            queries,
            seed,
            check_oracle: false,
        };

        // --- Closed loop: direct batch runner (the throughput ceiling).
        run_tnn_batch(&trees, &region, &cfg); // warm-up
        let mut batch_ns = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(run_tnn_batch(&trees, &region, &cfg));
            batch_ns = batch_ns.min(t0.elapsed().as_nanos() as f64);
        }
        let batch_qps = queries as f64 / (batch_ns / 1e9);

        // --- Closed loop: the same workload through a 1-worker server,
        // cache disabled (every query distinct anyway — this measures
        // pure serving overhead, comparable with the pr4 trajectory).
        let env = tnn_broadcast::MultiChannelEnv::new(trees.clone(), params, &vec![0; k]);
        let cycle_lens: Vec<u64> = env
            .channels()
            .iter()
            .map(|c| c.layout().cycle_len())
            .collect();
        let workload: Vec<Query> = (0..queries as u64)
            .map(|i| batch_query(&region, &cycle_lens, seed, i, Algorithm::HybridNn))
            .collect();
        let mut serve_ns = f64::INFINITY;
        for _ in 0..reps {
            let (elapsed, _) = closed_loop_once(&env, &workload, CacheConfig::disabled());
            serve_ns = serve_ns.min(elapsed);
        }
        let serve_qps = queries as f64 / (serve_ns / 1e9);
        let ratio = serve_qps / batch_qps;
        if k == 2 {
            k2_serve_qps = serve_qps;
            k2_env = Some(env.clone());
            k2_workload = workload.clone();
        }

        // --- Open loop: Poisson-ish arrivals at ~70% capacity, all four
        // algorithms, multi-worker, Reject backpressure, no cache.
        let server = Server::spawn(
            env.clone(),
            ServeConfig::new()
                .workers(open_workers)
                .queue_capacity(256)
                .backpressure(Backpressure::Reject)
                .cache(CacheConfig::disabled())
                .batch_window(16),
        );
        let rate = (serve_qps * 0.7).max(1.0); // arrivals per second
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        let mut offered = 0u64;
        let t0 = Instant::now();
        let mut next_arrival = Duration::ZERO;
        while next_arrival.as_secs_f64() < open_secs {
            // Exponential inter-arrival gap (guard u = 0 → ln(0)).
            let u: f64 = rng.gen::<f64>().max(1e-12);
            next_arrival += Duration::from_secs_f64((-u.ln() / rate).min(open_secs));
            while t0.elapsed() < next_arrival {
                std::thread::sleep(Duration::from_micros(50));
            }
            let alg = match rng.gen_range(0u32..4) {
                0 => Algorithm::WindowBased,
                1 => Algorithm::ApproximateTnn,
                2 => Algorithm::DoubleNn,
                _ => Algorithm::HybridNn,
            };
            offered += 1;
            match server.submit(batch_query(
                &region,
                &cycle_lens,
                seed ^ 0x0BE1,
                offered,
                alg,
            )) {
                Ok(t) => tickets.push(t),
                Err(_) => rejected += 1,
            }
        }
        let stats = server.shutdown(ShutdownMode::Drain);
        assert!(stats.conserved(), "open loop lost tickets: {stats:?}");
        let mut latencies: Vec<Duration> = tickets
            .iter()
            .map(|t| t.latency().expect("drained tickets are resolved"))
            .collect();
        latencies.sort_unstable();
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);

        // --- Zipf cache axis: a skewed repeat-query workload, cold
        // through an uncached and then a cached server (min over reps,
        // fresh server each rep so both start cold).
        let pool: Vec<Query> = (0..pool_size as u64)
            .map(|i| batch_query(&region, &cycle_lens, seed ^ 0x21BF, i, Algorithm::HybridNn))
            .collect();
        let zipf = ZipfSampler::new(pool_size, zipf_s);
        let mut zrng = StdRng::seed_from_u64(seed ^ 0x51CC);
        let skewed: Vec<Query> = (0..queries)
            .map(|_| pool[zipf.sample(&mut zrng)].clone())
            .collect();
        let mut uncached_ns = f64::INFINITY;
        let mut cached_ns = f64::INFINITY;
        let mut cached_stats = None;
        for _ in 0..reps {
            let (elapsed, _) = closed_loop_once(&env, &skewed, CacheConfig::disabled());
            uncached_ns = uncached_ns.min(elapsed);
            let (elapsed, stats) =
                closed_loop_once(&env, &skewed, CacheConfig::new().capacity(2 * pool_size));
            cached_ns = cached_ns.min(elapsed);
            cached_stats = Some(stats);
        }
        let cached_stats = cached_stats.expect("at least one rep");
        let speedup = uncached_ns / cached_ns;
        let hit_rate = cached_stats.cache_hit_rate();
        // The CI smoke gate: a skewed workload over a pool smaller than
        // the batch *must* hit — repeats queued behind their first
        // occurrence hit the dequeue-time probe deterministically.
        assert!(
            cached_stats.cache_hits > 0,
            "skewed workload produced no cache hits: {cached_stats:?}"
        );

        table.push_row(vec![
            k.to_string(),
            format!("{batch_qps:.0}"),
            format!("{serve_qps:.0}"),
            format!("{ratio:.3}"),
            format!("{:.3}", p50.as_secs_f64() * 1e3),
            format!("{:.3}", p99.as_secs_f64() * 1e3),
            rejected.to_string(),
            format!("{speedup:.2}x"),
            format!("{:.3}", hit_rate),
        ]);
        records.push((
            format!("serve/hybrid_{queries}q/k{k}_batch"),
            batch_ns,
            reps as u64,
        ));
        records.push((
            format!("serve/hybrid_{queries}q/k{k}_serve_1w"),
            serve_ns,
            reps as u64,
        ));
        records.push((
            format!("serve/zipf_{queries}q/k{k}_uncached"),
            uncached_ns,
            reps as u64,
        ));
        records.push((
            format!("serve/zipf_{queries}q/k{k}_cached"),
            cached_ns,
            reps as u64,
        ));
        derived.push((format!("k{k}_batch_qps"), batch_qps));
        derived.push((format!("k{k}_serve_1w_qps"), serve_qps));
        derived.push((format!("k{k}_serve_vs_batch"), ratio));
        derived.push((format!("k{k}_open_offered_qps"), rate));
        derived.push((format!("k{k}_open_completed"), latencies.len() as f64));
        derived.push((format!("k{k}_open_rejected"), rejected as f64));
        derived.push((format!("k{k}_open_p50_ms"), p50.as_secs_f64() * 1e3));
        derived.push((format!("k{k}_open_p99_ms"), p99.as_secs_f64() * 1e3));
        // Server-side histogram of the same completions (open-loop
        // traffic is all Batch class) — the in-server view to hold
        // against the client-observed ticket latencies above.
        let server_lat = &stats.class(Priority::Batch).latency;
        derived.push((
            format!("k{k}_open_server_p50_ms"),
            server_lat.p50().as_secs_f64() * 1e3,
        ));
        derived.push((
            format!("k{k}_open_server_p99_ms"),
            server_lat.p99().as_secs_f64() * 1e3,
        ));
        derived.push((format!("k{k}_zipf_cache_speedup"), speedup));
        derived.push((format!("k{k}_zipf_hit_rate"), hit_rate));
    }

    println!("{}", format_table(&table));

    // --- Deadline axis (k = 2): saturating bursts of mixed tight and
    // generous deadlines against a Shed server, once per discipline.
    // Self-calibrated against the measured 1-worker capacity so the
    // tight TTL genuinely expires inside a full queue while the
    // generous one comfortably outlives it, whatever this host's speed.
    // The shed discipline matters exactly when *viable* work shares the
    // lane with *aged* dead weight as fresh pressure arrives. Each round
    // reproduces the regression scenario at benchmark scale: a standing
    // backlog of generous-deadline work the worker is still serving, a
    // block of ultra-short-TTL probes queued behind it (dead long before
    // a worker could reach them — their misses are sunk either way),
    // then a renewed burst of viable work that overflows the lane.
    // Expiry-aware shedding spends every eviction on a corpse; shed-
    // oldest spends them on the viable front of the lane. Timings
    // self-calibrate against the measured 1-worker capacity so the
    // phase structure holds whatever this host's speed.
    if let Some(env) = &k2_env {
        let gen_block = 80usize; // standing viable backlog per round
        let tight_block = 40usize; // short-TTL probes (die in the queue)
        let storm_block = 40usize; // renewed viable pressure → overflow
        let qcap = gen_block + tight_block - 10;
        let service = 1.0 / k2_serve_qps.max(1.0); // seconds per query
                                                   // The storm lands while the worker is still inside the generous
                                                   // backlog (robust to ~3× sleep overshoot: 0.3 × 80 drains 24 of
                                                   // 80 nominally) but well after the probes died.
        let storm_delay = Duration::from_secs_f64(0.3 * gen_block as f64 * service);
        let tight = Duration::from_secs_f64(0.4 * storm_delay.as_secs_f64());
        let generous = Duration::from_secs_f64(2000.0 * service);
        let drain_gap = Duration::from_secs_f64((gen_block + storm_block + 10) as f64 * service);
        let per_round = gen_block + tight_block + storm_block;
        let rounds = (queries / per_round).max(25);
        let cycle_lens: Vec<u64> = env
            .channels()
            .iter()
            .map(|c| c.layout().cycle_len())
            .collect();
        let mut dtable = Table::new(
            "deadline-miss rate under saturation (k = 2, Shed policy, mixed TTLs)",
            &[
                "shed discipline",
                "offered",
                "completed",
                "missed",
                "miss rate",
                "generous missed",
                "generous miss rate",
            ],
        );
        let mut miss_rates = Vec::new();
        for (label, discipline) in [
            ("expired-first", ShedDiscipline::ExpiredFirst),
            ("oldest-first", ShedDiscipline::OldestFirst),
        ] {
            let server = Server::spawn(
                env.clone(),
                ServeConfig::new()
                    .workers(1)
                    .queue_capacity(qcap)
                    .backpressure(Backpressure::Shed)
                    .shed_discipline(discipline)
                    .cache(CacheConfig::disabled())
                    .batch_window(4),
            );
            let mut tickets: Vec<(tnn_serve::Ticket, Duration)> = Vec::new();
            let mut index = 0u64;
            let mut block = |server: &Server, n: usize, ttl: Duration| {
                let submissions: Vec<(Query, Qos)> = (0..n)
                    .map(|_| {
                        index += 1;
                        let query =
                            batch_query(&region, &cycle_lens, 0xDEAD, index, Algorithm::HybridNn);
                        (query, Qos::new().deadline_in(ttl))
                    })
                    .collect();
                server
                    .submit_batch_qos(submissions)
                    .into_iter()
                    .map(|t| (t.expect("Shed never refuses"), ttl))
                    .collect::<Vec<_>>()
            };
            for _ in 0..rounds {
                tickets.extend(block(&server, gen_block, generous));
                tickets.extend(block(&server, tight_block, tight));
                std::thread::sleep(storm_delay);
                tickets.extend(block(&server, storm_block, generous));
                std::thread::sleep(drain_gap);
            }
            let offered = tickets.len();
            let mut missed = 0usize;
            let mut completed = 0usize;
            let mut generous_missed = 0usize;
            let mut generous_offered = 0usize;
            for (ticket, ttl) in &tickets {
                let is_generous = *ttl == generous;
                generous_offered += is_generous as usize;
                let miss = match ticket.wait() {
                    Ok(_) => {
                        completed += 1;
                        ticket.latency().expect("resolved") > *ttl
                    }
                    Err(TnnError::DeadlineExceeded) | Err(TnnError::Overloaded) => true,
                    Err(other) => panic!("unexpected outcome {other:?}"),
                };
                missed += miss as usize;
                generous_missed += (miss && is_generous) as usize;
            }
            let stats = server.shutdown(ShutdownMode::Drain);
            assert!(stats.conserved(), "deadline axis lost tickets: {stats:?}");
            eprintln!(
                "deadline axis [{label}]: completed={} shed={} expired={}",
                stats.completed, stats.shed, stats.expired
            );
            let miss_rate = missed as f64 / offered as f64;
            let generous_rate = generous_missed as f64 / generous_offered.max(1) as f64;
            miss_rates.push(miss_rate);
            dtable.push_row(vec![
                label.to_string(),
                offered.to_string(),
                completed.to_string(),
                missed.to_string(),
                format!("{miss_rate:.3}"),
                generous_missed.to_string(),
                format!("{generous_rate:.3}"),
            ]);
            let key = label.replace('-', "_");
            derived.push((format!("k2_deadline_miss_{key}"), miss_rate));
            derived.push((format!("k2_deadline_generous_miss_{key}"), generous_rate));
        }
        println!("{}", format_table(&dtable));
        derived.push((
            "k2_deadline_miss_ratio_old_over_new".into(),
            miss_rates[1] / miss_rates[0].max(1e-9),
        ));

        // --- Ablation (k = 2): batch_window × queue_capacity over the
        // closed-loop workload, all available workers, Block policy.
        let mut atable = Table::new(
            "closed-loop throughput [q/s] over batch_window x queue_capacity (k = 2)",
            &["batch_window", "qcap 64", "qcap 256", "qcap 1024"],
        );
        for bw in [1usize, 4, 16, 64] {
            let mut row = vec![bw.to_string()];
            for qc in [64usize, 256, 1024] {
                let mut best_ns = f64::INFINITY;
                for _ in 0..reps {
                    let server = Server::spawn(
                        env.clone(),
                        ServeConfig::new()
                            .workers(open_workers)
                            .queue_capacity(qc)
                            .backpressure(Backpressure::Block)
                            .cache(CacheConfig::disabled())
                            .batch_window(bw),
                    );
                    let t0 = Instant::now();
                    let tickets = server.submit_batch(k2_workload.to_vec());
                    for ticket in tickets.into_iter().rev() {
                        ticket
                            .expect("Block admits everything")
                            .wait()
                            .expect("ablation queries are valid");
                    }
                    best_ns = best_ns.min(t0.elapsed().as_nanos() as f64);
                    let stats = server.shutdown(ShutdownMode::Drain);
                    assert!(stats.conserved(), "ablation lost tickets: {stats:?}");
                }
                let qps = queries as f64 / (best_ns / 1e9);
                row.push(format!("{qps:.0}"));
                derived.push((format!("k2_ablation_bw{bw}_qc{qc}_qps"), qps));
            }
            atable.push_row(row);
        }
        println!("{}", format_table(&atable));
    }

    // --- Shard axis (k = 2, `--shards` only): spatially skewed Zipf
    // traffic through a ShardRouter across the shard-count ×
    // replication grid. The hot head of the query pool lives in one
    // corner cell, so its shard takes nearly every primary sub-query;
    // a deliberately tiny per-replica queue under Reject backpressure
    // makes the single-copy hot shard turn concurrent clients away,
    // while hot-shard replication absorbs the same skew. The gather-
    // prune assertion is the CI shard smoke gate: distant sub-trees
    // must be skipped wholesale once the transitive bound is known.
    if shards_axis {
        let trees: Vec<Arc<RTree>> = (0..2)
            .map(|i| {
                let pts = uniform_points(points, &region, 510 + i as u64);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let env = tnn_broadcast::MultiChannelEnv::new(trees, params, &[0, 0]);
        let n = env_usize("TNN_SHARD_QUERIES", 400).max(32);
        let clients = 4usize;
        // The Zipf head (the most popular fifth of the pool) is drawn
        // from the lower-left corner cell; the tail spans the region.
        let head = (pool_size / 5).max(1);
        let hot = Rect::from_coords(
            region.min.x,
            region.min.y,
            region.min.x + 0.25 * (region.max.x - region.min.x),
            region.min.y + 0.25 * (region.max.y - region.min.y),
        );
        let mut pool_pts = uniform_points(head, &hot, 0x507);
        pool_pts.extend(uniform_points(pool_size - head, &region, 0x7A11));
        let zipf = ZipfSampler::new(pool_size, zipf_s);
        let mut zrng = StdRng::seed_from_u64(0x5A4D);
        let qpoints: Vec<Point> = (0..n).map(|_| pool_pts[zipf.sample(&mut zrng)]).collect();

        let mut stable = Table::new(
            "shard axis (k = 2): Zipf-skewed scatter-gather over shards x replication",
            &[
                "shards",
                "repl",
                "qps",
                "rejected",
                "fallbacks",
                "gather prune",
                "replicas",
            ],
        );
        let mut s4_rejected = [0u64; 2];
        for shards in [1usize, 2, 4, 8] {
            for replication in [1usize, 2] {
                let config = ShardConfig::new()
                    .shards(shards)
                    .replication(replication)
                    .replication_warmup(16)
                    .serve(
                        ServeConfig::new()
                            .workers(1)
                            .queue_capacity(2)
                            .backpressure(Backpressure::Reject)
                            .cache(CacheConfig::disabled())
                            .batch_window(1),
                    );
                let router = ShardRouter::spawn(env.clone(), config);
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for c in 0..clients {
                        let router = &router;
                        let qpoints = &qpoints;
                        scope.spawn(move || {
                            let mut i = c;
                            while i < qpoints.len() {
                                router
                                    .run(&Query::tnn(qpoints[i]).algorithm(Algorithm::HybridNn))
                                    .expect("shard-axis queries are valid");
                                i += clients;
                            }
                        });
                    }
                });
                let elapsed = t0.elapsed().as_nanos() as f64;
                let stats = router.shutdown(ShutdownMode::Drain);
                assert!(stats.conserved(), "shard axis lost tickets: {stats:?}");
                if shards >= 4 {
                    // The CI shard smoke gate: with the hot head in one
                    // corner of a >= 4-cell grid, the transitive bound
                    // must keep the gather out of distant sub-trees.
                    assert!(
                        stats.gather_prune_rate() > 0.0,
                        "sharded gather pruned nothing at {shards} shards: {stats:?}"
                    );
                }
                if shards == 4 {
                    s4_rejected[replication - 1] = stats.scatter_rejected;
                }
                let qps = n as f64 / (elapsed / 1e9);
                stable.push_row(vec![
                    shards.to_string(),
                    replication.to_string(),
                    format!("{qps:.0}"),
                    stats.scatter_rejected.to_string(),
                    stats.fallbacks.to_string(),
                    format!("{:.3}", stats.gather_prune_rate()),
                    stats.replicas_spawned.to_string(),
                ]);
                records.push((
                    format!("shard/zipf_{n}q/s{shards}_r{replication}"),
                    elapsed,
                    1,
                ));
                let key = format!("shard_s{shards}_r{replication}");
                derived.push((format!("{key}_qps"), qps));
                derived.push((format!("{key}_rejected"), stats.scatter_rejected as f64));
                derived.push((format!("{key}_fallbacks"), stats.fallbacks as f64));
                derived.push((format!("{key}_scatter_pruned"), stats.scatter_pruned as f64));
                derived.push((
                    format!("{key}_gather_prune_rate"),
                    stats.gather_prune_rate(),
                ));
                derived.push((format!("{key}_replicas"), stats.replicas_spawned as f64));
            }
        }
        println!("{}", format_table(&stable));
        derived.push((
            "shard_s4_reject_ratio_r1_over_r2".into(),
            s4_rejected[0] as f64 / s4_rejected[1].max(1) as f64,
        ));
    }

    // --- Chaos axis (k = 2, `--faults` only): a mixed-priority workload
    // through a faulted server. The submission sequence is single-
    // threaded so every fault draw lands on a deterministic job seq; the
    // plan carries channel drops + jitter, a periodic outage, one
    // injected engine panic, and two worker kills. The assertions below
    // ARE the CI chaos smoke gate: nothing may be lost, and the pool
    // must have died (worker_restarts > 0) and kept serving.
    if faults {
        let cpoints = points.min(2_000);
        let trees: Vec<Arc<RTree>> = (0..2)
            .map(|i| {
                let pts = uniform_points(cpoints, &region, 910 + i as u64);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let env = tnn_broadcast::MultiChannelEnv::new(trees, params, &[0, 0]);
        let cycle_lens: Vec<u64> = env
            .channels()
            .iter()
            .map(|c| c.layout().cycle_len())
            .collect();
        let n = env_usize("TNN_CHAOS_QUERIES", 300).max(64) as u64;
        let plan = FaultPlan::new(0xC7A05)
            .channel(0, ChannelFaults::NONE.drop_rate(80).jitter(2))
            .channel(1, ChannelFaults::NONE.outage(16, 2))
            .panic_at(2 * n / 3)
            .kill_at(n / 8)
            .kill_at(n / 3);
        let server = Server::spawn_with_faults(
            env,
            ServeConfig::new()
                .workers(2)
                .queue_capacity(64)
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
        let tickets: Vec<_> = (0..n)
            .map(|i| {
                let class = Priority::ALL[i as usize % Priority::COUNT];
                let query = batch_query(&region, &cycle_lens, 0xFA17, i, Algorithm::HybridNn);
                server
                    .submit_with(query, Qos::new().priority(class))
                    .expect("Block admits everything")
            })
            .collect();
        let mut answered = 0u64;
        let mut internal = 0u64;
        for ticket in &tickets {
            match ticket.wait() {
                Ok(_) => answered += 1,
                // A kill abandoned the job mid-batch, or the injected
                // engine panic fired: resolved fail-closed, never lost.
                Err(TnnError::Internal) => internal += 1,
                Err(other) => panic!("unexpected chaos outcome {other:?}"),
            }
        }
        let fstats = server.fault_stats().expect("faulted spawn exposes stats");
        let stats = server.shutdown(ShutdownMode::Drain);
        assert!(
            stats.conserved(),
            "chaos axis broke conservation: {stats:?}"
        );
        assert_eq!(
            stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.cancelled + stats.expired,
            "chaos axis lost tickets: {stats:?}"
        );
        assert_eq!(answered + internal, n, "a ticket vanished: {stats:?}");
        assert_eq!(
            stats.completed, n,
            "Block + Drain must complete all: {stats:?}"
        );
        assert!(
            fstats.injected() > 0,
            "the chaos plan injected nothing: {fstats:?}"
        );
        assert_eq!(fstats.worker_kills, 2, "both kills must fire: {fstats:?}");
        assert_eq!(
            stats.worker_restarts, 2,
            "both killed workers must respawn in place: {stats:?}"
        );
        assert!(
            stats.retried > 0,
            "drops + outage must force retries: {stats:?}"
        );

        let mut ctable = Table::new(
            "chaos axis (k = 2): per-class server-side latency under injected faults",
            &[
                "class",
                "completed",
                "retried",
                "degraded",
                "p50 [ms]",
                "p99 [ms]",
            ],
        );
        for class in Priority::ALL {
            let c = stats.class(class);
            let name = match class {
                Priority::Interactive => "interactive",
                Priority::Batch => "batch",
                Priority::Background => "background",
            };
            ctable.push_row(vec![
                name.to_string(),
                c.completed.to_string(),
                c.retried.to_string(),
                c.degraded.to_string(),
                format!("{:.3}", c.latency.p50().as_secs_f64() * 1e3),
                format!("{:.3}", c.latency.p99().as_secs_f64() * 1e3),
            ]);
            derived.push((format!("chaos_{name}_completed"), c.completed as f64));
            derived.push((
                format!("chaos_{name}_p50_ms"),
                c.latency.p50().as_secs_f64() * 1e3,
            ));
            derived.push((
                format!("chaos_{name}_p99_ms"),
                c.latency.p99().as_secs_f64() * 1e3,
            ));
        }
        println!("{}", format_table(&ctable));
        eprintln!(
            "chaos axis: {} answered, {} internal, faults {fstats:?}",
            answered, internal
        );
        derived.push(("chaos_completed".into(), stats.completed as f64));
        derived.push(("chaos_internal_errors".into(), internal as f64));
        derived.push(("chaos_retried".into(), stats.retried as f64));
        derived.push(("chaos_degraded".into(), stats.degraded as f64));
        derived.push(("chaos_worker_restarts".into(), stats.worker_restarts as f64));
        derived.push(("chaos_injected_faults".into(), fstats.injected() as f64));
        derived.push(("chaos_drops".into(), fstats.drops as f64));
        derived.push(("chaos_outages".into(), fstats.outages as f64));
    }

    // --- Churn axis (k = 2, `--churn` only): environment swaps between
    // rounds of a skewed repeat-query workload through a caching
    // server. Round 0 primes the cache; every later round
    // swaps in freshly rebuilt channel data first (epoch +1), so its
    // repeats would hit *stale* entries if cache keys ignored the
    // environment's identity. The asserts below ARE the CI churn smoke
    // gate: epochs must actually advance, the cache must be exercised,
    // and zero served answers may diverge from a fresh reference engine
    // over the then-current environment.
    if churn {
        let cpoints = points.min(3_000);
        let epochs = 4u64;
        let n = env_usize("TNN_CHURN_QUERIES", 240).max(32);
        let make_trees = |seed: u64| -> Vec<Arc<RTree>> {
            (0..2u64)
                .map(|i| {
                    let pts = uniform_points(cpoints, &region, seed + i);
                    Arc::new(
                        RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap(),
                    )
                })
                .collect()
        };
        let base_env = tnn_broadcast::MultiChannelEnv::new(make_trees(0xE9_0000), params, &[0, 0]);
        // A small pool with many repeats: every round re-offers the same
        // query bytes, the exact workload a stale cache would poison.
        let pool_n = (n / 4).max(1);
        let pool_pts = uniform_points(pool_n, &region, 0x000C_09CE);
        let workload: Vec<Query> = (0..n)
            .map(|i| {
                Query::tnn(pool_pts[i % pool_n])
                    .algorithm(Algorithm::HybridNn)
                    .issued_at(3)
            })
            .collect();
        let server = Server::spawn(
            base_env.clone(),
            ServeConfig::new()
                .workers(2)
                .queue_capacity(n)
                .backpressure(Backpressure::Block)
                .cache(CacheConfig::new().capacity(2 * pool_n))
                .batch_window(8),
        );
        let mut env = base_env.clone();
        let mut stale = 0u64;
        let t0 = Instant::now();
        for round in 0..epochs {
            if round > 0 {
                env = env.advance(make_trees(0xE9_0000 + 0x101 * round));
                server.swap_env(env.clone()).expect("swap keeps the shape");
            }
            let reference = tnn_core::QueryEngine::new(env.clone());
            // Two passes per round: the first runs cold at this epoch
            // (repeats queued behind their first occurrence hit the
            // cache at dequeue), the second repeats
            // the same bytes against a now-warm cache — the exact path a
            // stale entry would poison.
            for _pass in 0..2 {
                let tickets = server.submit_batch(workload.to_vec());
                for (ticket, query) in tickets.into_iter().zip(&workload) {
                    let got = ticket
                        .expect("Block admits everything")
                        .wait()
                        .expect("churn queries are valid");
                    let want = reference.run(query).expect("churn queries are valid");
                    stale += (got != want) as u64;
                }
            }
        }
        let elapsed = t0.elapsed().as_nanos() as f64;
        let final_epoch = server.engine().env().epoch();
        let stats = server.shutdown(ShutdownMode::Drain);
        assert!(stats.conserved(), "churn axis lost tickets: {stats:?}");
        assert_eq!(
            final_epoch,
            base_env.epoch() + (epochs - 1),
            "every swap must bump the epoch: {stats:?}"
        );
        assert_eq!(
            stale, 0,
            "served answers diverged from the current environment \
             (stale cache entries survived a swap): {stats:?}"
        );
        assert!(
            stats.cache_hits > 0,
            "churn workload never exercised the cache: {stats:?}"
        );
        let qps = (epochs as usize * 2 * n) as f64 / (elapsed / 1e9);
        eprintln!(
            "churn axis: {} rounds x 2 x {n} queries at {qps:.0} q/s, epoch {final_epoch}, \
             {} hits / {} misses, 0 stale",
            epochs, stats.cache_hits, stats.cache_misses
        );
        records.push((format!("churn/hybrid_{n}q_x{epochs}"), elapsed, 1));
        derived.push(("churn_epoch_bumps".into(), (epochs - 1) as f64));
        derived.push(("churn_stale_answers".into(), stale as f64));
        derived.push(("churn_qps".into(), qps));
        derived.push(("churn_cache_hits".into(), stats.cache_hits as f64));
    }

    // --- Trace axis (k = 2, `--trace` only): a skewed repeat-query
    // workload through a traced, caching server. The asserts below ARE
    // the CI observability smoke gate: the flight recorder must retain
    // retrievable traces, stamped spans must reconcile with the
    // recorded end-to-end latency at histogram (log2-bucket)
    // resolution, and the rendered Prometheus snapshot must conserve
    // the completion count.
    if trace_axis {
        let tpoints = points.min(2_000);
        let trees: Vec<Arc<RTree>> = (0..2)
            .map(|i| {
                let pts = uniform_points(tpoints, &region, 1_310 + i as u64);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let env = tnn_broadcast::MultiChannelEnv::new(trees, params, &[0, 0]);
        let cycle_lens: Vec<u64> = env
            .channels()
            .iter()
            .map(|c| c.layout().cycle_len())
            .collect();
        let n = env_usize("TNN_TRACE_QUERIES", 300).max(64);
        // A small pool with many repeats, so the dequeue-time cache
        // probe sees both misses (leaders) and hits (repeats queued
        // behind them) — CacheProbe spans on both sides.
        let pool_n = (n / 4).max(1);
        let tpool: Vec<Query> = (0..pool_n as u64)
            .map(|i| batch_query(&region, &cycle_lens, 0x7_AACE, i, Algorithm::HybridNn))
            .collect();
        let server = Server::spawn(
            env,
            ServeConfig::new()
                .workers(2)
                .queue_capacity(n)
                .backpressure(Backpressure::Block)
                .cache(CacheConfig::new().capacity(2 * pool_n))
                .batch_window(8)
                .trace(TraceConfig::on()),
        );
        let workload: Vec<Query> = (0..n).map(|i| tpool[i % pool_n].clone()).collect();
        for ticket in server.submit_batch(workload) {
            ticket
                .expect("Block admits everything")
                .wait()
                .expect("trace-axis queries are valid");
        }
        let recorder = server.recorder().expect("tracing is on");
        assert!(recorder.recorded() > 0, "no traces recorded");
        let slowest = recorder.slowest();
        assert!(!slowest.is_empty(), "flight recorder retained nothing");
        let bucket = |d: Duration| {
            let us = d.as_micros().max(1) as u64;
            63 - us.leading_zeros()
        };
        for t in &slowest {
            assert!(!t.spans.is_empty(), "retained trace has no spans: {t:?}");
            // Sub-16 µs totals are dominated by the measurement seams
            // between layers; everything slower must be explained by
            // its spans to within one log2 bucket.
            if t.total < Duration::from_micros(16) {
                continue;
            }
            assert!(
                bucket(t.span_sum()).abs_diff(bucket(t.total)) <= 1,
                "span sum {:?} does not reconcile with total {:?}: {t:?}",
                t.span_sum(),
                t.total,
            );
        }
        // Publish only after shutdown: workers book their counters in
        // micro-batches *after* resolving tickets, so a snapshot taken
        // right after the last wait() can lag the final fold by up to
        // one batch_window.
        let stats = server.shutdown(ShutdownMode::Drain);
        assert!(stats.conserved(), "trace axis lost tickets: {stats:?}");
        let registry = MetricsRegistry::new();
        server.publish_metrics(&registry);
        let text = registry.render_prometheus();
        // Parse the snapshot back: the per-class completion counters
        // must conserve the server's own completion count.
        let completed_sum: u64 = text
            .lines()
            .filter(|l| l.starts_with("tnn_serve_completed_total{"))
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .expect("counter samples are integers")
            })
            .sum();
        assert_eq!(
            completed_sum, stats.completed,
            "rendered snapshot diverges from the stats fold"
        );
        assert!(
            text.contains("tnn_trace_recorded_total"),
            "recorder series missing from the snapshot:\n{text}"
        );
        let head = &slowest[0];
        eprintln!(
            "trace axis: recorded={} retained={} | slowest seq={} total={:?} attempts={} \
             visits={} peak_queue={} spans={:?}",
            recorder.recorded(),
            recorder.len(),
            head.seq,
            head.total,
            head.attempts,
            head.node_visits,
            head.peak_queue,
            head.spans,
        );
        derived.push(("trace_recorded".into(), recorder.recorded() as f64));
        derived.push(("trace_retained".into(), recorder.len() as f64));
        derived.push(("trace_slowest_ms".into(), head.total.as_secs_f64() * 1e3));
        derived.push(("trace_cache_hits".into(), stats.cache_hits as f64));
    }

    let shard_note = if shards_axis {
        "; k=2 shard axis (ShardRouter scatter-gather over shards {1,2,4,8} x replication \
         {1,2}, corner-skewed Zipf traffic, 4 concurrent clients, 1-worker 2-slot Reject \
         replicas)"
    } else {
        ""
    };
    let chaos_note = if faults {
        "; k=2 chaos axis (faulted 2-worker server: drops+jitter on channel 0, periodic \
         outage on channel 1, 1 injected engine panic, 2 worker kills, Approximate \
         degradation, mixed priority classes)"
    } else {
        ""
    };
    let churn_note = if churn {
        "; k=2 churn axis (caching server, full-data environment swap per \
         round, every answer checked against a fresh reference engine on the current epoch)"
    } else {
        ""
    };
    let trace_note = if trace_axis {
        "; k=2 trace axis (traced caching server: flight-recorder retention, span-vs-total \
         reconciliation at log2-bucket resolution, Prometheus snapshot conservation)"
    } else {
        ""
    };
    let path = std::path::PathBuf::from(format!("BENCH_{tag}.json"));
    write_bench_json(
        &path,
        &tag,
        &format!(
            "tnn-serve QoS load generator: HybridNn closed loop (1 worker, cache off) vs \
             run_tnn_batch; open-loop Poisson arrivals at 70% capacity over all four \
             algorithms ({open_workers} workers, Reject); Zipf({zipf_s}) repeat-query cache \
             axis over a {pool_size}-query pool (cold cached vs uncached server); \
             k=2 deadline-miss axis (Shed expired-first vs oldest-first, saturating \
             mixed-TTL bursts); k=2 batch_window x queue_capacity ablation{shard_note}{chaos_note}{churn_note}{trace_note}; \
             {queries} queries/batch, {points} uniform points per channel, page 64, \
             paper region"
        ),
        &records,
        &derived,
    )
    .expect("write BENCH json");
    eprintln!("serve_load: wrote {}", path.display());
}
