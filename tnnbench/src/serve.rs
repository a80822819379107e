//! `serve-zipf` and `serve-churn`: open loops of Poisson arrivals from
//! one generator thread against a one-worker `Server` with the result
//! cache on, single-flight on and `Reject` backpressure.
//!
//! Queries are Zipf(1.1) draws from a pool of k = 2 exact-algorithm
//! queries larger than the cache, so most completions are cache hits and
//! a steady share runs the engine. `serve-zipf` offers a few fixed rates
//! in turn; `serve-churn` offers one fixed read rate while a writer
//! thread edits one channel through `DeltaOverlay` on a fixed schedule
//! and publishes each edit with `Server::swap_env`.
//!
//! Latency runs from each request's due time, so a stalled generator or
//! server charges the wait to every request behind the stall.

use crate::fixture::{self, Rng, Zipf, ALGORITHMS};
use crate::metrics::Report;
use crate::spans::{SpanBuf, Trace};
use crate::stats;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnn_broadcast::MultiChannelEnv;
use tnn_core::{Query, QueryEngine, QueryOutcome, TnnError};
use tnn_rtree::{DeltaOverlay, RTree};
use tnn_serve::{Backpressure, CacheConfig, ServeConfig, Server, Ticket};

/// Distinct queries in the pool.
pub const POOL: usize = 20_000;
/// Zipf exponent of the draws.
pub const ZIPF_S: f64 = 1.1;
/// Result-cache entries: a tenth of the pool, so the tail keeps missing.
pub const CACHE_ENTRIES: usize = 2_048;
/// Submission-queue bound under `Reject`.
pub const QUEUE_CAPACITY: usize = 256;
/// The fixed offered rates of `serve-zipf`, in requests per second.
/// Chosen once; never recalibrated per run.
pub const RATES: [f64; 4] = [2_000.0, 4_000.0, 8_000.0, 16_000.0];
/// `serve-zipf` offers its rates in this many rounds of short slices,
/// each round cycling through [`RATES`]: every rate's requests then span
/// the whole measured window and meet the host's slow and fast stretches
/// alike, instead of each rate owning one stretch of it.
pub const ROUNDS: usize = 5;
/// The fixed read rate of `serve-churn`.
pub const CHURN_RATE: f64 = 4_000.0;
/// One write every this many milliseconds on `serve-churn`.
pub const WRITE_PERIOD_MS: u64 = 2_000;
/// Objects one write deletes and inserts again elsewhere, on channel 1.
pub const WRITE_OBJECTS: usize = fixture::POINTS / 100;
/// The latency limit a rate step's tail must meet, in microseconds.
pub const LATENCY_LIMIT_US: f64 = 2_000.0;
/// The failed share a rate step may not exceed.
pub const FAILED_LIMIT: f64 = 0.001;
/// The generator lateness (p99 of send minus due time) beyond which a
/// step does not count, in microseconds.
pub const LATENESS_LIMIT_US: f64 = 500.0;

/// The serving configuration both workloads use.
pub fn serve_config() -> ServeConfig {
    ServeConfig::new()
        .workers(1)
        .queue_capacity(QUEUE_CAPACITY)
        .backpressure(Backpressure::Reject)
        .cache(CacheConfig::new().capacity(CACHE_ENTRIES))
        .singleflight(true)
}

/// The fixture: two channel trees, their environment and a running
/// server.
pub struct Fixture {
    /// The channel trees.
    pub trees: Vec<Arc<RTree>>,
    /// The initial environment.
    pub env: MultiChannelEnv,
    /// The server under test.
    pub server: Server,
    /// Wall time of each tree build, in milliseconds.
    pub build_ms: Vec<f64>,
}

/// Builds the fixture and starts the server.
pub fn setup() -> Fixture {
    let (trees, build_ms) = fixture::build_trees(2);
    let env = fixture::env_over(&trees);
    let server = Server::spawn(env.clone(), serve_config());
    Fixture {
        trees,
        env,
        server,
        build_ms,
    }
}

/// The query pool of `seed`: rank `r` is the `r`-th most popular query.
pub fn pool(seed: u64, env: &MultiChannelEnv) -> Vec<Query> {
    (0..POOL as u64)
        .map(|j| {
            let mut rng = Rng::new(seed, 0x5E_0000_0000 + j);
            fixture::random_query(&mut rng, env, ALGORITHMS[(j % 3) as usize])
        })
        .collect()
}

/// One request of an open loop. Times are nanoseconds since the loop's
/// origin.
struct Request {
    idx: usize,
    due_ns: u64,
    sent_ns: u64,
    returned_ns: u64,
    ticket: Result<Ticket, TnnError>,
    /// Resolved before `submit` returned: an admission-time cache hit.
    at_admission: bool,
}

impl Request {
    /// The ticket's latency, when it resolved with an outcome.
    fn served_ns(&self) -> Option<u64> {
        let ticket = self.ticket.as_ref().ok()?;
        let latency = ticket.latency()?;
        Some(latency.as_nanos() as u64)
    }

    /// When the answer was available, as an upper bound: `submit`
    /// stamps its own start after the call began, so the ticket's
    /// latency plus the call's return bounds the resolution from above.
    fn resolved_by_ns(&self) -> Option<u64> {
        self.served_ns()
            .map(|l| (self.sent_ns + l).max(self.returned_ns))
    }
}

/// The open-loop generator: Poisson arrivals at `rate` for `seconds`,
/// each request a Zipf draw from the pool.
struct Generator<'a> {
    origin: Instant,
    pool: &'a [Query],
    zipf: &'a Zipf,
    arrivals: Rng,
    picks: Rng,
}

impl<'a> Generator<'a> {
    /// The generator of `seed`: the same seed replays the same arrival
    /// times and the same draws.
    fn new(seed: u64, pool: &'a [Query], zipf: &'a Zipf) -> Self {
        Generator {
            origin: Instant::now(),
            pool,
            zipf,
            arrivals: Rng::new(seed, 0xA7),
            picks: Rng::new(seed, 0x21BF),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Waits until `due_ns`: yields the processor while more than 20 µs
    /// remain, then spins. A sleep would overshoot by up to milliseconds
    /// on a loaded host, which would read as server latency.
    fn wait_until(&self, due_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return;
            }
            if due_ns - now > 20_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Offers `rate` requests per second for `seconds`. With `trace`,
    /// each `submit` is a span and the queue depth is sampled.
    fn offer(
        &mut self,
        server: &Server,
        rate: f64,
        seconds: f64,
        mut trace: Option<(&mut SpanBuf, &mut Vec<f64>)>,
    ) -> Vec<Request> {
        let start = self.now_ns() as f64;
        let end = start + seconds * 1e9;
        let mut due = start;
        let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
        loop {
            due += self.arrivals.exponential(rate) * 1e9;
            if due >= end {
                break;
            }
            let due_ns = due as u64;
            let idx = self.zipf.sample(&mut self.picks);
            let query = self.pool[idx].clone();
            self.wait_until(due_ns);
            let sent_ns = self.now_ns();
            let (ticket, at_admission) = match trace.as_mut() {
                Some((buf, depths)) => {
                    let id = out.len() as u64;
                    let ticket = buf.time(id, "serve.submit", "", None, || server.submit(query));
                    if out.len() % 64 == 0 {
                        depths.push(server.stats().queued as f64);
                    }
                    let done = ticket.as_ref().is_ok_and(Ticket::is_done);
                    (ticket, done)
                }
                None => (server.submit(query), false),
            };
            out.push(Request {
                idx,
                due_ns,
                sent_ns,
                returned_ns: self.now_ns(),
                ticket,
                at_admission,
            });
        }
        for r in &out {
            if let Ok(t) = &r.ticket {
                let _ = t.wait();
            }
        }
        out
    }
}

/// One rate step's summary.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, requests per second.
    pub offered: f64,
    /// Requests actually sent per second.
    pub sent: f64,
    /// p99 of send time minus due time, microseconds.
    pub lateness_p99_us: f64,
    /// Mean outstanding requests over the first and the last quarter
    /// (of each slice, averaged over the slices).
    pub backlog: (f64, f64),
    /// Completed requests.
    pub completed: u64,
    /// Refused, shed, expired or errored requests.
    pub failed: u64,
    /// Latencies from due time of completed requests, microseconds.
    pub latencies_us: Vec<f64>,
    /// Send time minus due time of every request, microseconds.
    lateness_us: Vec<f64>,
}

impl Step {
    fn summarize(requests: &[Request], offered: f64, seconds: f64) -> Step {
        let mut lateness: Vec<f64> = requests
            .iter()
            .map(|r| (r.sent_ns.saturating_sub(r.due_ns)) as f64 / 1e3)
            .collect();
        let mut latencies_us = Vec::with_capacity(requests.len());
        let mut failed = 0;
        for r in requests {
            let ok = r.ticket.as_ref().is_ok_and(|t| t.wait().is_ok());
            match (ok, r.resolved_by_ns()) {
                (true, Some(done)) => latencies_us.push((done - r.due_ns) as f64 / 1e3),
                _ => failed += 1,
            }
        }
        Step {
            offered,
            sent: requests.len() as f64 / seconds,
            lateness_p99_us: stats::quantile(&mut lateness, 0.99),
            backlog: backlog_trend(requests),
            completed: latencies_us.len() as u64,
            failed,
            latencies_us,
            lateness_us: lateness,
        }
    }

    /// One rate's step from its slices, all of equal length: rates and
    /// backlog are averaged over the slices; counts, latencies and
    /// lateness are pooled.
    fn merge(slices: Vec<Step>) -> Step {
        let n = slices.len().max(1) as f64;
        let mut step = Step {
            offered: slices.first().map_or(0.0, |s| s.offered),
            sent: 0.0,
            lateness_p99_us: 0.0,
            backlog: (0.0, 0.0),
            completed: 0,
            failed: 0,
            latencies_us: Vec::new(),
            lateness_us: Vec::new(),
        };
        for s in slices {
            step.sent += s.sent / n;
            step.backlog.0 += s.backlog.0 / n;
            step.backlog.1 += s.backlog.1 / n;
            step.completed += s.completed;
            step.failed += s.failed;
            step.latencies_us.extend(s.latencies_us);
            step.lateness_us.extend(s.lateness_us);
        }
        step.lateness_p99_us = stats::quantile(&mut step.lateness_us, 0.99);
        step
    }

    /// Whether the step meets the latency limit with no failures beyond
    /// the limit, no growing backlog, and a generator that kept up.
    pub fn ok(&self) -> bool {
        let attempted = (self.completed + self.failed).max(1) as f64;
        let mut lat = self.latencies_us.clone();
        let (_, tail) = stats::tail(&mut lat);
        tail <= LATENCY_LIMIT_US
            && self.failed as f64 / attempted <= FAILED_LIMIT
            && self.lateness_p99_us <= LATENESS_LIMIT_US
            && self.sent >= 0.9 * self.offered
            && !self.backlog_grew()
    }

    /// The backlog grew when the last quarter's mean outstanding count
    /// exceeds the first quarter's by more than a full queue's worth of
    /// slack beyond noise.
    pub fn backlog_grew(&self) -> bool {
        self.backlog.1 > 2.0 * self.backlog.0 + 8.0
    }

    fn line(&self, label: &str) -> String {
        let mut lat = self.latencies_us.clone();
        let p50 = stats::median(&mut lat);
        let (q, tail) = stats::tail(&mut lat);
        format!(
            "{label} offered {:.0}/s sent {:.0}/s lateness_p99 {:.1} us backlog {:.2}->{:.2} \
             completed {} failed {} p50 {p50:.1} us p{:.0} {tail:.1} us ok {}",
            self.offered,
            self.sent,
            self.lateness_p99_us,
            self.backlog.0,
            self.backlog.1,
            self.completed,
            self.failed,
            q * 100.0,
            self.ok()
        )
    }
}

/// The median and tail latency over every request of a run's steps,
/// pooled: a fixed quantile of the whole run, so it averages the host's
/// slow and fast stretches instead of landing on one of them. Returns
/// `(p50, tail percentile, tail)`.
pub fn pooled(steps: &[Step]) -> (f64, f64, f64) {
    let mut all: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    let (q, tail) = stats::tail(&mut all);
    (stats::median(&mut all), q, tail)
}

/// Mean outstanding requests (sent, not yet resolved) over the first and
/// the last quarter of a step, sampled every millisecond.
fn backlog_trend(requests: &[Request]) -> (f64, f64) {
    let (Some(first), Some(last)) = (requests.first(), requests.last()) else {
        return (0.0, 0.0);
    };
    let (t0, t1) = (first.sent_ns, last.sent_ns);
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * requests.len());
    for r in requests {
        events.push((r.sent_ns, 1));
        events.push((r.resolved_by_ns().unwrap_or(r.returned_ns), -1));
    }
    events.sort_unstable();
    let mut samples = Vec::new();
    let (mut outstanding, mut e) = (0i64, 0usize);
    let mut t = t0;
    while t <= t1 {
        while e < events.len() && events[e].0 <= t {
            outstanding += events[e].1;
            e += 1;
        }
        samples.push(outstanding as f64);
        t += 1_000_000;
    }
    let quarter = (samples.len() / 4).max(1);
    (
        stats::mean(&samples[..quarter]),
        stats::mean(&samples[samples.len() - quarter..]),
    )
}

/// Checks served outcomes against a bare engine over the same
/// environment; returns the number of mismatches.
fn check_against(
    engine: &QueryEngine,
    pool: &[Query],
    requests: &[Request],
    memo: &mut HashMap<usize, QueryOutcome>,
) -> u64 {
    let mut mismatches = 0;
    for r in requests {
        let Ok(Ok(got)) = r.ticket.as_ref().map(Ticket::wait) else {
            continue;
        };
        let want = memo
            .entry(r.idx)
            .or_insert_with(|| engine.run(&pool[r.idx]).expect("pool queries are valid"));
        mismatches += u64::from(&got != want);
    }
    mismatches
}

/// Server counters over one measured window.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    completed: u64,
    hits: u64,
    coalesced: u64,
    evictions: u64,
}

impl Counters {
    /// The counts accumulated since `before`.
    fn since(self, before: Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            hits: self.hits - before.hits,
            coalesced: self.coalesced - before.coalesced,
            evictions: self.evictions - before.evictions,
        }
    }
}

fn hit_note(report: &mut Report, window: Counters) {
    report.note(format!(
        "cache: {:.3} of {} completions were hits, {} coalesced, {} evictions",
        window.hits as f64 / window.completed.max(1) as f64,
        window.completed,
        window.coalesced,
        window.evictions
    ));
}

fn counters(server: &Server) -> Counters {
    let s = server.stats();
    Counters {
        completed: s.completed,
        hits: s.cache_hits,
        coalesced: s.cache_coalesced,
        evictions: server.cache_stats().map_or(0, |c| c.evictions),
    }
}

/// The per-layer serving metrics of a traced window: qos counters, the
/// time inside `submit`, queue depth, and the queue wait — each queued
/// request's latency minus its query's bare-engine `run_on` time,
/// measured here on the same query.
fn report_traced_serving(
    report: &mut Report,
    trace: &mut Trace,
    env: &MultiChannelEnv,
    pool: &[Query],
    requests: &[Request],
    depths: &mut [f64],
    window: Counters,
) {
    let completed = window.completed.max(1);
    report.set("qos.cache_hit_rate", window.hits as f64 / completed as f64);
    report.set("qos.cache_coalesced", window.coalesced as f64);
    report.set("qos.cache_evictions", window.evictions as f64);
    report.set("serve.queue_depth_p99", stats::quantile(depths, 0.99));

    // Bare-engine replay of every queued request's query.
    let engine = QueryEngine::new(env.clone());
    let mut scratch = engine.scratch();
    let mut run_ns: HashMap<usize, f64> = HashMap::new();
    let mut waits = Vec::new();
    for r in requests {
        if r.at_admission {
            continue;
        }
        let Some(served) = r.served_ns() else {
            continue;
        };
        let bare = *run_ns.entry(r.idx).or_insert_with(|| {
            let t0 = Instant::now();
            engine
                .run_with(&pool[r.idx], &mut scratch)
                .expect("pool queries are valid");
            t0.elapsed().as_nanos() as f64
        });
        waits.push(((served as f64 - bare) / 1e3).max(0.0));
    }
    report.set("serve.queue_wait_us", stats::median(&mut waits));
    let mut submit = trace.durations_ns("serve.submit", None);
    report.set("serve.submit_us", stats::median(&mut submit) / 1e3);
}

/// Warm-up: long enough to fill the cache before anything is measured.
fn warmup_seconds(seconds: f64) -> f64 {
    (seconds * 0.1).clamp(0.2, 1.0)
}

fn common_setup(report: &mut Report, seed: u64) -> (Fixture, Vec<Query>, Vec<f64>) {
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
    let pool = pool(seed, &fixture.env);
    let counts = fixture::pool_counts(&fixture.env, &pool);
    crate::engine_exact::report_counts(report, &counts);
    (fixture, pool, build_ms)
}

/// The per-layer metrics below serving: tree builds, the geom kernel,
/// and the core probe.
fn add_layer_basics(
    report: &mut Report,
    trace: &mut Trace,
    seed: u64,
    fixture: &Fixture,
    pool: &[Query],
    build_ms: &mut [f64],
) {
    crate::engine_exact::core_probe(seed, &fixture.trees, report, trace);
    report.set("rtree.build_ms", stats::median(build_ms));
    let points: Vec<_> = pool.iter().take(256).map(Query::point).collect();
    report.set(
        "geom.min_max_dist_sq_ns",
        fixture::min_max_dist_sq_ns(&fixture.trees[0], &points),
    );
}

/// `serve-zipf`.
pub fn run_zipf(seed: u64, seconds: f64, traced: bool) -> (Report, Option<Trace>) {
    let mut report = Report::default();
    let (fixture, pool, mut build_ms) = common_setup(&mut report, seed);
    let zipf = Zipf::new(POOL, ZIPF_S);
    let bare = QueryEngine::new(fixture.env.clone());
    let mut memo = HashMap::new();
    let mut gen = Generator::new(seed, &pool, &zipf);
    let warm = gen.offer(&fixture.server, RATES[1], warmup_seconds(seconds), None);
    let mismatches = check_against(&bare, &pool, &warm, &mut memo);

    let measured = if traced { seconds / 2.0 } else { seconds };
    let mut mismatches_measured = 0;
    let before = counters(&fixture.server);
    let steps = offer_steps(&mut gen, &fixture.server, measured, None, |requests| {
        mismatches_measured += check_against(&bare, &pool, &requests, &mut memo);
    });
    for (s, step) in steps.iter().enumerate() {
        report.note(step.line(&format!("step {s}:")));
    }
    hit_note(&mut report, counters(&fixture.server).since(before));
    report.mismatches += mismatches + mismatches_measured;
    report.note(format!(
        "answer check: every served outcome against a bare engine, {} mismatches",
        mismatches + mismatches_measured
    ));
    let untraced_p50 = report_steps(&mut report, &steps, measured);
    report.set("peak_rss_mb", crate::host::peak_rss_mb());
    if !traced {
        return (report, None);
    }

    // The traced replay: the same arrivals and draws, on the warm server.
    let mut gen = Generator::new(seed, &pool, &zipf);
    gen.offer(&fixture.server, RATES[1], warmup_seconds(seconds), None);
    let mut buf = SpanBuf::new(Instant::now());
    let mut depths = Vec::new();
    let before = counters(&fixture.server);
    let mut traced_requests = Vec::new();
    let traced_steps = offer_steps(
        &mut gen,
        &fixture.server,
        measured,
        Some((&mut buf, &mut depths)),
        |requests| {
            report.mismatches += check_against(&bare, &pool, &requests, &mut memo);
            traced_requests.extend(requests);
        },
    );
    for step in &traced_steps {
        report.attempted += step.completed + step.failed;
        report.failed += step.failed;
    }
    let after = counters(&fixture.server);
    let traced_p50 = pooled(&traced_steps).0;
    report.set("trace.overhead_ratio", untraced_p50 / traced_p50);
    let mut trace = Trace::default();
    trace.push(buf);
    report.set(
        "rtree.materialize_ms",
        fixture::materialize_probe(&fixture.trees[1], seed, &mut trace),
    );
    report_traced_serving(
        &mut report,
        &mut trace,
        &fixture.env,
        &pool,
        &traced_requests,
        &mut depths,
        after.since(before),
    );
    add_layer_basics(
        &mut report,
        &mut trace,
        seed,
        &fixture,
        &pool,
        &mut build_ms,
    );
    (report, Some(trace))
}

/// Offers every rate of [`RATES`] for a quarter of `seconds`, in
/// [`ROUNDS`] rounds of slices that cycle through the rates. `on_slice`
/// gets each slice's requests once they are summarized. Returns one step
/// per rate.
fn offer_steps(
    gen: &mut Generator<'_>,
    server: &Server,
    seconds: f64,
    mut trace: Option<(&mut SpanBuf, &mut Vec<f64>)>,
    mut on_slice: impl FnMut(Vec<Request>),
) -> Vec<Step> {
    let slice = seconds / (RATES.len() * ROUNDS) as f64;
    let mut slices: Vec<Vec<Step>> = RATES.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (s, &rate) in RATES.iter().enumerate() {
            let t = trace.as_mut().map(|(b, d)| (&mut **b, &mut **d));
            let requests = gen.offer(server, rate, slice, t);
            slices[s].push(Step::summarize(&requests, rate, slice));
            on_slice(requests);
        }
    }
    slices.into_iter().map(Step::merge).collect()
}

/// Reports the end-to-end metrics of a run's rate steps and returns its
/// median latency.
fn report_steps(report: &mut Report, steps: &[Step], seconds: f64) -> f64 {
    let completed: u64 = steps.iter().map(|s| s.completed).sum();
    let failed: u64 = steps.iter().map(|s| s.failed).sum();
    report.attempted += completed + failed;
    report.failed += failed;
    report.set("qps", completed as f64 / seconds);
    let (p50, q, tail) = pooled(steps);
    report.set("latency_p50_us", p50);
    report.set_tail((q, tail));
    let max_ok = steps
        .iter()
        .filter(|s| s.ok())
        .map(|s| s.offered)
        .fold(0.0, f64::max);
    report.set("max_rate_ok_qps", max_ok);
    p50
}

/// One published write: the environment it made current and when.
struct Epoch {
    env: MultiChannelEnv,
    swap_start_ns: u64,
    swap_end_ns: u64,
}

/// The writer of `serve-churn`: every [`WRITE_PERIOD_MS`], delete and
/// insert [`WRITE_OBJECTS`] objects of channel 1 through a
/// `DeltaOverlay`, materialize, advance the environment and swap it in.
fn writer(
    server: &Server,
    env: &MultiChannelEnv,
    seed: u64,
    origin: Instant,
    start_ns: u64,
    seconds: f64,
    mut buf: Option<&mut SpanBuf>,
) -> (Vec<Epoch>, Vec<f64>) {
    let mut rng = Rng::new(seed, 0x3417E);
    let mut env = env.clone();
    let mut epochs = Vec::new();
    let mut write_ms = Vec::new();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    for w in 1u64.. {
        let due_ns = start_ns + w * WRITE_PERIOD_MS * 1_000_000;
        if due_ns >= end_ns {
            break;
        }
        let now = now_ns();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let mut delta = DeltaOverlay::new(Arc::clone(env.channel(1).tree_arc()));
        fixture::move_objects(&mut delta, &mut rng, WRITE_OBJECTS);
        let materialize =
            |delta: &DeltaOverlay| delta.materialize().expect("live set is non-empty");
        let tree = match buf.as_mut() {
            Some(b) => b.time(w, "rtree.materialize", "", None, || materialize(&delta)),
            None => materialize(&delta),
        };
        env = env.advance_channel(1, Arc::new(tree));
        let swap_start_ns = now_ns();
        match buf.as_mut() {
            Some(b) => b.time(w, "serve.swap_env", "", None, || {
                server.swap_env(env.clone())
            }),
            None => server.swap_env(env.clone()),
        }
        .expect("a swap keeps the channel count");
        let swap_end_ns = now_ns();
        write_ms.push((swap_end_ns - due_ns) as f64 / 1e6);
        epochs.push(Epoch {
            env: env.clone(),
            swap_start_ns,
            swap_end_ns,
        });
    }
    (epochs, write_ms)
}

/// Counts stale answers: a served outcome must equal a fresh engine's at
/// some epoch that was current while the request was in flight.
fn count_stale(
    initial: &MultiChannelEnv,
    epochs: &[Epoch],
    pool: &[Query],
    requests: &[Request],
) -> u64 {
    let mut memo: HashMap<(usize, usize), QueryOutcome> = HashMap::new();
    let env_of = |e: usize| if e == 0 { initial } else { &epochs[e - 1].env };
    // Epoch e (0 = initial) may be visible from the start of its swap
    // until the end of the next one.
    let visible_from = |e: usize| {
        if e == 0 {
            0
        } else {
            epochs[e - 1].swap_start_ns
        }
    };
    let visible_until = |e: usize| epochs.get(e).map_or(u64::MAX, |x| x.swap_end_ns);
    let mut stale = 0;
    for r in requests {
        let (Ok(Ok(got)), Some(done)) = (r.ticket.as_ref().map(Ticket::wait), r.resolved_by_ns())
        else {
            continue;
        };
        let fresh = (0..=epochs.len())
            .filter(|&e| visible_from(e) <= done && visible_until(e) >= r.sent_ns)
            .any(|e| {
                let want = memo.entry((e, r.idx)).or_insert_with(|| {
                    QueryEngine::new(env_of(e).clone())
                        .run(&pool[r.idx])
                        .expect("pool queries are valid")
                });
                *want == got
            });
        stale += u64::from(!fresh);
    }
    stale
}

/// `serve-churn`.
pub fn run_churn(seed: u64, seconds: f64, traced: bool) -> (Report, Option<Trace>) {
    let mut report = Report::default();
    let (fixture, pool, mut build_ms) = common_setup(&mut report, seed);
    let zipf = Zipf::new(POOL, ZIPF_S);
    let measured = if traced { seconds / 2.0 } else { seconds };
    let mut gen = Generator::new(seed, &pool, &zipf);
    let (requests, epochs, mut write_ms, before) =
        churn_window(&mut gen, &fixture, seed, measured, None);
    hit_note(&mut report, counters(&fixture.server).since(before));
    let stale = count_stale(&fixture.env, &epochs, &pool, &requests);
    report.mismatches += stale;
    report.note(format!(
        "answer check: {} served outcomes against fresh engines at their epochs, {stale} stale",
        requests.len()
    ));
    let step = Step::summarize(&requests, CHURN_RATE, measured);
    report.note(step.line("reads:"));
    report.note(format!("writes: {} swaps", epochs.len()));
    let untraced_p50 = report_steps(&mut report, std::slice::from_ref(&step), measured);
    report.set("write_p50_ms", stats::median(&mut write_ms));
    report.set("peak_rss_mb", crate::host::peak_rss_mb());
    if !traced {
        return (report, None);
    }

    // The traced replay: a fresh server over the initial environment,
    // the same reads and the same writes.
    drop(requests);
    drop(epochs);
    let Fixture {
        trees, env, server, ..
    } = fixture;
    drop(server);
    let fixture = Fixture {
        server: Server::spawn(env.clone(), serve_config()),
        trees,
        env,
        build_ms: Vec::new(),
    };
    let mut gen = Generator::new(seed, &pool, &zipf);
    let mut buf = SpanBuf::new(Instant::now());
    let mut wbuf = SpanBuf::new(Instant::now());
    let mut depths = Vec::new();
    let (requests, epochs, _, before) = churn_window(
        &mut gen,
        &fixture,
        seed,
        measured,
        Some((&mut buf, &mut wbuf, &mut depths)),
    );
    let after = counters(&fixture.server);
    report.mismatches += count_stale(&fixture.env, &epochs, &pool, &requests);
    let step = Step::summarize(&requests, CHURN_RATE, measured);
    report.attempted += step.completed + step.failed;
    report.failed += step.failed;
    report.set(
        "trace.overhead_ratio",
        untraced_p50 / pooled(std::slice::from_ref(&step)).0,
    );
    let mut trace = Trace::default();
    trace.push(buf);
    trace.push(wbuf);
    // A window shorter than the write period publishes no write; the
    // materialize probe then stands in for the writer.
    let mut m = trace.durations_ns("rtree.materialize", None);
    let materialize_ms = if m.is_empty() {
        fixture::materialize_probe(&fixture.trees[1], seed, &mut trace)
    } else {
        stats::median(&mut m) / 1e6
    };
    report.set("rtree.materialize_ms", materialize_ms);
    let mut s = trace.durations_ns("serve.swap_env", None);
    if !s.is_empty() {
        report.set("serve.swap_env_us", stats::median(&mut s) / 1e3);
    }
    report_traced_serving(
        &mut report,
        &mut trace,
        &fixture.env,
        &pool,
        &requests,
        &mut depths,
        after.since(before),
    );
    add_layer_basics(
        &mut report,
        &mut trace,
        seed,
        &fixture,
        &pool,
        &mut build_ms,
    );
    (report, Some(trace))
}

/// One measured churn window: a warm-up without writes, then reads
/// from the generator on this thread and writes from a writer thread
/// beside it. Also returns the server counters at the window's start.
#[allow(clippy::type_complexity)]
fn churn_window(
    gen: &mut Generator<'_>,
    fixture: &Fixture,
    seed: u64,
    seconds: f64,
    trace: Option<(&mut SpanBuf, &mut SpanBuf, &mut Vec<f64>)>,
) -> (Vec<Request>, Vec<Epoch>, Vec<f64>, Counters) {
    let server = &fixture.server;
    gen.offer(server, CHURN_RATE, warmup_seconds(seconds), None);
    let before = counters(server);
    let (read_trace, write_buf) = match trace {
        Some((r, w, d)) => (Some((r, d)), Some(w)),
        None => (None, None),
    };
    let env = &fixture.env;
    let origin = gen.origin;
    let start_ns = gen.now_ns();
    std::thread::scope(|scope| {
        let writes =
            scope.spawn(move || writer(server, env, seed, origin, start_ns, seconds, write_buf));
        let requests = gen.offer(server, CHURN_RATE, seconds, read_trace);
        let (epochs, write_ms) = writes.join().expect("the writer thread does not panic");
        (requests, epochs, write_ms, before)
    })
}
