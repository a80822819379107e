//! Behavioural tests for a traced, caching server under a repeat-heavy
//! workload: retained traces must account for their end-to-end latency
//! through their spans, and the rendered metrics snapshot must conserve
//! the server's own completion count.

use std::sync::Arc;
use std::time::Duration;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::Query;
use tnn_geom::Rect;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, MetricsRegistry, ServeConfig, Server, ShutdownMode, TraceConfig,
};

const QUERIES: usize = 240;
const POOL: usize = QUERIES / 4;

fn env() -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..2)
        .map(|i| {
            let pts = tnn_datasets::uniform_points(800, &region, 1_310 + i);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, &[0, 0])
}

/// A small pool offered four times over in one batch, so the dequeue
/// probe sees both misses (first occurrences) and hits (repeats queued
/// behind them).
fn repeat_workload() -> Vec<Query> {
    let pool = tnn_datasets::uniform_points(POOL, &Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 7);
    (0..QUERIES).map(|i| Query::tnn(pool[i % POOL])).collect()
}

/// Serves the repeat workload through a traced, caching 2-worker server
/// and waits for every ticket; returns the still-running server.
fn traced_server() -> Server {
    let server = Server::spawn(
        env(),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(QUERIES)
            .backpressure(Backpressure::Block)
            .cache(CacheConfig::new().capacity(2 * POOL))
            .batch_window(8)
            .trace(TraceConfig::on()),
    );
    for ticket in server.submit_batch(repeat_workload()) {
        ticket.unwrap().wait().unwrap();
    }
    server
}

/// log₂ histogram bucket of a duration in whole microseconds.
fn bucket(d: Duration) -> u32 {
    let us = d.as_micros().max(1) as u64;
    63 - us.leading_zeros()
}

#[test]
fn retained_traces_reconcile_spans_with_total() {
    let server = traced_server();
    let recorder = server.recorder().expect("tracing is on");
    assert!(recorder.recorded() > 0, "no traces recorded");
    let slowest = recorder.slowest();
    assert!(!slowest.is_empty(), "flight recorder retained nothing");
    for t in &slowest {
        assert!(!t.spans.is_empty(), "retained trace has no spans: {t:?}");
        // Sub-16 µs totals are dominated by the seams between layers;
        // everything slower must be explained by its spans to within
        // one log₂ bucket.
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
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.cache_hits > 0, "the repeats never hit: {stats:?}");
    assert!(stats.conserved(), "{stats:?}");
}

/// Sums every sample of the per-class `family` counter in a rendered
/// Prometheus snapshot.
fn rendered_sum(text: &str, family: &str) -> u64 {
    let prefix = format!("{family}{{");
    text.lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .expect("counter samples are integers")
        })
        .sum()
}

#[test]
fn rendered_completions_conserve_stats() {
    let server = traced_server();
    // Publish only after shutdown: workers book their counters in
    // micro-batches after resolving tickets, so a snapshot taken right
    // after the last wait() can lag the final fold by one batch.
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!(stats.completed, QUERIES as u64, "{stats:?}");
    let registry = MetricsRegistry::new();
    server.publish_metrics(&registry);
    let text = registry.render_prometheus();
    assert_eq!(
        rendered_sum(&text, "tnn_serve_completed_total"),
        stats.completed,
        "rendered snapshot diverges from the stats fold:\n{text}"
    );
    assert!(
        text.contains("tnn_trace_recorded_total"),
        "recorder series missing from the snapshot:\n{text}"
    );
}
