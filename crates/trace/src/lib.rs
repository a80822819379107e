//! # tnn-trace
//!
//! Cross-layer observability for the broadcast-TNN serving stack: the
//! answer to "why was *this* query slow?" in the paper's own cost
//! vocabulary.
//!
//! Three pieces, all std-only and dependency-free so every layer
//! (serve, qos, faults, shard, sim) can record into them without new
//! edges in the crate graph:
//!
//! * **Span/event model** — [`QueryTrace`] records stamped phases
//!   ([`SpanKind`]: admission wait, cache probe, queue residency,
//!   engine run, retry backoff, degradation, shard scatter/gather/
//!   merge) plus the engine's paper-native counters (node visits ≙
//!   tune-in pages, delayed-pruning hits, the `(H−1)(M−1)`-bounded
//!   peak queue length) threaded through `tnn_core::QueryOutcome`.
//! * **Metrics registry** — [`MetricsRegistry`] holds named counters,
//!   gauges, and [`LatencyHistogram`]s and renders the Prometheus text
//!   exposition format via [`MetricsRegistry::render_prometheus`];
//!   layers publish snapshots of their existing stats structs, so hot
//!   paths are never rewired through the registry.
//! * **Flight recorder** — [`FlightRecorder`] retains the N slowest
//!   and all degraded-or-errored traces in bounded, lock-striped
//!   pools, queryable from `tnn_serve::Server` / `tnn_shard::ShardRouter`.
//!
//! ## Determinism and zero cost when off
//!
//! This crate never reads a clock: every [`std::time::Duration`] is
//! stamped by a caller on an approved timing path, so `tnn-check` R1
//! stays at zero findings. With `TraceConfig::Off` (the default) the
//! serving layers take no stamps and record nothing, and the
//! byte-transparency gate `crates/bench/tests/trace_equivalence.rs`
//! holds traced ≡ untraced for outcomes and stats counters. See
//! `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
mod recorder;
mod registry;
mod span;

pub use histogram::LatencyHistogram;
pub use recorder::FlightRecorder;
pub use registry::MetricsRegistry;
pub use span::{QueryTrace, RecorderConfig, Span, SpanKind, TraceConfig};
