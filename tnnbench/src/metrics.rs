//! The metric catalog, the per-run report, and the result formats.
//!
//! `BENCHMARK.json` at the repository root lists the same end-to-end and
//! per-layer metrics; `tests/catalog.rs` keeps the two in step.

use crate::host::{Fingerprint, HOST_FIELDS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: every workload reports every one of them, with
/// tracing off.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("qps", "1/s", Higher, Some(0.25)),
        metric("latency_p50_us", "us", Lower, Some(0.25)),
        metric("access_slots_mean", "slots", Lower, Some(0.05)),
        metric("tune_in_pages_mean", "pages", Lower, Some(0.05)),
        metric("peak_rss_mb", "MB", Lower, Some(0.15)),
    ]
}

/// End-to-end metrics that are printed and saved with the report but
/// are not part of the result line. The result line carries only metrics
/// that every workload has and that repeat within their bound: the first
/// three apply to some workloads only, and the open loops' tail latency
/// varies between runs by more than the largest bound (README.md).
pub fn reported_only() -> Vec<Metric> {
    use Better::*;
    vec![
        metric("latency_p99_us", "us", Lower, None),
        metric("max_rate_ok_qps", "1/s", Higher, None),
        metric("failed_share", "ratio", Lower, None),
        metric("write_p50_ms", "ms", Lower, None),
    ]
}

/// The class labels of the exact algorithms at k = 2 and 3.
pub const CLASSES: [&str; 6] = [
    "window.k2",
    "double.k2",
    "hybrid.k2",
    "window.k3",
    "double.k3",
    "hybrid.k3",
];

/// Per-layer metrics, reported by the traced run. Every timing here is
/// measured on every workload; a count or ratio of a layer the workload
/// does not call reads 0.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut out = vec![
        metric("geom.min_max_dist_sq_ns", "ns", Lower, None),
        metric("rtree.build_ms", "ms", Lower, None),
        metric("rtree.materialize_ms", "ms", Lower, None),
        metric("core.env_snapshot_ns", "ns", Lower, None),
    ];
    for class in CLASSES {
        out.push(metric(&format!("core.run_us.{class}"), "us", Lower, None));
    }
    for k in ["k2", "k3"] {
        for phase in ["estimate", "filter", "join"] {
            out.push(metric(&format!("core.{phase}_us.{k}"), "us", Lower, None));
        }
    }
    for (counter, unit) in [
        ("estimate_pages", "pages"),
        ("filter_pages", "pages"),
        ("candidates", "count"),
        ("prune_hits", "count"),
        ("peak_queue_over_bound", "ratio"),
    ] {
        for class in CLASSES {
            out.push(metric(
                &format!("core.{counter}.{class}"),
                unit,
                Lower,
                None,
            ));
        }
    }
    out.extend([
        metric("qos.cache_hit_rate", "ratio", Higher, None),
        metric("qos.cache_coalesced", "count", Higher, None),
        metric("qos.cache_evictions", "count", Lower, None),
        metric("serve.queue_depth_p99", "count", Lower, None),
        metric("shard.overhead_ratio", "ratio", Lower, None),
        metric("shard.scatter_pruned_share", "ratio", Higher, None),
        metric("shard.gather_prune_rate", "ratio", Higher, None),
        metric("shard.fallback_share", "ratio", Lower, None),
        metric("shard.scatter_rejected_share", "ratio", Lower, None),
        metric("shard.replicas_spawned", "count", Lower, None),
        metric("trace.overhead_ratio", "ratio", Higher, None),
    ]);
    out
}

/// Per-layer timings that only some workloads have. They are printed
/// and saved with the traced report but are not part of its result line:
/// a time that reads 0 on every run of a workload is not a measurement.
pub fn per_layer_reported_only() -> Vec<Metric> {
    use Better::*;
    vec![
        metric("serve.submit_us", "us", Lower, None),
        metric("serve.queue_wait_us", "us", Lower, None),
        metric("serve.swap_env_us", "us", Lower, None),
        metric("shard.run_us", "us", Lower, None),
    ]
}

fn unit_of(name: &str) -> &'static str {
    end_to_end()
        .into_iter()
        .chain(reported_only())
        .chain(per_layer())
        .chain(per_layer_reported_only())
        .find(|m| m.name == name)
        .map_or_else(|| panic!("metric {name} is not in the catalog"), |m| m.unit)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests or queries attempted in the measured window.
    pub attempted: u64,
    /// Of those, refused, shed, expired or errored.
    pub failed: u64,
    /// Wrong answers found by the checks; the result line counts them
    /// as failed too.
    pub mismatches: u64,
    /// Every metric measured, by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable detail lines (rate steps, findings, self times).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric; the name must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        unit_of(name);
        self.values.insert(name.to_string(), value);
    }

    /// Records the tail latency `(percentile, value)` from
    /// [`crate::stats::tail`], noting when it is not a p99.
    pub fn set_tail(&mut self, (q, value): (f64, f64)) {
        self.set("latency_p99_us", value);
        if q != 0.99 {
            self.note(format!(
                "latency_p99_us reports p{:.0}: too few samples for a p99",
                q * 100.0
            ));
        }
    }

    /// Records a closed loop's attempts, throughput and latencies.
    pub fn closed_loop(
        &mut self,
        (completed, failed): (u64, u64),
        qps: f64,
        latencies_us: &mut [f64],
    ) {
        self.attempted += completed + failed;
        self.failed += failed;
        self.set("qps", qps);
        self.set("latency_p50_us", crate::stats::median(latencies_us));
        self.set_tail(crate::stats::tail(latencies_us));
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every answer check passed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The result line: one JSON object whose metrics are exactly the
    /// end-to-end catalog (`traced = false`) or the per-layer catalog
    /// (`traced = true`).
    pub fn result_line(&self, traced: bool) -> String {
        let catalog = if traced { per_layer() } else { end_to_end() };
        let mut metrics = String::new();
        for (i, m) in catalog.iter().enumerate() {
            let value = match self.values.get(&m.name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed + self.mismatches
        )
    }

    /// The saved report: fingerprint, run arguments and every metric, as
    /// tab-separated `kind name value [unit]` rows.
    pub fn to_tsv(&self, fingerprint: &Fingerprint, args: &[(&str, String)]) -> String {
        let mut out = String::new();
        for (field, value) in fingerprint.fields() {
            let _ = writeln!(out, "host\t{field}\t{value}");
        }
        for (field, value) in args {
            let _ = writeln!(out, "arg\t{field}\t{value}");
        }
        let _ = writeln!(out, "check\tattempted\t{}", self.attempted);
        let _ = writeln!(out, "check\tfailed\t{}", self.failed);
        let _ = writeln!(out, "check\tmismatches\t{}", self.mismatches);
        for (name, value) in &self.values {
            let _ = writeln!(out, "metric\t{name}\t{value}\t{}", unit_of(name));
        }
        out
    }
}

/// Formats a finite value with all its digits (JSON has no NaN or ∞).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// A saved report read back: host fields, arguments and metrics.
#[derive(Debug, Default)]
pub struct SavedReport {
    /// `host` rows.
    pub host: BTreeMap<String, String>,
    /// `arg` rows.
    pub args: BTreeMap<String, String>,
    /// `metric` rows.
    pub metrics: BTreeMap<String, f64>,
}

impl SavedReport {
    /// Parses [`Report::to_tsv`] output.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = SavedReport::default();
        for (n, line) in text.lines().enumerate() {
            let cols: Vec<&str> = line.split('\t').collect();
            match cols.as_slice() {
                ["host", field, value] => {
                    out.host.insert(field.to_string(), value.to_string());
                }
                ["arg", field, value] => {
                    out.args.insert(field.to_string(), value.to_string());
                }
                ["metric", name, value, _unit] => {
                    let v = value
                        .parse()
                        .map_err(|_| format!("line {}: bad value {value:?}", n + 1))?;
                    out.metrics.insert(name.to_string(), v);
                }
                ["check", ..] => {}
                _ => return Err(format!("line {}: unrecognized row {line:?}", n + 1)),
            }
        }
        Ok(out)
    }
}

/// Compares two saved reports metric by metric. Refuses (returns `Err`)
/// when their host fields or their workload differ: regressions are
/// settled on one host, with one compiler, on one workload.
pub fn compare(base: &SavedReport, head: &SavedReport) -> Result<String, String> {
    for field in HOST_FIELDS {
        let (a, b) = (base.host.get(field), head.host.get(field));
        if a != b {
            return Err(format!(
                "refusing to compare: host field {field} differs ({a:?} vs {b:?})"
            ));
        }
    }
    if base.args.get("workload") != head.args.get("workload") {
        return Err("refusing to compare: the reports measure different workloads".into());
    }
    let mut out = String::from("metric\tbase\thead\thead/base\n");
    for (name, a) in &base.metrics {
        if let Some(b) = head.metrics.get(name) {
            let ratio = if *a == 0.0 { f64::NAN } else { b / a };
            let _ = writeln!(out, "{name}\t{a}\t{b}\t{ratio:.4}");
        }
    }
    Ok(out)
}
