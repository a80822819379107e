//! `BENCHMARK.json` at the repository root names the same workloads and
//! metrics, with the same units, directions and bounds, as the catalog
//! the benchmark reports from.

#![allow(clippy::disallowed_methods)]

use tnnbench::metrics::{end_to_end, per_layer, Metric};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn entry(m: &Metric) -> String {
    let mut s = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name,
        m.unit,
        m.better.name()
    );
    if let Some(bound) = m.bound {
        s.push_str(&format!(", \"bound\": {bound}"));
    }
    s.push('}');
    s
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let json = benchmark_json();
    let metrics: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
    for m in &metrics {
        assert!(
            json.contains(&entry(m)),
            "BENCHMARK.json lacks {}",
            entry(m)
        );
    }
    let workloads = ["engine-exact", "serve-zipf", "serve-churn", "shard-skew"];
    for w in workloads {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        metrics.len() + workloads.len(),
        "BENCHMARK.json lists something the catalog does not"
    );
}
