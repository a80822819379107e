//! The benchmark's command line.
//!
//! ```sh
//! cargo run --release --manifest-path tnnbench/Cargo.toml -- \
//!     --workload engine-exact --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON result object. `--out FILE` also saves the report with the
//! host and build fingerprint; `compare BASE HEAD` compares two saved
//! reports and refuses when they come from different hosts or builds.

#![forbid(unsafe_code)]
// A benchmark reads the wall clock by design; the repository's
// determinism lint (R1, `clippy.toml`) does not apply here.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::process::ExitCode;
use tnnbench::host::Fingerprint;
use tnnbench::metrics::{self, Report, SavedReport};
use tnnbench::spans::Trace;
use tnnbench::{engine_exact, serve, shard_skew};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["engine-exact", "serve-zipf", "serve-churn", "shard-skew"];

/// Where traced runs write their spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: tnnbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out FILE]\n       \
         tnnbench compare BASE.tsv HEAD.tsv",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    if parsed.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(parsed)
}

fn run(args: &Args) -> (Report, Option<Trace>) {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "engine-exact" => engine_exact::run(seed, seconds, trace),
        "serve-zipf" => serve::run_zipf(seed, seconds, trace),
        "serve-churn" => serve::run_churn(seed, seconds, trace),
        "shard-skew" => shard_skew::run(seed, seconds, trace),
        _ => unreachable!("parse() admits only known workloads"),
    }
}

fn compare(paths: &[String]) -> ExitCode {
    let [base, head] = paths else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|text| SavedReport::parse(&text).map_err(|e| format!("{p}: {e}")))
    };
    match read(base)
        .and_then(|b| read(head).map(|h| (b, h)))
        .and_then(|(b, h)| metrics::compare(&b, &h))
    {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::current();
    eprintln!(
        "tnnbench: {} seed {} for {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let (mut report, trace) = run(&args);
    report.set(
        "failed_share",
        (report.failed + report.mismatches) as f64 / report.attempted.max(1) as f64,
    );

    for (field, value) in fingerprint.fields() {
        println!("host {field} = {value}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    let catalog = metrics::end_to_end()
        .into_iter()
        .chain(metrics::reported_only())
        .chain(metrics::per_layer())
        .chain(metrics::per_layer_reported_only());
    for m in catalog {
        if let Some(v) = report.values.get(&m.name) {
            println!("{} = {v} {}", m.name, m.unit);
        }
    }
    if let Some(trace) = &trace {
        for (name, t) in trace.self_times() {
            println!(
                "self time {name}: {} spans, {:.3} ms total, {:.3} ms self",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path =
            PathBuf::from(SPANS_DIR).join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match trace.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    if let Some(out) = &args.out {
        let run_args = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
        ];
        if let Err(e) = std::fs::write(out, report.to_tsv(&fingerprint, &run_args)) {
            eprintln!("could not write {}: {e}", out.display());
        }
    }
    if !report.correct() {
        eprintln!("tnnbench: {} wrong answers", report.mismatches);
    }
    println!("{}", report.result_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
