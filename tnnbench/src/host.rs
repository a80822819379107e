//! Host and build fingerprint, and the process's peak memory.
//!
//! Results are only comparable on one host with one compiler: the
//! `compare` command refuses two reports whose host fields differ.

use std::process::Command;

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// CPU model name.
    pub cpu: String,
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the measured tree, `none` outside a git checkout.
    pub commit: String,
    /// Whether the measured tree had uncommitted changes.
    pub dirty: bool,
}

/// Fields that must match for two results to be compared.
pub const HOST_FIELDS: [&str; 3] = ["cpu", "nproc", "rustc"];

impl Fingerprint {
    /// The fingerprint of this process's host and build.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
        let dirty =
            git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
        Fingerprint {
            cpu,
            nproc,
            rustc: env!("TNNBENCH_RUSTC").to_string(),
            commit,
            dirty,
        }
    }

    /// `(field, value)` pairs, host fields first.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cpu", self.cpu.clone()),
            ("nproc", self.nproc.to_string()),
            ("rustc", self.rustc.clone()),
            ("commit", self.commit.clone()),
            ("dirty", self.dirty.to_string()),
        ]
    }
}

/// Runs git in the current directory only: the ceiling keeps it from
/// searching parent directories for an unrelated repository.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let out = Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
