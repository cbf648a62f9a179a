//! Host fingerprint and process memory, read from `/proc` and the
//! checkout, so rows from different machines are never compared silently.

use std::fmt;
use std::path::Path;

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, when it is a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: nproc(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "none".into()),
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rustc=\"{}\" git={}",
            self.nproc, self.cpu, self.rustc, self.git_rev
        )
    }
}

/// Hardware threads available to the process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves `HEAD` in the git directory `dir` by reading its files, so no
/// process is spawned and nothing outside the checkout is read.
fn git_rev(dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
