//! The repository benchmark: three workloads, measured end to end and,
//! in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|scheme-study|served-zipf --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (the end-to-end set with `--trace 0`, the
//! per-layer set with `--trace 1`). README.md beside this crate records
//! why each workload exists and what each metric should move.

mod decor;
mod grid;
mod host;
mod layers;
mod report;
mod sched;
mod served;
mod span;
mod stats;
mod study;

use ccp_errors::{SimError, SimResult};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Run with the timing decorators and report per-layer metrics.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload paper-grid|scheme-study|served-zipf --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> SimResult<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| SimError::spec(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(&flag, &value()?)?,
            "--seconds" => seconds = number(&flag, &value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(SimError::spec(format!(
                            "--trace takes 0 or 1, not {other:?}"
                        )))
                    }
                }
            }
            other => return Err(SimError::unknown("argument", other)),
        }
    }
    if seconds == 0 {
        return Err(SimError::spec("--seconds must be at least 1"));
    }
    Ok(Args {
        workload: workload.ok_or_else(|| SimError::spec("--workload is required"))?,
        seed,
        window: Duration::from_secs(seconds),
        trace,
    })
}

fn number(flag: &str, text: &str) -> SimResult<u64> {
    text.parse()
        .map_err(|e| SimError::spec(format!("{flag}: {e}")))
}

/// Times `runs` repetitions of a workload's set-up and returns the median
/// in seconds with the last set-up's product, which the window then uses.
pub fn repeated_setup<T>(
    runs: usize,
    mut setup: impl FnMut() -> SimResult<T>,
    mut discard: impl FnMut(T),
) -> SimResult<(f64, T)> {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs.max(1) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let product = last.expect("at least one set-up ran");
    Ok((stats::median(&times), product))
}

/// Runs `work` repeatedly until the window is spent (a pass is not started
/// when the median pass would overrun it), at least once. Returns each
/// pass's wall time in seconds.
pub fn repeat_for(
    window: Duration,
    mut work: impl FnMut(usize) -> SimResult<()>,
) -> SimResult<Vec<f64>> {
    let t0 = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    while walls.is_empty()
        || t0.elapsed().as_secs_f64() + stats::median(&walls) <= window.as_secs_f64()
    {
        let t = Instant::now();
        work(walls.len())?;
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok(walls)
}

/// Writes the traced run's spans beside the benchmark's other outputs.
pub fn write_spans(rec: &span::Recorder, args: &Args, out: &mut report::Outcome) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    let header = format!(
        "{{\"host\":\"{}\",\"workload\":\"{}\",\"seed\":{}}}",
        host::Fingerprint::detect().to_string().replace('"', "'"),
        args.workload,
        args.seed
    );
    match rec.write_jsonl(&path, &header) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written ({}): {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Fingerprint::detect();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.window.as_secs(),
        u8::from(args.trace)
    );
    println!("host: {host}");
    let run = match args.workload.as_str() {
        "paper-grid" => grid::run(&args),
        "scheme-study" => study::run(&args),
        "served-zipf" => served::run(&args),
        other => Err(SimError::unknown("workload", other)),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    out.end_to_end
        .entry("peak_rss_mb")
        .or_insert_with(host::peak_rss_mb);
    for n in &out.notes {
        println!("{n}");
    }
    let (set, values) = if args.trace {
        ("per-layer", report::PER_LAYER)
    } else {
        ("end-to-end", report::END_TO_END)
    };
    println!("{set} metrics [{host}]:");
    let map = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for (name, unit) in values {
        let v = map.get(name).copied().unwrap_or(0.0);
        let reference = report::paper_reference(name)
            .map(|r| {
                format!(
                    "  (paper {r:.2}, error {:+.1}%; the model is validated only against the paper's suite averages)",
                    (v / r - 1.0) * 100.0
                )
            })
            .unwrap_or_default();
        println!("  {name:<32} {v:>14.6} {unit}{reference}");
    }
    println!(
        "  {:<32} {:>14.6} ratio  ({} failed of {} attempted)",
        "failed_frac",
        out.failed_frac(),
        out.failed,
        out.attempted
    );
    println!(
        "verdict: {}",
        if out.failed == 0 {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    println!("{}", report::result_line(&out, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> SimResult<Args> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload paper-grid --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.window.as_secs(), a.trace),
            ("paper-grid", 7, 12, true)
        );
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
    }

    #[test]
    fn repeat_for_runs_at_least_once() {
        let walls = repeat_for(Duration::ZERO, |_| Ok(())).unwrap();
        assert_eq!(walls.len(), 1);
    }
}
