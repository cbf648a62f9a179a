//! The metric vocabulary and the result a workload hands back.
//!
//! Every workload reports every metric named here, so one result line has
//! the same keys whatever the workload. README.md beside this crate says
//! what each metric means on each workload.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("rps_at_slo", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim.cpp_cycles_vs_bc", "ratio"),
    ("sim.cpp_traffic_vs_bc", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, reported by traced runs. A layer a
/// workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_s", "s"),
    ("workgen.stream_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.host_ns_per_sim_cycle", "ns"),
    ("pipeline.mem_stall_frac", "ratio"),
    ("cpp.access_s", "s"),
    ("cpp.ns_per_access", "ns"),
    ("cache.access_s", "s"),
    ("cpp.l1_misses", "count"),
    ("cpp.affiliated_hits", "count"),
    ("cpp.prefetch_useful_ratio", "ratio"),
    ("schemes.cpp.replay_s", "s"),
    ("schemes.bdi.replay_s", "s"),
    ("schemes.fpc.replay_s", "s"),
    ("compress.compressible_frac", "ratio"),
    ("sweep.cell_s", "s"),
    ("sweep.idle_frac", "ratio"),
    ("served.hit_ratio", "ratio"),
    ("served.rtt_hit_ms", "ms"),
    ("served.rtt_miss_ms", "ms"),
    ("served.shed", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.result_bytes", "bytes"),
    ("store.disk_hit_ratio", "ratio"),
    ("store.disk_writes", "count"),
    ("store.ram_evictions", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Paper reference for a `sim.*` ratio: the EXPERIMENTS.md suite averages
/// (Fig. 11: CPP about 7% faster than BC; Fig. 10: about 90% of BC's
/// memory traffic).
pub fn paper_reference(name: &str) -> Option<f64> {
    match name {
        "sim.cpp_cycles_vs_bc" => Some(0.93),
        "sim.cpp_traffic_vs_bc" => Some(0.90),
        _ => None,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end values by name (untraced measurements).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Operations attempted (cells, requests, checks).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Counts `n` operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Failed over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with the end-to-end or the per-layer set.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let (names, values) = if traced {
        (PER_LAYER, &out.per_layer)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit `f64` holds (non-finite values, which
/// JSON cannot carry, become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.count(10, 0);
        out.end_to_end.insert("setup_s", 0.25);
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = result_line(&out, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.check(false, || "x".into());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(result_line(&out, false).starts_with("{\"correct\": false"));
        assert_eq!(out.failed_frac(), 0.5);
    }
}
