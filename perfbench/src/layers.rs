//! Per-layer metrics from the traced run's spans and the simulator's own
//! counters.

use crate::span::{totals_by_name, Span, Totals};
use crate::stats::ratio;
use ccp_cache::HierarchyStats;
use ccp_pipeline::RunStats;
use ccp_trace::TraceSource;
use std::collections::BTreeMap;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Span-derived layer times, averaged over `passes` traced passes. Returns
/// the per-name totals for callers that derive more from them.
pub fn from_spans(
    spans: &[Span],
    passes: usize,
    out: &mut Layers,
) -> BTreeMap<&'static str, Totals> {
    let totals = totals_by_name(spans);
    let per_pass = |ns: u64| ns as f64 / 1e9 / passes.max(1) as f64;
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("trace.gen_s", "trace.gen"),
        ("workgen.stream_s", "workgen.stream"),
        ("cpp.access_s", "cpp.access"),
        ("cache.access_s", "cache.access"),
        ("schemes.cpp.replay_s", "schemes.cpp.replay"),
        ("schemes.bdi.replay_s", "schemes.bdi.replay"),
        ("schemes.fpc.replay_s", "schemes.fpc.replay"),
        ("sweep.cell_s", "sweep.cell"),
    ] {
        out.insert(metric, per_pass(get(span).busy_ns));
    }
    out.insert(
        "pipeline.self_s",
        per_pass(get("pipeline.run_source").self_ns),
    );
    let cpp = get("cpp.access");
    out.insert(
        "cpp.ns_per_access",
        ratio(cpp.busy_ns as f64, cpp.calls as f64),
    );
    totals
}

/// Pipeline host cost per simulated cycle and the simulated memory-stall
/// share, over the traced timing cells.
pub fn pipeline(cells: &[&RunStats], pipeline_self_ns: u64, out: &mut Layers) {
    let cycles: u64 = cells.iter().map(|s| s.cycles).sum();
    let memory: u64 = cells.iter().map(|s| s.cpi_stack.memory).sum();
    out.insert(
        "pipeline.host_ns_per_sim_cycle",
        ratio(pipeline_self_ns as f64, cycles as f64),
    );
    out.insert(
        "pipeline.mem_stall_frac",
        ratio(memory as f64, cycles as f64),
    );
}

/// CPP hierarchy counters per pass: L1 misses, affiliated hits, and
/// affiliated hits per prefetch issued.
pub fn cpp_counts(hier: &[&HierarchyStats], passes: usize, out: &mut Layers) {
    let sum = |f: fn(&HierarchyStats) -> u64| hier.iter().map(|h| f(h)).sum::<u64>() as f64;
    let affiliated = sum(|h| h.l1.affiliated_hits);
    let passes = passes.max(1) as f64;
    out.insert("cpp.l1_misses", sum(|h| h.l1.misses()) / passes);
    out.insert("cpp.affiliated_hits", affiliated / passes);
    out.insert(
        "cpp.prefetch_useful_ratio",
        ratio(affiliated, sum(|h| h.prefetches_issued)),
    );
}

/// Share of accessed values the paper's scheme compresses, over `sources`.
pub fn compressible_frac(sources: &[&dyn TraceSource], out: &mut Layers) {
    let (mut yes, mut all) = (0u64, 0u64);
    for s in sources {
        ccp_trace::profile_source_values(*s, |v, a| {
            all += 1;
            yes += u64::from(ccp_compress::is_compressible(v, a));
        });
    }
    out.insert("compress.compressible_frac", ratio(yes as f64, all as f64));
}

/// Tracing overhead: traced over untraced wall time for the same work.
pub fn overhead(traced_s: f64, untraced_s: f64, out: &mut Layers) {
    out.insert("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
}
