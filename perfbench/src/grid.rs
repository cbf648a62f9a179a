//! `paper-grid`: every benchmark × design at the repro budget, once with
//! the paper's latencies and once with halved miss penalties (Fig. 14) —
//! what `repro all`, sweeps and the figures cost. The out-of-order
//! pipeline does most of the host work here.

use crate::decor::traced_cell;
use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::sched::SplitMix64;
use crate::span::Recorder;
use crate::stats::{geomean, median, percentile};
use crate::{host, repeat_for, repeated_setup, write_spans, Args};
use ccp_cache::DesignKind;
use ccp_errors::SimResult;
use ccp_pipeline::RunStats;
use ccp_sim::{run_job, run_sweep, JobSpec, Sweep, SweepConfig};
use ccp_trace::{all_benchmarks, BenchSource, TraceSource};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Instructions per cell: `repro`'s default budget.
const BUDGET: usize = 400_000;

/// Set-up warms the same grid at this fraction of the budget.
const WARMUP_DIVISOR: usize = 16;

/// One grid cell's identity: benchmark index, design, latency variant.
type CellId = (usize, DesignKind, bool);

/// The cells of one pass, in `(halved, benchmark, design)` order.
fn cell_ids() -> Vec<CellId> {
    let n = all_benchmarks().len();
    let mut ids = Vec::new();
    for halved in [false, true] {
        for b in 0..n {
            for d in DesignKind::ALL {
                ids.push((b, d, halved));
            }
        }
    }
    ids
}

fn sweep_config(budget: usize, seed: u64, halved: bool) -> SweepConfig {
    let mut c = SweepConfig::new(budget, seed);
    c.halved_miss_penalty = halved;
    c.threads = host::nproc();
    c
}

/// One untraced pass: the paper-latency sweep, then the halved one.
fn pass(budget: usize, seed: u64) -> SimResult<[Sweep; 2]> {
    let run = |halved| run_sweep(&sweep_config(budget, seed, halved));
    Ok([run(false)?, run(true)?])
}

/// A pass's cells as `Debug` text, in [`cell_ids`] order: the byte form
/// the determinism and traced-identity checks compare.
fn fingerprints(sweeps: &[Sweep; 2]) -> Vec<String> {
    let names: Vec<String> = all_benchmarks().iter().map(|b| b.full_name()).collect();
    cell_ids()
        .into_iter()
        .map(|(b, d, h)| format!("{:?}", sweeps[usize::from(h)].cell(&names[b], d)))
        .collect()
}

/// The invariants every timing cell keeps. `streamed` is the source's
/// instruction count: the benchmark generators finish their current block,
/// so a trace may run a few instructions past the budget.
fn invariant_violation(s: &RunStats, streamed: u64) -> Option<String> {
    if s.instructions != streamed {
        Some(format!(
            "instructions {} != streamed {streamed}",
            s.instructions
        ))
    } else if s.cpi_stack.total() != s.cycles {
        Some(format!(
            "CPI stack {} != cycles {}",
            s.cpi_stack.total(),
            s.cycles
        ))
    } else if s.load_sources.total() + s.forwarded_loads != s.loads {
        Some(format!(
            "load sources {} + forwarded {} != loads {}",
            s.load_sources.total(),
            s.forwarded_loads,
            s.loads
        ))
    } else {
        None
    }
}

/// Geomean over benchmarks of CPP / BC for `metric` in the paper sweep.
pub fn cpp_vs_bc(sweep: &Sweep, metric: fn(&RunStats) -> f64) -> f64 {
    let r: Vec<f64> = sweep
        .normalized(DesignKind::Cpp, metric)
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    geomean(&r)
}

/// The two `sim.*` ratios of a paper-latency sweep.
fn sim_ratios(sweep: &Sweep, out: &mut Outcome) {
    out.end_to_end.insert(
        "sim.cpp_cycles_vs_bc",
        cpp_vs_bc(sweep, |s| s.cycles as f64),
    );
    out.end_to_end.insert(
        "sim.cpp_traffic_vs_bc",
        cpp_vs_bc(sweep, |s| s.hierarchy.memory_traffic_halfwords() as f64),
    );
}

/// Order-preserving parallel map over scoped threads and a shared index.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                slots
                    .lock()
                    .expect("result slots poisoned by a panicking worker")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots poisoned by a panicking worker")
        .into_iter()
        .map(|r| r.expect("every item produced a result"))
        .collect()
}

/// One traced pass: the same cells through the decorated seams, each
/// latency variant as its own parallel sweep like `run_sweep` runs it.
fn traced_pass(rec: &Recorder, seed: u64, pass_no: usize) -> Vec<RunStats> {
    let benches = all_benchmarks();
    let threads = host::nproc();
    let mut out = Vec::new();
    for halved in [false, true] {
        let sweep_id = rec.id();
        let start = rec.now_ns();
        let sources: Vec<BenchSource> = benches
            .iter()
            .map(|&b| BenchSource::new(b, BUDGET, seed))
            .collect();
        let key = |b: usize| (pass_no * 2 + usize::from(halved)) as u64 * 1_000 + b as u64;
        parallel_map(&(0..benches.len()).collect::<Vec<_>>(), threads, |&b| {
            let (id, s) = (rec.id(), rec.now_ns());
            sources[b].trace();
            rec.interval(id, Some(sweep_id), "trace.gen", key(b), s);
        });
        let cells: Vec<CellId> = cell_ids().into_iter().filter(|c| c.2 == halved).collect();
        out.extend(parallel_map(&cells, threads, |&(b, d, h)| {
            let (id, s) = (rec.id(), rec.now_ns());
            let stats = traced_cell(rec, &sources[b], "trace.stream", d, h, key(b), id);
            rec.interval(id, Some(sweep_id), "sweep.cell", key(b), s);
            stats
        }));
        rec.interval(sweep_id, None, "sweep.run", pass_no as u64, start);
    }
    out
}

/// Runs the workload.
pub fn run(args: &Args) -> SimResult<Outcome> {
    let mut out = Outcome::default();
    let seed = args.seed;
    let (setup_s, ()) = repeated_setup(3, || pass(BUDGET / WARMUP_DIVISOR, seed).map(drop), drop)?;
    out.end_to_end.insert("setup_s", setup_s);

    let window = if args.trace {
        args.window / 2
    } else {
        args.window
    };
    let cells_per_pass = cell_ids().len() as u64;
    let mut first: Option<([Sweep; 2], Vec<String>)> = None;
    let mut diverged = 0u64;
    let mut rss = 0.0;
    let walls = repeat_for(window, |_| {
        let sweeps = pass(BUDGET, seed)?;
        let fp = fingerprints(&sweeps);
        match &first {
            None => {
                // Peak memory of set-up plus one pass: later passes only
                // add the allocator's drift over repeated runs.
                rss = host::peak_rss_mb();
                first = Some((sweeps, fp));
            }
            Some((_, f0)) => diverged += fp.iter().zip(f0).filter(|(a, b)| a != b).count() as u64,
        }
        Ok(())
    })?;
    let (sweeps, base) = first.expect("at least one pass ran");
    out.end_to_end.insert("peak_rss_mb", rss);
    out.count(cells_per_pass * walls.len() as u64, diverged);
    if diverged > 0 {
        out.notes.push(format!(
            "CHECK FAILED: {diverged} cells differ between passes"
        ));
    }

    // Checks, outside the window: every cell's invariants, and one sampled
    // cell re-run through `run_job` must equal its grid cell.
    let names: Vec<String> = all_benchmarks().iter().map(|b| b.full_name()).collect();
    let streamed: Vec<u64> = all_benchmarks()
        .iter()
        .map(|b| b.trace(BUDGET, seed).len() as u64)
        .collect();
    for (b, d, h) in cell_ids() {
        let bad = invariant_violation(sweeps[usize::from(h)].cell(&names[b], d), streamed[b]);
        let ok = bad.is_none();
        out.check(ok, || {
            format!("{}/{}: {}", names[b], d.name(), bad.unwrap_or_default())
        });
    }
    let ids = cell_ids();
    let pick = SplitMix64::new(seed).below(ids.len());
    let (b, d, h) = ids[pick];
    let mut spec = JobSpec::new(names[b].clone(), d.name());
    (spec.budget, spec.seed, spec.halved) = (BUDGET, seed, h);
    let rerun = run_job(&spec).map(|s| format!("{s:?}"));
    out.check(rerun.as_ref() == Ok(&base[pick]), || {
        format!("run_job({}) differs from its grid cell", spec.canonical())
    });
    out.notes.push(format!(
        "sampled cell {} re-run through run_job: {}",
        spec.canonical(),
        if rerun.as_ref() == Ok(&base[pick]) {
            "identical"
        } else {
            "DIFFERS"
        }
    ));

    let insts = (cells_per_pass * BUDGET as u64) as f64;
    let p50 = percentile(&walls, 50.0);
    let p99 = percentile(&walls, 99.0);
    out.end_to_end
        .insert("sim_minst_per_s", insts / median(&walls) / 1e6);
    out.end_to_end.insert("job_p50_ms", p50.value * 1e3);
    out.end_to_end.insert("job_p99_ms", p99.value * 1e3);
    out.end_to_end
        .insert("rps_at_slo", cells_per_pass as f64 / median(&walls));
    sim_ratios(&sweeps[0], &mut out);
    out.notes.push(format!(
        "paper-grid: {} passes of {cells_per_pass} cells x {BUDGET} insts on {} threads; pass p50 from {} samples, p99 from {} samples ({} beyond)",
        walls.len(),
        host::nproc(),
        p50.samples,
        p99.samples,
        p99.beyond
    ));

    if args.trace {
        let rec = Recorder::new();
        let mut cells: Vec<RunStats> = Vec::new();
        let traced_walls = repeat_for(window, |n| {
            cells = traced_pass(&rec, seed, n);
            Ok(())
        })?;
        let mut identical = true;
        for (i, s) in cells.iter().enumerate() {
            let same = format!("{s:?}") == base[i];
            identical &= same;
            out.check(same, || {
                format!("traced cell {i} differs from the untraced sweep")
            });
        }
        let passes = traced_walls.len();
        let mut l = Layers::new();
        let totals = layers::from_spans(&rec.spans(), passes, &mut l);
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        let cell_refs: Vec<&RunStats> = cells.iter().collect();
        layers::pipeline(
            &cell_refs,
            get("pipeline.run_source").self_ns / passes as u64,
            &mut l,
        );
        let cpp: Vec<_> = cell_ids()
            .iter()
            .zip(&cells)
            .filter(|((_, d, _), _)| *d == DesignKind::Cpp)
            .map(|(_, s)| &s.hierarchy)
            .collect();
        layers::cpp_counts(&cpp, 1, &mut l);
        let sources: Vec<BenchSource> = all_benchmarks()
            .iter()
            .map(|&b| BenchSource::new(b, BUDGET, seed))
            .collect();
        let srcs: Vec<&dyn TraceSource> = sources.iter().map(|s| s as &dyn TraceSource).collect();
        layers::compressible_frac(&srcs, &mut l);
        let sweep_wall = get("sweep.run").busy_ns as f64;
        l.insert(
            "sweep.idle_frac",
            1.0 - get("sweep.cell").busy_ns as f64 / (sweep_wall * host::nproc() as f64),
        );
        layers::overhead(median(&traced_walls), median(&walls), &mut l);
        out.per_layer = l;
        out.notes.push(format!(
            "traced: {passes} passes, all {} cells byte-identical to the untraced sweep: {}",
            cells.len(),
            identical
        ));
        write_spans(&rec, args, &mut out);
    }
    Ok(out)
}
