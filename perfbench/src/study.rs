//! `scheme-study`: `repro compare-schemes` — every benchmark plus two
//! synthetic workloads at opposite compressibility, × two geometries × the
//! CPP, BDI and FPC schemes, replayed functionally and serially. Trace
//! generation, the classification kernels and the CPP hierarchy do all the
//! work; the out-of-order pipeline does none.

use crate::decor::{traced_source, TimedCache, TimedSource};
use crate::grid::cpp_vs_bc;
use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::sched::{shuffle, SplitMix64};
use crate::span::Recorder;
use crate::stats::{median, percentile};
use crate::{host, repeat_for, repeated_setup, Args};
use ccp_cache::HierarchyStats;
use ccp_errors::SimResult;
use ccp_schemes::SchemeKind;
use ccp_sim::fastsim::run_functional_source;
use ccp_sim::perf::conformance_spot_check;
use ccp_sim::schemes_study::{run_study, study_geometries, SchemeStudy, StudyConfig};
use ccp_sim::sweep::{run_sweep_workloads, Workload};
use ccp_sim::{build_design_scheme, SweepConfig};
use ccp_trace::{all_benchmarks, TraceSource};

/// Instructions per workload: `repro`'s default budget.
const BUDGET: usize = 400_000;

/// Set-up warms the same study at this fraction of the budget.
const WARMUP_DIVISOR: usize = 16;

/// The study's synthetic footprint in words: sixteen times the L2.
const FOOTPRINT_WORDS: u32 = 262_144;

/// The two synthetic workloads over `footprint` words: mostly-small and
/// mostly-large values, so compressibility is what differs.
pub fn synthetic(footprint: u32) -> [String; 2] {
    [0.8, 0.1]
        .map(|small| format!("workgen:addr=zipf,small={small},ptr=0.05,footprint={footprint}"))
}

/// Benchmarks re-checked against the reference hierarchy per run.
const SPOT_CHECKED: usize = 2;

/// The study's workload names: all benchmarks, then the synthetics.
pub fn workloads() -> Vec<String> {
    all_benchmarks()
        .iter()
        .map(|b| b.full_name())
        .chain(synthetic(FOOTPRINT_WORDS))
        .collect()
}

fn study(budget: usize, seed: u64) -> SimResult<SchemeStudy> {
    run_study(&StudyConfig::new(budget, seed, workloads()))
}

/// A study's cells as `Debug` text, in the study's own order.
fn fingerprints(s: &SchemeStudy) -> Vec<String> {
    s.cells
        .iter()
        .map(|c| format!("{:?}|{}|{:?}", c.stats, c.mem_ops, c.cache_key))
        .collect()
}

fn span_name(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Cpp => "schemes.cpp.replay",
        SchemeKind::Bdi => "schemes.bdi.replay",
        SchemeKind::Fpc => "schemes.fpc.replay",
    }
}

/// One traced study pass: `run_study`'s loop with both seams decorated.
/// Returns the cells' fingerprints and hierarchy statistics.
fn traced_pass(
    rec: &Recorder,
    seed: u64,
    pass_no: usize,
) -> SimResult<Vec<(String, HierarchyStats)>> {
    let mut cells = Vec::new();
    let pass_id = rec.id();
    let pass_start = rec.now_ns();
    for (w, name) in workloads().iter().enumerate() {
        let key = (pass_no * 100 + w) as u64;
        let workload = Workload::by_name(name)?;
        let (source, stream_span) = traced_source(rec, workload, BUDGET, seed, key, pass_id);
        let timed_src = TimedSource::new(source.as_ref(), rec);
        for g in study_geometries() {
            for scheme in SchemeKind::ALL {
                let mut sim = build_design_scheme(g.config, scheme);
                let (id, s) = (rec.id(), rec.now_ns());
                let mut timed = TimedCache::new(sim.as_mut(), rec);
                let fs = run_functional_source(&timed_src, &mut timed, 0);
                rec.interval(id, Some(pass_id), span_name(scheme), key, s);
                rec.aggregate(id, "cpp.access", key, &timed.tally);
                let (init, stream) = timed_src.take();
                rec.aggregate(id, "source.initial_mem", key, &init);
                rec.aggregate(id, stream_span, key, &stream);
                let mut spec = ccp_sim::JobSpec::new(name.clone(), "CPP");
                (spec.scheme, spec.budget, spec.seed) = (scheme.name().to_string(), BUDGET, seed);
                cells.push((
                    format!("{:?}|{}|{:?}", fs.hierarchy, fs.mem_ops, spec.cache_key()),
                    fs.hierarchy,
                ));
            }
        }
    }
    rec.interval(pass_id, None, "study.pass", pass_no as u64, pass_start);
    Ok(cells)
}

/// Runs the workload.
pub fn run(args: &Args) -> SimResult<Outcome> {
    let mut out = Outcome::default();
    let seed = args.seed;
    let (setup_s, ()) = repeated_setup(3, || study(BUDGET / WARMUP_DIVISOR, seed).map(drop), drop)?;
    out.end_to_end.insert("setup_s", setup_s);

    let window = if args.trace {
        args.window / 2
    } else {
        args.window
    };
    let mut first: Option<(SchemeStudy, Vec<String>)> = None;
    let mut diverged = 0u64;
    let mut rss = 0.0;
    let mut keys_distinct = true;
    let walls = repeat_for(window, |_| {
        let s = study(BUDGET, seed)?;
        keys_distinct &= s.cache_keys_scheme_distinct();
        let fp = fingerprints(&s);
        match &first {
            None => {
                // Peak memory of set-up plus one pass: later passes only
                // add the allocator's drift over repeated runs.
                rss = host::peak_rss_mb();
                first = Some((s, fp));
            }
            Some((_, f0)) => diverged += fp.iter().zip(f0).filter(|(a, b)| a != b).count() as u64,
        }
        Ok(())
    })?;
    let (base, base_fp) = first.expect("at least one pass ran");
    let cells_per_pass = base.cells.len() as u64;
    out.end_to_end.insert("peak_rss_mb", rss);
    out.count(cells_per_pass * walls.len() as u64, diverged);
    if diverged > 0 {
        out.notes.push(format!(
            "CHECK FAILED: {diverged} cells differ between passes"
        ));
    }
    out.check(keys_distinct, || {
        "cache keys are not scheme-distinct".into()
    });

    // Outside the window: the optimized CPP hierarchy must equal the
    // reference hierarchy on sampled benchmarks.
    let mut benches = all_benchmarks();
    shuffle(&mut benches, &mut SplitMix64::new(seed));
    benches.truncate(SPOT_CHECKED);
    let diverging = conformance_spot_check(&benches, BUDGET, seed);
    out.check(diverging.is_empty(), || {
        format!("optimized != reference hierarchy on {diverging:?}")
    });
    out.notes.push(format!(
        "conformance spot check (optimized == RefCppHierarchy) on {:?}: {}",
        benches.iter().map(|b| b.full_name()).collect::<Vec<_>>(),
        if diverging.is_empty() { "pass" } else { "FAIL" }
    ));

    // Outside the window: the study is functional, so its `sim.*` ratios
    // come from a BC/CPP timing pair over the same workloads.
    let list: Vec<Workload> = workloads()
        .iter()
        .map(|n| Workload::by_name(n))
        .collect::<SimResult<_>>()?;
    let mut cfg = SweepConfig::new(BUDGET, seed);
    cfg.designs = vec!["BC".into(), "CPP".into()];
    cfg.threads = host::nproc();
    let pair = run_sweep_workloads(&list, &cfg)?;
    out.end_to_end.insert(
        "sim.cpp_cycles_vs_bc",
        cpp_vs_bc(&pair, |s| s.cycles as f64),
    );
    out.end_to_end.insert(
        "sim.cpp_traffic_vs_bc",
        cpp_vs_bc(&pair, |s| s.hierarchy.memory_traffic_halfwords() as f64),
    );

    let insts = (cells_per_pass * BUDGET as u64) as f64;
    let (p50, p99) = (percentile(&walls, 50.0), percentile(&walls, 99.0));
    out.end_to_end
        .insert("sim_minst_per_s", insts / median(&walls) / 1e6);
    out.end_to_end.insert("job_p50_ms", p50.value * 1e3);
    out.end_to_end.insert("job_p99_ms", p99.value * 1e3);
    out.end_to_end
        .insert("rps_at_slo", cells_per_pass as f64 / median(&walls));
    out.notes.push(format!(
        "scheme-study: {} passes of {cells_per_pass} cells x {BUDGET} insts, serial; pass p50 from {} samples, p99 from {} samples ({} beyond)",
        walls.len(),
        p50.samples,
        p99.samples,
        p99.beyond
    ));

    if args.trace {
        let rec = Recorder::new();
        let mut cells = Vec::new();
        let traced_walls = repeat_for(window, |n| {
            cells = traced_pass(&rec, seed, n)?;
            Ok(())
        })?;
        let mut identical = cells.len() == base_fp.len();
        for (i, (fp, _)) in cells.iter().enumerate() {
            let same = base_fp.get(i) == Some(fp);
            identical &= same;
            out.check(same, || {
                format!("traced study cell {i} differs from run_study")
            });
        }
        let passes = traced_walls.len();
        let mut l = Layers::new();
        layers::from_spans(&rec.spans(), passes, &mut l);
        let hier: Vec<&HierarchyStats> = cells.iter().map(|(_, h)| h).collect();
        layers::cpp_counts(&hier, 1, &mut l);
        let sources: Vec<Box<dyn TraceSource + Send>> =
            list.iter().map(|w| w.source(BUDGET, seed)).collect();
        let srcs: Vec<&dyn TraceSource> = sources
            .iter()
            .map(|s| s.as_ref() as &dyn TraceSource)
            .collect();
        layers::compressible_frac(&srcs, &mut l);
        layers::overhead(median(&traced_walls), median(&walls), &mut l);
        out.per_layer = l;
        out.notes.push(format!(
            "traced: {passes} passes, all {} cells byte-identical to run_study: {identical}",
            cells.len()
        ));
        crate::write_spans(&rec, args, &mut out);
    }
    Ok(out)
}
