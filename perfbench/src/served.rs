//! `served-zipf`: an in-process `ccp-served` server with two workers, a
//! disk store in a fresh directory and a RAM result cache smaller than the
//! mix's working set, driven open-loop. Serving, the wire protocol and the
//! store dominate; each request simulates little.
//!
//! Load is a seeded Poisson arrival schedule at each rate of a fixed
//! ladder, sent over one connection by one writer thread and read back by
//! one reader thread. Every request is timed from the moment it was due,
//! so a stalled sender charges its wait to the requests behind it. Rungs
//! run in order, each after the previous one drained.

use crate::decor::{traced_cell, traced_source};
use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::sched::{poisson_arrivals, shuffle, SplitMix64, Zipf};
use crate::span::Recorder;
use crate::stats::{geomean, percentile, ratio};
use crate::{repeated_setup, study, Args};
use ccp_errors::{SimError, SimResult};
use ccp_pipeline::RunStats;
use ccp_served::{start, Client, Request, Response, ServerConfig, ServerHandle, StatsSnapshot};
use ccp_sim::checkpoint::stats_to_json;
use ccp_sim::sweep::Workload;
use ccp_sim::{run_job, JobSpec};
use ccp_trace::{all_benchmarks, TraceSource};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Instructions per served job.
const BUDGET: usize = 20_000;
/// Server worker threads.
const WORKERS: usize = 2;
/// Job seeds per (workload, design) pair in the ranked mix.
const JOB_SEEDS: u64 = 32;
/// Every this-many-th request asks for a spec never requested before: the
/// unbounded tail of the seed axis. It keeps simulations running at a
/// steady rate in every rung after the ranked mix has all been seen, and
/// puts the p99 among them.
const COLD_EVERY: usize = 80;
/// Zipf exponent over the ranked mix.
const SKEW: f64 = 1.0;
/// RAM result-cache budget: about 540 entries (`ccp_store::entry_cost` is
/// near 480 bytes here), a fifteenth of the mix, so evictions and disk-tier
/// reads happen while RAM hits stay the common case.
const CACHE_BYTES: usize = 256 << 10;
/// Offered rates of the ladder, requests per second.
const RATES: [f64; 3] = [800.0, 1600.0, 3200.0];
/// Each rung's share of the window: most of it goes to the reference rung.
const RUNG_SHARE: [f64; 3] = [0.15, 0.15, 0.7];
/// The rung whose latency `job_p50_ms` and `job_p99_ms` report.
const REFERENCE_RUNG: usize = 2;
/// Latency limit on the p99, timed from each request's due time.
const LIMIT_MS: f64 = 25.0;
/// Job seeds per workload and design that the `sim.*` ratios average over.
const SIM_SEEDS: u64 = 8;
/// Set-up keeps this many warm-up jobs in flight.
const WARM_BATCH: usize = 64;
/// The sender stops sleeping this long before a request is due.
const SPIN_NS: u64 = 200_000;
/// Keeps the mix's shuffle independent of the arrival schedule's stream.
const MIX_SALT: u64 = 0x6d69_785f_7361_6c74;
/// How long a rung may take to drain before its stragglers count failed.
const DRAIN: Duration = Duration::from_secs(10);

/// The served synthetics' footprint in words: the size of the L2. The
/// study's 1 MiB footprint makes a synthetic miss cost five benchmark
/// misses, all of it building the memory image, and the p99 would measure
/// that alone.
const FOOTPRINT_WORDS: u32 = 16_384;

/// The served workloads: every benchmark and the study's two synthetics.
fn workloads() -> Vec<String> {
    let mut w: Vec<String> = all_benchmarks().iter().map(|b| b.full_name()).collect();
    w.extend(study::synthetic(FOOTPRINT_WORDS));
    w
}

/// The ranked mix: index = zipf rank. Every served workload × BC and CPP
/// × `JOB_SEEDS` seeds. Ranks are dealt round-robin over the workloads (in
/// a seed-shuffled order, each workload's own specs seed-shuffled), so
/// every band of ranks holds each workload once and the mix of costs the
/// zipf tail sends to the workers is the same for every seed.
fn mix(seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed ^ MIX_SALT);
    let mut names = workloads();
    shuffle(&mut names, &mut rng);
    let per_workload: Vec<Vec<JobSpec>> = names
        .iter()
        .map(|w| {
            let mut specs = Vec::new();
            for design in ["BC", "CPP"] {
                for s in 1..=JOB_SEEDS {
                    let mut spec = JobSpec::new(w.clone(), design);
                    (spec.budget, spec.seed) = (BUDGET, seed * 1_000 + s);
                    specs.push(spec);
                }
            }
            shuffle(&mut specs, &mut rng);
            specs
        })
        .collect();
    (0..per_workload[0].len())
        .flat_map(|i| per_workload.iter().map(move |specs| specs[i].clone()))
        .collect()
}

/// The `n`th cold spec: workloads and designs in turn, on seeds past the
/// ranked mix's.
fn cold_spec(seed: u64, n: usize) -> JobSpec {
    let names = workloads();
    let mut spec = JobSpec::new(
        names[n % names.len()].clone(),
        ["BC", "CPP"][n / names.len() % 2],
    );
    (spec.budget, spec.seed) = (
        BUDGET,
        seed * 1_000 + JOB_SEEDS + 1 + (n / (2 * names.len())) as u64,
    );
    spec
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    rung: usize,
    /// Due time, seconds after its rung opened.
    offset_s: f64,
    /// Index into the mix: a zipf rank, or the ranked mix's length plus
    /// `n` for the `n`th cold spec.
    spec: usize,
}

/// The whole ladder's requests, rung by rung: Poisson arrivals at each
/// rate, each choosing a spec by zipf rank or, every `COLD_EVERY`th, the
/// next cold spec. Returns the plan and the number of cold specs it asks for.
fn plan(seed: u64, ranked: usize, window_s: f64) -> (Vec<Planned>, usize) {
    let mut rng = SplitMix64::new(seed);
    let zipf = Zipf::new(ranked, SKEW);
    let (mut out, mut cold) = (Vec::new(), 0);
    for (rung, &rate) in RATES.iter().enumerate() {
        for offset_s in poisson_arrivals(&mut rng, rate, window_s * RUNG_SHARE[rung]) {
            let spec = if (out.len() + 1) % COLD_EVERY == 0 {
                cold += 1;
                ranked + cold - 1
            } else {
                zipf.sample(&mut rng)
            };
            out.push(Planned {
                rung,
                offset_s,
                spec,
            });
        }
    }
    (out, cold)
}

/// A running server and the store directory it owns.
struct Server {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Server {
    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }

    fn stop(self) {
        self.handle.shutdown();
        self.handle.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: a fresh store directory, a started server, and every spec of
/// the ranked mix submitted once, so the window opens on a server that has
/// been up: the hot specs in RAM, the rest on disk, and only cold specs
/// left to simulate.
fn setup(ranked: &[JobSpec], n: usize) -> SimResult<Server> {
    let dir = PathBuf::from(format!("perfbench/out/store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| SimError::io(dir.display().to_string(), &e))?;
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        cache_bytes: CACHE_BYTES,
        store_dir: Some(dir.clone()),
        max_queue: 0,
        read_timeout_ms: 50,
    })?;
    let server = Server { handle, dir };
    let warm = (|| {
        let mut c = Client::connect(&server.addr())?;
        for batch in ranked.chunks(WARM_BATCH) {
            for spec in batch {
                c.send(&Request::Submit {
                    spec: spec.clone(),
                    deadline_ms: 0,
                })?;
            }
            let mut done = 0;
            while done < batch.len() {
                match c.recv()? {
                    Response::Result { .. } => done += 1,
                    Response::JobError { class, error, .. } => {
                        return Err(SimError::from_wire(&class, error))
                    }
                    _ => {}
                }
            }
        }
        Ok::<(), SimError>(())
    })();
    match warm {
        Ok(()) => Ok(server),
        Err(e) => {
            server.stop();
            Err(e.in_context("warm-up"))
        }
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Default)]
struct Reply {
    /// ns after the load epoch.
    at_ns: u64,
    ok: bool,
    cached: bool,
    /// The result's `stats` JSON text.
    stats: String,
    /// Wire bytes of the result line.
    bytes: usize,
}

/// Everything the load generator observed.
struct Observed {
    due_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    replies: Vec<Option<Reply>>,
    /// Requests still unanswered when each rung's last request was sent.
    backlog: Vec<usize>,
    /// Rung open times, ns after the epoch.
    rung_open_ns: Vec<u64>,
    encode_ns: u64,
    decode_ns: u64,
    lines: u64,
}

/// Drives the ladder over one connection: a writer thread sends on
/// schedule, a reader thread collects replies. `traced` times encoding and
/// decoding.
fn drive(addr: &str, mix: &[JobSpec], plan: &[Planned], traced: bool) -> SimResult<Observed> {
    let io = |e: std::io::Error| SimError::io(addr, &e);
    let stream = TcpStream::connect(addr).map_err(io)?;
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone().map_err(io)?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(io)?;
    let epoch = Instant::now();
    let ns = move || epoch.elapsed().as_nanos() as u64;
    let total = plan.len();
    let terminal = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);

    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut out = stream;
            let (mut due_ns, mut sent_ns) = (Vec::with_capacity(total), Vec::with_capacity(total));
            let (mut backlog, mut rung_open_ns, mut encode_ns) = (Vec::new(), Vec::new(), 0u64);
            let mut i = 0;
            let mut result = Ok(());
            for rung in 0..RATES.len() {
                let open = ns();
                rung_open_ns.push(open);
                while i < total && plan[i].rung == rung {
                    let due = open + (plan[i].offset_s * 1e9) as u64;
                    wait_until(&ns, due);
                    let t = ns();
                    let req = Request::Submit {
                        spec: mix[plan[i].spec].clone(),
                        deadline_ms: 0,
                    };
                    let mut line = req.to_line();
                    if traced {
                        encode_ns += ns() - t;
                    }
                    line.push('\n');
                    due_ns.push(due);
                    sent_ns.push(t);
                    if let Err(e) = out.write_all(line.as_bytes()) {
                        result = Err(io(e));
                        break;
                    }
                    i += 1;
                }
                backlog.push(i - terminal.load(Ordering::SeqCst).min(i));
                let give_up = ns() + DRAIN.as_nanos() as u64;
                while terminal.load(Ordering::SeqCst) < i && ns() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if result.is_err() {
                    break;
                }
            }
            finished.store(true, Ordering::SeqCst);
            result.map(|()| (due_ns, sent_ns, backlog, rung_open_ns, encode_ns))
        });
        let reader = s.spawn(|| {
            let mut input = BufReader::new(read_half);
            let mut replies: Vec<Option<Reply>> = vec![None; total];
            let mut jobs: HashMap<u64, usize> = HashMap::new();
            let (mut acks, mut decode_ns, mut lines) = (0usize, 0u64, 0u64);
            let mut line = String::new();
            let finish = |replies: &mut Vec<Option<Reply>>, req: usize, reply: Reply| {
                if let Some(slot) = replies.get_mut(req) {
                    if slot.is_none() {
                        *slot = Some(reply);
                        terminal.fetch_add(1, Ordering::SeqCst);
                    }
                }
            };
            while terminal.load(Ordering::SeqCst) < total && !finished.load(Ordering::SeqCst) {
                match input.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    // A timeout keeps any partial line in `line`; the next
                    // read appends the rest.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        continue
                    }
                    Err(_) => break,
                }
                let at_ns = ns();
                let parsed = Response::parse(line.trim_end());
                if traced {
                    decode_ns += ns() - at_ns;
                }
                lines += 1;
                let failed = Reply {
                    at_ns,
                    ..Reply::default()
                };
                match parsed {
                    Ok(Response::Accepted { job, .. }) => {
                        jobs.insert(job, acks);
                        acks += 1;
                    }
                    Ok(Response::Result {
                        job, cached, stats, ..
                    }) => {
                        if let Some(req) = jobs.remove(&job) {
                            let reply = Reply {
                                at_ns,
                                ok: true,
                                cached,
                                stats: stats.to_string(),
                                bytes: line.trim_end().len(),
                            };
                            finish(&mut replies, req, reply);
                        }
                    }
                    Ok(Response::JobError { job, .. }) => {
                        if let Some(req) = jobs.remove(&job) {
                            finish(&mut replies, req, failed);
                        }
                    }
                    // A submit answered without a job id: shed, draining,
                    // or rejected.
                    Ok(
                        Response::Overloaded { .. }
                        | Response::ShuttingDown { .. }
                        | Response::ProtocolError { .. },
                    ) => {
                        finish(&mut replies, acks, failed);
                        acks += 1;
                    }
                    Ok(_) | Err(_) => {}
                }
                line.clear();
            }
            (replies, decode_ns, lines)
        });
        (writer.join(), reader.join())
    });
    let (due_ns, sent_ns, backlog, rung_open_ns, encode_ns) =
        writer.map_err(|p| SimError::from_panic("load writer", p.as_ref()))??;
    let (replies, decode_ns, lines) =
        reader.map_err(|p| SimError::from_panic("load reader", p.as_ref()))?;
    Ok(Observed {
        due_ns,
        sent_ns,
        replies,
        backlog,
        rung_open_ns,
        encode_ns,
        decode_ns,
        lines,
    })
}

/// Sleeps until shortly before `due` (ns on the `now` clock), then yields
/// until it arrives: a plain sleep overshoots by about 0.1 ms, as long as a
/// cache hit takes, and that would be charged to every request.
fn wait_until(now: &impl Fn() -> u64, due: u64) {
    let t = now();
    if due > t + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(due - t - SPIN_NS));
    }
    while now() < due {
        std::thread::yield_now();
    }
}

/// Latency of request `i` from its due time, in ms. A failed or
/// unanswered request counts as the drain limit, past any latency limit.
fn latency_ms(obs: &Observed, i: usize) -> f64 {
    match &obs.replies[i] {
        Some(r) if r.ok => (r.at_ns.saturating_sub(obs.due_ns[i])) as f64 / 1e6,
        _ => DRAIN.as_secs_f64() * 1e3,
    }
}

/// One rung's outcome.
#[derive(Debug, Clone)]
struct Rung {
    rate: f64,
    latencies: Vec<f64>,
    backlog: usize,
    /// Completed requests per second over the rung.
    achieved: f64,
    meets_slo: bool,
}

fn rungs(obs: &Observed, plan: &[Planned]) -> Vec<Rung> {
    let sent = obs.sent_ns.len();
    (0..RATES.len().min(obs.rung_open_ns.len()))
        .map(|r| {
            let idx: Vec<usize> = (0..sent).filter(|&i| plan[i].rung == r).collect();
            let latencies: Vec<f64> = idx.iter().map(|&i| latency_ms(obs, i)).collect();
            let ok: Vec<u64> = idx
                .iter()
                .filter_map(|&i| obs.replies[i].as_ref().filter(|x| x.ok).map(|x| x.at_ns))
                .collect();
            let span_s = ok
                .iter()
                .max()
                .map_or(0.0, |&end| (end - obs.rung_open_ns[r]) as f64 / 1e9);
            let rate = RATES[r];
            let backlog = obs.backlog.get(r).copied().unwrap_or(idx.len());
            let p99 = percentile(&latencies, 99.0).value;
            Rung {
                rate,
                achieved: ratio(ok.len() as f64, span_s),
                meets_slo: !latencies.is_empty()
                    && p99 <= LIMIT_MS
                    && backlog as f64 <= rate * LIMIT_MS / 1e3 + 1.0,
                latencies,
                backlog,
            }
        })
        .collect()
}

fn server_stats(addr: &str) -> SimResult<StatsSnapshot> {
    Client::connect(addr).and_then(|mut c| c.stats())
}

/// Runs the workload.
pub fn run(args: &Args) -> SimResult<Outcome> {
    let mut out = Outcome::default();
    let mut mix = mix(args.seed);
    let ranked = mix.len();
    let (plan, cold) = plan(args.seed, ranked, args.window.as_secs_f64());
    mix.extend((0..cold).map(|n| cold_spec(args.seed, n)));
    let mut n = 0;
    let (setup_s, server) = repeated_setup(
        3,
        || {
            n += 1;
            setup(&mix[..ranked], n)
        },
        Server::stop,
    )?;
    out.end_to_end.insert("setup_s", setup_s);
    let addr = server.addr();
    let driven = (|| {
        let before = server_stats(&addr)?;
        let obs = drive(&addr, &mix, &plan, args.trace)?;
        let after = server_stats(&addr)?;
        Ok::<_, SimError>((before, obs, after))
    })();
    server.stop();
    let (before, obs, after) = driven?;

    // Every answer must equal an in-process `run_job` of the same spec.
    let mut reference: BTreeMap<String, SimResult<RunStats>> = BTreeMap::new();
    // (instructions, seconds) of the reference runs.
    let mut cost = (0u64, 0.0f64);
    let solve = |spec: &JobSpec, cost: &mut (u64, f64)| {
        let t = Instant::now();
        let r = run_job(spec);
        cost.1 += t.elapsed().as_secs_f64();
        cost.0 += r.as_ref().map_or(0, |s| s.instructions);
        r
    };
    let mut requested: Vec<usize> = plan.iter().map(|p| p.spec).collect();
    requested.sort_unstable();
    requested.dedup();
    for &i in &requested {
        reference.insert(mix[i].canonical(), solve(&mix[i], &mut cost));
    }
    let requested_s = cost.1;
    let expected: BTreeMap<&str, String> = reference
        .iter()
        .filter_map(|(k, r)| {
            r.as_ref()
                .ok()
                .map(|s| (k.as_str(), stats_to_json(s).to_string()))
        })
        .collect();
    let mut wrong = 0u64;
    for (i, p) in plan.iter().enumerate() {
        let want = expected.get(mix[p.spec].canonical().as_str());
        let reply = obs.replies.get(i).and_then(Option::as_ref).filter(|r| r.ok);
        let ok = reply.is_some_and(|r| Some(&r.stats) == want);
        wrong += u64::from(reply.is_some() && !ok);
        out.check(ok, || {
            format!(
                "request {i} ({}): missing, failed or wrong",
                mix[p.spec].canonical()
            )
        });
    }
    out.notes.push(format!(
        "served-zipf: {} requests over {} distinct specs; {} answers differ from in-process run_job",
        plan.len(),
        requested.len(),
        wrong
    ));

    // sim.*: BC and CPP over every workload of the mix at its first seeds.
    let (mut cyc, mut traffic) = (Vec::new(), Vec::new());
    for w in workloads() {
        for s in 1..=SIM_SEEDS {
            let mut pair = Vec::new();
            for design in ["BC", "CPP"] {
                let mut spec = JobSpec::new(w.clone(), design);
                (spec.budget, spec.seed) = (BUDGET, args.seed * 1_000 + s);
                let r = match reference.get(&spec.canonical()) {
                    Some(r) => r.clone(),
                    None => solve(&spec, &mut cost),
                };
                pair.push(r?);
            }
            cyc.push(ratio(pair[1].cycles as f64, pair[0].cycles as f64));
            traffic.push(ratio(
                pair[1].hierarchy.memory_traffic_halfwords() as f64,
                pair[0].hierarchy.memory_traffic_halfwords() as f64,
            ));
        }
    }
    out.end_to_end.insert("sim.cpp_cycles_vs_bc", geomean(&cyc));
    out.end_to_end
        .insert("sim.cpp_traffic_vs_bc", geomean(&traffic));
    out.end_to_end
        .insert("sim_minst_per_s", ratio(cost.0 as f64, cost.1) / 1e6);

    let ladder = rungs(&obs, &plan);
    for r in &ladder {
        let (p50, p99) = (
            percentile(&r.latencies, 50.0),
            percentile(&r.latencies, 99.0),
        );
        out.notes.push(format!(
            "rung {:>5.0}/s: {} requests, p50 {:.3} ms, p99 {:.3} ms ({} beyond), backlog {}, achieved {:.1}/s, meets {LIMIT_MS} ms p99 limit: {}",
            r.rate, p50.samples, p50.value, p99.value, p99.beyond, r.backlog, r.achieved, r.meets_slo
        ));
    }
    let reference_rung = &ladder[REFERENCE_RUNG.min(ladder.len() - 1)];
    let (p50, p99) = (
        percentile(&reference_rung.latencies, 50.0),
        percentile(&reference_rung.latencies, 99.0),
    );
    out.end_to_end.insert("job_p50_ms", p50.value);
    out.end_to_end.insert("job_p99_ms", p99.value);
    out.end_to_end.insert(
        "rps_at_slo",
        ladder
            .iter()
            .rev()
            .find(|r| r.meets_slo)
            .map_or(0.0, |r| r.achieved),
    );
    out.notes.push(format!(
        "job latency at the {:.0}/s reference rung: p50 {:.3} ms over {} samples, p99 {:.3} ms with {} samples beyond",
        reference_rung.rate, p50.value, p50.samples, p99.value, p99.beyond
    ));

    if args.trace {
        let mut l = Layers::new();
        let d = |f: fn(&StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
        l.insert(
            "served.hit_ratio",
            ratio(d(|s| s.hits) + d(|s| s.joined), d(|s| s.submitted)),
        );
        l.insert("served.shed", d(|s| s.shed));
        l.insert(
            "store.disk_hit_ratio",
            ratio(
                d(|s| s.disk_hits),
                d(|s| s.disk_hits) + d(|s| s.disk_misses),
            ),
        );
        l.insert("store.disk_writes", d(|s| s.disk_writes));
        l.insert("store.ram_evictions", d(|s| s.evictions));
        let rtt = |cached: bool| {
            let v: Vec<f64> = obs
                .replies
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    r.as_ref()
                        .filter(|r| r.ok && r.cached == cached)
                        .map(|r| (r.at_ns.saturating_sub(obs.sent_ns[i])) as f64 / 1e6)
                })
                .collect();
            percentile(&v, 50.0).value
        };
        l.insert("served.rtt_hit_ms", rtt(true));
        l.insert("served.rtt_miss_ms", rtt(false));
        let sent = obs.sent_ns.len().max(1) as f64;
        l.insert("protocol.encode_us", obs.encode_ns as f64 / 1e3 / sent);
        l.insert(
            "protocol.decode_us",
            ratio(obs.decode_ns as f64 / 1e3, obs.lines as f64),
        );
        let results: Vec<f64> = obs
            .replies
            .iter()
            .flatten()
            .filter(|r| r.ok)
            .map(|r| r.bytes as f64)
            .collect();
        l.insert(
            "protocol.result_bytes",
            ratio(results.iter().sum(), results.len() as f64),
        );
        let late: Vec<f64> = obs
            .sent_ns
            .iter()
            .zip(&obs.due_ns)
            .map(|(s, d)| s.saturating_sub(*d) as f64 / 1e6)
            .collect();
        l.insert("loadgen.late_p99_ms", percentile(&late, 99.0).value);

        // The miss path, layer by layer: every distinct spec replayed
        // through the decorated seams, which must reproduce the server's
        // answer byte for byte.
        let rec = Recorder::new();
        let root = rec.id();
        let start = rec.now_ns();
        let mut cells = Vec::new();
        let mut same = 0usize;
        for (k, &i) in requested.iter().enumerate() {
            let spec = &mix[i];
            let (workload, design) = spec.resolve()?;
            let (id, s) = (rec.id(), rec.now_ns());
            let (src, stream_span) =
                traced_source(&rec, workload, spec.budget, spec.seed, k as u64, id);
            let stats = traced_cell(&rec, src.as_ref(), stream_span, design, false, k as u64, id);
            rec.interval(id, Some(root), "served.replay", k as u64, s);
            let text = stats_to_json(&stats).to_string();
            let ok = expected.get(spec.canonical().as_str()) == Some(&text);
            same += usize::from(ok);
            out.check(ok, || {
                format!("traced replay of {} differs", spec.canonical())
            });
            cells.push((spec.design == "CPP", stats));
        }
        rec.interval(root, None, "served.replays", 0, start);
        let traced_s = rec
            .spans()
            .iter()
            .find(|s| s.id == root)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
        let totals = layers::from_spans(&rec.spans(), 1, &mut l);
        let all: Vec<&RunStats> = cells.iter().map(|(_, s)| s).collect();
        let self_ns = totals.get("pipeline.run_source").map_or(0, |t| t.self_ns);
        layers::pipeline(&all, self_ns, &mut l);
        let cpp: Vec<_> = cells
            .iter()
            .filter(|(c, _)| *c)
            .map(|(_, s)| &s.hierarchy)
            .collect();
        layers::cpp_counts(&cpp, 1, &mut l);
        let sources: Vec<Box<dyn TraceSource + Send>> = workloads()
            .iter()
            .filter_map(|w| Workload::by_name(w).ok())
            .map(|w| w.source(BUDGET, args.seed * 1_000 + 1))
            .collect();
        let srcs: Vec<&dyn TraceSource> = sources
            .iter()
            .map(|s| s.as_ref() as &dyn TraceSource)
            .collect();
        layers::compressible_frac(&srcs, &mut l);
        layers::overhead(traced_s, requested_s, &mut l);
        out.per_layer = l;
        out.notes.push(format!(
            "traced: {same} of {} distinct specs replayed through the decorated seams byte-identical to the server's answers",
            requested.len()
        ));
        crate::write_spans(&rec, args, &mut out);
    }
    Ok(out)
}
