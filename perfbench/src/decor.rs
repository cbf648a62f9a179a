//! Timing decorators for the two trait seams the simulator already takes:
//! `&mut dyn CacheSim` and `&dyn TraceSource`.
//!
//! [`TimedCache`] forwards every `CacheSim` method. The PC-carrying
//! `read_pc`/`write_pc` must be forwarded as such: the trait defaults drop
//! the PC, which would silently change the stride-prefetch and BCP designs.
//! The traced runs compare their statistics with the untraced runs', so a
//! decorator that changed behaviour would fail the run.

use crate::span::{timed_call, Recorder, Tally};
use ccp_cache::{
    AccessResult, CacheSim, DesignKind, HierarchyConfig, HierarchyStats, LatencyConfig,
};
use ccp_mem::{Addr, MainMemory, Word};
use ccp_pipeline::{run_source, PipelineConfig, RunStats};
use ccp_schemes::SchemeKind;
use ccp_sim::build_design_scheme;
use ccp_sim::sweep::Workload;
use ccp_trace::{BenchSource, Inst, TraceSource};
use ccp_workgen::SynthSource;
use std::sync::Mutex;

/// The cache decorator times one call in this many.
const CACHE_STRIDE: u64 = 8;

/// The stream decorator times one `next()` in this many.
const STREAM_STRIDE: u64 = 32;

/// A `CacheSim` that times its access-path calls into one [`Tally`].
pub struct TimedCache<'a> {
    inner: &'a mut dyn CacheSim,
    rec: &'a Recorder,
    /// Calls to `read`, `write`, `read_pc`, `write_pc` and `probe_l1`.
    pub tally: Tally,
}

impl<'a> TimedCache<'a> {
    /// Wraps `inner`, timing against `rec`'s clock.
    pub fn new(inner: &'a mut dyn CacheSim, rec: &'a Recorder) -> Self {
        TimedCache {
            inner,
            rec,
            tally: Tally::every(CACHE_STRIDE),
        }
    }
}

impl CacheSim for TimedCache<'_> {
    fn read(&mut self, addr: Addr) -> AccessResult {
        timed_call(self.rec, &self.tally, || self.inner.read(addr))
    }

    fn write(&mut self, addr: Addr, value: Word) -> AccessResult {
        timed_call(self.rec, &self.tally, || self.inner.write(addr, value))
    }

    fn read_pc(&mut self, addr: Addr, pc: u32) -> AccessResult {
        timed_call(self.rec, &self.tally, || self.inner.read_pc(addr, pc))
    }

    fn write_pc(&mut self, addr: Addr, value: Word, pc: u32) -> AccessResult {
        timed_call(self.rec, &self.tally, || {
            self.inner.write_pc(addr, value, pc)
        })
    }

    fn probe_l1(&self, addr: Addr) -> bool {
        timed_call(self.rec, &self.tally, || self.inner.probe_l1(addr))
    }

    fn stats(&self) -> &HierarchyStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn latencies(&self) -> LatencyConfig {
        self.inner.latencies()
    }

    fn set_latencies(&mut self, lat: LatencyConfig) {
        self.inner.set_latencies(lat);
    }

    fn mem(&self) -> &MainMemory {
        self.inner.mem()
    }

    fn mem_mut(&mut self) -> &mut MainMemory {
        self.inner.mem_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn shard_region_bits(&self) -> Option<(u32, u32)> {
        self.inner.shard_region_bits()
    }
}

/// A `TraceSource` that times `initial_mem()` and the `next()` calls of
/// its streams. Streams keep a private tally and hand it over when dropped, so
/// the per-instruction path takes no lock.
pub struct TimedSource<'a> {
    inner: &'a dyn TraceSource,
    rec: &'a Recorder,
    init: Mutex<Tally>,
    stream: Mutex<Tally>,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`, timing against `rec`'s clock.
    pub fn new(inner: &'a dyn TraceSource, rec: &'a Recorder) -> Self {
        TimedSource {
            inner,
            rec,
            init: Mutex::new(Tally::default()),
            stream: Mutex::new(Tally::default()),
        }
    }

    /// Takes the `(initial_mem, stream)` tallies gathered since the last
    /// call, leaving empty ones behind.
    pub fn take(&self) -> (Tally, Tally) {
        let take = |m: &Mutex<Tally>| {
            std::mem::take(&mut *m.lock().expect("tally lock poisoned by a panicking stream"))
        };
        (take(&self.init), take(&self.stream))
    }
}

impl TraceSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_mem(&self) -> MainMemory {
        let init = self
            .init
            .lock()
            .expect("tally lock poisoned by a panicking stream");
        timed_call(self.rec, &init, || self.inner.initial_mem())
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Inst> + '_> {
        Box::new(TimedIter {
            inner: self.inner.stream(),
            rec: self.rec,
            tally: Tally::every(STREAM_STRIDE),
            sink: &self.stream,
        })
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

struct TimedIter<'a> {
    inner: Box<dyn Iterator<Item = Inst> + 'a>,
    rec: &'a Recorder,
    tally: Tally,
    sink: &'a Mutex<Tally>,
}

impl Iterator for TimedIter<'_> {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        timed_call(self.rec, &self.tally, || self.inner.next())
    }
}

impl Drop for TimedIter<'_> {
    fn drop(&mut self) {
        // A poisoned sink only loses this stream's timing; never panic in drop.
        if let Ok(sink) = self.sink.lock() {
            sink.absorb(&self.tally);
        }
    }
}

/// The aggregate span name for a design's cache calls: the CPP hierarchy
/// is its own layer, the other four designs share `cache.access`.
fn cache_span(design: DesignKind) -> &'static str {
    if design == DesignKind::Cpp {
        "cpp.access"
    } else {
        "cache.access"
    }
}

/// One timing cell built exactly as `ccp_sim::sweep::run_cell_source`
/// builds it (paper compression scheme), with both seams decorated. Records a `pipeline.run_source`
/// span under `parent` with the cache, `initial_mem` and stream calls as
/// its aggregate children; `stream_span` names the stream's layer.
pub fn traced_cell(
    rec: &Recorder,
    source: &dyn TraceSource,
    stream_span: &'static str,
    design: DesignKind,
    halved: bool,
    key: u64,
    parent: u64,
) -> RunStats {
    let mut cache = build_design_scheme(HierarchyConfig::paper(design), SchemeKind::Cpp);
    if halved {
        let lat = cache.latencies().halved_miss_penalty();
        cache.set_latencies(lat);
    }
    let src = TimedSource::new(source, rec);
    let id = rec.id();
    let start = rec.now_ns();
    let mut timed = TimedCache::new(cache.as_mut(), rec);
    let stats = run_source(&src, &mut timed, &PipelineConfig::paper());
    rec.interval(id, Some(parent), "pipeline.run_source", key, start);
    rec.aggregate(id, cache_span(design), key, &timed.tally);
    let (init, stream) = src.take();
    rec.aggregate(id, "source.initial_mem", key, &init);
    rec.aggregate(id, stream_span, key, &stream);
    stats
}

/// A workload's source for a traced run, with the span name of its stream.
/// A benchmark's trace is generated here, timed as `trace.gen` under
/// `parent`; a synthetic source generates as it streams.
pub fn traced_source(
    rec: &Recorder,
    workload: Workload,
    budget: usize,
    seed: u64,
    key: u64,
    parent: u64,
) -> (Box<dyn TraceSource>, &'static str) {
    match workload {
        Workload::Bench(b) => {
            let src = BenchSource::new(b, budget, seed);
            let (id, s) = (rec.id(), rec.now_ns());
            src.trace();
            rec.interval(id, Some(parent), "trace.gen", key, s);
            (Box::new(src), "trace.stream")
        }
        Workload::Synthetic(w) => (
            Box::new(SynthSource::new(w, seed, budget as u64)),
            "workgen.stream",
        ),
    }
}
