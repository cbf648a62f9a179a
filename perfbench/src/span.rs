//! In-memory spans for the traced run.
//!
//! A span has a name, a start and end (ns since the recorder's epoch), the
//! span that caused it, and a key shared by every span of one cell or
//! request. Layers called once per cell get an interval span each. Layers
//! called once per memory access or instruction (the cache and the
//! instruction stream) would need millions of spans, so their decorators
//! fold all calls under one parent into a single aggregate span: first
//! call start, last call end, and the busy time and call count in between.
//!
//! A span's self time is its duration minus what its children cover: the
//! union of its interval children (clipped to the parent) plus the busy
//! time of its aggregate children. Aggregate children are sequential calls
//! made on the parent's own thread, so they never overlap each other or an
//! interval child.

use ccp_errors::{SimError, SimResult};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How a span covers its interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Busy for the whole interval.
    Interval,
    /// Many short calls inside the interval, `busy_ns` in total.
    Aggregate {
        /// Summed duration of the calls.
        busy_ns: u64,
        /// Number of calls.
        calls: u64,
    },
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary name (`pipeline.run_source`, `cpp.access`, ...).
    pub name: &'static str,
    /// The cell or request every span of one unit of work shares.
    pub key: u64,
    /// Start, ns since the recorder epoch.
    pub start_ns: u64,
    /// End, ns since the recorder epoch.
    pub end_ns: u64,
    /// Interval or aggregate.
    pub kind: Kind,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Time the span itself was busy: its duration, or an aggregate's
    /// summed call time.
    pub fn busy_ns(&self) -> u64 {
        match self.kind {
            Kind::Interval => self.duration_ns(),
            Kind::Aggregate { busy_ns, .. } => busy_ns,
        }
    }

    /// Calls folded into this span (1 for an interval).
    pub fn calls(&self) -> u64 {
        match self.kind {
            Kind::Interval => 1,
            Kind::Aggregate { calls, .. } => calls,
        }
    }
}

/// Self time of `span` given its direct `children`.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut aggregate = 0u64;
    for c in children {
        match c.kind {
            Kind::Interval => {
                let s = c.start_ns.max(span.start_ns);
                let e = c.end_ns.min(span.end_ns);
                if s < e {
                    intervals.push((s, e));
                }
            }
            Kind::Aggregate { busy_ns, .. } => aggregate += busy_ns,
        }
    }
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.busy_ns().saturating_sub(covered + aggregate)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Summed self time.
    pub self_ns: u64,
    /// Summed busy time.
    pub busy_ns: u64,
    /// Summed call count.
    pub calls: u64,
}

/// Self and busy time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = out.entry(s.name).or_default();
        t.self_ns += self_ns(s, kids);
        t.busy_ns += s.busy_ns();
        t.calls += s.calls();
    }
    out
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    /// Median cost of one clock read, taken off every per-call timing.
    clock_ns: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        let mut rec = Recorder {
            epoch: Instant::now(),
            clock_ns: 0,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        };
        let mut reads: Vec<u64> = (0..1001)
            .map(|_| {
                let s = rec.now_ns();
                rec.now_ns() - s
            })
            .collect();
        reads.sort_unstable();
        rec.clock_ns = reads[reads.len() / 2];
        rec
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished interval span and returns its id.
    pub fn interval(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        key: u64,
        start_ns: u64,
    ) -> u64 {
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
            kind: Kind::Interval,
        });
        id
    }

    /// Records the calls folded in `tally` as one aggregate span under
    /// `parent` (nothing if there were no calls).
    pub fn aggregate(&self, parent: u64, name: &'static str, key: u64, tally: &Tally) {
        if tally.calls() == 0 {
            return;
        }
        self.push(Span {
            id: self.id(),
            parent: Some(parent),
            name,
            key,
            start_ns: tally.first.get(),
            end_ns: tally.last.get(),
            kind: Kind::Aggregate {
                busy_ns: tally.busy_ns(),
                calls: tally.calls(),
            },
        });
    }

    /// Appends a span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder thread")
            .push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder thread")
            .clone()
    }

    /// Writes the spans as JSON lines under a header line, atomically.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> SimResult<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| SimError::io(dir.display().to_string(), &e))?;
        }
        let mut out = format!("{header}\n");
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                s.id,
                s.name,
                s.key,
                s.start_ns,
                s.end_ns,
                s.busy_ns(),
                s.calls(),
            );
        }
        ccp_sim::json::write_atomic(path, &out)
    }
}

/// Single-thread accumulator for an aggregate span. Reading the clock
/// costs about as much as a cache call, so a tally times one call in
/// `every` (a fixed stride, not a random draw) and scales the timed calls'
/// total by the call count.
#[derive(Debug)]
pub struct Tally {
    every: u64,
    calls: Cell<u64>,
    timed: Cell<u64>,
    timed_ns: Cell<u64>,
    first: Cell<u64>,
    last: Cell<u64>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally::every(1)
    }
}

impl Tally {
    /// A tally that times one call in `every`.
    pub fn every(every: u64) -> Self {
        Tally {
            every: every.max(1),
            calls: Cell::new(0),
            timed: Cell::new(0),
            timed_ns: Cell::new(0),
            first: Cell::new(0),
            last: Cell::new(0),
        }
    }

    /// Counts one call; `true` when this call is one to time.
    pub fn tick(&self) -> bool {
        let n = self.calls.get();
        self.calls.set(n + 1);
        n.is_multiple_of(self.every)
    }

    /// Folds in one timed call.
    pub fn add(&self, start_ns: u64, end_ns: u64) {
        if self.timed.get() == 0 {
            self.first.set(start_ns);
        }
        self.timed.set(self.timed.get() + 1);
        self.timed_ns
            .set(self.timed_ns.get() + end_ns.saturating_sub(start_ns));
        self.last.set(end_ns);
    }

    /// Folds another tally in (calls made after this one's).
    pub fn absorb(&self, other: &Tally) {
        if other.timed.get() == 0 && other.calls.get() == 0 {
            return;
        }
        if self.timed.get() == 0 {
            self.first.set(other.first.get());
        }
        self.calls.set(self.calls.get() + other.calls.get());
        self.timed.set(self.timed.get() + other.timed.get());
        self.timed_ns
            .set(self.timed_ns.get() + other.timed_ns.get());
        self.last.set(other.last.get());
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated time in all calls: the timed calls' total, scaled by
    /// calls over timed calls.
    pub fn busy_ns(&self) -> u64 {
        let (timed, calls) = (self.timed.get(), self.calls.get().max(self.timed.get()));
        if timed == 0 {
            0
        } else {
            (u128::from(self.timed_ns.get()) * u128::from(calls) / u128::from(timed)) as u64
        }
    }
}

/// Runs `f`, timing it into `tally` when the tally's stride picks it. The
/// cost of one clock read is taken off the measured duration.
pub fn timed_call<R>(rec: &Recorder, tally: &Tally, f: impl FnOnce() -> R) -> R {
    if tally.tick() {
        let s = rec.now_ns();
        let r = f();
        let e = rec.now_ns().saturating_sub(rec.clock_ns).max(s);
        tally.add(s, e);
        r
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64, kind: Kind) -> Span {
        Span {
            id,
            parent,
            name: "t",
            key: 0,
            start_ns,
            end_ns,
            kind,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_interval_children() {
        let p = span(1, None, 0, 100, Kind::Interval);
        // Overlapping [10,30) and [20,40) cover 30; [90,120) is clipped to 10.
        let a = span(2, Some(1), 10, 30, Kind::Interval);
        let b = span(3, Some(1), 20, 40, Kind::Interval);
        let c = span(4, Some(1), 90, 120, Kind::Interval);
        assert_eq!(self_ns(&p, &[&a, &b, &c]), 60);
        assert_eq!(self_ns(&p, &[]), 100);
    }

    #[test]
    fn self_time_subtracts_aggregate_busy_time() {
        let p = span(1, None, 0, 1_000, Kind::Interval);
        let cache = span(
            2,
            Some(1),
            5,
            990,
            Kind::Aggregate {
                busy_ns: 300,
                calls: 50,
            },
        );
        let stream = span(
            3,
            Some(1),
            0,
            995,
            Kind::Aggregate {
                busy_ns: 100,
                calls: 80,
            },
        );
        assert_eq!(self_ns(&p, &[&cache, &stream]), 600);
        // An aggregate's own self time is its busy time.
        assert_eq!(self_ns(&cache, &[]), 300);
    }

    #[test]
    fn totals_group_by_name_through_parent_links() {
        let mut spans = vec![span(1, None, 0, 100, Kind::Interval)];
        spans.push(Span {
            name: "child",
            ..span(2, Some(1), 10, 50, Kind::Interval)
        });
        let t = totals_by_name(&spans);
        assert_eq!(t["t"].self_ns, 60);
        assert_eq!(t["child"].self_ns, 40);
        assert_eq!(t["child"].busy_ns, 40);
    }

    #[test]
    fn tally_tracks_first_last_and_busy() {
        let t = Tally::default();
        for (s, e) in [(10, 15), (20, 22)] {
            assert!(t.tick());
            t.add(s, e);
        }
        let u = Tally::default();
        u.tick();
        u.add(30, 40);
        t.absorb(&u);
        assert_eq!(t.calls(), 3);
        let r = Recorder::new();
        r.aggregate(9, "agg", 0, &t);
        let s = &r.spans()[0];
        assert_eq!((s.start_ns, s.end_ns, s.busy_ns()), (10, 40, 17));
    }

    #[test]
    fn sampled_tally_scales_the_timed_calls() {
        let t = Tally::every(4);
        let picked: Vec<bool> = (0..8).map(|_| t.tick()).collect();
        assert_eq!(picked.iter().filter(|&&p| p).count(), 2);
        assert!(picked[0] && picked[4]);
        t.add(0, 10);
        t.add(100, 106);
        // 16 ns over 2 timed calls, scaled to 8 calls.
        assert_eq!((t.calls(), t.busy_ns()), (8, 64));
    }
}
