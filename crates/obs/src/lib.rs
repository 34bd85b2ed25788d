//! # obs — pipeline observability: spans, counters, gauges, run reports
//!
//! A zero-dependency instrumentation layer shared by every stage of the
//! detection pipeline. Three pieces:
//!
//! * **Timing spans** ([`span`]): RAII guards keyed by dotted labels
//!   (`"project.pairs"` is a child of `"project"` in the report tree). Each
//!   span reads the wall clock and the thread's CPU clock at both ends, so a
//!   report says how much of a stage's wall its threads spent running rather
//!   than waiting or descheduled. Each span records into a **thread-local
//!   buffer**; the buffer is merged into
//!   the global registry only when the thread's *outermost* span closes, so
//!   hot paths never contend on a lock per span. The invariant: once
//!   every scope on every thread has exited, the global totals are exact
//!   (see DESIGN.md, "span-merge invariant").
//! * **Counters and gauges** ([`counter`], [`gauge`]): named `AtomicU64`s in
//!   a global registry. Handles are cheap to clone and store; `add`/`set`
//!   are a relaxed atomic when enabled and a single branch when disabled.
//!   Registration is permanent, so a documented counter shows up in the run
//!   report (as `0`) even on runs that never increment it.
//! * **Run reports** ([`report`]): the registry serialized as a stable,
//!   `schema_version`-ed JSON document — flat span list, nested span tree,
//!   counter and gauge maps — plus a validator CI uses to fail runs whose
//!   reports lost a registered stage span or documented counter.
//!
//! Instrumentation is compiled in but **off by default**: the disabled state
//! is the no-op path (a relaxed atomic load per call site), benchmarked at
//! well under 2% overhead on the pipeline stages. [`Obs::enable`] turns
//! recording on (the CLI does this for `--report` / `--progress`).
//!
//! ```
//! obs::Obs::enable();
//! {
//!     let _stage = obs::span("demo");
//!     obs::counter("demo.items").add(3);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert_eq!(snap.span("demo").unwrap().count, 1);
//! # obs::Obs::disable();
//! # obs::reset();
//! ```

#![warn(unreachable_pub)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod report;

// ---------------------------------------------------------------- registry

struct Registry {
    enabled: AtomicBool,
    progress: AtomicBool,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    spans: Mutex<BTreeMap<&'static str, SpanStats>>,
}

static REGISTRY: Registry = Registry {
    enabled: AtomicBool::new(false),
    progress: AtomicBool::new(false),
    counters: Mutex::new(BTreeMap::new()),
    gauges: Mutex::new(BTreeMap::new()),
    spans: Mutex::new(BTreeMap::new()),
};

/// Global on/off switch for the instrumentation layer.
///
/// The *disabled* state (the default) is the no-op path: spans skip the
/// clock reads, counter/gauge writes reduce to one relaxed load and a
/// branch. Enabling is process-wide and affects all threads.
pub struct Obs;

impl Obs {
    /// Turn recording on (spans, counters, gauges all start accumulating).
    pub fn enable() {
        REGISTRY.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn recording off — every instrumentation call becomes a no-op.
    pub fn disable() {
        REGISTRY.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is active.
    pub(crate) fn enabled() -> bool {
        REGISTRY.enabled.load(Ordering::Relaxed)
    }

    /// Toggle live per-stage progress lines on stderr (top-level spans only).
    pub fn set_progress(on: bool) {
        REGISTRY.progress.store(on, Ordering::Relaxed);
    }

    /// Whether progress rendering is on.
    pub(crate) fn progress() -> bool {
        REGISTRY.progress.load(Ordering::Relaxed)
    }
}

/// Clear every recorded value: span stats are dropped, counters and gauges
/// are reset to 0 **but stay registered** (outstanding handles keep working
/// and documented names keep appearing in reports).
pub fn reset() {
    REGISTRY.spans.lock().unwrap().clear();
    for slot in REGISTRY.counters.lock().unwrap().values() {
        slot.store(0, Ordering::Relaxed);
    }
    for slot in REGISTRY.gauges.lock().unwrap().values() {
        slot.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------- counters

/// Handle to a named monotonic counter. Cloning is cheap (an `Arc` bump);
/// stages that increment on a hot path should hold the handle in a field
/// rather than re-looking it up by name.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if Obs::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1 (no-op while disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Get (registering on first use) the counter named `name`. Names are dotted
/// paths whose first segment is the owning stage (`"ingest.skipped_lines"`).
pub fn counter(name: &str) -> Counter {
    let mut map = REGISTRY.counters.lock().unwrap();
    if let Some(slot) = map.get(name) {
        return Counter(Arc::clone(slot));
    }
    let slot = Arc::new(AtomicU64::new(0));
    map.insert(name.to_owned(), Arc::clone(&slot));
    Counter(slot)
}

/// Handle to a named gauge (last-value or running-max semantics, caller's
/// choice of `set` vs `set_max`).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value (no-op while disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if Obs::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the value to at least `v` (no-op while disabled).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if Obs::enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }
}

/// Get (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut map = REGISTRY.gauges.lock().unwrap();
    if let Some(slot) = map.get(name) {
        return Gauge(Arc::clone(slot));
    }
    let slot = Arc::new(AtomicU64::new(0));
    map.insert(name.to_owned(), Arc::clone(&slot));
    Gauge(slot)
}

// ---------------------------------------------------------------- spans

/// Aggregated statistics of one span label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub count: u64,
    /// Total time inside the span, summed over entries and threads.
    pub total_ns: u64,
    /// Longest single entry.
    pub max_ns: u64,
    /// CPU time inside the span, summed over entries and threads, helper
    /// threads credited with [`SpanGuard::add_cpu_ns`] included.
    pub cpu_ns: u64,
}

impl SpanStats {
    fn record(&mut self, elapsed_ns: u64, cpu_ns: u64) {
        self.count += 1;
        self.total_ns += elapsed_ns;
        self.max_ns = self.max_ns.max(elapsed_ns);
        self.cpu_ns += cpu_ns;
    }

    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.cpu_ns += other.cpu_ns;
    }

    /// Total time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Total CPU time in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_ns as f64 / 1e9
    }

    /// Longest entry in seconds.
    pub(crate) fn max_seconds(&self) -> f64 {
        self.max_ns as f64 / 1e9
    }
}

/// Per-thread span buffer. `depth` counts live guards on this thread; the
/// buffer flushes into the global registry when depth returns to zero, so a
/// thread grinding through thousands of inner spans takes the global lock
/// once per outermost span, not once per span.
///
/// The same invariant covers SPMD rank threads (`ygm::World::run` spawns one
/// scoped OS thread per rank): each rank's spans buffer locally and merge
/// into the global registry when the rank's outermost span closes, and
/// counters are global atomics shared by all ranks. After the world exits,
/// a span entered once per rank reports `count == nranks` with `total_ns`
/// summed across ranks, and per-rank counter increments are one global sum —
/// no per-rank registry and no manual merge step. Pinned by
/// `rank_threads_merge_spans_and_counters` below.
#[derive(Default)]
struct LocalSpans {
    depth: u32,
    buf: Vec<(&'static str, SpanStats)>,
}

thread_local! {
    static LOCAL: RefCell<LocalSpans> = RefCell::new(LocalSpans::default());
}

/// RAII timing guard returned by [`span`]. Records on drop; does nothing if
/// instrumentation was disabled when it was created.
#[must_use = "a span measures the scope it lives in — bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    label: &'static str,
    start: Option<Instant>,
    /// The thread's CPU clock when the span opened.
    cpu: ThreadCpu,
    /// CPU time helper threads spent on this span's work.
    lent_cpu_ns: u64,
}

impl SpanGuard {
    /// Credit `ns` of CPU time another thread spent on this span's work — a
    /// helper the span's own thread started and joined, whose clock the
    /// span cannot read — to the span's `cpu_ns`.
    pub fn add_cpu_ns(&mut self, ns: u64) {
        self.lent_cpu_ns += ns;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let cpu_ns = self.cpu.elapsed_ns() + self.lent_cpu_ns;
        LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            let elapsed_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            match local.buf.iter_mut().find(|(l, _)| *l == self.label) {
                Some((_, stats)) => stats.record(elapsed_ns, cpu_ns),
                None => {
                    let mut stats = SpanStats::default();
                    stats.record(elapsed_ns, cpu_ns);
                    local.buf.push((self.label, stats));
                }
            }
            local.depth -= 1;
            if local.depth == 0 {
                flush_local(&mut local);
            }
        });
        // Top-level stages (undotted labels) double as progress lines.
        if Obs::progress() && !self.label.contains('.') {
            eprintln!("[obs] {}: {:.3}s", self.label, elapsed.as_secs_f64());
        }
    }
}

fn flush_local(local: &mut LocalSpans) {
    let mut global = REGISTRY.spans.lock().unwrap();
    for (label, stats) in local.buf.drain(..) {
        global.entry(label).or_default().merge(&stats);
    }
}

/// Open a timing span. Labels must be `'static` dotted paths; the segment
/// structure is what the report's span tree nests on, so a kernel inside the
/// projection stage is `"project.pairs"`, not `"pairs"`.
#[inline]
pub fn span(label: &'static str) -> SpanGuard {
    let cpu = ThreadCpu::start();
    let start = cpu.0.map(|_| {
        LOCAL.with(|cell| cell.borrow_mut().depth += 1);
        Instant::now()
    });
    SpanGuard {
        label,
        start,
        cpu,
        lent_cpu_ns: 0,
    }
}

// ---------------------------------------------------------------- cpu clock

/// A reading of the calling thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`),
/// taken only while recording is on: disabled, nothing reads the clock. A
/// span holds one; a helper thread working for a span open on another
/// thread takes its own and hands [`ThreadCpu::elapsed_ns`] to
/// [`SpanGuard::add_cpu_ns`].
#[derive(Debug)]
pub struct ThreadCpu(Option<u64>);

impl ThreadCpu {
    /// Read the clock now, if recording is on.
    pub fn start() -> Self {
        ThreadCpu(Obs::enabled().then(thread_cpu_ns))
    }

    /// CPU time this thread has run since [`ThreadCpu::start`]; 0 if the
    /// clock was not read then.
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map_or(0, |t0| thread_cpu_ns().saturating_sub(t0))
    }
}

/// The calling thread's CPU time in ns, or 0 where the clock is not known.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec`, and the clock id
    // is one every Linux kernel since 2.6.12 knows; on failure `t` stays 0.
    let failed = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) } != 0;
    if failed {
        return 0;
    }
    (t.tv_sec as u64)
        .saturating_mul(1_000_000_000)
        .saturating_add(t.tv_nsec as u64)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    0
}

// ---------------------------------------------------------------- snapshot

/// One span label's aggregated stats, by label.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEntry {
    /// Dotted span label.
    pub label: String,
    /// Aggregated stats.
    pub stats: SpanStats,
}

/// A point-in-time copy of the whole registry, label-sorted.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Every span label recorded so far.
    pub spans: Vec<SpanEntry>,
    /// Every registered counter and its value.
    pub counters: Vec<(String, u64)>,
    /// Every registered gauge and its value.
    pub gauges: Vec<(String, u64)>,
}

impl Snapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a span's stats by label.
    pub fn span(&self, label: &str) -> Option<&SpanStats> {
        self.spans
            .iter()
            .find(|e| e.label == label)
            .map(|e| &e.stats)
    }
}

/// Copy the registry out. Spans still open on other threads (or buffered
/// under an open outer span) are not included — take snapshots after the
/// instrumented scopes have closed.
pub fn snapshot() -> Snapshot {
    // The current thread may hold merged-but-unflushed stats only while a
    // span is open on it, in which case the caller is snapshotting mid-scope
    // and partial numbers are expected; nothing to flush here (depth > 0
    // buffers flush when their outermost guard drops).
    let spans = REGISTRY
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(label, stats)| SpanEntry {
            label: (*label).to_owned(),
            stats: *stats,
        })
        .collect();
    let counters = REGISTRY
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(n, v)| (n.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges = REGISTRY
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(n, v)| (n.clone(), v.load(Ordering::Relaxed)))
        .collect();
    Snapshot {
        spans,
        counters,
        gauges,
    }
}

// ---------------------------------------------------------------- helpers

/// The process's peak resident set in kB (`VmHWM` from `/proc/self/status`),
/// or `None` where procfs is unavailable. Nominally monotone over the process
/// lifetime, but the kernel syncs per-thread RSS counters lazily (split RSS
/// accounting), so consecutive reads may jitter by a few hundred kB — treat
/// per-stage gauges as "peak RSS by about the end of this stage".
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Record `<stage>.peak_rss_kb` for a stage that just finished (no-op while
/// disabled or where procfs is missing).
pub fn record_stage_rss(stage: &str) {
    if !Obs::enabled() {
        return;
    }
    if let Some(kb) = peak_rss_kb() {
        gauge(&format!("{stage}.peak_rss_kb")).set_max(kb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `cargo test` runs tests on several
    // threads; serialize the tests that toggle it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn obs_disabled_records_nothing() {
        let _g = locked();
        Obs::disable();
        reset();
        assert!(!Obs::enabled());
        {
            let _s = span("disabled_stage");
            let _inner = span("disabled_stage.kernel");
            counter("disabled_stage.items").add(17);
            gauge("disabled_stage.level").set(5);
            gauge("disabled_stage.level").set_max(9);
        }
        let snap = snapshot();
        assert!(snap.span("disabled_stage").is_none(), "no span recorded");
        assert!(snap.span("disabled_stage.kernel").is_none());
        assert_eq!(
            snap.counter("disabled_stage.items"),
            Some(0),
            "counter registered but never incremented"
        );
        assert_eq!(snap.gauge("disabled_stage.level"), Some(0));
    }

    #[test]
    fn enabled_spans_and_counters_accumulate() {
        let _g = locked();
        Obs::enable();
        reset();
        for _ in 0..3 {
            let _outer = span("stage_a");
            let _inner = span("stage_a.kernel");
            counter("stage_a.items").add(2);
        }
        Obs::disable();
        let snap = snapshot();
        let outer = snap.span("stage_a").unwrap();
        assert_eq!(outer.count, 3);
        assert!(outer.total_ns >= outer.max_ns);
        assert_eq!(snap.span("stage_a.kernel").unwrap().count, 3);
        assert_eq!(snap.counter("stage_a.items"), Some(6));
        reset();
        assert!(snapshot().span("stage_a").is_none());
        assert_eq!(snapshot().counter("stage_a.items"), Some(0));
    }

    #[test]
    fn handles_survive_reset() {
        let _g = locked();
        Obs::enable();
        reset();
        let c = counter("resettable.count");
        c.add(4);
        reset();
        c.add(1);
        assert_eq!(c.get(), 1);
        assert_eq!(snapshot().counter("resettable.count"), Some(1));
        Obs::disable();
        reset();
    }

    #[test]
    fn rank_threads_merge_spans_and_counters() {
        // The SPMD shape: N scoped worker threads (exactly what
        // `ygm::World::run` spawns, one per rank), each opening the same
        // stage span and bumping the same counter. Once every thread's
        // outermost span has closed, the global registry holds the merged
        // totals — count per entry, time summed across threads.
        let _g = locked();
        Obs::enable();
        reset();
        const NRANKS: usize = 4;
        std::thread::scope(|s| {
            for rank in 0..NRANKS {
                s.spawn(move || {
                    let _stage = span("rank_stage");
                    let _inner = span("rank_stage.kernel");
                    counter("rank_stage.items").add(rank as u64 + 1);
                });
            }
        });
        Obs::disable();
        let snap = snapshot();
        let stage = snap.span("rank_stage").unwrap();
        assert_eq!(stage.count, NRANKS as u64, "one entry per rank thread");
        assert!(stage.total_ns >= stage.max_ns);
        assert_eq!(snap.span("rank_stage.kernel").unwrap().count, NRANKS as u64);
        assert_eq!(
            snap.counter("rank_stage.items"),
            Some((1..=NRANKS as u64).sum()),
            "per-rank increments sum into one global counter"
        );
        reset();
    }

    /// A span's CPU time is its thread's running time: a span that sleeps
    /// reads a small fraction of its wall, one that spins reads about all of
    /// it (less whatever the scheduler took on a shared machine), and time a
    /// helper thread lends is added on.
    #[test]
    fn spans_read_cpu_beside_wall() {
        let _g = locked();
        Obs::enable();
        reset();
        let pause = std::time::Duration::from_millis(60);
        {
            let _s = span("cpu_sleeps");
            std::thread::sleep(pause);
        }
        {
            let _s = span("cpu_spins");
            let start = Instant::now();
            while start.elapsed() < pause {
                std::hint::black_box(start.elapsed());
            }
        }
        let lent = {
            let mut s = span("cpu_lent");
            let lent = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let cpu = ThreadCpu::start();
                        let start = Instant::now();
                        while start.elapsed() < pause {
                            std::hint::black_box(start.elapsed());
                        }
                        cpu.elapsed_ns()
                    })
                    .join()
                    .unwrap()
            });
            s.add_cpu_ns(lent);
            lent
        };
        Obs::disable();
        let snap = snapshot();
        let sleeps = snap.span("cpu_sleeps").unwrap();
        assert!(sleeps.total_ns >= pause.as_nanos() as u64);
        assert!(sleeps.cpu_ns * 10 < sleeps.total_ns, "{sleeps:?}");
        let spins = snap.span("cpu_spins").unwrap();
        assert!(spins.cpu_ns * 2 > spins.total_ns, "{spins:?}");
        assert!(spins.cpu_ns <= spins.total_ns + 1_000_000, "{spins:?}");
        assert!(lent * 2 > pause.as_nanos() as u64, "{lent}");
        let lender = snap.span("cpu_lent").unwrap();
        assert!(lender.cpu_ns >= lent, "{lender:?}");
        assert!(lender.cpu_ns < lent + lender.total_ns / 2, "{lender:?}");
        reset();
    }

    /// Disabled, a span reads neither clock.
    #[test]
    fn a_disabled_span_reads_no_clock() {
        let _g = locked();
        Obs::disable();
        let s = span("cpu_disabled");
        assert!(s.start.is_none() && s.cpu.0.is_none());
        assert_eq!(ThreadCpu::start().0, None);
    }

    #[test]
    fn gauge_set_max_keeps_the_peak() {
        let _g = locked();
        Obs::enable();
        reset();
        let g = gauge("peaky");
        g.set_max(10);
        g.set_max(3);
        assert_eq!(snapshot().gauge("peaky"), Some(10));
        g.set(2);
        assert_eq!(snapshot().gauge("peaky"), Some(2));
        Obs::disable();
        reset();
    }
}
