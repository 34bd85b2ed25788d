//! Concurrency stress for the metrics registry: OS threads hammering the
//! same counters and spans must merge to exact totals. Lives in its own
//! integration-test binary so the process-global registry isn't shared with
//! unrelated tests.

use std::sync::Barrier;

const THREADS: u64 = 8;
const TASKS_PER_THREAD: u64 = 8;
const TASKS: u64 = THREADS * TASKS_PER_THREAD;
const INNER: u64 = 500;

/// Run `task(id)` for every task id, `TASKS_PER_THREAD` per thread, all
/// threads released together so their span buffers really do merge into the
/// registry concurrently.
fn hammer(task: impl Fn(u64) + Sync) {
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let (start, task) = (&start, &task);
            s.spawn(move || {
                start.wait();
                for k in 0..TASKS_PER_THREAD {
                    task(thread * TASKS_PER_THREAD + k);
                }
            });
        }
    });
}

#[test]
fn concurrent_spans_and_counters_merge_exactly() {
    obs::Obs::enable();
    obs::reset();

    let items = obs::counter("stress.items");
    let batches = obs::counter("stress.batches");
    let peak = obs::gauge("stress.peak");

    hammer(|t| {
        let _outer = obs::span("stress");
        batches.inc();
        peak.set_max(t);
        for _ in 0..INNER {
            let _inner = obs::span("stress.inner");
            items.add(1);
        }
    });

    // Every task's outermost span has closed, so every thread-local buffer
    // has flushed: totals are exact, not approximate.
    let snap = obs::snapshot();
    assert_eq!(snap.counter("stress.items"), Some(TASKS * INNER));
    assert_eq!(snap.counter("stress.batches"), Some(TASKS));
    assert_eq!(snap.gauge("stress.peak"), Some(TASKS - 1));

    let outer = snap.span("stress").expect("outer span recorded");
    assert_eq!(outer.count, TASKS);
    let inner = snap.span("stress.inner").expect("inner span recorded");
    assert_eq!(inner.count, TASKS * INNER);
    assert!(inner.max_ns <= inner.total_ns);
    assert!(outer.total_ns > 0);

    // A second hammering round keeps accumulating (no reset in between).
    hammer(|_| {
        let _outer = obs::span("stress");
        items.add(1);
    });
    let snap = obs::snapshot();
    assert_eq!(snap.counter("stress.items"), Some(TASKS * INNER + TASKS));
    assert_eq!(snap.span("stress").unwrap().count, 2 * TASKS);

    obs::Obs::disable();
    obs::reset();
}
