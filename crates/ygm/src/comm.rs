//! The SPMD communication world: ranks, active messages, and quiescent barriers.
//!
//! A [`World`] owns the shared state for `n` ranks. [`World::run`] spawns one
//! thread per rank, hands each a [`RankCtx`], and runs the same user function on
//! every rank — exactly the SPMD shape of an `ygm::comm_world` program.
//!
//! Active messages are `FnOnce(&RankCtx)` closures. Message counting (a global
//! sent counter and a global processed counter) gives the barrier its
//! termination-detection property: the counters only agree when every queue in
//! the world is empty and no handler is mid-flight.
//!
//! A world lives no longer than `'env`, the data it runs over: its rank
//! threads are scoped, and every message of a region is run or dropped
//! before [`World::run`] returns, so a handler may borrow anything that
//! outlives that call.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An active message: a closure executed on the destination rank's thread.
/// It may borrow anything that outlives the region (`'env`): the region runs
/// or drops every message before [`World::run`] returns.
pub(crate) type Message<'env> = Box<dyn FnOnce(&RankCtx<'env>) + Send + 'env>;

/// Lock `m`, recovering its data if a rank panicked while holding it: that
/// panic already ends the world (the first one is re-raised), and the
/// teardown must still reach the state the dead rank shared.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared world state visible to every rank.
pub(crate) struct Shared {
    pub(crate) nranks: usize,
    /// Total messages sent, world-wide. Incremented *before* enqueue so that
    /// `sent == processed` proves quiescence.
    pub(crate) sent: AtomicU64,
    /// Total messages fully processed (handler returned), world-wide.
    pub(crate) processed: AtomicU64,
    /// Centralized sense-reversing barrier: count of ranks yet to arrive.
    barrier_count: AtomicUsize,
    /// The barrier sense bit; flipped by the last arriver once quiescent.
    barrier_sense: AtomicBool,
    /// Set once a rank has panicked. That rank will never arrive at a barrier
    /// or process its queue again, so every barrier wait loop checks this and
    /// panics instead of spinning forever.
    poisoned: AtomicBool,
}

/// A fixed-size group of ranks that run SPMD functions.
///
/// The number of ranks is independent of the number of physical cores; it plays
/// the role of the MPI world size in real YGM. Sixteen ranks on a four-core
/// machine is perfectly legal (threads simply time-share), which keeps the
/// partitioning behaviour of cluster-scale runs reproducible on a laptop.
pub struct World<'env> {
    shared: Arc<Shared>,
    senders: Arc<Vec<Sender<Message<'env>>>>,
    receivers: Vec<Receiver<Message<'env>>>,
}

impl<'env> World<'env> {
    /// Create a world with `nranks` ranks.
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub(crate) fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "a World needs at least one rank");
        let mut senders = Vec::with_capacity(nranks);
        let mut receivers = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let (s, r) = channel();
            senders.push(s);
            receivers.push(r);
        }
        World {
            shared: Arc::new(Shared {
                nranks,
                sent: AtomicU64::new(0),
                processed: AtomicU64::new(0),
                barrier_count: AtomicUsize::new(nranks),
                barrier_sense: AtomicBool::new(false),
                poisoned: AtomicBool::new(false),
            }),
            senders: Arc::new(senders),
            receivers,
        }
    }

    /// Run `f` as an SPMD region: one thread per rank, every thread executing
    /// `f` with its own [`RankCtx`]. Returns the per-rank results, indexed by
    /// rank. An implicit final barrier guarantees all in-flight messages have
    /// been processed before this returns.
    ///
    /// # Panics
    /// If a rank panics — in `f` or in a message handler it runs — the other
    /// ranks panic out of their next barrier and the first panic is re-raised
    /// here once every rank thread has ended. If the OS refuses a rank's
    /// thread, the ranks already started leave their barrier the same way and
    /// this panics with the spawn error once they have ended.
    pub(crate) fn launch<R, F>(mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&RankCtx<'env>) -> R + Send + Sync,
    {
        let nranks = self.shared.nranks;
        let shared = &self.shared;
        let senders = &self.senders;
        let receivers: Vec<Receiver<Message<'env>>> = std::mem::take(&mut self.receivers);
        let f = &f;
        // The earliest panic of the region. Later ones are its consequences:
        // a poisoned barrier, a send to the dead rank's dropped receiver.
        let first_panic = Mutex::new(None);
        let first_panic = &first_panic;
        let (out, refused): (Vec<Option<R>>, _) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nranks);
            let mut refused = None;
            for (rank, receiver) in receivers.into_iter().enumerate() {
                let shared = Arc::clone(shared);
                let senders = Arc::clone(senders);
                let spawned = spawn_rank(scope, rank, move || {
                    let ctx = RankCtx {
                        rank,
                        shared,
                        senders,
                        receiver,
                        sense: Cell::new(false),
                        draining: Cell::new(false),
                    };
                    // Handlers run inside `drain` on this thread, so one
                    // catch covers `f`, its handlers and the final barrier.
                    // AssertUnwindSafe: nothing `ctx` or `f` touched is read
                    // again once a rank has panicked — the panic is re-raised.
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let r = f(&ctx);
                        // Final implicit barrier: drain stragglers so no message is
                        // dropped when the receivers are torn down.
                        ctx.barrier();
                        r
                    }));
                    // The payload is recorded before the flag releases the
                    // other ranks, and both before `ctx` drops its receiver.
                    run.map_err(|payload| {
                        lock(first_panic).get_or_insert(payload);
                        ctx.shared.poisoned.store(true, Ordering::Relaxed);
                    })
                    .ok()
                });
                match spawned {
                    Ok(handle) => handles.push(handle),
                    // The ranks already started would wait in a barrier this
                    // rank never reaches: the flag sends them out of it.
                    Err(e) => {
                        self.shared.poisoned.store(true, Ordering::Relaxed);
                        refused = Some((rank, e));
                        break;
                    }
                }
            }
            let out = handles
                .into_iter()
                .map(|h| h.join().expect("a rank's panic is caught on its thread"))
                .collect();
            (out, refused)
        });
        if let Some((rank, e)) = refused {
            panic!("could not start the thread of rank {rank}: {e}");
        }
        if let Some(payload) = lock(first_panic).take() {
            std::panic::resume_unwind(payload);
        }
        out.into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect()
    }

    /// Convenience constructor + `World::launch` in one call.
    pub fn run<R, F>(nranks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&RankCtx<'env>) -> R + Send + Sync,
    {
        World::new(nranks).launch(f)
    }
}

#[cfg(test)]
thread_local! {
    /// The rank whose thread spawn fails in this thread's launches: the seam
    /// that tests a refused spawn without asking the OS for many threads.
    static REFUSED_RANK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Start rank `rank`'s thread in `scope`, returning the OS's refusal instead
/// of panicking on it.
#[cfg_attr(not(test), allow(unused_variables))]
fn spawn_rank<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    rank: usize,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::io::Result<std::thread::ScopedJoinHandle<'scope, T>> {
    #[cfg(test)]
    if REFUSED_RANK.get() == Some(rank) {
        return Err(std::io::Error::other("refused by the test seam"));
    }
    std::thread::Builder::new().spawn_scoped(scope, f)
}

/// Per-rank execution context handed to the SPMD function.
///
/// A `RankCtx` never moves between threads (it is deliberately `!Sync` via its
/// channel receiver); message handlers run on the destination rank's thread and
/// receive that rank's context.
pub struct RankCtx<'env> {
    rank: usize,
    shared: Arc<Shared>,
    senders: Arc<Vec<Sender<Message<'env>>>>,
    receiver: Receiver<Message<'env>>,
    /// Local barrier sense (flips every barrier).
    sense: Cell<bool>,
    /// Reentrancy guard for [`RankCtx::drain`]: handlers may themselves ship
    /// batches (which opportunistically drain), and unbounded
    /// drain-inside-drain recursion would blow the stack on message floods.
    draining: Cell<bool>,
}

impl<'env> RankCtx<'env> {
    /// This rank's id in `0..nranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// Send an active message to `dest`; the closure runs on `dest`'s thread.
    ///
    /// Messages to `self` are also enqueued (never run inline), matching YGM's
    /// behaviour and bounding handler recursion depth.
    ///
    /// Handlers may freely send further messages; they must **not** call
    /// [`RankCtx::barrier`].
    pub(crate) fn async_exec<F>(&self, dest: usize, f: F)
    where
        F: FnOnce(&RankCtx<'env>) + Send + 'env,
    {
        debug_assert!(dest < self.shared.nranks, "destination rank out of range");
        // `sent` must be visible before the message can possibly be counted as
        // processed, so quiescence (`sent == processed`) is never observed
        // spuriously while a message is in a queue.
        self.shared.sent.fetch_add(1, Ordering::SeqCst);
        self.senders[dest]
            .send(Box::new(f))
            .expect("rank receiver dropped while world is running");
    }

    /// Process every message currently queued at this rank. Returns the number
    /// of messages processed. Called automatically inside barriers; exposed so
    /// long local compute loops can make progress on incoming traffic.
    pub(crate) fn drain(&self) -> usize {
        // A handler that sends (and thereby drains) while we are already
        // draining must not recurse — the outer loop will pick up whatever it
        // would have processed.
        if self.draining.get() {
            return 0;
        }
        self.draining.set(true);
        let mut n = 0;
        while let Ok(msg) = self.receiver.try_recv() {
            msg(self);
            // Count *after* the handler finished (and after any sends it made),
            // preserving the quiescence invariant.
            self.shared.processed.fetch_add(1, Ordering::SeqCst);
            n += 1;
        }
        self.draining.set(false);
        n
    }

    /// Barrier with termination detection.
    ///
    /// Returns once (a) every rank has entered the barrier and (b) every
    /// message sent anywhere in the world has been processed — including
    /// messages generated by handlers while the barrier was waiting. On return,
    /// all distributed-container operations issued before the barrier are
    /// visible on their owner ranks.
    pub fn barrier(&self) {
        let shared = &self.shared;
        let local_sense = !self.sense.get();
        self.sense.set(local_sense);
        if shared.barrier_count.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last arriver: every other rank is draining in its wait loop. We
            // keep draining until the counters agree, which proves global
            // quiescence (handlers bump `sent` before `processed`).
            loop {
                self.drain();
                self.check_poisoned();
                let sent = shared.sent.load(Ordering::SeqCst);
                let processed = shared.processed.load(Ordering::SeqCst);
                if sent == processed {
                    shared.barrier_count.store(shared.nranks, Ordering::SeqCst);
                    shared.barrier_sense.store(local_sense, Ordering::SeqCst);
                    break;
                }
                std::thread::yield_now();
            }
        } else {
            while shared.barrier_sense.load(Ordering::SeqCst) != local_sense {
                self.check_poisoned();
                if self.drain() == 0 {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// A rank that panicked never arrives and never drains its queue again,
    /// so waiting for it would spin forever. The flag publishes nothing (the
    /// payload travels through [`World::launch`]'s join), hence `Relaxed`.
    #[inline]
    fn check_poisoned(&self) {
        if self.shared.poisoned.load(Ordering::Relaxed) {
            panic!(
                "rank {}: another rank panicked; leaving the barrier",
                self.rank
            );
        }
    }

    /// Total messages sent so far, world-wide.
    pub fn messages_sent(&self) -> u64 {
        self.shared.sent.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_returns_per_rank_results_in_rank_order() {
        let out = World::run(5, |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::run(1, |ctx| {
            ctx.barrier();
            ctx.nranks()
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = World::new(0);
    }

    #[test]
    fn async_exec_delivers_to_destination_rank() {
        let hits = AtomicU64::new(0);
        let h = &hits;
        World::run(4, |ctx| {
            if ctx.rank() == 0 {
                for dest in 0..ctx.nranks() {
                    ctx.async_exec(dest, move |inner| {
                        // handler runs on the destination's thread
                        h.fetch_add(inner.rank() as u64 + 1, Ordering::SeqCst);
                    });
                }
            }
            ctx.barrier();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
    }

    #[test]
    fn handlers_borrow_caller_owned_state() {
        // No `Arc`: the counter and the slice live on this test's stack, and
        // every handler reads or bumps them in place on its own rank.
        let total = AtomicU64::new(0);
        let weights: Vec<u64> = (1..=64).collect();
        let (total_ref, weights_ref) = (&total, &weights[..]);
        World::run(3, |ctx| {
            for i in (ctx.rank()..weights_ref.len()).step_by(ctx.nranks()) {
                ctx.async_exec((i + 1) % ctx.nranks(), move |_| {
                    total_ref.fetch_add(weights_ref[i], Ordering::SeqCst);
                });
            }
            ctx.barrier();
        });
        assert_eq!(total.load(Ordering::SeqCst), weights.iter().sum::<u64>());
    }

    #[test]
    fn barrier_waits_for_cascading_messages() {
        // Rank 0 sends a message that itself sends messages, three levels deep.
        // The barrier must not release until the whole cascade has settled.
        let total = AtomicU64::new(0);
        let t = &total;
        World::run(3, |ctx| {
            if ctx.rank() == 0 {
                ctx.async_exec(1, move |c1| {
                    c1.async_exec(2, move |c2| {
                        c2.async_exec(0, move |_| {
                            t.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                });
            }
            ctx.barrier();
            // After the barrier the cascade is complete on every rank.
            assert_eq!(t.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn many_barriers_in_sequence_do_not_deadlock() {
        World::run(4, |ctx| {
            for i in 0..100u64 {
                let dest = (ctx.rank() + 1) % ctx.nranks();
                ctx.async_exec(dest, move |_| {
                    std::hint::black_box(i);
                });
                ctx.barrier();
            }
        });
    }

    #[test]
    fn message_flood_is_fully_processed_before_barrier_release() {
        const PER_RANK: u64 = 5_000;
        let total = AtomicU64::new(0);
        let t = &total;
        let nranks = 6;
        World::run(nranks, |ctx| {
            for i in 0..PER_RANK {
                let dest = (i as usize) % ctx.nranks();
                ctx.async_exec(dest, move |_| {
                    t.fetch_add(1, Ordering::SeqCst);
                });
            }
            ctx.barrier();
            assert_eq!(t.load(Ordering::SeqCst), PER_RANK * nranks as u64);
        });
    }

    /// Run `f` on a helper thread and return the message it panicked with. A
    /// world that strands its surviving ranks fails here instead of hanging:
    /// `f` may borrow the caller's frame, so its thread cannot be left
    /// behind, and the process aborts.
    pub(crate) fn panic_message_within_10s(f: impl FnOnce() + Send) -> String {
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || {
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err();
                let _ = tx.send(payload.map(|p| {
                    match p.downcast::<String>() {
                        Ok(s) => *s,
                        Err(p) => p
                            .downcast::<&str>()
                            .map_or_else(|_| "?".into(), |s| s.to_string()),
                    }
                }));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(msg) => msg.expect("the region was expected to panic"),
                Err(_) => {
                    eprintln!("the world did not tear down within 10 s");
                    std::process::abort()
                }
            }
        })
    }

    #[test]
    fn poisoned_world_a_rank_panicking_before_its_first_barrier_releases_the_others() {
        let msg = panic_message_within_10s(|| {
            World::run(3, |ctx| {
                if ctx.rank() == 1 {
                    panic!("rank one gives up");
                }
                ctx.barrier();
            });
        });
        assert_eq!(msg, "rank one gives up");
    }

    #[test]
    fn poisoned_world_a_handler_panic_releases_the_others() {
        let msg = panic_message_within_10s(|| {
            World::run(3, |ctx| {
                if ctx.rank() == 0 {
                    ctx.async_exec(2, |inner| panic!("handler on rank {}", inner.rank()));
                }
                ctx.barrier();
                ctx.barrier();
            });
        });
        assert_eq!(msg, "handler on rank 2");
    }

    #[test]
    fn poisoned_world_a_rank_panicking_with_borrowing_messages_queued_tears_down() {
        // Every rank queues rank 2 messages that borrow this test's stack,
        // and rank 2 panics before it drains one: the world must release the
        // others, drop those messages unrun and re-raise the panic.
        let survivor = Mutex::new(vec![7u64; 16]);
        let borrowed = &survivor;
        let msg = panic_message_within_10s(|| {
            World::run(3, |ctx| {
                for _ in 0..100 {
                    ctx.async_exec(2, move |_| lock(borrowed)[0] += 1);
                }
                if ctx.rank() == 2 {
                    panic!("rank two gives up with its queue full");
                }
                ctx.barrier();
            });
        });
        assert_eq!(msg, "rank two gives up with its queue full");
        assert_eq!(*lock(&survivor), vec![7; 16]);
    }

    #[test]
    fn poisoned_world_a_refused_rank_thread_releases_the_started_ranks() {
        for refused in 0..3 {
            let msg = panic_message_within_10s(move || {
                REFUSED_RANK.set(Some(refused));
                World::run(3, |ctx| ctx.barrier());
            });
            let want =
                format!("could not start the thread of rank {refused}: refused by the test seam");
            assert_eq!(msg, want);
        }
    }

    #[test]
    fn stats_count_sends() {
        let out = World::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.async_exec(1, |_| {});
                ctx.async_exec(1, |_| {});
                ctx.async_exec(0, |_| {}); // self-send
            }
            ctx.barrier();
            ctx.messages_sent()
        });
        // 3 explicit messages, counted world-wide; a barrier sends none.
        assert_eq!(out, vec![3, 3]);
    }
}
