//! Packed-batch exchange: the throughput path for fixed-width shuffles.
//!
//! The pipeline's big shuffles (events, projection pairs, oriented edges)
//! move millions of *fixed-width* items, and an aggregator that stages
//! arbitrary items in per-destination `Vec<T>`s and replays them one closure
//! call per item pays three costs there: the per-item apply call, the
//! per-batch buffer allocation, and a flush threshold that ignores how wide
//! the items are.
//!
//! [`PackedAggregator`] removes all three:
//!
//! * items implement [`Packable`] and are serialized little-endian into
//!   pre-sized **byte buffers** — exactly the wire layout a real YGM/MPI
//!   deployment would put on the network, so batch sizes are measured in
//!   bytes, not items;
//! * shipped buffers return to a world-shared `BufferPool` after the
//!   receiver drains them, so steady-state shuffles allocate nothing: the
//!   pool reaches its working set within the first few batches and every
//!   later ship reuses a buffer some rank finished with;
//! * the flush threshold is **adaptive** ([`adaptive_batch_bytes`]): it
//!   targets a fixed bytes-per-batch, clamped so that one rank's total
//!   buffered bytes (`nranks` destination buffers) stay within a fixed
//!   budget regardless of the world size — more ranks means smaller
//!   per-destination buffers, never more memory.
//!
//! The receiver side is batch-granular too: the apply function gets one
//! [`PackedBatch`] per shipped buffer and can lock its shard once per batch
//! (e.g. [`crate::DistRuns::local_absorb`]) instead of once per item.
//!
//! Shuffle traffic is observable through [`obs`] counters: `ygm.bytes_sent`,
//! `ygm.batches_sent`, `ygm.items_sent` world totals, the same three under
//! `ygm.<label>.…` per aggregator label, their receive-side mirrors
//! `ygm.bytes_received` / `ygm.batches_received` / `ygm.items_received`
//! (bumped on the owner as batches are applied), `ygm.pool_hits` /
//! `ygm.pool_misses` for buffer recycling, and a `ygm.batch_items_log2_N`
//! items-per-batch histogram — all of which land in the schema-versioned run
//! report automatically.
//!
//! Shipping is also where send/receive **overlap** happens: after handing a
//! batch to the channel, [`PackedAggregator`] ship calls `RankCtx::drain`,
//! so a rank mid-shuffle processes whatever has already arrived for it
//! instead of letting its inbox (and the run stacks behind it) sit idle
//! until the next barrier.

use std::sync::{Arc, Mutex};

use crate::comm::{lock, RankCtx};

/// Target payload per shipped batch. 64 KiB amortizes the per-message boxed
/// closure + channel send to noise while staying far inside L2.
pub(crate) const TARGET_BATCH_BYTES: usize = 64 << 10;

/// Ceiling on one rank's total buffered bytes across all destination
/// buffers. The adaptive threshold divides this by `nranks`, so doubling the
/// world halves the per-destination buffer instead of doubling the rank's
/// send-side footprint.
pub(crate) const PER_RANK_BUFFER_BUDGET: usize = 4 << 20;

/// The adaptive flush threshold in bytes for items of `item_width` bytes in
/// an `nranks`-rank world:
///
/// ```text
/// threshold = max(item_width, min(TARGET_BATCH_BYTES,
///                                 PER_RANK_BUFFER_BUDGET / nranks))
/// ```
///
/// At small world sizes this is simply `TARGET_BATCH_BYTES`; past
/// `PER_RANK_BUFFER_BUDGET / TARGET_BATCH_BYTES` ranks (64 with the default
/// constants) the budget clamp takes over. The result is never below one
/// item, so degenerate widths still make progress.
pub fn adaptive_batch_bytes(item_width: usize, nranks: usize) -> usize {
    let width = item_width.max(1);
    TARGET_BATCH_BYTES
        .min(PER_RANK_BUFFER_BUDGET / nranks.max(1))
        .max(width)
}

/// A fixed-width item with a little-endian byte encoding — the wire format
/// of [`PackedAggregator`] batches. `WIDTH` must be exact: `pack` appends
/// exactly `WIDTH` bytes and `unpack` reads exactly `WIDTH`.
pub trait Packable: Copy + Send {
    /// Encoded size in bytes.
    const WIDTH: usize;
    /// Append this item's encoding to `out` (exactly `WIDTH` bytes).
    fn pack(&self, out: &mut Vec<u8>);
    /// Decode one item from `bytes` (exactly `WIDTH` bytes).
    fn unpack(bytes: &[u8]) -> Self;
}

macro_rules! packable_scalar {
    ($t:ty) => {
        impl Packable for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn pack(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn unpack(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("packed width mismatch"))
            }
        }
    };
}

packable_scalar!(u32);
packable_scalar!(u64);
packable_scalar!(i64);

macro_rules! packable_tuple {
    ($($name:ident : $t:ty),+) => {
        impl Packable for ($($t,)+) {
            const WIDTH: usize = 0 $(+ std::mem::size_of::<$t>())+;
            #[inline]
            fn pack(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $(out.extend_from_slice(&$name.to_le_bytes());)+
            }
            #[inline]
            fn unpack(bytes: &[u8]) -> Self {
                let mut at = 0usize;
                $(
                    let $name = <$t>::from_le_bytes(
                        bytes[at..at + std::mem::size_of::<$t>()]
                            .try_into()
                            .expect("packed width mismatch"),
                    );
                    at += std::mem::size_of::<$t>();
                )+
                let _ = at;
                ($($name,)+)
            }
        }
    };
}

packable_tuple!(a: u32, b: u32);
packable_tuple!(a: u32, b: u64);
packable_tuple!(a: u32, b: i64, c: u32);
packable_tuple!(a: u32, b: u32, c: u64);

/// A world-shared recycling pool of byte buffers.
///
/// Senders [`acquire`](BufferPool::acquire) pre-sized buffers, receivers
/// [`release`](BufferPool::release) them after draining a batch; because the
/// pool is world-shared, a buffer filled on rank 0 and drained on rank 3 is
/// available to *any* rank's next ship. Retention is bounded so a bursty
/// stage cannot pin unbounded memory.
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    max_retained: usize,
    hits: obs::Counter,
    misses: obs::Counter,
}

impl BufferPool {
    /// A pool retaining at most `max_retained` idle buffers.
    pub(crate) fn new(max_retained: usize) -> Arc<Self> {
        Arc::new(BufferPool {
            free: Mutex::new(Vec::new()),
            max_retained,
            hits: obs::counter("ygm.pool_hits"),
            misses: obs::counter("ygm.pool_misses"),
        })
    }

    /// Take a cleared buffer with at least `capacity` bytes reserved.
    pub(crate) fn acquire(&self, capacity: usize) -> Vec<u8> {
        let recycled = lock(&self.free).pop();
        match &recycled {
            Some(_) => self.hits.add(1),
            None => self.misses.add(1),
        }
        let mut buf = recycled.unwrap_or_default();
        buf.clear();
        if buf.capacity() < capacity {
            buf.reserve(capacity - buf.len());
        }
        buf
    }

    /// Return a drained buffer; dropped instead if the pool is full.
    pub(crate) fn release(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = lock(&self.free);
        if free.len() < self.max_retained {
            free.push(buf);
        }
    }
}

/// One shipped batch, decoded lazily on the owner rank.
pub struct PackedBatch<'a, T: Packable> {
    bytes: &'a [u8],
    _item: std::marker::PhantomData<T>,
}

impl<'a, T: Packable> PackedBatch<'a, T> {
    fn new(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes.len() % T::WIDTH, 0, "torn packed batch");
        PackedBatch {
            bytes,
            _item: std::marker::PhantomData,
        }
    }

    /// Items in this batch.
    pub fn len(&self) -> usize {
        self.bytes.len() / T::WIDTH
    }

    /// Whether the batch is empty (never true for shipped batches).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decode the items in send order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.bytes.chunks_exact(T::WIDTH).map(T::unpack)
    }
}

/// Histogram buckets for items-per-batch: bucket `k` counts batches with
/// `2^k ..= 2^(k+1)-1` items, saturating at the last bucket.
const BATCH_HIST_BUCKETS: usize = 17;

/// Per-destination byte-buffer aggregation for [`Packable`] items, applied
/// batch-at-a-time on the owner rank.
///
/// `A` runs on the *destination* rank once per shipped buffer; it must be
/// `Clone` because each shipped batch carries its own copy. The usual apply
/// locks a container shard once and bulk-appends the decoded items.
pub struct PackedAggregator<'env, T, A>
where
    T: Packable,
    A: Fn(&RankCtx<'env>, PackedBatch<'_, T>) + Clone + Send + 'env,
{
    buffers: Vec<Vec<u8>>,
    threshold_bytes: usize,
    pool: Arc<BufferPool>,
    apply: A,
    batches_sent: u64,
    bytes_sent: u64,
    batch_hist: [u64; BATCH_HIST_BUCKETS],
    counters: ExchangeCounters,
    _item: std::marker::PhantomData<(T, &'env ())>,
}

/// Held [`obs`] counter handles — resolved once per aggregator so the ship
/// path never touches the registry lock.
struct ExchangeCounters {
    bytes: obs::Counter,
    batches: obs::Counter,
    items: obs::Counter,
    label_bytes: obs::Counter,
    label_batches: obs::Counter,
    label_items: obs::Counter,
    // Receive-side world totals, bumped on the owner rank as each batch is
    // applied; handles are cloned into the ship closure.
    bytes_received: obs::Counter,
    batches_received: obs::Counter,
    items_received: obs::Counter,
}

impl ExchangeCounters {
    fn new(label: &str) -> Self {
        ExchangeCounters {
            bytes: obs::counter("ygm.bytes_sent"),
            batches: obs::counter("ygm.batches_sent"),
            items: obs::counter("ygm.items_sent"),
            label_bytes: obs::counter(&format!("ygm.{label}.bytes_sent")),
            label_batches: obs::counter(&format!("ygm.{label}.batches_sent")),
            label_items: obs::counter(&format!("ygm.{label}.items_sent")),
            bytes_received: obs::counter("ygm.bytes_received"),
            batches_received: obs::counter("ygm.batches_received"),
            items_received: obs::counter("ygm.items_received"),
        }
    }
}

impl<'env, T, A> PackedAggregator<'env, T, A>
where
    T: Packable,
    A: Fn(&RankCtx<'env>, PackedBatch<'_, T>) + Clone + Send + 'env,
{
    /// An aggregator with the [`adaptive_batch_bytes`] threshold for this
    /// item width and world size. `label` names the shuffle in obs counters
    /// (`ygm.<label>.bytes_sent` …).
    ///
    /// `apply` may borrow what outlives the world, never a local of the
    /// SPMD function: a rank's locals are gone before the final barrier
    /// drains the batches that would read them.
    ///
    /// ```compile_fail,E0597
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use ygm::{PackedAggregator, PackedBatch, World};
    ///
    /// World::run(2, |ctx| {
    ///     let landed = AtomicU64::new(0);
    ///     let landed = &landed;
    ///     let mut agg = PackedAggregator::new(ctx, "local", move |_, batch: PackedBatch<u64>| {
    ///         landed.fetch_add(batch.len() as u64, Ordering::Relaxed);
    ///     });
    ///     agg.push(ctx, 1 - ctx.rank(), 7);
    ///     agg.flush_all(ctx);
    /// });
    /// ```
    pub fn new(ctx: &RankCtx<'env>, label: &str, apply: A) -> Self {
        Self::with_batch_bytes(
            ctx,
            label,
            adaptive_batch_bytes(T::WIDTH, ctx.nranks()),
            apply,
        )
    }

    /// An aggregator flushing each destination at `batch_bytes` buffered
    /// bytes (clamped to at least one item). Equivalence tests use tiny
    /// thresholds to stress the flush path; production callers want
    /// [`PackedAggregator::new`].
    pub fn with_batch_bytes(
        ctx: &RankCtx<'env>,
        label: &str,
        batch_bytes: usize,
        apply: A,
    ) -> Self {
        assert!(T::WIDTH > 0, "packed items must have positive width");
        PackedAggregator {
            buffers: (0..ctx.nranks()).map(|_| Vec::new()).collect(),
            threshold_bytes: batch_bytes.max(T::WIDTH),
            pool: Arc::clone(ctx.buffer_pool()),
            apply,
            batches_sent: 0,
            bytes_sent: 0,
            batch_hist: [0; BATCH_HIST_BUCKETS],
            counters: ExchangeCounters::new(label),
            _item: std::marker::PhantomData,
        }
    }

    /// Stage `item` for `dest`, shipping the buffer once it holds
    /// `batch_bytes` worth of items.
    #[inline]
    pub fn push(&mut self, ctx: &RankCtx<'env>, dest: usize, item: T) {
        let buf = &mut self.buffers[dest];
        if buf.capacity() == 0 {
            *buf = self.pool.acquire(self.threshold_bytes);
        }
        item.pack(buf);
        if buf.len() >= self.threshold_bytes {
            self.ship(ctx, dest);
        }
    }

    /// Stage `item` for the rank owning `key` under hash partitioning.
    #[inline]
    pub fn push_keyed<K: std::hash::Hash + ?Sized>(
        &mut self,
        ctx: &RankCtx<'env>,
        key: &K,
        item: T,
    ) {
        let dest = crate::partition::owner_of(key, self.buffers.len());
        self.push(ctx, dest, item);
    }

    /// Ship every non-empty buffer. Items are visible on their owners only
    /// after the next barrier, as with plain `async_exec`.
    pub fn flush_all(&mut self, ctx: &RankCtx<'env>) {
        for dest in 0..self.buffers.len() {
            if !self.buffers[dest].is_empty() {
                self.ship(ctx, dest);
            }
        }
    }

    fn ship(&mut self, ctx: &RankCtx<'env>, dest: usize) {
        let batch = std::mem::take(&mut self.buffers[dest]);
        let items = (batch.len() / T::WIDTH) as u64;
        self.batches_sent += 1;
        self.bytes_sent += batch.len() as u64;
        let bucket = (63 - items.max(1).leading_zeros() as usize).min(BATCH_HIST_BUCKETS - 1);
        self.batch_hist[bucket] += 1;
        self.counters.bytes.add(batch.len() as u64);
        self.counters.batches.add(1);
        self.counters.items.add(items);
        self.counters.label_bytes.add(batch.len() as u64);
        self.counters.label_batches.add(1);
        self.counters.label_items.add(items);
        let apply = self.apply.clone();
        let recv_bytes = self.counters.bytes_received.clone();
        let recv_batches = self.counters.batches_received.clone();
        let recv_items = self.counters.items_received.clone();
        ctx.async_exec(dest, move |inner| {
            recv_bytes.add(batch.len() as u64);
            recv_batches.add(1);
            recv_items.add(items);
            apply(inner, PackedBatch::new(&batch));
            inner.buffer_pool().release(batch);
        });
        // Overlap: senders double as receivers. Draining here lets the owner
        // side absorb in-flight batches *while* this rank is still producing,
        // instead of deferring the whole receive volume to the next barrier.
        // Inside a handler this is a guarded no-op, so cascades stay bounded.
        ctx.drain();
    }

    /// Batches (active messages) shipped so far.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Payload bytes shipped so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Items currently buffered, across all destinations.
    pub(crate) fn buffered(&self) -> usize {
        self.buffers.iter().map(|b| b.len() / T::WIDTH).sum()
    }
}

impl<'env, T, A> Drop for PackedAggregator<'env, T, A>
where
    T: Packable,
    A: Fn(&RankCtx<'env>, PackedBatch<'_, T>) + Clone + Send + 'env,
{
    fn drop(&mut self) {
        // Flush the items-per-batch histogram into the shared registry
        // (named buckets, log2-sized like the survey's weight histogram).
        for (k, &n) in self.batch_hist.iter().enumerate() {
            if n > 0 {
                obs::counter(&format!("ygm.batch_items_log2_{k:02}")).add(n);
            }
        }
        // An unflushed buffer is a programming error — but only assert on
        // orderly drops: when the rank is already unwinding from a panic a
        // second panic here would abort the process and mask the original.
        assert!(
            self.buffered() == 0 || std::thread::panicking(),
            "PackedAggregator dropped with {} unflushed items — call flush_all(ctx) first",
            self.buffered()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::lock;
    use crate::partition::owner_of;
    use crate::World;
    use std::sync::Mutex;

    /// One landing `Vec` per rank, borrowed by every rank's handlers.
    type Shards<T> = Vec<Mutex<Vec<T>>>;

    fn shards<T>(nranks: usize) -> Shards<T> {
        (0..nranks).map(|_| Mutex::new(Vec::new())).collect()
    }

    /// Take the calling rank's landing `Vec` (post-barrier).
    fn take<T>(shards: &Shards<T>, ctx: &RankCtx) -> Vec<T> {
        std::mem::take(&mut *lock(&shards[ctx.rank()]))
    }

    #[test]
    fn scalar_and_tuple_roundtrip() {
        fn roundtrip<T: Packable + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.pack(&mut buf);
            assert_eq!(buf.len(), T::WIDTH);
            assert_eq!(T::unpack(&buf), v);
        }
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX - 7);
        roundtrip(-1_234_567_890_123i64);
        roundtrip((3u32, 9u32));
        roundtrip((42u32, u64::MAX));
        roundtrip((7u32, -62i64, 11u32));
        roundtrip((1u32, 2u32, 3u64));
    }

    #[test]
    fn adaptive_threshold_targets_bytes_and_respects_budget() {
        assert_eq!(adaptive_batch_bytes(16, 1), TARGET_BATCH_BYTES);
        assert_eq!(adaptive_batch_bytes(16, 4), TARGET_BATCH_BYTES);
        // 256 ranks: budget / 256 = 16 KiB < 64 KiB target
        assert_eq!(adaptive_batch_bytes(16, 256), PER_RANK_BUFFER_BUDGET / 256);
        // degenerate: never below one item
        assert!(adaptive_batch_bytes(1 << 30, 4) >= 1 << 30);
        assert!(adaptive_batch_bytes(0, 4) >= 1);
    }

    #[test]
    fn packed_shuffle_delivers_every_item() {
        const N: u64 = 20_000;
        let landed = shards::<u64>(4);
        let shards = World::run(4, |ctx| {
            let b = &landed;
            let mut agg =
                PackedAggregator::new(ctx, "test", move |inner, batch: PackedBatch<u64>| {
                    lock(&b[inner.rank()]).extend(batch.iter());
                });
            for i in 0..N {
                agg.push_keyed(ctx, &i, i * 3 + ctx.rank() as u64);
            }
            agg.flush_all(ctx);
            ctx.barrier();
            take(&landed, ctx)
        });
        let mut all = shards.concat();
        assert_eq!(all.len(), N as usize * 4);
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|r| (0..N).map(move |i| i * 3 + r))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn packed_routing_matches_direct_pushes() {
        let packed = shards::<(u32, u32)>(3);
        let direct = shards::<(u32, u32)>(3);
        World::run(3, |ctx| {
            let p = &packed;
            let mut pagg =
                PackedAggregator::new(ctx, "test", move |inner, batch: PackedBatch<(u32, u32)>| {
                    lock(&p[inner.rank()]).extend(batch.iter());
                });
            for i in 0..5_000u32 {
                let key = i % 101;
                pagg.push_keyed(ctx, &key, (key, i));
                let d = &direct;
                ctx.async_exec(owner_of(&key, ctx.nranks()), move |inner| {
                    lock(&d[inner.rank()]).push((key, i));
                });
            }
            pagg.flush_all(ctx);
            ctx.barrier();
            // same hash, same owner: the per-rank shards must agree
            let mut mine_p = take(&packed, ctx);
            let mut mine_d = take(&direct, ctx);
            mine_p.sort_unstable();
            mine_d.sort_unstable();
            assert_eq!(mine_p, mine_d);
        });
    }

    #[test]
    fn byte_threshold_controls_batch_count() {
        let out = World::run(2, |ctx| {
            let mut agg = PackedAggregator::<u64, _>::with_batch_bytes(
                ctx,
                "test",
                // 10 items of 8 bytes per batch
                80,
                |_, _batch| {},
            );
            for i in 0..100u64 {
                agg.push(ctx, 0, i);
            }
            agg.flush_all(ctx);
            ctx.barrier();
            (agg.batches_sent(), agg.bytes_sent())
        });
        for (batches, bytes) in out {
            assert_eq!(batches, 10);
            assert_eq!(bytes, 800);
        }
    }

    #[test]
    fn threshold_of_one_byte_degenerates_to_per_item_sends() {
        let out = World::run(2, |ctx| {
            let mut agg =
                PackedAggregator::<u32, _>::with_batch_bytes(ctx, "test", 1, |_, _batch| {});
            for i in 0..10u32 {
                agg.push(ctx, 1, i);
            }
            agg.flush_all(ctx);
            ctx.barrier();
            agg.batches_sent()
        });
        assert_eq!(out, vec![10, 10]);
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let retained = World::run(2, |ctx| {
            let mut agg = PackedAggregator::<u64, _>::with_batch_bytes(
                ctx,
                "test",
                256,
                |_, _batch: PackedBatch<u64>| {},
            );
            for round in 0..50u64 {
                for i in 0..200u64 {
                    agg.push_keyed(ctx, &(round * 1_000 + i), i);
                }
                agg.flush_all(ctx);
                ctx.barrier();
            }
            lock(&ctx.buffer_pool().free).len()
        });
        // after the final barrier every shipped buffer was drained and
        // released; the pool holds the steady-state working set
        assert!(retained.iter().any(|&r| r > 0), "{retained:?}");
    }

    #[test]
    fn flush_all_clears_buffers() {
        World::run(2, |ctx| {
            let mut agg =
                PackedAggregator::<u32, _>::with_batch_bytes(ctx, "test", 1 << 20, |_, _batch| {});
            agg.push(ctx, 0, 1);
            agg.push(ctx, 1, 2);
            assert_eq!(agg.buffered(), 2);
            agg.flush_all(ctx);
            assert_eq!(agg.buffered(), 0);
            ctx.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "dropped with 1 unflushed items")]
    fn dropping_unflushed_packed_aggregator_panics() {
        World::run(1, |ctx| {
            let mut agg =
                PackedAggregator::<u32, _>::with_batch_bytes(ctx, "test", 1 << 20, |_, _batch| {});
            agg.push(ctx, 0, 1);
        });
    }

    #[test]
    fn unwinding_rank_does_not_double_panic_in_drop() {
        // The original panic must surface — not an abort from the Drop
        // assert firing during unwind with items still buffered.
        let err = std::panic::catch_unwind(|| {
            World::run(1, |ctx| {
                let mut agg = PackedAggregator::<u32, _>::with_batch_bytes(
                    ctx,
                    "test",
                    1 << 20,
                    |_, _batch| {},
                );
                agg.push(ctx, 0, 1);
                panic!("original error");
            });
        })
        .expect_err("rank must panic");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(msg, "original error");
    }
}
