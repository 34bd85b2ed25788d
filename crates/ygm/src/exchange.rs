//! Packed-batch exchange: the throughput path for fixed-width shuffles.
//!
//! The pipeline's big shuffles (comments under a budget, projection pairs,
//! wedge checks) move millions of *fixed-width* items. [`PackedAggregator`]
//! buffers them in one `Vec<T>` per destination and ships the whole vector
//! as one active message; the owner's handler gets a [`PackedBatch`], a view
//! of the shipped items in push order, and the vector is freed once the
//! handler returns. Ranks are threads of one process, so an item crosses as
//! itself: nothing is encoded or decoded on the way.
//!
//! Batch sizes are measured in **wire bytes**: each item counts
//! [`Packable::WIDTH`] bytes, the size a network transport would put on the
//! wire for it. The flush threshold is **adaptive** ([`adaptive_batch_bytes`]):
//! it targets a fixed bytes-per-batch, clamped so that one rank's total
//! buffered bytes (`nranks` destination buffers) stay within a fixed budget
//! regardless of the world size — more ranks means smaller per-destination
//! buffers, never more memory.
//!
//! The receiver side is batch-granular: the apply function runs once per
//! shipped batch and can lock its shard once per batch
//! (e.g. [`crate::DistRuns::local_absorb`]) instead of once per item.
//!
//! Shuffle traffic is observable through [`obs`] counters: `ygm.bytes_sent`,
//! `ygm.batches_sent`, `ygm.items_sent` world totals, the same three under
//! `ygm.<label>.…` per aggregator label, and a `ygm.batch_items_log2_N`
//! items-per-batch histogram — all of which land in the schema-versioned run
//! report automatically. Every shipped batch is applied before the next
//! barrier returns, so the sent totals are also what was received.
//!
//! Shipping is also where send/receive **overlap** happens: after handing a
//! batch to the channel, [`PackedAggregator`] ship calls `RankCtx::drain`,
//! so a rank mid-shuffle processes whatever has already arrived for it
//! instead of letting its inbox (and the run stacks behind it) sit idle
//! until the next barrier.

use crate::comm::RankCtx;

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

/// A fixed-width item of a [`PackedAggregator`] shuffle. `WIDTH` is its wire
/// width: the sum of its fields' sizes, no padding — what the exchange
/// counts as bytes sent and what its flush threshold is measured in.
pub trait Packable: Copy + Send {
    /// Wire size in bytes.
    const WIDTH: usize;
}

impl Packable for u32 {
    const WIDTH: usize = 4;
}
impl Packable for u64 {
    const WIDTH: usize = 8;
}
impl Packable for u128 {
    const WIDTH: usize = 16;
}
impl Packable for (u32, i64, u32) {
    const WIDTH: usize = 4 + 8 + 4;
}
impl Packable for (u32, u32, u64) {
    const WIDTH: usize = 4 + 4 + 8;
}

/// One shipped batch on its owner rank: the items in push order.
pub struct PackedBatch<'a, T: Packable>(&'a [T]);

impl<T: Packable> PackedBatch<'_, T> {
    /// Items in this batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch is empty (never true for shipped batches).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The items in send order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.0.iter().copied()
    }
}

/// Histogram buckets for items-per-batch: bucket `k` counts batches with
/// `2^k ..= 2^(k+1)-1` items, saturating at the last bucket.
const BATCH_HIST_BUCKETS: usize = 17;

/// Per-destination aggregation of [`Packable`] items, applied
/// batch-at-a-time on the owner rank.
///
/// `A` runs on the *destination* rank once per shipped batch; it must be
/// `Clone` because each shipped batch carries its own copy. The usual apply
/// locks a container shard once and bulk-appends the batch's items.
pub struct PackedAggregator<'env, T, A>
where
    T: Packable + 'env,
    A: Fn(&RankCtx<'env>, PackedBatch<'_, T>) + Clone + Send + 'env,
{
    buffers: Vec<Vec<T>>,
    /// Ship a destination's buffer once it holds this many items: the byte
    /// threshold over [`Packable::WIDTH`], rounded up, at least one.
    threshold_items: usize,
    apply: A,
    batches_sent: u64,
    bytes_sent: u64,
    batch_hist: [u64; BATCH_HIST_BUCKETS],
    counters: ExchangeCounters,
    _env: std::marker::PhantomData<&'env ()>,
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
        }
    }
}

impl<'env, T, A> PackedAggregator<'env, T, A>
where
    T: Packable + 'env,
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
    /// wire bytes (clamped to at least one item). Equivalence tests use tiny
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
            threshold_items: batch_bytes.div_ceil(T::WIDTH).max(1),
            apply,
            batches_sent: 0,
            bytes_sent: 0,
            batch_hist: [0; BATCH_HIST_BUCKETS],
            counters: ExchangeCounters::new(label),
            _env: std::marker::PhantomData,
        }
    }

    /// Stage `item` for `dest`, shipping the buffer once it holds
    /// `batch_bytes` worth of items.
    #[inline]
    pub fn push(&mut self, ctx: &RankCtx<'env>, dest: usize, item: T) {
        let buf = &mut self.buffers[dest];
        if buf.capacity() == 0 {
            buf.reserve_exact(self.threshold_items);
        }
        buf.push(item);
        if buf.len() >= self.threshold_items {
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
        let items = batch.len() as u64;
        let bytes = items * T::WIDTH as u64;
        self.batches_sent += 1;
        self.bytes_sent += bytes;
        let bucket = (63 - items.max(1).leading_zeros() as usize).min(BATCH_HIST_BUCKETS - 1);
        self.batch_hist[bucket] += 1;
        self.counters.bytes.add(bytes);
        self.counters.batches.add(1);
        self.counters.items.add(items);
        self.counters.label_bytes.add(bytes);
        self.counters.label_batches.add(1);
        self.counters.label_items.add(items);
        let apply = self.apply.clone();
        // The batch is freed when the handler returns.
        ctx.async_exec(dest, move |inner| apply(inner, PackedBatch(&batch)));
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

    /// Wire bytes shipped so far: items times [`Packable::WIDTH`].
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Items currently buffered, across all destinations.
    pub(crate) fn buffered(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }
}

impl<'env, T, A> Drop for PackedAggregator<'env, T, A>
where
    T: Packable + 'env,
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

    /// The wire accounting: an aggregator counts `WIDTH` bytes an item,
    /// and each destination receives its items in push order, batch after
    /// batch, down to one item a batch.
    #[test]
    fn bytes_sent_counts_wire_width_and_each_destination_keeps_push_order() {
        const N: u32 = 1_000;
        fn check<T: Packable + PartialEq + std::fmt::Debug>(width: usize, item: fn(u32) -> T) {
            assert_eq!(T::WIDTH, width);
            for batch_bytes in [1, 40, TARGET_BATCH_BYTES] {
                let landed = shards::<T>(3);
                let sent = World::run(3, |ctx| {
                    let l = &landed;
                    let mut agg = PackedAggregator::with_batch_bytes(
                        ctx,
                        "wire",
                        batch_bytes,
                        move |inner, batch: PackedBatch<T>| {
                            lock(&l[inner.rank()]).extend(batch.iter());
                        },
                    );
                    if ctx.rank() == 0 {
                        for i in 0..N {
                            agg.push(ctx, i as usize % 3, item(i));
                        }
                    }
                    agg.flush_all(ctx);
                    ctx.barrier();
                    (agg.bytes_sent(), agg.batches_sent())
                });
                assert_eq!(sent[0].0, u64::from(N) * width as u64);
                assert_eq!(sent[1..], [(0, 0), (0, 0)]);
                if batch_bytes == 1 {
                    assert_eq!(sent[0].1, u64::from(N));
                }
                for (dest, got) in landed.into_iter().enumerate() {
                    let want: Vec<T> = (0..N)
                        .filter(|i| *i as usize % 3 == dest)
                        .map(item)
                        .collect();
                    assert_eq!(
                        got.into_inner().unwrap(),
                        want,
                        "{batch_bytes} B, rank {dest}"
                    );
                }
            }
        }
        check(16, |i| (i, -i64::from(i), i * 3));
        check(8, |i| u64::from(i) << 20 | 5);
        check(16, |i| u128::from(i) << 70 | 1);
        check(16, |i| (i, i + 1, u64::from(i) << 33));
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
        let packed = shards::<(u32, u32, u64)>(3);
        let direct = shards::<(u32, u32, u64)>(3);
        World::run(3, |ctx| {
            let p = &packed;
            let mut pagg = PackedAggregator::new(
                ctx,
                "test",
                move |inner, batch: PackedBatch<(u32, u32, u64)>| {
                    lock(&p[inner.rank()]).extend(batch.iter());
                },
            );
            for i in 0..5_000u32 {
                let key = i % 101;
                pagg.push_keyed(ctx, &key, (key, i, 0));
                let d = &direct;
                ctx.async_exec(owner_of(&key, ctx.nranks()), move |inner| {
                    lock(&d[inner.rank()]).push((key, i, 0));
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
