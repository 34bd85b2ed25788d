//! Message aggregation — YGM's signature performance mechanism.
//!
//! Real YGM owes its throughput to *send buffering*: instead of one network
//! message per `async_*` call, items are staged in per-destination buffers
//! and shipped as large batches, cutting per-message overhead by orders of
//! magnitude. The same pattern pays here (one boxed closure + channel send
//! per *batch* instead of per item), and — more importantly — code written
//! against [`Aggregator`] has exactly the communication structure of a real
//! YGM program, which is what this substrate exists to preserve.
//!
//! An [`Aggregator`] buffers `(dest, item)` pairs; when a destination's
//! buffer reaches the flush threshold it is shipped as one active message
//! whose handler replays the items through the user's apply function on the
//! owner rank. [`Aggregator::flush_all`] drains the stragglers; the usual
//! pattern is `flush_all` followed by `ctx.barrier()`.

use crate::comm::RankCtx;

/// Per-destination buffering for items applied on the owner rank.
///
/// `A` is the apply function, executed on the *destination* rank for each
/// batched item; it must be `Clone` because each shipped batch carries its
/// own copy.
pub struct Aggregator<T, A>
where
    T: Send + 'static,
    A: Fn(&RankCtx, T) + Clone + Send + 'static,
{
    buffers: Vec<Vec<T>>,
    threshold: usize,
    apply: A,
    items_sent: u64,
    batches_sent: u64,
}

impl<T, A> Aggregator<T, A>
where
    T: Send + 'static,
    A: Fn(&RankCtx, T) + Clone + Send + 'static,
{
    /// An aggregator for `ctx`'s world flushing each destination at
    /// `threshold` buffered items.
    pub fn new(ctx: &RankCtx, threshold: usize, apply: A) -> Self {
        assert!(threshold > 0, "flush threshold must be positive");
        Aggregator {
            buffers: (0..ctx.nranks()).map(|_| Vec::new()).collect(),
            threshold,
            apply,
            items_sent: 0,
            batches_sent: 0,
        }
    }

    /// Stage `item` for `dest`, shipping the buffer if it reaches the
    /// threshold.
    pub fn push(&mut self, ctx: &RankCtx, dest: usize, item: T) {
        self.buffers[dest].push(item);
        if self.buffers[dest].len() >= self.threshold {
            self.ship(ctx, dest);
        }
    }

    /// Stage `item` for the rank owning `key` under hash partitioning — the
    /// common case when the apply function targets a distributed container
    /// shard. Saves every call site the `owner_of(&key, ctx.nranks())`
    /// boilerplate and keeps the routing hash in one place.
    pub fn push_keyed<K: std::hash::Hash + ?Sized>(&mut self, ctx: &RankCtx, key: &K, item: T) {
        let dest = crate::partition::owner_of(key, self.buffers.len());
        self.push(ctx, dest, item);
    }

    /// Ship every non-empty buffer. Items are *visible* on their owners only
    /// after the next barrier, as with plain `async_exec`.
    pub fn flush_all(&mut self, ctx: &RankCtx) {
        for dest in 0..self.buffers.len() {
            if !self.buffers[dest].is_empty() {
                self.ship(ctx, dest);
            }
        }
    }

    fn ship(&mut self, ctx: &RankCtx, dest: usize) {
        let batch = std::mem::take(&mut self.buffers[dest]);
        self.items_sent += batch.len() as u64;
        self.batches_sent += 1;
        let apply = self.apply.clone();
        ctx.async_exec(dest, move |inner| {
            for item in batch {
                apply(inner, item);
            }
        });
    }

    /// Items shipped so far (excluding still-buffered ones).
    pub fn items_sent(&self) -> u64 {
        self.items_sent
    }

    /// Batches (active messages) shipped so far.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Items currently buffered, across all destinations.
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }
}

impl<T, A> Drop for Aggregator<T, A>
where
    T: Send + 'static,
    A: Fn(&RankCtx, T) + Clone + Send + 'static,
{
    fn drop(&mut self) {
        assert!(
            self.buffered() == 0 || std::thread::panicking(),
            "Aggregator dropped with {} unflushed items — call flush_all(ctx) first",
            self.buffered()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::DistCountingSet;
    use crate::World;

    #[test]
    fn batched_counting_matches_unbatched() {
        const N: u64 = 10_000;
        let batched = DistCountingSet::<u64>::new(4);
        let direct = DistCountingSet::<u64>::new(4);
        {
            let batched = batched.clone();
            let direct = direct.clone();
            World::run(4, move |ctx| {
                let b2 = batched.clone();
                let mut agg = Aggregator::new(ctx, 256, move |inner, key: u64| {
                    // apply runs on the owner; a local (self-routed) add
                    b2.async_add(inner, key);
                });
                for i in 0..N {
                    let key = i % 97;
                    let dest = crate::partition::owner_of(&key, ctx.nranks());
                    agg.push(ctx, dest, key);
                    direct.async_add(ctx, key);
                }
                agg.flush_all(ctx);
                ctx.barrier();
            });
        }
        assert_eq!(batched.gather(), direct.gather());
    }

    #[test]
    fn push_keyed_routes_like_owner_of() {
        let batched = DistCountingSet::<u64>::new(4);
        let direct = DistCountingSet::<u64>::new(4);
        {
            let batched = batched.clone();
            let direct = direct.clone();
            World::run(4, move |ctx| {
                let b2 = batched.clone();
                let mut agg = Aggregator::new(ctx, 64, move |inner, key: u64| {
                    // apply runs on owner_of(&key), so a local add is valid
                    b2.local_add(inner, key, 1);
                });
                for i in 0..2_000u64 {
                    let key = i % 53;
                    agg.push_keyed(ctx, &key, key);
                    direct.async_add(ctx, key);
                }
                agg.flush_all(ctx);
                ctx.barrier();
            });
        }
        assert_eq!(batched.gather(), direct.gather());
    }

    #[test]
    fn batching_reduces_message_count() {
        let per_rank_messages = World::run(3, |ctx| {
            let before = ctx.messages_sent();
            let mut agg = Aggregator::new(ctx, 100, |_, _item: u32| {});
            for i in 0..1_000u32 {
                agg.push(ctx, (i % 3) as usize, i);
            }
            agg.flush_all(ctx);
            ctx.barrier();
            (
                agg.items_sent(),
                agg.batches_sent(),
                ctx.messages_sent() - before,
            )
        });
        for (items, batches, _msgs) in per_rank_messages {
            assert_eq!(items, 1_000);
            // ~334 per destination at threshold 100 → 4 batches each, 10-12 total
            assert!(batches <= 12, "batches = {batches}");
        }
    }

    #[test]
    fn threshold_one_degenerates_to_per_item_sends() {
        let out = World::run(2, |ctx| {
            let mut agg = Aggregator::new(ctx, 1, |_, _: u8| {});
            for _ in 0..10 {
                agg.push(ctx, 0, 7);
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
            let mut agg = Aggregator::new(ctx, 1_000, |_, _: u8| {});
            agg.push(ctx, 0, 1);
            agg.push(ctx, 1, 2);
            assert_eq!(agg.buffered(), 2);
            agg.flush_all(ctx);
            assert_eq!(agg.buffered(), 0);
            ctx.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn dropping_unflushed_aggregator_panics() {
        // the Drop assert fires on the rank thread ("Aggregator dropped with 1
        // unflushed items"); World::launch surfaces it on join
        World::run(1, |ctx| {
            let mut agg = Aggregator::new(ctx, 1_000, |_, _: u8| {});
            agg.push(ctx, 0, 1);
            // dropped without flush_all → programming error surfaced loudly
        });
    }
}
