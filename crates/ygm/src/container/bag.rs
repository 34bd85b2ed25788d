//! `DistBag`: an unordered distributed collection (`ygm::container::bag`).
//!
//! A bag is a receive-side landing zone: a packed batch's handler appends it
//! to the receiving rank's shard under one lock ([`DistBag::local_extend`]),
//! and after the barrier the rank takes its shard ([`DistBag::local_take`]).

use std::sync::{Arc, Mutex};

use crate::comm::{lock, RankCtx};

/// Cache-line-aligned shard wrapper: adjacent shards never false-share.
#[repr(align(64))]
struct Shard<T>(Mutex<T>);

/// A distributed bag of items with no ordering or ownership semantics.
pub struct DistBag<T> {
    shards: Arc<Vec<Shard<Vec<T>>>>,
    nranks: usize,
}

impl<T> Clone for DistBag<T> {
    fn clone(&self) -> Self {
        DistBag {
            shards: Arc::clone(&self.shards),
            nranks: self.nranks,
        }
    }
}

impl<T> DistBag<T>
where
    T: Send + 'static,
{
    /// Create a bag partitioned over `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "containers need at least one rank");
        let shards = (0..nranks).map(|_| Shard(Mutex::new(Vec::new()))).collect();
        DistBag {
            shards: Arc::new(shards),
            nranks,
        }
    }

    #[inline]
    fn check(&self, ctx: &RankCtx) {
        debug_assert_eq!(self.nranks, ctx.nranks(), "container/world size mismatch");
    }

    /// Bulk-append `items` to the calling rank's shard under one lock
    /// acquisition — the batch-granular receiver for
    /// [`crate::exchange::PackedAggregator`] applies.
    pub fn local_extend<I>(&self, ctx: &RankCtx, items: I)
    where
        I: IntoIterator<Item = T>,
    {
        self.check(ctx);
        lock(&self.shards[ctx.rank()].0).extend(items);
    }

    /// Take (move out) this rank's items, leaving the shard empty.
    pub fn local_take(&self, ctx: &RankCtx) -> Vec<T> {
        self.check(ctx);
        std::mem::take(&mut *lock(&self.shards[ctx.rank()].0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn take_empties_only_this_rank() {
        let bag = DistBag::<usize>::new(3);
        let taken = World::run(3, |ctx| {
            bag.local_extend(ctx, std::iter::repeat_n(ctx.rank(), ctx.rank() + 1));
            ctx.barrier();
            let first = if ctx.rank() == 0 {
                bag.local_take(ctx)
            } else {
                Vec::new()
            };
            ctx.barrier();
            (first, bag.local_take(ctx))
        });
        let (first, left): (Vec<_>, Vec<_>) = taken.into_iter().unzip();
        assert_eq!(first, vec![vec![0], vec![], vec![]]);
        assert_eq!(left, vec![vec![], vec![1, 1], vec![2, 2, 2]]);
    }
}
