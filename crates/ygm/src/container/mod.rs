//! The per-rank sharded container in the style of `ygm::container`.
//!
//! [`DistBag`] is a cheaply-clonable handle over per-rank *shards*. Mutating
//! operations addressed to another rank travel as active messages (`async_*`
//! methods) and take effect by the next [`crate::RankCtx::barrier`]. Local
//! iteration (`local_for_each`) visits only the calling rank's shard, which is
//! how YGM programs express distributed loops: every rank iterates its shard
//! inside the same SPMD region.
//!
//! Handles are created *outside* the SPMD region (so every rank closes over the
//! same shards) and the `async_*`/`local_*` methods take the caller's
//! [`crate::RankCtx`].

mod bag;

pub use bag::DistBag;

use parking_lot::Mutex;
use std::sync::Arc;

/// Cache-line-aligned shard wrapper: adjacent shards never false-share.
#[repr(align(64))]
pub(crate) struct Shard<T>(pub(crate) Mutex<T>);

pub(crate) type Shards<T> = Arc<Vec<Shard<T>>>;

pub(crate) fn new_shards<T: Default>(nranks: usize) -> Shards<T> {
    assert!(nranks > 0, "containers need at least one rank");
    Arc::new(
        (0..nranks)
            .map(|_| Shard(Mutex::new(T::default())))
            .collect(),
    )
}
