//! The per-rank sharded container in the style of `ygm::container`.
//!
//! [`DistBag`] is a cheaply-clonable handle over per-rank *shards*. A handle is
//! created *outside* the SPMD region (so every rank closes over the same
//! shards) and its `local_*` methods take the caller's [`crate::RankCtx`].

mod bag;

pub use bag::DistBag;
