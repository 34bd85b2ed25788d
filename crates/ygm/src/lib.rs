//! # ygm — a YGM-style SPMD runtime for the rank-sharded pipeline
//!
//! This crate is a single-node stand-in for [YGM](https://github.com/LLNL/ygm),
//! the MPI-based asynchronous communication library the paper's pipeline was
//! built on. It keeps the part of YGM's programming model the rank-sharded
//! engine (`core::dist_pipeline`, `tripoll::distributed`) is written against:
//!
//! * a fixed set of *ranks*, each running the same SPMD function
//!   ([`World::run`]);
//! * *asynchronous active messages*: a rank sends a closure to another rank,
//!   which executes it on its local state (`RankCtx::async_exec`); a
//!   message may borrow anything that outlives the region, since every
//!   message is run or dropped before [`World::run`] returns;
//! * *owner-computes* routing by a stable key hash ([`owner_of`]), with the
//!   fixed-width shuffles batched per destination and shipped as typed
//!   `Vec`s ([`PackedAggregator`]);
//! * a receive-side landing zone: sorted, spillable run stacks
//!   ([`DistRuns`]);
//! * *barriers with termination detection*: [`RankCtx::barrier`] returns only
//!   once every rank has arrived **and** every message sent anywhere — including
//!   messages generated while processing other messages — has been processed.
//!
//! There are no collectives: a rank's result reaches the caller as the value
//! its SPMD function returns from [`World::run`], and the caller combines them.
//!
//! The only difference from real YGM is the transport: ranks are OS threads and
//! messages are boxed closures over shared memory instead of serialized MPI
//! buffers, so a rank reads the caller's data in place where an MPI rank
//! would hold its own slice of it, and a batch crosses as the items
//! themselves, never encoded to bytes.
//!
//! ## Barrier semantics
//!
//! There are exactly three quiescence regimes, and every method documents
//! which one it needs:
//!
//! 1. **Inside the SPMD region, between barriers** — only `async_*` mutators
//!    and `local_*` accessors are safe. An `async_*` effect is visible on its
//!    owner only after the next [`RankCtx::barrier`] (which also drains
//!    message *chains*: handlers that send further messages are run to
//!    completion before any rank is released).
//! 2. **Inside the SPMD region, immediately after a barrier** — the world is
//!    quiescent until the next `async_*` send, so a rank may take its own
//!    shard whole ([`DistRuns::local_take`]).
//! 3. **After [`World::run`] returns** — all ranks have joined and an
//!    implicit final barrier has drained every in-flight message, so the
//!    containers are permanently quiescent.
//!
//! A rank that panics — in its SPMD function or in a message handler — poisons
//! the world: every other rank panics out of its next barrier wait instead of
//! spinning on it, and `World::launch` re-raises the first panic.
//!
//! ## Example
//!
//! ```
//! use ygm::{DistRuns, PackedAggregator, PackedBatch, World};
//!
//! let runs = DistRuns::<u64>::new(4, "keys", None);
//! let shards = World::run(4, |ctx| {
//!     // every rank routes the same keys; each lands on its owner's shard,
//!     // sorted as it arrives, through a handler that borrows `runs`
//!     let landing = &runs;
//!     let mut agg = PackedAggregator::new(ctx, "keys", move |owner, batch: PackedBatch<u64>| {
//!         landing.local_absorb(owner, batch.iter());
//!     });
//!     for key in 0..100u64 {
//!         agg.push_keyed(ctx, &key, key);
//!     }
//!     agg.flush_all(ctx);
//!     ctx.barrier();
//!     runs.local_take(ctx).cursor().collect::<Vec<u64>>()
//! });
//! assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 400);
//! // a key has one owner, which holds all four ranks' copies in key order
//! for shard in &shards {
//!     assert!(shard.windows(2).all(|w| w[0] <= w[1]));
//!     assert!(shard.chunks(4).all(|c| c.iter().all(|&k| k == c[0])));
//! }
//! ```

#![warn(unreachable_pub)]

pub mod comm;
pub mod exchange;
pub mod partition;
pub mod runs;

pub use comm::{RankCtx, World};
pub use exchange::{adaptive_batch_bytes, Packable, PackedAggregator, PackedBatch};
pub use partition::{block_range, owner_of};
pub use runs::{sort_run, DistRuns, RunSet};
