//! # ygm — a YGM-style SPMD runtime with distributed containers
//!
//! This crate is a single-node stand-in for [YGM](https://github.com/LLNL/ygm),
//! the MPI-based asynchronous communication library the paper's pipeline was
//! built on. It preserves YGM's programming model:
//!
//! * a fixed set of *ranks*, each running the same SPMD function
//!   ([`World::run`]);
//! * *asynchronous active messages*: a rank sends a closure to another rank,
//!   which executes it on its local state ([`RankCtx::async_exec`]);
//! * *owner-computes* distributed containers partitioned across ranks by key
//!   hash ([`container`]);
//! * *barriers with termination detection*: [`RankCtx::barrier`] returns only
//!   once every rank has arrived **and** every message sent anywhere — including
//!   messages generated while processing other messages — has been processed.
//!
//! The only difference from real YGM is the transport: ranks are OS threads and
//! messages are boxed closures over shared memory instead of serialized MPI
//! buffers. Every algorithm in the workspace is written against this API the way
//! it would be written against YGM proper, so the communication structure of the
//! paper's distributed implementation is preserved.
//!
//! ## Barrier semantics and quiescent reads
//!
//! There are exactly three quiescence regimes, and every container method
//! documents which one it needs:
//!
//! 1. **Inside the SPMD region, between barriers** — only `async_*` mutators
//!    and `local_*` accessors are safe. An `async_*` effect is visible on its
//!    owner only after the next [`RankCtx::barrier`] (which also drains
//!    message *chains*: handlers that send further messages are run to
//!    completion before any rank is released).
//! 2. **Inside the SPMD region, immediately after a barrier** — the world is
//!    quiescent until the next `async_*` send, so `global_*` readers
//!    (`global_count`, `global_get`, `gather`, …) may peek at remote shards
//!    through shared memory. Collectives (`all_gather`, `all_reduce*`,
//!    `global_len`, …) must be issued by **every** rank in the same order.
//! 3. **After [`World::run`] returns** — all ranks have joined and an
//!    implicit final barrier has drained every in-flight message, so the
//!    containers are permanently quiescent. `global_*` readers are safe from
//!    the main thread, but each call still takes the owner shard's lock (and
//!    on a real cluster would be a communication round). For bulk post-run
//!    reporting, snapshot once instead — e.g.
//!    [`container::DistCountingSet::freeze`] locks each shard exactly once
//!    and returns a lock-free read-only [`container::FrozenCounts`].
//!
//! Collective calls after `World::run` has returned are a bug: there are no
//! rank threads left to meet the barrier, so they would deadlock. The
//! post-run accessors exist precisely so that reporting code never needs one.
//!
//! ## Example
//!
//! ```
//! use ygm::comm::World;
//! use ygm::container::DistCountingSet;
//!
//! let words = DistCountingSet::<String>::new(4);
//! let counts = {
//!     let words = words.clone();
//!     World::run(4, move |ctx| {
//!         // every rank contributes the same word; counts accumulate at the owner
//!         words.async_add(ctx, "hello".to_string());
//!         ctx.barrier();
//!         words.global_count(&"hello".to_string())
//!     })
//! };
//! assert!(counts.iter().all(|&c| c == 4));
//! ```

pub mod batch;
pub mod comm;
pub mod container;
pub mod exchange;
pub mod partition;
pub mod reduce;
pub mod runs;
pub mod stats;

pub use batch::Aggregator;
pub use comm::{RankCtx, World};
pub use exchange::{adaptive_batch_bytes, BufferPool, Packable, PackedAggregator, PackedBatch};
pub use partition::{block_owner, block_range, owner_of};
pub use runs::{sort_run, DistRuns, MergeCursor, RunKey, RunSet, RunStack};
