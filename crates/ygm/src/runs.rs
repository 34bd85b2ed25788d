//! Receive-side run stacks: sorted runs + out-of-core spill for
//! memory-bounded shuffles.
//!
//! The barrier-shaped shuffle buffers a rank's whole partition, then sorts it
//! once the exchange quiesces — which means peak receiver memory equals the
//! partition size. This module replaces that buffer with a **run stack**:
//!
//! * arriving [`crate::PackedBatch`]es append to an active buffer, which is
//!   sorted on the packed key encoding ([`sort_run`]) and pushed as a *run*
//!   once it reaches the seal size (the smaller of 4 MiB and the budget);
//! * when a label's resident bytes exceed its **shuffle budget**, every
//!   resident run is k-way merged and streamed to disk as one sorted
//!   [`coordination_store::segment`] — receiver memory is
//!   again bounded by the budget, arbitrarily below the partition size;
//! * the consumer's final "sort" is a streaming k-way [`MergeCursor`] over
//!   resident runs + spilled segments: globally sorted order without ever
//!   materializing the partition.
//!
//! Sealed runs are never merged with each other in memory: they meet only
//! in a spill's k-way merge or in the cursor.
//!
//! Because batches are absorbed as they arrive (the ship path drains
//! opportunistically — see [`crate::exchange`]), the sorting work overlaps
//! the communication instead of serializing behind the barrier.
//!
//! Spill traffic is observable: `shuffle.spilled_bytes` and
//! `shuffle.spill_segments` counters land in the run report like every
//! other [`obs`] metric.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use coordination_store::segment::{SegmentReader, SegmentWriter};

use crate::comm::{lock, RankCtx};

/// Target size of one sealed in-memory run. Runs around this size keep the
/// stack shallow; the effective seal threshold is the smaller of this and
/// the label's spill budget.
pub(crate) const RUN_TARGET_BYTES: usize = 4 << 20;

/// A shuffle key with a fixed-width packed integer encoding whose numeric
/// order equals the item's sort order — the contract that lets run stacks
/// sort, spill, and merge without knowing the item shape.
///
/// Consumers pick order-preserving bijections into `u64`/`u128` (e.g. a
/// `(page, ts, author)` event packs as `page·2⁹⁶ | (ts ⊕ 2⁶³)·2³² | author`,
/// the sign-flip keeping negative timestamps below positive ones).
pub trait RunKey: Copy + Ord + Send {
    /// Packed width in bytes (8 or 16) — the segment width on disk.
    const WIDTH: usize;
    /// The order-preserving integer encoding.
    fn to_u128(self) -> u128;
    /// Inverse of [`RunKey::to_u128`].
    fn from_u128(v: u128) -> Self;
}

impl RunKey for u64 {
    const WIDTH: usize = 8;
    #[inline]
    fn to_u128(self) -> u128 {
        u128::from(self)
    }
    #[inline]
    fn from_u128(v: u128) -> Self {
        v as u64
    }
}

impl RunKey for u128 {
    const WIDTH: usize = 16;
    #[inline]
    fn to_u128(self) -> u128 {
        self
    }
    #[inline]
    fn from_u128(v: u128) -> Self {
        v
    }
}

/// Sort a run of packed keys — each run exactly once, here. A comparison
/// sort by measurement: a 16-bit-digit LSD radix over the packed encoding ran
/// at 0.37–0.48× of `sort_unstable` on pipeline-shaped 16-byte keys at every
/// run size a stack seals, and was deleted.
pub fn sort_run<K: RunKey>(v: &mut [K]) {
    v.sort_unstable();
}

/// Held spill-counter handles, resolved once per container.
#[derive(Clone)]
struct SpillCounters {
    spilled_bytes: obs::Counter,
    spill_segments: obs::Counter,
}

impl SpillCounters {
    fn new() -> Self {
        SpillCounters {
            spilled_bytes: obs::counter("shuffle.spilled_bytes"),
            spill_segments: obs::counter("shuffle.spill_segments"),
        }
    }
}

/// Distinguishes spill files across concurrently running worlds and tests
/// within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The one owner of a stack's spill segments, oldest first. A path is
/// recorded before its file is created, and dropping the owner deletes every
/// file it recorded — whether the stack handed them to a [`RunSet`] that is
/// done with them, or a world tore down before anyone took them.
#[derive(Default)]
struct SpillFiles(Vec<PathBuf>);

impl SpillFiles {
    /// Record a fresh segment path for `label`/`rank` and return it.
    fn next_path(&mut self, label: &str, rank: usize) -> &Path {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("ygm-spill-{}-{seq}-{label}-r{rank}.seg", std::process::id());
        self.0.push(std::env::temp_dir().join(name));
        self.0.last().expect("just recorded")
    }
}

impl Drop for SpillFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One label+rank's bounded stack of sorted runs.
///
/// Not a distributed container itself — [`DistRuns`] wraps one of these per
/// rank behind the usual shard locks. Public for direct unit testing.
pub(crate) struct RunStack<K: RunKey> {
    /// Unsorted arrivals since the last seal.
    active: Vec<K>,
    /// Sealed sorted runs, oldest first.
    runs: Vec<Vec<K>>,
    /// Seal the active buffer at this many keys.
    seal_keys: usize,
    /// Spill everything once resident keys exceed this (None = unbounded).
    budget_keys: Option<usize>,
    /// Sorted segments already evicted to disk.
    spills: SpillFiles,
    /// For spill file names.
    label: String,
    rank: usize,
    counters: SpillCounters,
}

impl<K: RunKey> RunStack<K> {
    /// A stack for `label`/`rank` spilling past `budget_bytes` resident
    /// bytes (`None` = never spill).
    #[cfg(test)]
    fn new(label: &str, rank: usize, budget_bytes: Option<usize>) -> Self {
        Self::with_counters(label, rank, budget_bytes, SpillCounters::new())
    }

    fn with_counters(
        label: &str,
        rank: usize,
        budget_bytes: Option<usize>,
        counters: SpillCounters,
    ) -> Self {
        let seal_bytes = budget_bytes
            .unwrap_or(RUN_TARGET_BYTES)
            .min(RUN_TARGET_BYTES);
        RunStack {
            active: Vec::new(),
            runs: Vec::new(),
            seal_keys: (seal_bytes / K::WIDTH).max(1),
            budget_keys: budget_bytes.map(|b| (b / K::WIDTH).max(1)),
            spills: SpillFiles::default(),
            label: label.to_string(),
            rank,
            counters,
        }
    }

    /// Absorb a batch of arrivals; seals (sorts + pushes) when the active
    /// buffer fills, or spills instead when the budget is exceeded.
    pub(crate) fn absorb<I: IntoIterator<Item = K>>(&mut self, items: I) {
        self.active.extend(items);
        if self.active.len() < self.seal_keys {
            return;
        }
        match self.budget_keys {
            Some(b) if self.resident_keys() > b => self.spill_all(),
            _ => self.seal(),
        }
    }

    /// Resident keys across the active buffer and sealed runs.
    pub(crate) fn resident_keys(&self) -> usize {
        self.active.len() + self.runs.iter().map(Vec::len).sum::<usize>()
    }

    fn seal(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let mut run = std::mem::take(&mut self.active);
        sort_run(&mut run);
        self.runs.push(run);
    }

    /// Merge every resident run and stream it to disk as one sorted segment.
    /// Write failures panic: spill files live in the local temp dir and a
    /// rank that cannot write scratch space cannot make progress anyway.
    fn spill_all(&mut self) {
        self.seal();
        if self.runs.is_empty() {
            return;
        }
        let path = self.spills.next_path(&self.label, self.rank);
        let mut writer =
            SegmentWriter::create(path, K::WIDTH as u8).expect("create shuffle spill segment");
        let runs = std::mem::take(&mut self.runs);
        let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
        let mut cursors: Vec<std::slice::Iter<'_, K>> = runs.iter().map(|r| r.iter()).collect();
        for (i, c) in cursors.iter_mut().enumerate() {
            if let Some(&k) = c.next() {
                heap.push(Reverse((k, i)));
            }
        }
        while let Some(Reverse((k, i))) = heap.pop() {
            writer
                .push(k.to_u128())
                .expect("write shuffle spill segment");
            if let Some(&nk) = cursors[i].next() {
                heap.push(Reverse((nk, i)));
            }
        }
        let stats = writer.finish().expect("finish shuffle spill segment");
        self.counters.spilled_bytes.add(stats.payload_bytes);
        self.counters.spill_segments.add(1);
    }

    /// Finish the stack: seal whatever is buffered and hand the runs +
    /// spilled segments to a [`RunSet`] for merging.
    pub(crate) fn take(&mut self) -> RunSet<K> {
        self.seal();
        RunSet {
            runs: std::mem::take(&mut self.runs),
            spills: std::mem::take(&mut self.spills),
        }
    }
}

/// A finished shuffle partition: sorted resident runs plus sorted spilled
/// segments, consumed through streaming [`MergeCursor`]s. Cursors can be
/// created repeatedly (consumers that need two passes re-merge rather than
/// materialize). Dropping the set deletes its spill files.
pub struct RunSet<K: RunKey> {
    runs: Vec<Vec<K>>,
    spills: SpillFiles,
}

impl<K: RunKey> Default for RunSet<K> {
    fn default() -> Self {
        RunSet {
            runs: Vec::new(),
            spills: SpillFiles::default(),
        }
    }
}

impl<K: RunKey> RunSet<K> {
    /// A fresh streaming cursor over the globally sorted key sequence.
    /// Segment files were written by this process moments ago, so read
    /// errors here are unrecoverable environment failures and panic.
    pub fn cursor(&self) -> MergeCursor<'_, K> {
        let mut sources: Vec<Source<'_, K>> = self
            .runs
            .iter()
            .map(|r| Source::Resident { keys: r, at: 0 })
            .collect();
        for path in &self.spills.0 {
            let reader = SegmentReader::open(path).expect("reopen shuffle spill segment");
            assert_eq!(
                reader.width() as usize,
                K::WIDTH,
                "spill segment width mismatch"
            );
            sources.push(Source::Spilled {
                reader: Box::new(reader),
                block: Vec::new(),
                at: 0,
            });
        }
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (i, s) in sources.iter_mut().enumerate() {
            if let Some(k) = s.next_key() {
                heap.push(Reverse((k, i)));
            }
        }
        let lead = heap.pop().map(|Reverse(t)| t);
        MergeCursor {
            sources,
            heap,
            lead,
        }
    }
}

enum Source<'a, K: RunKey> {
    Resident {
        keys: &'a [K],
        at: usize,
    },
    Spilled {
        // boxed: a reader carries its checksum's block buffer, and resident
        // sources outnumber spilled ones
        reader: Box<SegmentReader>,
        block: Vec<u128>,
        at: usize,
    },
}

impl<K: RunKey> Source<'_, K> {
    fn next_key(&mut self) -> Option<K> {
        match self {
            Source::Resident { keys, at } => {
                let k = keys.get(*at).copied();
                *at += 1;
                k
            }
            Source::Spilled { reader, block, at } => {
                if *at == block.len() {
                    let next = reader.next_block().expect("read shuffle spill segment");
                    if next.is_empty() {
                        return None;
                    }
                    block.clear();
                    block.extend_from_slice(next);
                    *at = 0;
                }
                let k = K::from_u128(block[*at]);
                *at += 1;
                Some(k)
            }
        }
    }
}

/// Streaming k-way merge over a [`RunSet`]'s sources: yields every key in
/// globally sorted order (duplicates included) holding one segment block per
/// spilled source.
///
/// The current minimum lives in `lead`, outside the heap: while the leading
/// source keeps winning (ties included — a multiset merge is key-order
/// agnostic among equals), each yield is one comparison against the heap top
/// instead of a pop + push, and once every other source drains the tail
/// streams with no heap at all.
pub struct MergeCursor<'a, K: RunKey> {
    sources: Vec<Source<'a, K>>,
    heap: BinaryHeap<Reverse<(K, usize)>>,
    lead: Option<(K, usize)>,
}

impl<K: RunKey> Iterator for MergeCursor<'_, K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        let (k, i) = self.lead.take()?;
        match self.sources[i].next_key() {
            Some(nk) => match self.heap.peek() {
                Some(&Reverse((hk, _))) if hk < nk => {
                    let Reverse(top) = self.heap.pop().expect("peeked non-empty");
                    self.heap.push(Reverse((nk, i)));
                    self.lead = Some(top);
                }
                _ => self.lead = Some((nk, i)),
            },
            None => self.lead = self.heap.pop().map(|Reverse(t)| t),
        }
        Some(k)
    }
}

/// The distributed face of the run stacks: one `RunStack` shard per rank,
/// each behind its own lock. Batch handlers
/// call [`DistRuns::local_absorb`] (one lock per batch — sorting happens
/// inside, while other batches are still in flight), and after the closing
/// barrier each rank [`DistRuns::local_take`]s its shard and merges.
/// Handlers may borrow it for the world's lifetime; a clone is a second
/// handle on the same shards.
pub struct DistRuns<K: RunKey> {
    shards: Arc<Vec<Mutex<RunStack<K>>>>,
    nranks: usize,
}

impl<K: RunKey> Clone for DistRuns<K> {
    fn clone(&self) -> Self {
        DistRuns {
            shards: Arc::clone(&self.shards),
            nranks: self.nranks,
        }
    }
}

impl<K: RunKey> DistRuns<K> {
    /// A run-stack container for `label`, spilling each rank's shard past
    /// `budget_bytes` resident bytes (`None` = unbounded, never spills).
    pub fn new(nranks: usize, label: &str, budget_bytes: Option<usize>) -> Self {
        let counters = SpillCounters::new();
        DistRuns {
            shards: Arc::new(
                (0..nranks)
                    .map(|r| {
                        Mutex::new(RunStack::with_counters(
                            label,
                            r,
                            budget_bytes,
                            counters.clone(),
                        ))
                    })
                    .collect(),
            ),
            nranks,
        }
    }

    #[inline]
    fn check(&self, ctx: &RankCtx) {
        debug_assert_eq!(self.nranks, ctx.nranks(), "container/world size mismatch");
    }

    /// Absorb a batch into the calling rank's shard under one lock — the
    /// batch-granular receiver for packed-batch applies.
    pub fn local_absorb<I: IntoIterator<Item = K>>(&self, ctx: &RankCtx, items: I) {
        self.check(ctx);
        lock(&self.shards[ctx.rank()]).absorb(items);
    }

    /// Take (move out) this rank's finished partition for merging, leaving
    /// the shard empty. Quiescent regimes only (post-barrier).
    pub fn local_take(&self, ctx: &RankCtx) -> RunSet<K> {
        self.check(ctx);
        lock(&self.shards[ctx.rank()]).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackedAggregator, PackedBatch, World};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn stack_roundtrip(budget: Option<usize>, n: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut stack: RunStack<u64> = RunStack::new("test", 0, budget);
        let mut expect: Vec<u64> = Vec::with_capacity(n);
        let mut pushed = 0usize;
        while pushed < n {
            let batch: Vec<u64> = (0..rng.gen_range(1..200))
                .map(|_| rng.gen::<u64>() % 10_000) // dense => duplicates
                .collect();
            pushed += batch.len();
            expect.extend_from_slice(&batch);
            stack.absorb(batch);
        }
        expect.sort_unstable();
        let set = stack.take();
        if let Some(b) = budget {
            let resident: usize = set.runs.iter().map(Vec::len).sum();
            assert!(
                resident * 8 <= b.max(8) * 2,
                "resident {resident} keys over budget {b}"
            );
            assert!(!set.spills.0.is_empty(), "budget {b} never spilled");
        }
        let merged: Vec<u64> = set.cursor().collect();
        assert_eq!(merged, expect);
    }

    #[test]
    fn unbounded_stack_roundtrips_sorted() {
        stack_roundtrip(None, 5_000);
    }

    #[test]
    fn budgeted_stack_spills_and_still_roundtrips() {
        stack_roundtrip(Some(4 << 10), 20_000);
    }

    #[test]
    fn budget_of_one_byte_spills_every_batch() {
        stack_roundtrip(Some(1), 2_000);
    }

    #[test]
    fn cursor_can_run_twice() {
        let mut stack: RunStack<u128> = RunStack::new("twice", 0, Some(64));
        stack.absorb((0..500u128).rev());
        let set = stack.take();
        let a: Vec<u128> = set.cursor().collect();
        let b: Vec<u128> = set.cursor().collect();
        assert_eq!(a, (0..500u128).collect::<Vec<_>>());
        assert_eq!(a, b);
    }

    #[test]
    fn drop_removes_spill_files() {
        let mut stack: RunStack<u64> = RunStack::new("cleanup", 0, Some(8));
        stack.absorb(0..1_000u64);
        let set = stack.take();
        assert!(!set.spills.0.is_empty());
        let paths: Vec<PathBuf> = set.spills.0.clone();
        assert!(paths.iter().all(|p| p.exists()));
        drop(set);
        assert!(paths.iter().all(|p| !p.exists()));
    }

    /// Rank 0 spills under a 1-byte budget, rank 1 panics before anyone
    /// takes: the teardown that releases rank 0 from its barrier also drops
    /// its stack, and with it every segment it spilled.
    #[test]
    fn poisoned_world_leaves_no_spill_segment_behind() {
        let spilled: Arc<Mutex<Vec<PathBuf>>> = Arc::default();
        let seen = Arc::clone(&spilled);
        let msg = crate::comm::tests::panic_message_within_10s(move || {
            let runs: DistRuns<u64> = DistRuns::new(2, "poisoned", Some(1));
            World::run(2, move |ctx| {
                if ctx.rank() == 1 {
                    panic!("rank one gives up before the take");
                }
                for batch in 0..10u64 {
                    runs.local_absorb(ctx, batch * 100..(batch + 1) * 100);
                }
                let paths = lock(&runs.shards[0]).spills.0.clone();
                assert!(paths.len() == 10 && paths.iter().all(|p| p.exists()));
                *lock(&seen) = paths;
                ctx.barrier();
                runs.local_take(ctx).cursor().count()
            });
        });
        assert_eq!(msg, "rank one gives up before the take");
        let spilled = lock(&spilled);
        assert_eq!(spilled.len(), 10, "rank 0 never spilled");
        assert!(spilled.iter().all(|p| !p.exists()), "{spilled:?}");
    }

    #[test]
    fn dist_runs_under_packed_shuffle_match_bag_semantics() {
        const N: u64 = 30_000;
        for budget in [None, Some(1usize << 12), Some(1)] {
            let runs: DistRuns<u64> = DistRuns::new(4, "test_shuffle", budget);
            let landing = &runs;
            let out = World::run(4, |ctx| {
                let mut agg = PackedAggregator::with_batch_bytes(
                    ctx,
                    "test",
                    512,
                    move |inner: &RankCtx, batch: PackedBatch<u64>| {
                        landing.local_absorb(inner, batch.iter());
                    },
                );
                for i in 0..N {
                    agg.push_keyed(ctx, &i, i);
                }
                agg.flush_all(ctx);
                ctx.barrier();
                runs.local_take(ctx).cursor().collect::<Vec<_>>()
            });
            let mut all: Vec<u64> = out.into_iter().flatten().collect();
            // each key shipped once per rank => 4 sorted copies of 0..N
            assert_eq!(all.len(), N as usize * 4);
            all.sort_unstable();
            let expect: Vec<u64> = (0..N).flat_map(|i| std::iter::repeat_n(i, 4)).collect();
            assert_eq!(all, expect);
        }
    }
}
