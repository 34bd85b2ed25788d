//! World-wide message statistics.
//!
//! Real YGM exposes per-rank send counters that LLNL uses to reason about
//! communication balance. Counters are cache-padded per source rank to keep
//! the hot `record_send` path contention-free.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pad to a cache line so per-rank counters don't false-share.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// Per-rank message counters for a [`crate::World`].
pub struct WorldStats {
    sent_by_rank: Vec<PaddedCounter>,
}

impl WorldStats {
    pub(crate) fn new(nranks: usize) -> Self {
        WorldStats {
            sent_by_rank: (0..nranks)
                .map(|_| PaddedCounter(AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    pub(crate) fn record_send(&self, from: usize) {
        self.sent_by_rank[from].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Total messages sent world-wide.
    pub fn total_sent(&self) -> u64 {
        self.sent_by_rank
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn total_counts_every_send() {
        let out = World::run(3, |ctx| {
            if ctx.rank() == 1 {
                for _ in 0..5 {
                    ctx.async_exec(0, |_| {});
                }
                ctx.async_exec(1, |_| {}); // self-send
            }
            ctx.barrier();
            ctx.stats().total_sent()
        });
        assert_eq!(out, vec![6, 6, 6]);
    }
}
