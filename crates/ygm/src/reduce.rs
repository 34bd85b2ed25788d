//! Higher-level collective helpers built on `RankCtx::all_gather`.
//!
//! The two collectives the rank program reaches for between supersteps beyond
//! the scalar reductions on [`crate::RankCtx`]: histogram merging, and
//! gathering small per-rank vectors to every rank.

use crate::comm::RankCtx;

/// Gather per-rank `Vec`s and concatenate them in rank order on every rank.
pub fn all_gather_concat<T: Clone + Send + 'static>(ctx: &RankCtx, local: Vec<T>) -> Vec<T> {
    ctx.all_gather(local).into_iter().flatten().collect()
}

/// Element-wise sum of equal-length per-rank `u64` vectors (a merged
/// histogram). Panics if ranks pass different lengths.
pub fn all_reduce_hist(ctx: &RankCtx, local: Vec<u64>) -> Vec<u64> {
    let gathered = ctx.all_gather(local);
    let len = gathered[0].len();
    let mut out = vec![0u64; len];
    for v in gathered {
        assert_eq!(v.len(), len, "histogram length mismatch across ranks");
        for (o, x) in out.iter_mut().zip(v) {
            *o += x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn concat_preserves_rank_order() {
        let out = World::run(3, |ctx| {
            let local = vec![ctx.rank() * 2, ctx.rank() * 2 + 1];
            all_gather_concat(ctx, local)
        });
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn hist_merge_sums_elementwise() {
        let out = World::run(4, |ctx| {
            let mut local = vec![0u64; 3];
            local[ctx.rank() % 3] = 10;
            all_reduce_hist(ctx, local)
        });
        for h in out {
            assert_eq!(h, vec![20, 10, 10]);
        }
    }
}
