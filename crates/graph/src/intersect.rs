//! Adaptive intersection of sorted slices — the shared hot primitive.
//!
//! Two consumers burn most of their cycles intersecting sorted lists: the
//! triangle enumerator (`tripoll::enumerate` intersects oriented out-lists)
//! and hypergraph validation (`coordination_core::hypergraph` intersects
//! the author page sets it holds as lists; dense ones are bitsets there).
//!
//! *One pair at a time* (validation's leading edge of two page lists):
//! [`intersect_indices`] dispatches on the length ratio: below
//! `GALLOP_RATIO` it runs the classic two-cursor linear merge; above it,
//! it walks the *short* side and locates each element in the long side by
//! galloping (exponential probe + binary search within the bracketed range),
//! giving `O(|short| · log |long|)` — and, because the short side is sorted,
//! the gallop restarts from the previous match's position, so the total is
//! also bounded by `O(|short| + |long|)` even in the worst case. The linear
//! reference ([`intersect_indices_linear`]) stays public: property tests pin
//! every other kernel here to it.
//!
//! *One row against many* (the wedge kernel: `out(u)` against `out(v)` for
//! every `v ∈ out(u)`): [`StampSet`] marks the shared row once in a dense
//! per-id scratch and each partner row is probed against it — `|b|` loads
//! with one mostly-not-taken branch each, where the merge pays `|a| + |b|`
//! data-dependent three-way branches. A partner more than
//! [`STAMP_GALLOP_RATIO`] times the stamped row's length is galloped through
//! instead ([`intersect_indices_gallop`]); validation's bitset of a shared
//! edge takes the same escape.

/// Length ratio above which galloping beats the linear merge in
/// [`intersect_indices`]. Chosen from an ablation on degree-skewed page
/// lists: below ~8× the branchy binary search loses to the
/// branch-predictable linear scan.
pub(crate) const GALLOP_RATIO: usize = 8;

/// Length ratio `|b| / |a|` above which galloping through `b` from `a`'s side
/// beats probing `b` against a [`StampSet`] of `a`. A measurement, not an
/// option (EXPERIMENTS.md "Stamp, don't merge", probe-vs-gallop by ratio
/// bucket): a probe costs 0.5–1.3 ns per element of `b`, several times less
/// than a merge step, so the crossover sits higher than `GALLOP_RATIO`. On
/// randomly scattered out-lists the two arms meet in `[32, 64)` (gallop ÷ probe 1.08
/// and 0.90; 1.3–1.5 in `[16, 32)`, 0.4–0.8 in `[64, 128)`); on contiguous-id
/// hub lists, where the gallop's branches predict, the gallop already wins
/// from 8 (0.54), so 32 leaves at most 2× between 8 and 32 on that shape.
pub const STAMP_GALLOP_RATIO: usize = 32;

/// Find `target` in `xs[from..]`, returning `Ok(absolute index)` if present
/// or `Err(absolute insertion point)` if not, by exponential probing followed
/// by binary search over the bracketed range. `O(log distance)` — cheap when
/// successive targets land near each other, which sorted callers guarantee.
#[inline]
pub(crate) fn gallop_search<T: Ord>(xs: &[T], from: usize, target: &T) -> Result<usize, usize> {
    let n = xs.len();
    if from >= n {
        return Err(n);
    }
    // exponential probe: bracket the target between xs[from + step/2] and
    // xs[from + step]
    let mut step = 1usize;
    let mut lo = from;
    loop {
        let probe = from + step;
        if probe >= n {
            break;
        }
        match xs[probe].cmp(target) {
            std::cmp::Ordering::Less => {
                lo = probe + 1;
                step <<= 1;
            }
            std::cmp::Ordering::Equal => return Ok(probe),
            std::cmp::Ordering::Greater => {
                return xs[lo..probe]
                    .binary_search(target)
                    .map(|i| lo + i)
                    .map_err(|i| lo + i);
            }
        }
    }
    xs[lo..n]
        .binary_search(target)
        .map(|i| lo + i)
        .map_err(|i| lo + i)
}

/// Visit every common element of two sorted, strictly-increasing slices as
/// `f(index_in_a, index_in_b)`, by two-cursor linear merge. The reference
/// implementation the adaptive kernel is pinned to.
#[inline]
pub fn intersect_indices_linear<T: Ord, F: FnMut(usize, usize)>(a: &[T], b: &[T], f: &mut F) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(i, j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Walk the shorter slice and gallop for each element in the longer one.
/// `swapped` reports whether the roles were swapped so callbacks keep (a, b)
/// index order. Public as the wedge kernel's escape for `|long| ≫ |short|`
/// (see [`STAMP_GALLOP_RATIO`]).
#[inline]
pub fn intersect_indices_gallop<T: Ord, F: FnMut(usize, usize)>(
    short: &[T],
    long: &[T],
    swapped: bool,
    f: &mut F,
) {
    let mut from = 0usize;
    for (si, v) in short.iter().enumerate() {
        match gallop_search(long, from, v) {
            Ok(li) => {
                if swapped {
                    f(li, si);
                } else {
                    f(si, li);
                }
                from = li + 1;
            }
            Err(li) => from = li,
        }
        if from >= long.len() {
            break;
        }
    }
}

/// Visit every common element of two sorted, strictly-increasing slices as
/// `f(index_in_a, index_in_b)`, choosing the kernel by length ratio:
/// linear merge for comparable lengths, galloping from the shorter side when
/// one input is ≥ `GALLOP_RATIO`× the other. Exactly the visit sequence of
/// [`intersect_indices_linear`] (ascending in both indices).
#[inline]
pub fn intersect_indices<T: Ord, F: FnMut(usize, usize)>(a: &[T], b: &[T], f: &mut F) {
    let (la, lb) = (a.len(), b.len());
    if la == 0 || lb == 0 {
        return;
    }
    if la * GALLOP_RATIO < lb {
        intersect_indices_gallop(a, b, false, f);
    } else if lb * GALLOP_RATIO < la {
        intersect_indices_gallop(b, a, true, f);
    } else {
        intersect_indices_linear(a, b, f);
    }
}

/// `|a ∩ b|` for sorted strictly-increasing slices, via the adaptive kernel.
#[inline]
pub fn intersect_count<T: Ord>(a: &[T], b: &[T]) -> u64 {
    let mut n = 0u64;
    intersect_indices(a, b, &mut |_, _| n += 1);
    n
}

/// A dense membership stamp over an id space `0..n_ids`: one `u32` per id
/// holding `index + 1` of the id in the row currently stamped, `0` elsewhere.
///
/// The one-against-many form of the intersection: a caller that intersects
/// one row `a` with many rows `b₁, b₂, …` (a wedge apex's `out(u)` against
/// `out(v)` for every `v ∈ out(u)`) stamps `a` once, probes each `b` — one
/// load and one mostly-not-taken branch per element of `b`, nothing per
/// element of `a` — and unstamps `a`. Allocate it once for the id space and
/// reuse it: every operation costs the length of the row it is given, never
/// `n_ids`.
#[derive(Clone, Debug, Default)]
pub struct StampSet {
    slots: Vec<u32>,
}

impl StampSet {
    /// An all-clear set over ids `0..n_ids` (4 B per id).
    pub fn new(n_ids: usize) -> Self {
        StampSet {
            slots: vec![0; n_ids],
        }
    }

    /// Stamp row `a` (distinct ids, all `< n_ids`, on an all-clear set).
    /// Rows are of any dense id type: vertex ids, or page ids.
    #[inline]
    pub fn stamp<T: Copy + Into<u32>>(&mut self, a: &[T]) {
        for (i, &x) in a.iter().enumerate() {
            let x = x.into() as usize;
            debug_assert_eq!(self.slots[x], 0, "stamping over a live stamp");
            self.slots[x] = i as u32 + 1;
        }
    }

    /// Clear the stamps of row `a`, the row last passed to [`Self::stamp`].
    #[inline]
    pub fn unstamp<T: Copy + Into<u32>>(&mut self, a: &[T]) {
        for &x in a {
            self.slots[x.into() as usize] = 0;
        }
    }

    /// Visit every element of `b` (ids `< n_ids`) that is in the stamped row
    /// `a` as `f(index_in_a, index_in_b)`, in `b`'s order — for sorted rows,
    /// exactly the visit sequence of [`intersect_indices_linear`]`(a, b)`.
    #[inline]
    pub fn probe<T: Copy + Into<u32>, F: FnMut(usize, usize)>(&self, b: &[T], f: &mut F) {
        for (bi, &x) in b.iter().enumerate() {
            let slot = self.slots[x.into() as usize];
            if slot != 0 {
                f(slot as usize - 1, bi);
            }
        }
    }

    /// Visit every element of `b` (ids `< n_ids`) as `f(slot, index_in_b)`,
    /// in `b`'s order: `slot` is `1 +` the element's index in the stamped
    /// row `a`, or `0` if it is not in `a`. No branch on membership, for a
    /// caller that folds hits and misses alike.
    #[inline]
    pub fn probe_slots<T: Copy + Into<u32>, F: FnMut(u32, usize)>(&self, b: &[T], f: &mut F) {
        for (bi, &x) in b.iter().enumerate() {
            f(self.slots[x.into() as usize], bi);
        }
    }

    /// Whether no id is stamped. `O(n_ids)`: for assertions and tests.
    pub fn is_clear(&self) -> bool {
        self.slots.iter().all(|&s| s == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        intersect_indices(a, b, &mut |i, j| out.push((i, j)));
        out
    }

    fn pairs_linear<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        intersect_indices_linear(a, b, &mut |i, j| out.push((i, j)));
        out
    }

    #[test]
    fn empty_inputs() {
        assert!(pairs::<u32>(&[], &[]).is_empty());
        assert!(pairs(&[1u32, 2], &[]).is_empty());
        assert!(pairs::<u32>(&[], &[1, 2]).is_empty());
    }

    #[test]
    fn balanced_lists_match_linear() {
        let a = [1u32, 3, 5, 7, 9, 11];
        let b = [2u32, 3, 4, 7, 10, 11];
        assert_eq!(pairs(&a, &b), pairs_linear(&a, &b));
        assert_eq!(pairs(&a, &b), vec![(1, 1), (3, 3), (5, 5)]);
        assert_eq!(intersect_count(&a, &b), 3);
    }

    #[test]
    fn skewed_lists_trigger_gallop_and_match_linear() {
        let short = [7u32, 500, 900, 2_000];
        let long: Vec<u32> = (0..1_000).collect();
        assert!(short.len() * GALLOP_RATIO < long.len());
        assert_eq!(pairs(&short, &long), pairs_linear(&short, &long));
        assert_eq!(pairs(&short, &long), vec![(0, 7), (1, 500), (2, 900)]);
        // swapped roles keep (a, b) index order
        assert_eq!(pairs(&long, &short), vec![(7, 0), (500, 1), (900, 2)]);
    }

    #[test]
    fn gallop_search_brackets_correctly() {
        let xs: Vec<u32> = (0..100).map(|i| i * 3).collect(); // 0, 3, .., 297
        for from in [0usize, 1, 50, 99, 100] {
            for t in 0u32..300 {
                let got = gallop_search(&xs, from, &t);
                let expect = match xs[from.min(xs.len())..].binary_search(&t) {
                    Ok(i) => Ok(from + i),
                    Err(i) => Err(from + i),
                };
                assert_eq!(got, expect, "from={from} t={t}");
            }
        }
        assert_eq!(gallop_search(&xs, 200, &5), Err(100));
    }

    #[test]
    fn identical_lists_intersect_fully() {
        let a: Vec<u32> = (0..50).collect();
        assert_eq!(intersect_count(&a, &a), 50);
    }

    #[test]
    fn disjoint_interleaved_lists() {
        let a: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let b = [1u32, 3, 999];
        assert_eq!(intersect_count(&a, &b), 0);
        assert_eq!(intersect_count(&b, &a), 0);
    }

    #[test]
    fn stamp_probe_visits_what_the_linear_merge_visits() {
        let mut stamps = StampSet::new(12);
        // the highest id of the space on both sides, an empty row, a
        // one-element row, and consecutive rows that overlap almost entirely
        let rows: [&[u32]; 5] = [
            &[1, 3, 5, 7, 11],
            &[],
            &[11],
            &[1, 3, 5, 7],
            &[0, 3, 5, 7, 11],
        ];
        for a in rows {
            stamps.stamp(a);
            for b in rows {
                let mut probed = Vec::new();
                stamps.probe(b, &mut |i, j| probed.push((i, j)));
                assert_eq!(probed, pairs_linear(a, b), "a={a:?} b={b:?}");
                // every element of `b` once; the hits are the probe's
                let mut slots = Vec::new();
                stamps.probe_slots(b, &mut |slot, j| slots.push((slot, j)));
                assert_eq!(
                    slots.iter().map(|&(_, j)| j).collect::<Vec<_>>(),
                    Vec::from_iter(0..b.len())
                );
                let hits: Vec<_> = slots
                    .iter()
                    .filter(|&&(slot, _)| slot != 0)
                    .map(|&(slot, j)| (slot as usize - 1, j))
                    .collect();
                assert_eq!(hits, probed, "a={a:?} b={b:?}");
            }
            stamps.unstamp(a);
            assert!(stamps.is_clear(), "a={a:?} left a stamp behind");
        }
    }

    #[test]
    fn works_over_any_ord_type() {
        // newtype-style tuples, like (PageId) lists
        let a = [(1u32, 'a'), (4, 'b'), (9, 'c')];
        let b = [(4u32, 'b'), (8, 'x'), (9, 'c')];
        assert_eq!(intersect_count(&a, &b), 2);
    }
}
