//! Compressed-sparse-row storage for undirected weighted graphs.
//!
//! Vertices are dense `u32` ids (`0..n`); edge weights are `u64` counts (the
//! common-interaction weights `w'` are page counts, so integers are exact).
//! Adjacency lists are sorted by neighbor id, which the triangle enumerator's
//! sorted-intersection step depends on.
//!
//! Two build paths share one merge core:
//!
//! * [`CsrGraph::from_edges`] — arbitrary edge lists (duplicates in either
//!   orientation, self-loops). Canonicalizes and sorts the canonical list
//!   into one run — never the doubled directed edge list.
//! * [`CsrGraph::from_canonical_runs`] — the fast path for producers (the
//!   projection, one run per rank) that already hold sorted runs of
//!   canonical `(x, y, w)` edges: the runs are merged directly into CSR.
//!
//! Both paths place each merged canonical edge into *both* adjacency lists
//! with a single cursor-scatter pass; because the merged list is sorted by
//! `(x, y)` with `x < y`, every adjacency list comes out sorted without any
//! per-vertex sort.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::view::GraphRef;

/// An undirected weighted graph in CSR form.
///
/// Both directions of every edge are stored, so `degree(u)` is the true
/// undirected degree and `neighbors(u)` is complete.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u64>,
}

impl Default for CsrGraph {
    fn default() -> Self {
        CsrGraph::empty(0)
    }
}

/// Sum adjacent duplicate keys of a `(x, y, w)` run sorted by `(x, y)`.
fn coalesce_sorted(run: &mut Vec<(u32, u32, u64)>) {
    run.dedup_by(|later, kept| {
        if later.0 == kept.0 && later.1 == kept.1 {
            kept.2 += later.2;
            true
        } else {
            false
        }
    });
}

/// K-way merge sorted canonical runs, summing weights of equal `(x, y)` keys
/// (within a run or across runs).
fn merge_runs(runs: Vec<Vec<(u32, u32, u64)>>) -> Vec<(u32, u32, u64)> {
    let mut runs: Vec<Vec<(u32, u32, u64)>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    for run in &runs {
        debug_assert!(
            run.windows(2).all(|p| (p[0].0, p[0].1) <= (p[1].0, p[1].1)),
            "run not sorted by (x, y)"
        );
    }
    match runs.len() {
        0 => Vec::new(),
        1 => {
            let mut run = runs.pop().expect("one run");
            coalesce_sorted(&mut run);
            run
        }
        _ => {
            let total = runs.iter().map(Vec::len).sum();
            let mut merged: Vec<(u32, u32, u64)> = Vec::with_capacity(total);
            let mut cursor = vec![0usize; runs.len()];
            let mut heap: BinaryHeap<Reverse<(u32, u32, usize)>> = runs
                .iter()
                .enumerate()
                .map(|(i, r)| Reverse((r[0].0, r[0].1, i)))
                .collect();
            while let Some(Reverse((x, y, i))) = heap.pop() {
                let (_, _, w) = runs[i][cursor[i]];
                match merged.last_mut() {
                    Some(last) if last.0 == x && last.1 == y => last.2 += w,
                    _ => merged.push((x, y, w)),
                }
                cursor[i] += 1;
                if let Some(&(nx, ny, _)) = runs[i].get(cursor[i]) {
                    heap.push(Reverse((nx, ny, i)));
                }
            }
            merged
        }
    }
}

impl CsrGraph {
    /// The edgeless graph over `n` vertices.
    pub(crate) fn empty(n: u32) -> Self {
        CsrGraph {
            offsets: vec![0; n as usize + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Build from an undirected edge list. Each `(u, v, w)` is one undirected
    /// edge; duplicates (in either orientation) have their weights summed.
    /// Self-loops are discarded — the projection never produces them and
    /// triangles cannot use them.
    ///
    /// `n` is the vertex-count; every endpoint must be `< n`.
    pub fn from_edges(n: u32, edges: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut canon: Vec<(u32, u32, u64)> = Vec::new();
        for (u, v, w) in edges {
            assert!(
                u < n && v < n,
                "edge endpoint out of range ({u},{v}) for n={n}"
            );
            if u == v {
                continue;
            }
            canon.push((u.min(v), u.max(v), w));
        }
        Self::from_canonical_unsorted(n, canon)
    }

    /// Build from canonical `(x, y, w)` edges (`x < y`, both `< n`) in
    /// arbitrary order. Duplicate keys have their weights summed. This is
    /// [`CsrGraph::from_edges`] minus the canonicalization pass — the entry
    /// point for producers holding unordered unique pairs (hash-map drains).
    pub fn from_canonical_unsorted(n: u32, mut canon: Vec<(u32, u32, u64)>) -> Self {
        canon.sort_unstable_by_key(|&(x, y, _)| (x, y));
        Self::from_canonical_runs(n, vec![canon])
    }

    /// Build from pre-sorted runs of canonical edges — the zero-re-sort fast
    /// path. Each run must be sorted by `(x, y)` with `x < y` and endpoints
    /// `< n`; duplicate keys (within a run or across runs) have their weights
    /// summed during the k-way merge.
    pub fn from_canonical_runs(n: u32, runs: Vec<Vec<(u32, u32, u64)>>) -> Self {
        let merged = merge_runs(runs);

        let mut offsets = vec![0usize; n as usize + 1];
        for &(x, y, _) in &merged {
            assert!(
                x < y && y < n,
                "non-canonical or out-of-range edge ({x},{y}) for n={n}"
            );
            offsets[x as usize + 1] += 1;
            offsets[y as usize + 1] += 1;
        }
        for k in 0..n as usize {
            offsets[k + 1] += offsets[k];
        }
        let total = merged.len() * 2;
        let mut targets = vec![0u32; total];
        let mut weights = vec![0u64; total];
        let mut cursor = offsets.clone();
        // Merged order is (x, y)-sorted with x < y, so for every vertex the
        // below-id neighbors (scattered from the y side) land before the
        // above-id neighbors (scattered from the x side), each group already
        // ascending: adjacency comes out sorted with no per-vertex sort.
        for &(x, y, w) in &merged {
            targets[cursor[x as usize]] = y;
            weights[cursor[x as usize]] = w;
            cursor[x as usize] += 1;
            targets[cursor[y as usize]] = x;
            weights[cursor[y as usize]] = w;
            cursor[y as usize] += 1;
        }
        let g = CsrGraph {
            offsets,
            targets,
            weights,
        };
        debug_assert!((0..g.n()).all(|u| g.neighbors(u).0.windows(2).all(|p| p[0] < p[1])));
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> u64 {
        (self.targets.len() / 2) as u64
    }

    /// Undirected degree of `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> u32 {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as u32
    }

    /// `u`'s neighbors (sorted ascending) and the matching edge weights.
    #[inline]
    pub(crate) fn neighbors(&self, u: u32) -> (&[u32], &[u64]) {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Weight of edge `(u, v)`, or `None` if absent.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<u64> {
        let (nbrs, ws) = self.neighbors(u);
        nbrs.binary_search(&v).ok().map(|i| ws[i])
    }

    /// Iterate each undirected edge once, as `(u, v, w)` with `u < v`, in
    /// ascending `(u, v)` order — i.e. a single canonical sorted run.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        (0..self.n()).flat_map(move |u| {
            let (nbrs, ws) = self.neighbors(u);
            nbrs.iter()
                .zip(ws.iter())
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, &w)| (u, v, w))
        })
    }

    /// Retain only edges with `weight >= min_weight`; vertex set unchanged.
    /// This *materializes* a new graph — prefer
    /// [`ThresholdView`](crate::ThresholdView) when a borrowed filtered view
    /// is enough (orientation, components, iteration).
    pub fn filter_weight(&self, min_weight: u64) -> CsrGraph {
        // edges() is already one sorted canonical run: no re-sort needed.
        CsrGraph::from_canonical_runs(
            self.n(),
            vec![self
                .edges()
                .filter(|&(_, _, w)| w >= min_weight)
                .collect::<Vec<_>>()],
        )
    }

    /// Largest edge weight (0 for an edgeless graph).
    pub fn max_weight(&self) -> u64 {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> u32 {
        (0..self.n()).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Connected components over edges with `weight >= min_weight`; returns
    /// one sorted vertex list per component with ≥ 2 vertices, largest first.
    pub fn components(&self, min_weight: u64) -> Vec<Vec<u32>> {
        components(self, min_weight)
    }
}

/// Connected components of any [`GraphRef`] over edges with
/// `weight >= min_weight`: one sorted vertex list per component with ≥ 2
/// vertices, largest first. Works on borrowed views without materializing
/// the filtered graph.
pub fn components<G: GraphRef>(g: &G, min_weight: u64) -> Vec<Vec<u32>> {
    let mut dsu = DisjointSets::new(g.n_vertices() as usize);
    for (u, v, w) in g.edge_iter() {
        if w >= min_weight {
            dsu.union(u as usize, v as usize);
        }
    }
    let mut groups: std::collections::HashMap<usize, Vec<u32>> = std::collections::HashMap::new();
    for u in 0..g.n_vertices() {
        groups.entry(dsu.find(u as usize)).or_default().push(u);
    }
    let mut comps: Vec<Vec<u32>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    // vertex lists are ascending (built in vertex order); tie-break equal
    // sizes by content for fully deterministic output
    comps.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    comps
}

/// Union-find with path halving and union by size.
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrGraph {
        CsrGraph::from_edges(3, [(0, 1, 2), (1, 2, 3)])
    }

    #[test]
    fn csr_basic_shape() {
        let g = path3();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_are_sorted_with_weights() {
        let g = CsrGraph::from_edges(4, [(2, 0, 7), (2, 3, 1), (2, 1, 9)]);
        let (nbrs, ws) = g.neighbors(2);
        assert_eq!(nbrs, &[0, 1, 3]);
        assert_eq!(ws, &[7, 9, 1]);
    }

    #[test]
    fn duplicate_edges_sum_weights_in_both_orientations() {
        let g = CsrGraph::from_edges(2, [(0, 1, 2), (1, 0, 3), (0, 1, 5)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(10));
        assert_eq!(g.edge_weight(1, 0), Some(10));
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = CsrGraph::from_edges(2, [(0, 0, 9), (0, 1, 1)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 0), None);
    }

    #[test]
    fn edge_weight_absent_edge_is_none() {
        let g = path3();
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn edges_iterates_each_edge_once_canonically() {
        let g = CsrGraph::from_edges(4, [(3, 1, 4), (0, 2, 5)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 2, 5), (1, 3, 4)]);
    }

    #[test]
    fn filter_weight_drops_light_edges_only() {
        let g = CsrGraph::from_edges(4, [(0, 1, 1), (1, 2, 5), (2, 3, 10)]);
        let f = g.filter_weight(5);
        assert_eq!(f.n(), 4);
        assert_eq!(f.m(), 2);
        assert_eq!(f.edge_weight(0, 1), None);
        assert_eq!(f.edge_weight(1, 2), Some(5));
    }

    #[test]
    fn max_weight_is_the_heaviest_edge() {
        let g = CsrGraph::from_edges(3, [(0, 1, 2), (1, 2, 3), (0, 2, 4)]);
        assert_eq!(g.max_weight(), 4);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, std::iter::empty());
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_weight(), 0);
        assert!(g.components(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        CsrGraph::from_edges(2, [(0, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "non-canonical")]
    fn runs_builder_rejects_non_canonical_edges() {
        CsrGraph::from_canonical_runs(3, vec![vec![(2, 1, 1)]]);
    }

    #[test]
    fn runs_builder_merges_and_sums_across_runs() {
        let g = CsrGraph::from_canonical_runs(
            4,
            vec![
                vec![(0, 1, 2), (1, 2, 1)],
                vec![(0, 1, 3), (2, 3, 4)],
                vec![], // empty shards are fine
            ],
        );
        assert_eq!(g.m(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 2), Some(1));
        assert_eq!(g.edge_weight(2, 3), Some(4));
    }

    #[test]
    fn runs_builder_equals_from_edges() {
        // two sorted runs vs the same multiset through the general builder
        let run_a = vec![(0u32, 1u32, 1u64), (0, 3, 2), (2, 3, 5)];
        let run_b = vec![(0u32, 1u32, 4u64), (1, 2, 7)];
        let merged = CsrGraph::from_canonical_runs(4, vec![run_a.clone(), run_b.clone()]);
        let general = CsrGraph::from_edges(4, run_a.into_iter().chain(run_b));
        assert_eq!(merged.n(), general.n());
        assert_eq!(
            merged.edges().collect::<Vec<_>>(),
            general.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn large_build_matches_the_directed_sort_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let n = 300u32;
        let edges: Vec<(u32, u32, u64)> = (0..((1 << 14) + 123))
            .map(|_| {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                (u, v, rng.gen_range(1..5u64))
            })
            .collect();
        let built = CsrGraph::from_edges(n, edges.iter().copied());
        // reference: collect, sort and coalesce both directions
        let mut dir: Vec<(u32, u32, u64)> = Vec::new();
        for &(u, v, w) in &edges {
            if u == v {
                continue;
            }
            dir.push((u, v, w));
            dir.push((v, u, w));
        }
        dir.sort_unstable_by_key(|e| (e.0, e.1));
        let mut expect: Vec<(u32, u32, u64)> = Vec::new();
        for (u, v, w) in dir {
            match expect.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => expect.push((u, v, w)),
            }
        }
        let got: Vec<(u32, u32, u64)> = (0..n)
            .flat_map(|u| {
                let (nbrs, ws) = built.neighbors(u);
                nbrs.iter()
                    .zip(ws)
                    .map(|(&v, &w)| (u, v, w))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn components_respect_threshold() {
        // two triangles joined by a light bridge
        let g = CsrGraph::from_edges(
            6,
            [
                (0, 1, 10),
                (1, 2, 10),
                (0, 2, 10),
                (2, 3, 1), // bridge below threshold
                (3, 4, 10),
                (4, 5, 10),
                (3, 5, 10),
            ],
        );
        let comps = g.components(5);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 3);
        let all: std::collections::HashSet<u32> = comps.iter().flatten().copied().collect();
        assert_eq!(all.len(), 6);

        let merged = g.components(1);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].len(), 6);
    }

    #[test]
    fn disjoint_sets_union_find() {
        let mut d = DisjointSets::new(5);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(2, 3));
        assert_ne!(d.find(0), d.find(2));
        assert!(d.union(1, 3));
        assert_eq!(d.find(0), d.find(2));
        assert_ne!(d.find(4), d.find(0));
    }
}
