//! Borrowed graph views: filter during iteration instead of cloning.
//!
//! The pre-refactor pipeline materialized a fresh graph at every stage
//! boundary — `threshold()` cloned the full edge map. The [`GraphRef`] trait
//! lets every consumer (orientation, triangle survey, component extraction)
//! run over *any* graph-shaped borrow, and [`ThresholdView`] implements the
//! edge-weight filter the pipeline needs with no per-edge allocation: the
//! filter predicate runs inside the neighbor iterator.

use crate::csr::CsrGraph;

/// A borrowed view of an undirected weighted graph over dense `u32` vertex
/// ids. The contract mirrors [`CsrGraph`]: every undirected edge is visible
/// from both endpoints, and `neighbors_iter(u)` yields neighbors in strictly
/// ascending id order (the triangle enumerator's sorted-intersection and the
/// CSR rebuild fast path both rely on this).
pub trait GraphRef {
    /// Number of vertices (ids are `0..n_vertices()`).
    fn n_vertices(&self) -> u32;

    /// `u`'s neighbors as `(neighbor, weight)`, ascending by neighbor id.
    fn neighbors_iter(&self, u: u32) -> impl Iterator<Item = (u32, u64)> + '_;

    /// Undirected degree of `u` under this view. O(degree) by default —
    /// callers that consult degrees in a hot loop (degree-order orientation)
    /// should precompute a degree vector once.
    fn degree_of(&self, u: u32) -> u32 {
        self.neighbors_iter(u).count() as u32
    }

    /// Each undirected edge once, as `(u, v, w)` with `u < v`, in ascending
    /// `(u, v)` order — a single canonical sorted run, directly consumable by
    /// [`CsrGraph::from_canonical_runs`].
    fn edge_iter(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        (0..self.n_vertices()).flat_map(move |u| {
            self.neighbors_iter(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Number of undirected edges visible through this view. O(m).
    fn count_edges(&self) -> u64 {
        self.edge_iter().count() as u64
    }

    /// Materialize this view as an owned [`CsrGraph`]. Because
    /// [`GraphRef::edge_iter`] is one sorted canonical run, no re-sort
    /// happens.
    fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_canonical_runs(self.n_vertices(), vec![self.edge_iter().collect()])
    }
}

impl<G: GraphRef> GraphRef for &G {
    fn n_vertices(&self) -> u32 {
        (**self).n_vertices()
    }
    fn neighbors_iter(&self, u: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        (**self).neighbors_iter(u)
    }
    fn degree_of(&self, u: u32) -> u32 {
        (**self).degree_of(u)
    }
    fn count_edges(&self) -> u64 {
        (**self).count_edges()
    }
}

impl GraphRef for CsrGraph {
    fn n_vertices(&self) -> u32 {
        self.n()
    }
    fn neighbors_iter(&self, u: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (nbrs, ws) = self.neighbors(u);
        nbrs.iter().zip(ws).map(|(&v, &w)| (v, w))
    }
    fn degree_of(&self, u: u32) -> u32 {
        self.degree(u)
    }
    fn count_edges(&self) -> u64 {
        self.m()
    }
    fn to_csr(&self) -> CsrGraph {
        self.clone()
    }
}

/// A borrowed view keeping only edges with `weight >= min_weight`.
///
/// The replacement for `CiGraph::threshold()`'s clone-the-edge-map path: the
/// cutoff is applied inside the iterators, so thresholding costs nothing
/// until the edges are actually walked, and never allocates per edge.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdView<'a, G> {
    inner: &'a G,
    min_weight: u64,
}

impl<'a, G: GraphRef> ThresholdView<'a, G> {
    /// View `inner` keeping only edges with `weight >= min_weight`.
    pub fn new(inner: &'a G, min_weight: u64) -> Self {
        ThresholdView { inner, min_weight }
    }
}

impl<G: GraphRef> GraphRef for ThresholdView<'_, G> {
    fn n_vertices(&self) -> u32 {
        self.inner.n_vertices()
    }
    fn neighbors_iter(&self, u: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let min = self.min_weight;
        self.inner.neighbors_iter(u).filter(move |&(_, w)| w >= min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0-1 heavy, 1-2 light, 2-3 heavy, 0-3 light, 0-2 heavy
        CsrGraph::from_edges(4, [(0, 1, 9), (1, 2, 1), (2, 3, 7), (0, 3, 2), (0, 2, 5)])
    }

    #[test]
    fn threshold_view_matches_filter_weight() {
        let g = diamond();
        for min in [0, 1, 2, 5, 7, 9, 10] {
            let view = ThresholdView::new(&g, min);
            let rebuilt = g.filter_weight(min);
            assert_eq!(
                view.edge_iter().collect::<Vec<_>>(),
                rebuilt.edges().collect::<Vec<_>>(),
                "min_weight={min}"
            );
            assert_eq!(view.count_edges(), rebuilt.m(), "min_weight={min}");
            for u in 0..g.n() {
                assert_eq!(view.degree_of(u), rebuilt.degree(u), "u={u} min={min}");
            }
        }
    }

    #[test]
    fn threshold_view_to_csr_round_trips() {
        let g = diamond();
        let view = ThresholdView::new(&g, 5);
        let owned = view.to_csr();
        assert_eq!(
            owned.edges().collect::<Vec<_>>(),
            g.filter_weight(5).edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn graph_ref_on_reference_delegates() {
        let g = diamond();
        let r = &&g;
        assert_eq!(r.n_vertices(), 4);
        assert_eq!(r.count_edges(), 5);
    }

    #[test]
    fn components_over_threshold_view_match_materialized() {
        let g = diamond();
        for min in [1, 2, 5, 9] {
            let view = ThresholdView::new(&g, min);
            assert_eq!(
                crate::csr::components(&view, 0),
                g.filter_weight(min).components(0),
                "min={min}"
            );
        }
    }
}
