//! Incremental tracking of surviving triangles above a min-weight cutoff.
//!
//! The batch pipeline re-enumerates all triangles (tripoll's oriented wedge
//! scan) every time it wants survivors. Online, each [`EdgeDelta`] changes at
//! most one edge, so the surviving-triangle set changes only when that edge
//! *crosses* the cutoff — and the affected triangles are exactly the common
//! neighbours of its endpoints. This is delta maintenance in the spirit of
//! Zhao et al.'s triadic-cardinality tracking: an adjacency-list intersection
//! per threshold crossing instead of a full re-enumeration per query.
//!
//! Invariant (pinned by the workspace equivalence test): after any sequence
//! of deltas, [`TriangleTracker::iter`] yields exactly the triangles tripoll
//! enumerates over the thresholded snapshot of the projector that produced
//! the deltas.

use std::collections::BTreeSet;

use coordination_core::ids::{IdMap, IdSet};
use coordination_core::project::pack_pair;

use crate::projector::EdgeDelta;

/// A canonical author triple `a < b < c`.
pub(crate) type Triple = [u32; 3];

/// Sort three vertex ids into a canonical [`Triple`].
#[inline]
pub(crate) fn canonical(a: u32, b: u32, c: u32) -> Triple {
    let mut t = [a, b, c];
    t.sort_unstable();
    t
}

/// How one applied delta changed the live triangle set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TriangleEvents {
    /// Triples that just became fully supported (all three edges ≥ cutoff).
    pub created: Vec<Triple>,
    /// Triples that just lost an edge below the cutoff.
    pub destroyed: Vec<Triple>,
    /// Surviving triples whose min weight may have changed (the delta's edge
    /// stayed at or above the cutoff while its weight moved).
    pub touched: Vec<Triple>,
}

/// Maintains the set of triangles whose three edges all carry `w' ≥ cutoff`.
///
/// Only edges at or above the cutoff are stored, so memory tracks the
/// *thresholded* graph — the paper's observation that survivors are a tiny
/// fraction of the projection is what makes live tracking affordable.
#[derive(Debug)]
pub struct TriangleTracker {
    cutoff: u64,
    /// Adjacency over edges with `w' ≥ cutoff`; `BTreeSet` keeps neighbour
    /// intersections ordered and mergeable.
    adj: IdMap<u32, BTreeSet<u32>>,
    /// Current weights of the stored (≥ cutoff) edges by packed `(min, max)`.
    weights: IdMap<u64, u64>,
    /// The surviving triangles.
    live: IdSet<Triple>,
}

impl TriangleTracker {
    /// Track triangles over edges with `w' ≥ cutoff` (cutoff ≥ 1; a cutoff
    /// of 1 tracks every triangle in the projection — affordable only for
    /// small streams).
    pub fn new(cutoff: u64) -> Self {
        assert!(cutoff >= 1, "cutoff 0 would admit absent edges");
        TriangleTracker {
            cutoff,
            adj: IdMap::default(),
            weights: IdMap::default(),
            live: IdSet::default(),
        }
    }

    /// Number of surviving triangles.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no triangle survives.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterate the live triples in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.live.iter().copied()
    }

    /// The minimum edge weight of a live triple (`None` if it is not live).
    pub fn min_weight(&self, t: Triple) -> Option<u64> {
        if !self.live.contains(&t) {
            return None;
        }
        let w = |x: u32, y: u32| self.weights[&pack_pair(x.min(y), x.max(y))];
        Some(w(t[0], t[1]).min(w(t[0], t[2])).min(w(t[1], t[2])))
    }

    /// Apply one projector delta, returning the triangle-level changes.
    pub fn apply(&mut self, d: &EdgeDelta) -> TriangleEvents {
        let key = d.pair();
        let packed = pack_pair(key.0, key.1);
        let was_heavy = self.weights.contains_key(&packed);
        let is_heavy = d.new_weight >= self.cutoff;
        let mut ev = TriangleEvents::default();

        match (was_heavy, is_heavy) {
            (false, false) => {}
            (true, true) => {
                // Weight moved but stayed above the cutoff: min weights of
                // the triangles on this edge may have changed.
                self.weights.insert(packed, d.new_weight);
                ev.touched = self.common_neighbors(key);
            }
            (false, true) => {
                // Crossed up: the new surviving triangles are this edge plus
                // every common neighbour of its endpoints.
                self.weights.insert(packed, d.new_weight);
                ev.created = self.common_neighbors(key);
                self.adj.entry(key.0).or_default().insert(key.1);
                self.adj.entry(key.1).or_default().insert(key.0);
                for &t in &ev.created {
                    self.live.insert(t);
                }
            }
            (true, false) => {
                // Crossed down: every triangle through this edge dies.
                self.weights.remove(&packed);
                ev.destroyed = self.common_neighbors(key);
                Self::remove_neighbor(&mut self.adj, key.0, key.1);
                Self::remove_neighbor(&mut self.adj, key.1, key.0);
                for t in &ev.destroyed {
                    self.live.remove(t);
                }
            }
        }
        ev
    }

    /// Triples formed by `(x, y)` and each common neighbour, whether or not
    /// the edge itself is in `adj`: x and y are never their own neighbours,
    /// so the intersection yields exactly the third vertices.
    fn common_neighbors(&self, (x, y): (u32, u32)) -> Vec<Triple> {
        let (Some(nx), Some(ny)) = (self.adj.get(&x), self.adj.get(&y)) else {
            return Vec::new();
        };
        // Walk the smaller set, probe the larger (both are ordered sets, but
        // probe wins for the skewed degrees a botnet clique produces).
        let (small, large) = if nx.len() <= ny.len() {
            (nx, ny)
        } else {
            (ny, nx)
        };
        small
            .iter()
            .filter(|z| large.contains(z))
            .map(|&z| canonical(x, y, z))
            .collect()
    }

    fn remove_neighbor(adj: &mut IdMap<u32, BTreeSet<u32>>, from: u32, gone: u32) {
        if let Some(set) = adj.get_mut(&from) {
            set.remove(&gone);
            if set.is_empty() {
                adj.remove(&from);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn delta(x: u32, y: u32, new_weight: u64, delta: i8) -> EdgeDelta {
        EdgeDelta {
            x: x.min(y),
            y: x.max(y),
            new_weight,
            delta,
        }
    }

    /// Drive a tracker with unit-increment deltas until each edge reaches
    /// the given weight.
    fn build(cutoff: u64, edges: &[(u32, u32, u64)]) -> TriangleTracker {
        let mut t = TriangleTracker::new(cutoff);
        for &(x, y, w) in edges {
            for step in 1..=w {
                t.apply(&delta(x, y, step, 1));
            }
        }
        t
    }

    #[test]
    fn triangle_appears_when_last_edge_crosses() {
        let mut t = TriangleTracker::new(2);
        t.apply(&delta(0, 1, 2, 1));
        t.apply(&delta(1, 2, 2, 1));
        assert!(t.is_empty());
        // third edge at weight 1: below cutoff, still nothing
        let ev = t.apply(&delta(0, 2, 1, 1));
        assert!(ev.created.is_empty() && ev.destroyed.is_empty() && ev.touched.is_empty());
        // crosses to 2: triangle born
        let ev = t.apply(&delta(0, 2, 2, 1));
        assert_eq!(ev.created, vec![[0, 1, 2]]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.min_weight([0, 1, 2]), Some(2));
    }

    #[test]
    fn triangle_dies_when_an_edge_expires_below_cutoff() {
        let mut t = build(2, &[(0, 1, 2), (1, 2, 2), (0, 2, 2)]);
        assert_eq!(t.len(), 1);
        let ev = t.apply(&delta(1, 2, 1, -1));
        assert_eq!(ev.destroyed, vec![[0, 1, 2]]);
        assert!(t.is_empty());
        assert_eq!(t.min_weight([0, 1, 2]), None);
    }

    #[test]
    fn weight_changes_above_cutoff_touch_not_create() {
        let mut t = build(2, &[(0, 1, 2), (1, 2, 2), (0, 2, 2)]);
        let ev = t.apply(&delta(0, 1, 3, 1));
        assert!(ev.created.is_empty() && ev.destroyed.is_empty());
        assert_eq!(ev.touched, vec![[0, 1, 2]]);
        assert_eq!(t.min_weight([0, 1, 2]), Some(2));
        // raise the remaining edges: min weight follows
        t.apply(&delta(1, 2, 3, 1));
        t.apply(&delta(0, 2, 3, 1));
        assert_eq!(t.min_weight([0, 1, 2]), Some(3));
    }

    #[test]
    fn clique_produces_all_choose_three_triples() {
        // 5-clique at weight 3 with cutoff 3 → C(5,3) = 10 survivors.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j, 3u64));
            }
        }
        let t = build(3, &edges);
        assert_eq!(t.len(), 10);
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                for c in (b + 1)..5 {
                    assert!(t.min_weight([a, b, c]).is_some());
                }
            }
        }
    }

    #[test]
    fn shared_edge_triangles_all_die_together() {
        // Two triangles sharing edge (0,1): {0,1,2} and {0,1,3}.
        let mut t = build(1, &[(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1)]);
        assert_eq!(t.len(), 2);
        let ev = t.apply(&delta(0, 1, 0, -1));
        let mut dead = ev.destroyed.clone();
        dead.sort();
        assert_eq!(dead, vec![[0, 1, 2], [0, 1, 3]]);
        assert!(t.is_empty());
        // the wing edges survive, so re-raising (0,1) resurrects both
        let ev = t.apply(&delta(0, 1, 1, 1));
        assert_eq!(ev.created.len(), 2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn matches_brute_force_on_a_random_ish_graph() {
        // Deterministic pseudo-random weighted graph; replay deltas one unit
        // at a time, then compare against direct enumeration.
        let cutoff = 3u64;
        let n = 12u32;
        let mut edges = Vec::new();
        let mut s = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            for j in (i + 1)..n {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let w = (s >> 59) % 6; // 0..=5
                if w > 0 {
                    edges.push((i, j, w));
                }
            }
        }
        let t = build(cutoff, &edges);

        let heavy: HashSet<(u32, u32)> = edges
            .iter()
            .filter(|&&(_, _, w)| w >= cutoff)
            .map(|&(x, y, _)| (x, y))
            .collect();
        let mut expect = HashSet::new();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    if heavy.contains(&(a, b)) && heavy.contains(&(a, c)) && heavy.contains(&(b, c))
                    {
                        expect.insert([a, b, c]);
                    }
                }
            }
        }
        assert_eq!(t.iter().collect::<HashSet<_>>(), expect);
    }
}
