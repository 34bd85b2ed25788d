//! Per-rank CSR partitions for distributed graph stages.
//!
//! A distributed SPMD program never holds the whole graph on one rank: each
//! rank owns a subset of the vertices (by hash or block partition — the
//! *partitioner* lives in `ygm::partition`, this module is representation
//! only) and materializes a [`LocalCsr`] over just its owned sources. Edge
//! targets that are not local sources are *ghost* vertices: their per-vertex
//! metadata (degrees for orientation, labels for components) lives on some
//! other rank and must be fetched or reduced in a boundary exchange before a
//! stage that needs it can run. [`LocalCsr::ghosts`] enumerates exactly that
//! frontier, so the exchange ships no more than it has to.
//!
//! The distributed pipeline in `coordination-core` builds one `LocalCsr` per
//! rank from its shuffled, already-oriented edges and publishes it whole as
//! that rank's share of `tripoll`'s rank-sharded survey.

/// A compressed-sparse-row adjacency over an arbitrary *owned* subset of a
/// global vertex space. Row ids are global vertex ids (no local renumbering,
/// which keeps the structure directly shardable by any partitioner); a row
/// is found through a dense vertex-id → row table, one load per lookup. The
/// table costs 4 B per vertex id up to the largest owned source — the
/// rank-sharded pipeline already replicates two 8 B-per-vertex vectors
/// (degrees, `P'`) on every rank, so it does not change that footprint's
/// order, and the wedge-closing loop looks a row up per oriented edge.
#[derive(Clone, Debug, Default)]
pub struct LocalCsr {
    /// Owned source vertices, ascending, deduplicated.
    vertices: Vec<u32>,
    /// `row_of[u]` is `u`'s index in `vertices`, or [`NO_ROW`]; ids past the
    /// largest owned source are simply absent.
    row_of: Vec<u32>,
    /// `offsets[i]..offsets[i+1]` is `vertices[i]`'s slice of targets/weights.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u64>,
    /// One past the largest vertex id any row names, as source or target.
    id_bound: usize,
}

/// `row_of` entry of a vertex that is not a local source.
const NO_ROW: u32 = u32::MAX;

impl LocalCsr {
    /// Build this rank's partition from its `(src, dst, weight)` triples, in
    /// any order. Rows come out sorted by source id and each row's targets
    /// sorted by target id (ties summed? — no: parallel edges are kept as-is;
    /// producers upstream are expected to have aggregated weights already,
    /// which both the projection and the snapshot CSR guarantee).
    #[cfg(test)]
    fn from_edges(mut edges: Vec<(u32, u32, u64)>) -> Self {
        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        Self::from_sorted_edges(edges)
    }

    /// Build from edges already in ascending `(source, target)` order — the
    /// zero-copy entry point for streaming merge cursors, which yield the
    /// partition sorted without ever materializing it.
    pub fn from_sorted_edges(edges: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut vertices = Vec::new();
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut id_bound = 0usize;
        for (s, d, w) in edges {
            id_bound = id_bound.max(d as usize + 1);
            if vertices.last() != Some(&s) {
                debug_assert!(vertices.last().is_none_or(|&p| p < s), "unsorted edges");
                vertices.push(s);
                offsets.push(targets.len());
            }
            targets.push(d);
            weights.push(w);
            *offsets.last_mut().expect("offsets never empty") = targets.len();
        }
        let mut row_of = vec![NO_ROW; vertices.last().map_or(0, |&u| u as usize + 1)];
        for (i, &u) in vertices.iter().enumerate() {
            row_of[u as usize] = i as u32;
        }
        LocalCsr {
            id_bound: id_bound.max(row_of.len()),
            vertices,
            row_of,
            offsets,
            targets,
            weights,
        }
    }

    /// `u`'s row index, if `u` is a local source.
    #[inline]
    fn row_index(&self, u: u32) -> Option<usize> {
        match self.row_of.get(u as usize) {
            Some(&i) if i != NO_ROW => Some(i as usize),
            _ => None,
        }
    }

    /// Number of local edges.
    pub fn m_local(&self) -> u64 {
        self.targets.len() as u64
    }

    /// One past the largest vertex id any row names, as source or target
    /// (0 for an empty partition): the id space a dense per-vertex table must
    /// cover to be indexed by everything in this partition.
    pub fn id_bound(&self) -> usize {
        self.id_bound
    }

    /// Iterate `(source, targets, weights)` rows in ascending source order.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[u32], &[u64])> {
        self.vertices.iter().enumerate().map(move |(i, &u)| {
            let lo = self.offsets[i];
            let hi = self.offsets[i + 1];
            (u, &self.targets[lo..hi], &self.weights[lo..hi])
        })
    }

    /// The out-list of global vertex `u`, or `None` when `u` is not a local
    /// source (either unowned or owned with no out-edges — callers that need
    /// the distinction track ownership in the partitioner).
    #[inline]
    pub fn out(&self, u: u32) -> Option<(&[u32], &[u64])> {
        let i = self.row_index(u)?;
        let lo = self.offsets[i];
        let hi = self.offsets[i + 1];
        Some((&self.targets[lo..hi], &self.weights[lo..hi]))
    }

    /// The ghost frontier: distinct targets that are not local sources,
    /// ascending. These are exactly the vertices whose remote metadata a
    /// boundary exchange must cover before any stage that walks two hops.
    pub fn ghosts(&self) -> Vec<u32> {
        let mut g: Vec<u32> = self
            .targets
            .iter()
            .copied()
            .filter(|&t| self.row_index(t).is_none())
            .collect();
        g.sort_unstable();
        g.dedup();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_rows_from_shuffled_edges() {
        let csr = LocalCsr::from_edges(vec![(7, 9, 3), (2, 5, 1), (7, 8, 2), (2, 3, 4), (2, 4, 6)]);
        assert_eq!(csr.m_local(), 5);
        let rows: Vec<_> = csr
            .rows()
            .map(|(u, t, w)| (u, t.to_vec(), w.to_vec()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (2, vec![3, 4, 5], vec![4, 6, 1]),
                (7, vec![8, 9], vec![2, 3]),
            ]
        );
        assert_eq!(csr.out(7), Some((&[8u32, 9][..], &[2u64, 3][..])));
        assert_eq!(csr.out(3), None);
        assert_eq!(csr.id_bound(), 10);
        // a source can be the largest id named
        assert_eq!(LocalCsr::from_edges(vec![(7, 2, 1)]).id_bound(), 8);
    }

    #[test]
    fn ghosts_are_targets_without_local_rows() {
        let csr = LocalCsr::from_edges(vec![(1, 2, 1), (2, 3, 1), (1, 9, 1), (4, 2, 1)]);
        // sources {1,2,4}; targets {2,3,9} → ghosts {3,9}
        assert_eq!(csr.ghosts(), vec![3, 9]);
    }

    #[test]
    fn empty_partition_is_fine() {
        let csr = LocalCsr::from_edges(Vec::new());
        assert_eq!(csr.m_local(), 0);
        assert!(csr.ghosts().is_empty());
        assert!(csr.rows().next().is_none());
        assert_eq!(csr.out(0), None);
        assert_eq!(csr.id_bound(), 0);
    }

    #[test]
    fn union_of_partitions_covers_the_global_edge_set() {
        // Simulate a 3-way hash partition of a small graph and check the
        // partitions tile the edge set exactly.
        let edges: Vec<(u32, u32, u64)> = (0..30u32)
            .flat_map(|s| (0..3u32).map(move |k| (s, (s + k + 1) % 32, u64::from(s + k))))
            .collect();
        let nranks = 3usize;
        let parts: Vec<LocalCsr> = (0..nranks)
            .map(|r| {
                LocalCsr::from_edges(
                    edges
                        .iter()
                        .copied()
                        .filter(|(s, _, _)| (*s as usize) % nranks == r)
                        .collect(),
                )
            })
            .collect();
        let mut union: Vec<(u32, u32, u64)> = parts
            .iter()
            .flat_map(|p| {
                p.rows().flat_map(|(u, t, w)| {
                    t.iter()
                        .zip(w)
                        .map(move |(&d, &wt)| (u, d, wt))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        union.sort_unstable();
        let mut want = edges.clone();
        want.sort_unstable();
        assert_eq!(union, want);
        assert_eq!(
            parts.iter().map(|p| p.m_local()).sum::<u64>() as usize,
            edges.len()
        );
    }
}
