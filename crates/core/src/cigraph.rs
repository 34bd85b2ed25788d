//! The common interaction graph `C = (U, I, w')` produced by projection.
//!
//! Edges are pairs of authors weighted by the number of pages on which the two
//! commented within the delay window of each other (paper Eq. 5); vertices
//! additionally carry `P'_x`, the count of pages that contributed at least one
//! projection edge at `x` (Eq. 6), which the normalized triangle score
//! `T(x,y,z)` (Eq. 7) needs.
//!
//! Since the `crates/graph` refactor the edge set is stored as a shared
//! [`CsrGraph`] rather than a `HashMap<(u32, u32), u64>`: the projection
//! hands its sorted edge run (one per rank in the rank-sharded engine)
//! straight to `CiGraph::from_runs`, the triangle survey orients [`CiGraph::as_csr`]
//! directly (`tripoll::WeightedGraph` *is* this CSR type), and thresholding is
//! a borrowed [`ThresholdView`] instead of an edge-map clone.

use coordination_graph::{CsrGraph, GraphRef, ThresholdView};

use crate::ids::AuthorId;

/// A weighted one-mode author graph plus per-author projection page counts.
#[derive(Clone, Debug, Default)]
pub struct CiGraph {
    /// Edge weights `w'` in shared CSR form (dense author-id vertices).
    csr: CsrGraph,
    /// `P'_x` per author id (0 for authors with no projection edge).
    page_counts: Vec<u64>,
}

impl CiGraph {
    /// Construct from an edge map: the tests' reference for
    /// [`CiGraph::from_runs`].
    #[cfg(test)]
    fn from_parts(
        n_authors: u32,
        edges: std::collections::HashMap<(u32, u32), u64>,
        page_counts: Vec<u64>,
    ) -> Self {
        debug_assert!(edges.keys().all(|&(a, b)| a < b && b < n_authors));
        let canon: Vec<(u32, u32, u64)> = edges.into_iter().map(|((a, b), w)| (a, b, w)).collect();
        Self::from_runs_inner(
            n_authors,
            CsrGraph::from_canonical_unsorted(n_authors, canon),
            page_counts,
        )
    }

    /// Construct from an arbitrary weighted edge list (duplicates in either
    /// orientation summed, like [`CsrGraph::from_edges`]). The streaming
    /// engine's snapshots use this to go straight from its live edge table to
    /// CSR with no intermediate map clone.
    pub fn from_weighted_edges(
        n_authors: u32,
        edges: impl IntoIterator<Item = (u32, u32, u64)>,
        page_counts: Vec<u64>,
    ) -> Self {
        Self::from_runs_inner(
            n_authors,
            CsrGraph::from_edges(n_authors, edges),
            page_counts,
        )
    }

    /// Construct from sorted canonical edge runs — the zero-re-sort fast path
    /// the projection uses ([`CsrGraph::from_canonical_runs`] k-way merges
    /// the runs, summing duplicate pairs across them).
    pub(crate) fn from_runs(
        n_authors: u32,
        runs: Vec<Vec<(u32, u32, u64)>>,
        page_counts: Vec<u64>,
    ) -> Self {
        Self::from_runs_inner(
            n_authors,
            CsrGraph::from_canonical_runs(n_authors, runs),
            page_counts,
        )
    }

    fn from_runs_inner(n_authors: u32, csr: CsrGraph, page_counts: Vec<u64>) -> Self {
        assert_eq!(
            page_counts.len(),
            n_authors as usize,
            "page_counts length mismatch"
        );
        CiGraph { csr, page_counts }
    }

    /// The underlying shared CSR representation. `tripoll::WeightedGraph` is
    /// the same type, so orientation and survey consume this borrow directly —
    /// no conversion, no copy.
    pub fn as_csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Borrowed view keeping only edges with `w' >= min_weight` — the paper's
    /// pre-triangle threshold without cloning the edge set. `P'` counts are
    /// untouched: thresholding is a search-space reduction, not a
    /// re-projection.
    pub fn threshold_view(&self, min_weight: u64) -> ThresholdView<'_, CsrGraph> {
        ThresholdView::new(&self.csr, min_weight)
    }

    /// Number of author slots.
    pub fn n_authors(&self) -> u32 {
        self.csr.n()
    }

    /// Number of edges (pairs with `w' ≥ 1`).
    pub fn n_edges(&self) -> u64 {
        self.csr.m()
    }

    /// Number of authors with at least one incident edge.
    pub fn active_authors(&self) -> u32 {
        self.page_counts.iter().filter(|&&c| c > 0).count() as u32
    }

    /// `w'_{xy}` (symmetric); 0 if the pair shares no windowed interaction.
    pub fn weight(&self, x: AuthorId, y: AuthorId) -> u64 {
        self.csr.edge_weight(x.0, y.0).unwrap_or(0)
    }

    /// `P'_x` — pages used to create a projection edge at `x` (Eq. 6).
    pub fn page_count(&self, x: AuthorId) -> u64 {
        self.page_counts[x.0 as usize]
    }

    /// All `P'` values as a dense slice indexed by author id.
    pub fn page_counts(&self) -> &[u64] {
        &self.page_counts
    }

    /// Iterate edges as `(x, y, w')` with `x < y`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.csr.edges()
    }

    /// Materialize a thresholded copy. Prefer [`CiGraph::threshold_view`]
    /// everywhere a borrow suffices (orientation, components, iteration) —
    /// this exists for callers that need an owned thresholded `CiGraph`.
    pub fn threshold(&self, min_weight: u64) -> CiGraph {
        CiGraph {
            csr: self.threshold_view(min_weight).to_csr(),
            page_counts: self.page_counts.clone(),
        }
    }

    /// Largest edge weight (0 for an edgeless graph).
    pub fn max_weight(&self) -> u64 {
        self.csr.max_weight()
    }

    /// Clone the edge structure as an owned [`tripoll::WeightedGraph`].
    /// `WeightedGraph` and the internal CSR are the same type now, so this is
    /// a plain clone — use [`CiGraph::as_csr`] instead when a borrow suffices.
    pub fn to_weighted_graph(&self) -> tripoll::WeightedGraph {
        self.csr.clone()
    }

    /// Connected components over edges with `w' ≥ min_weight` (≥ 2 vertices,
    /// largest first) — how the paper extracts botnet candidates (Figures 1–2).
    pub fn components(&self, min_weight: u64) -> Vec<Vec<u32>> {
        self.csr.components(min_weight)
    }

    /// Serialize to the versioned TSV format (deterministic row order).
    /// Projection is by far the most expensive stage, so real deployments
    /// persist the CI graph and re-survey it at many thresholds; this is that
    /// interchange format (`coordination project` / `survey` in the CLI).
    pub fn write_tsv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "#ci-graph\tv1")?;
        writeln!(w, "#n_authors\t{}", self.n_authors())?;
        // page_counts is dense by author id and edges() is ascending-canonical,
        // so both sections come out sorted without any collect-and-sort pass.
        for (a, &c) in self.page_counts.iter().enumerate() {
            if c > 0 {
                writeln!(w, "P\t{a}\t{c}")?;
            }
        }
        for (a, b, wt) in self.edges() {
            writeln!(w, "E\t{a}\t{b}\t{wt}")?;
        }
        Ok(())
    }

    /// Parse the TSV format written by [`CiGraph::write_tsv`]. Returns a
    /// descriptive error string on malformed input. Duplicate `E` rows for the
    /// same pair (which `write_tsv` never emits) have their weights summed.
    pub fn read_tsv<R: std::io::BufRead>(r: R) -> Result<CiGraph, String> {
        let mut lines = r.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty input")?;
        let first = first.map_err(|e| e.to_string())?;
        if first.trim() != "#ci-graph\tv1" {
            return Err(format!("bad magic line: {first:?}"));
        }
        let (_, second) = lines.next().ok_or("missing n_authors line")?;
        let second = second.map_err(|e| e.to_string())?;
        let n_authors: u32 = second
            .strip_prefix("#n_authors\t")
            .ok_or_else(|| format!("bad n_authors line: {second:?}"))?
            .trim()
            .parse()
            .map_err(|e| format!("bad n_authors value: {e}"))?;
        let mut page_counts = vec![0u64; n_authors as usize];
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for (lineno, line) in lines {
            let line = line.map_err(|e| e.to_string())?;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut f = line.split('\t');
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            match f.next() {
                Some("P") => {
                    let a: u32 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad author id"))?;
                    let c: u64 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad page count"))?;
                    if a >= n_authors {
                        return Err(err("author id out of range"));
                    }
                    page_counts[a as usize] = c;
                }
                Some("E") => {
                    let a: u32 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad endpoint"))?;
                    let b: u32 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad endpoint"))?;
                    let w: u64 = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad weight"))?;
                    if a >= n_authors || b >= n_authors || a == b {
                        return Err(err("bad edge endpoints"));
                    }
                    edges.push((a.min(b), a.max(b), w));
                }
                _ => return Err(err("unknown record kind")),
            }
        }
        Ok(CiGraph::from_weighted_edges(n_authors, edges, page_counts))
    }
}

/// Incremental construction of a [`CiGraph`] by accumulating edge counts.
///
/// The CSR-backed `CiGraph` is immutable once built, so accumulation happens
/// here and [`CiGraphBuilder::build`] runs the CSR builder once at the end.
/// Every `P'` of the built graph is 0; a graph with page counts comes from
/// [`CiGraph::from_weighted_edges`].
#[derive(Clone, Debug)]
pub struct CiGraphBuilder {
    n_authors: u32,
    edges: Vec<(u32, u32, u64)>,
}

impl CiGraphBuilder {
    /// A builder over `n_authors` vertex slots with no edges yet.
    pub fn new(n_authors: u32) -> Self {
        CiGraphBuilder {
            n_authors,
            edges: Vec::new(),
        }
    }

    /// Add `n` to `w'_{xy}` (x ≠ y required).
    pub fn add_edge_count(&mut self, x: u32, y: u32, n: u64) {
        assert_ne!(x, y, "self-interactions are never projected");
        assert!(
            x < self.n_authors && y < self.n_authors,
            "author id out of range"
        );
        self.edges.push((x.min(y), x.max(y), n));
    }

    /// Build the immutable CSR-backed graph.
    pub fn build(self) -> CiGraph {
        let page_counts = vec![0; self.n_authors as usize];
        CiGraph::from_weighted_edges(self.n_authors, self.edges, page_counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn a(i: u32) -> AuthorId {
        AuthorId(i)
    }

    #[test]
    fn weights_are_symmetric_and_default_zero() {
        let mut b = CiGraphBuilder::new(3);
        b.add_edge_count(2, 0, 5);
        let g = b.build();
        assert_eq!(g.weight(a(0), a(2)), 5);
        assert_eq!(g.weight(a(2), a(0)), 5);
        assert_eq!(g.weight(a(0), a(1)), 0);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-interactions")]
    fn self_edge_panics() {
        CiGraphBuilder::new(2).add_edge_count(1, 1, 1);
    }

    #[test]
    fn builder_sums_repeated_pairs() {
        let mut b = CiGraphBuilder::new(3);
        b.add_edge_count(0, 1, 2);
        b.add_edge_count(1, 0, 3);
        let g = b.build();
        assert_eq!(g.weight(a(0), a(1)), 5);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn page_counts_track_active_authors() {
        let g = CiGraph::from_weighted_edges(4, [], vec![0, 3, 1, 0]);
        assert_eq!(g.page_count(a(1)), 3);
        assert_eq!(g.page_count(a(0)), 0);
        assert_eq!(g.active_authors(), 2);
        assert_eq!(g.page_counts(), &[0, 3, 1, 0]);
    }

    #[test]
    fn threshold_keeps_heavy_edges_and_page_counts() {
        let g = CiGraph::from_weighted_edges(3, [(0, 1, 10), (1, 2, 2)], vec![7, 0, 0]);
        let t = g.threshold(5);
        assert_eq!(t.n_edges(), 1);
        assert_eq!(t.weight(a(0), a(1)), 10);
        assert_eq!(t.weight(a(1), a(2)), 0);
        assert_eq!(t.page_count(a(0)), 7);
    }

    #[test]
    fn threshold_view_matches_materialized_threshold() {
        use coordination_graph::GraphRef;
        let mut b = CiGraphBuilder::new(4);
        b.add_edge_count(0, 1, 10);
        b.add_edge_count(1, 2, 2);
        b.add_edge_count(2, 3, 5);
        let g = b.build();
        for min in [1, 2, 5, 10, 11] {
            let view = g.threshold_view(min);
            let owned = g.threshold(min);
            assert_eq!(
                view.edge_iter().collect::<Vec<_>>(),
                owned.edges().collect::<Vec<_>>(),
                "min={min}"
            );
            assert_eq!(view.count_edges(), owned.n_edges(), "min={min}");
        }
    }

    #[test]
    fn from_parts_and_from_runs_agree() {
        let mut map = HashMap::new();
        map.insert((0u32, 1u32), 4u64);
        map.insert((2u32, 3u32), 9u64);
        let from_map = CiGraph::from_parts(4, map, vec![1, 1, 1, 1]);
        let from_runs =
            CiGraph::from_runs(4, vec![vec![(0, 1, 4)], vec![(2, 3, 9)]], vec![1, 1, 1, 1]);
        assert_eq!(
            from_map.edges().collect::<Vec<_>>(),
            from_runs.edges().collect::<Vec<_>>()
        );
        assert_eq!(from_map.page_counts(), from_runs.page_counts());
    }

    #[test]
    fn as_csr_is_the_survey_input() {
        let mut b = CiGraphBuilder::new(4);
        b.add_edge_count(0, 1, 4);
        b.add_edge_count(2, 3, 9);
        let g = b.build();
        let wg: &tripoll::WeightedGraph = g.as_csr();
        assert_eq!(wg.n(), 4);
        assert_eq!(wg.m(), 2);
        assert_eq!(wg.edge_weight(0, 1), Some(4));
        assert_eq!(wg.edge_weight(2, 3), Some(9));
        // the owned conversion is now just a clone of the same representation
        let owned = g.to_weighted_graph();
        assert_eq!(
            owned.edges().collect::<Vec<_>>(),
            wg.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn tsv_roundtrip_is_identity() {
        let g = CiGraph::from_weighted_edges(5, [(0, 3, 12), (4, 1, 7)], vec![9, 0, 0, 2, 0]);
        let mut buf = Vec::new();
        g.write_tsv(&mut buf).unwrap();
        let back = CiGraph::read_tsv(&buf[..]).unwrap();
        assert_eq!(back.n_authors(), 5);
        assert_eq!(back.weight(a(0), a(3)), 12);
        assert_eq!(back.weight(a(1), a(4)), 7);
        assert_eq!(back.page_counts(), g.page_counts());
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            back.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn tsv_write_is_deterministic() {
        let mut b = CiGraphBuilder::new(4);
        b.add_edge_count(2, 1, 3);
        b.add_edge_count(0, 3, 5);
        let g = b.build();
        let render = |g: &CiGraph| {
            let mut b = Vec::new();
            g.write_tsv(&mut b).unwrap();
            String::from_utf8(b).unwrap()
        };
        assert_eq!(render(&g), render(&g.clone()));
        assert!(render(&g).starts_with("#ci-graph\tv1\n#n_authors\t4\n"));
    }

    #[test]
    fn tsv_rejects_malformed_input() {
        assert!(CiGraph::read_tsv("".as_bytes()).is_err());
        assert!(CiGraph::read_tsv("#wrong\n".as_bytes()).is_err());
        let bad_edge = "#ci-graph\tv1\n#n_authors\t2\nE\t0\t5\t1\n";
        assert!(CiGraph::read_tsv(bad_edge.as_bytes())
            .unwrap_err()
            .contains("endpoints"));
        let self_edge = "#ci-graph\tv1\n#n_authors\t2\nE\t1\t1\t1\n";
        assert!(CiGraph::read_tsv(self_edge.as_bytes()).is_err());
        let junk = "#ci-graph\tv1\n#n_authors\t2\nX\t1\n";
        assert!(CiGraph::read_tsv(junk.as_bytes())
            .unwrap_err()
            .contains("unknown record"));
    }

    #[test]
    fn components_use_threshold() {
        let mut b = CiGraphBuilder::new(4);
        b.add_edge_count(0, 1, 10);
        b.add_edge_count(1, 2, 1);
        b.add_edge_count(2, 3, 10);
        let g = b.build();
        let comps = g.components(5);
        assert_eq!(comps.len(), 2);
        assert_eq!(g.components(1).len(), 1);
        assert_eq!(g.max_weight(), 10);
    }
}
