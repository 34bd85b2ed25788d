//! Property tests for the shared graph layer: the sharded CSR builder and the
//! borrowed views must be indistinguishable from their naive reference
//! implementations on arbitrary inputs (duplicate edges in either orientation,
//! self-loops, empty shards, any threshold).

use proptest::prelude::*;

use coordination_graph::{
    components, intersect_count, intersect_indices, intersect_indices_linear, CsrGraph, GraphRef,
    ThresholdView,
};

/// Arbitrary edge soup over a small vertex space: duplicates and self-loops
/// are common by construction.
fn arb_edges() -> impl Strategy<Value = (u32, Vec<(u32, u32, u64)>)> {
    (1u32..40).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1u64..6).prop_map(|(u, v, w)| (u, v, w));
        (Just(n), prop::collection::vec(edge, 0..200))
    })
}

/// The pre-refactor `WeightedGraph::from_edges` algorithm: double the edge
/// list, global sort, merge adjacent duplicates. The full directed adjacency
/// it produces is the reference the sharded builder must match exactly.
fn reference_adjacency(n: u32, edges: &[(u32, u32, u64)]) -> Vec<(u32, u32, u64)> {
    let mut dir: Vec<(u32, u32, u64)> = Vec::new();
    for &(u, v, w) in edges {
        if u == v {
            continue;
        }
        dir.push((u, v, w));
        dir.push((v, u, w));
    }
    dir.sort_unstable_by_key(|e| (e.0, e.1));
    let mut merged: Vec<(u32, u32, u64)> = Vec::new();
    for (u, v, w) in dir {
        match merged.last_mut() {
            Some(last) if last.0 == u && last.1 == v => last.2 += w,
            _ => merged.push((u, v, w)),
        }
    }
    assert!(merged.iter().all(|&(u, v, _)| u < n && v < n));
    merged
}

/// A pair of sorted, deduplicated lists with wildly skewed lengths — the
/// degree distribution that makes the adaptive (galloping) intersection take
/// its binary-search path. Drawing both from the same small value space keeps
/// overlaps common.
fn arb_skewed_lists() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    let short = prop::collection::vec(0u32..300, 0..12);
    let long = prop::collection::vec(0u32..300, 0..260);
    (short, long).prop_map(|(mut a, mut b)| {
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        (a, b)
    })
}

/// Full directed adjacency of a [`GraphRef`], for exact comparison.
fn adjacency<G: GraphRef>(g: &G) -> Vec<(u32, u32, u64)> {
    (0..g.n_vertices())
        .flat_map(|u| g.neighbors_iter(u).map(move |(v, w)| (u, v, w)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sharded builder equals the old collect-sort-merge reference on
    /// arbitrary edge lists.
    #[test]
    fn sharded_builder_matches_reference((n, edges) in arb_edges()) {
        let g = CsrGraph::from_edges(n, edges.iter().copied());
        prop_assert_eq!(adjacency(&g), reference_adjacency(n, &edges));
    }

    /// Splitting the same multiset of canonical edges into any number of
    /// sorted runs (including empty ones) builds the identical graph.
    #[test]
    fn run_partitioning_is_invisible((n, edges) in arb_edges(), n_runs in 1usize..6) {
        let canon: Vec<(u32, u32, u64)> = edges
            .iter()
            .filter(|&&(u, v, _)| u != v)
            .map(|&(u, v, w)| (u.min(v), u.max(v), w))
            .collect();
        let whole = CsrGraph::from_edges(n, edges.iter().copied());
        let mut runs: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); n_runs + 1];
        for (i, e) in canon.iter().enumerate() {
            runs[i % n_runs].push(*e); // runs[n_runs] stays empty on purpose
        }
        for run in &mut runs {
            run.sort_unstable_by_key(|&(x, y, _)| (x, y));
        }
        let split = CsrGraph::from_canonical_runs(n, runs);
        prop_assert_eq!(adjacency(&split), adjacency(&whole));
    }

    /// ThresholdView iteration equals filter-then-rebuild at every cutoff.
    #[test]
    fn threshold_view_matches_rebuild((n, edges) in arb_edges(), min in 0u64..20) {
        let g = CsrGraph::from_edges(n, edges.iter().copied());
        let view = ThresholdView::new(&g, min);
        let rebuilt = g.filter_weight(min);
        prop_assert_eq!(adjacency(&view), adjacency(&rebuilt));
        prop_assert_eq!(view.count_edges(), rebuilt.m());
        for u in 0..n {
            prop_assert_eq!(view.degree_of(u), rebuilt.degree(u));
        }
        // components through the view match components of the rebuilt graph
        prop_assert_eq!(components(&view, 0), rebuilt.components(0));
    }

    /// The adaptive intersection visits exactly the index pairs the linear
    /// merge visits, in the same order, on degree-skewed out-lists — in both
    /// argument orders (the adaptive kernel swaps internally).
    #[test]
    fn adaptive_intersection_matches_linear((a, b) in arb_skewed_lists()) {
        let mut linear = Vec::new();
        intersect_indices_linear(&a, &b, &mut |i, j| linear.push((i, j)));
        let mut adaptive = Vec::new();
        intersect_indices(&a, &b, &mut |i, j| adaptive.push((i, j)));
        prop_assert_eq!(&adaptive, &linear);
        let mut swapped = Vec::new();
        intersect_indices(&b, &a, &mut |j, i| swapped.push((i, j)));
        prop_assert_eq!(&swapped, &linear);
        prop_assert_eq!(intersect_count(&a, &b), linear.len() as u64);
    }

    /// Materializing any view with to_csr() round-trips exactly.
    #[test]
    fn view_to_csr_roundtrip((n, edges) in arb_edges(), min in 0u64..10) {
        let g = CsrGraph::from_edges(n, edges.iter().copied());
        let view = ThresholdView::new(&g, min);
        let owned = view.to_csr();
        prop_assert_eq!(adjacency(&owned), adjacency(&view));
        prop_assert_eq!(owned.m(), view.count_edges());
    }
}
