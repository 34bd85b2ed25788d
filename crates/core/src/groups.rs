//! Growing coordinated groups beyond triplets — the paper's §4.2 second
//! shortcoming ("there is no way of directly assessing coordination for
//! groups of more than 3 authors... this will allow us to build groups after
//! the fact") made concrete.
//!
//! Two stages:
//!
//! 1. **Merge**: validated triplets that share an edge (two authors) are
//!    unioned into candidate groups (connected components of the
//!    triplet-overlap graph) — cheap and deterministic.
//! 2. **Assess**: for each candidate group `G`, compute the k-way hyperedge
//!    weight `w_G` = number of pages *every* member commented on, and the
//!    normalized group score `C(G) = |G|·w_G / Σ_{x∈G} p_x ∈ [0, 1]`, the
//!    direct generalization of the paper's Eq. 4. Optionally prune members
//!    greedily until `w_G` reaches a floor, dropping hangers-on that joined
//!    via one incidental triplet.

use std::collections::HashMap;

use crate::btm::{AuthorPages, Btm, PageSet};
use crate::hypergraph::SharedPages;
use crate::ids::AuthorId;
use crate::metrics::TripletMetrics;
use tripoll::graph::DisjointSets;

/// A candidate coordinated group with its hypergraph assessment.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    /// Members, ascending by id. Always ≥ 3.
    pub members: Vec<AuthorId>,
    /// Pages every member commented on (`w_G`).
    pub group_weight: u64,
    /// `|G|·w_G / Σ p_x ∈ [0,1]` — Eq. 4 generalized from 3 to `|G|`.
    pub score: f64,
    /// How many validated triplets merged into this group.
    pub triplet_support: usize,
}

/// Pages shared by *all* the given authors: the two with the fewest pages
/// are intersected as step 3 intersects a leading edge, and each page they
/// share is tested against the rest.
pub fn group_weight(authors: &AuthorPages, members: &[AuthorId]) -> u64 {
    assert!(!members.is_empty());
    let mut members = members.to_vec();
    members.sort_by_key(|&a| authors.page_count(a));
    let sets: Vec<PageSet<'_>> = members.iter().map(|&a| authors.pages(a)).collect();
    // a lone member is its own intersection
    let mut shared = SharedPages::new(authors);
    shared.set(sets[0], sets[1.min(sets.len() - 1)]);
    let rest = &sets[2.min(sets.len())..];
    let pages = shared.pages().iter();
    pages
        .filter(|&&p| rest.iter().all(|s| s.contains(p)))
        .count() as u64
}

/// The generalized coordination score `|G|·w_G / Σ p_x`; in `[0, 1]` because
/// `w_G ≤ min p_x ≤ mean p_x`.
pub fn group_score(authors: &AuthorPages, members: &[AuthorId], w_g: u64) -> f64 {
    let denom: u64 = members.iter().map(|&a| authors.page_count(a)).sum();
    if denom == 0 {
        return 0.0;
    }
    members.len() as f64 * w_g as f64 / denom as f64
}

/// Merge validated triplets into candidate groups: triplets sharing at least
/// `min_overlap` authors (2 = an edge, the default; 1 = a vertex) land in the
/// same group. Returns assessed groups, largest first. The triplets' authors'
/// page lists are harvested from `btm` once.
pub fn merge_triplets(btm: &Btm, triplets: &[TripletMetrics], min_overlap: usize) -> Vec<Group> {
    assert!((1..=2).contains(&min_overlap), "overlap must be 1 or 2");
    let authors = AuthorPages::harvest(btm, triplets.iter().flat_map(|t| t.authors));
    let n = triplets.len();
    let mut dsu = DisjointSets::new(n);
    if min_overlap == 2 {
        // index triplets by each of their three edges
        let mut by_edge: HashMap<(u32, u32), usize> = HashMap::new();
        for (i, t) in triplets.iter().enumerate() {
            let [a, b, c] = t.authors.map(|x| x.0);
            for e in [(a, b), (a, c), (b, c)] {
                match by_edge.entry(e) {
                    std::collections::hash_map::Entry::Occupied(o) => {
                        dsu.union(*o.get(), i);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(i);
                    }
                }
            }
        }
    } else {
        let mut by_vertex: HashMap<u32, usize> = HashMap::new();
        for (i, t) in triplets.iter().enumerate() {
            for a in t.authors {
                match by_vertex.entry(a.0) {
                    std::collections::hash_map::Entry::Occupied(o) => {
                        dsu.union(*o.get(), i);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(i);
                    }
                }
            }
        }
    }
    let mut clusters: HashMap<usize, (Vec<usize>, std::collections::BTreeSet<AuthorId>)> =
        HashMap::new();
    for (i, t) in triplets.iter().enumerate() {
        let root = dsu.find(i);
        let entry = clusters.entry(root).or_default();
        entry.0.push(i);
        entry.1.extend(t.authors);
    }
    let mut groups: Vec<Group> = clusters
        .into_values()
        .map(|(tris, members)| {
            let members: Vec<AuthorId> = members.into_iter().collect();
            let w_g = group_weight(&authors, &members);
            Group {
                score: group_score(&authors, &members, w_g),
                group_weight: w_g,
                triplet_support: tris.len(),
                members,
            }
        })
        .collect();
    groups.sort_by(|a, b| {
        b.members
            .len()
            .cmp(&a.members.len())
            .then_with(|| b.group_weight.cmp(&a.group_weight))
            .then_with(|| a.members.cmp(&b.members))
    });
    groups
}

/// Greedily drop the member whose removal most increases `w_G` until the
/// group's weight reaches `min_weight` or the group shrinks to 3. Models the
/// paper's "remove authors ruled out of coordination and rerun" refinement at
/// group granularity. Returns the pruned group (re-assessed).
pub fn prune_group(btm: &Btm, group: &Group, min_weight: u64) -> Group {
    let authors = AuthorPages::harvest(btm, group.members.iter().copied());
    let mut members = group.members.clone();
    let mut w = group.group_weight;
    while w < min_weight && members.len() > 3 {
        let (best_idx, best_w) = (0..members.len())
            .map(|i| {
                let mut rest = members.clone();
                rest.remove(i);
                (i, group_weight(&authors, &rest))
            })
            .max_by_key(|&(i, w)| (w, std::cmp::Reverse(i)))
            .expect("nonempty");
        members.remove(best_idx);
        w = best_w;
    }
    Group {
        score: group_score(&authors, &members, w),
        group_weight: w,
        triplet_support: group.triplet_support,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Event, PageId};

    fn ev(a: u32, p: u32, ts: i64) -> Event {
        Event::new(AuthorId(a), PageId(p), ts)
    }

    /// 5 bots on pages 0..8 together; author 5 tags along on page 0 only.
    fn botnet_btm() -> Btm {
        let mut events = Vec::new();
        for p in 0..8u32 {
            for a in 0..5u32 {
                events.push(ev(a, p, (p * 100 + a) as i64));
            }
        }
        events.push(ev(5, 0, 9));
        Btm::from_events(6, 8, &events)
    }

    fn triplet(a: u32, b: u32, c: u32, btm: &Btm) -> TripletMetrics {
        let t = tripoll::Triangle::new(a, b, c, 8, 8, 8);
        crate::hypergraph::validate_all(btm, &[8u64; 6], &[t])[0]
    }

    #[test]
    fn group_weight_is_kway_intersection() {
        let authors = AuthorPages::all(&botnet_btm());
        let all5: Vec<AuthorId> = (0..5).map(AuthorId).collect();
        assert_eq!(group_weight(&authors, &all5), 8);
        let with_tagalong: Vec<AuthorId> = (0..6).map(AuthorId).collect();
        assert_eq!(group_weight(&authors, &with_tagalong), 1);
        assert_eq!(group_weight(&authors, &[AuthorId(0)]), 8);
    }

    /// Bitset members beside list members in a 320-page space, where 10
    /// pages make a bitset: every even page (0), pages 0..64 (1), and two
    /// lists on word edges (2, 3); each weight is the k-way intersection.
    #[test]
    fn group_weight_mixes_bitsets_and_lists() {
        let lists: [Vec<u32>; 4] = [
            (0..320).step_by(2).collect(),
            (0..64).collect(),
            vec![0, 4, 63, 64, 130],
            vec![4, 64, 319],
        ];
        let events: Vec<Event> = (0..4)
            .flat_map(|a| lists[a].iter().map(move |&p| ev(a as u32, p, 0)))
            .collect();
        let authors = AuthorPages::all(&Btm::from_events(4, 320, &events));
        let held = (0..4).map(|a| matches!(authors.pages(AuthorId(a)), PageSet::Bits(_)));
        assert_eq!(held.collect::<Vec<_>>(), [true, true, false, false]);
        for (members, want) in [
            (&[0, 1, 2][..], 2), // 0 and 4
            (&[2, 1, 0, 3], 1),  // 4
            (&[0, 2], 4),        // 0, 4, 64, 130
            (&[3, 1], 1),        // 4
            (&[1, 0], 32),
            (&[3], 3),
        ] {
            let members: Vec<AuthorId> = members.iter().map(|&a| AuthorId(a)).collect();
            assert_eq!(group_weight(&authors, &members), want, "{members:?}");
        }
    }

    #[test]
    fn group_score_in_unit_interval() {
        let authors = AuthorPages::all(&botnet_btm());
        let all5: Vec<AuthorId> = (0..5).map(AuthorId).collect();
        let w = group_weight(&authors, &all5);
        let s = group_score(&authors, &all5, w);
        assert!((s - 1.0).abs() < 1e-12, "tight group scores 1: {s}");
        assert_eq!(group_score(&authors, &[AuthorId(5)], 0), 0.0);
    }

    #[test]
    fn merge_rebuilds_the_full_botnet_from_triplets() {
        let btm = botnet_btm();
        // the survey would emit all C(5,3)=10 triplets; feed a spanning subset
        let triplets = vec![
            triplet(0, 1, 2, &btm),
            triplet(1, 2, 3, &btm),
            triplet(2, 3, 4, &btm),
        ];
        let groups = merge_triplets(&btm, &triplets, 2);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.members, (0..5).map(AuthorId).collect::<Vec<_>>());
        assert_eq!(g.group_weight, 8);
        assert!((g.score - 1.0).abs() < 1e-12);
        assert_eq!(g.triplet_support, 3);
    }

    #[test]
    fn edge_overlap_separates_vertex_linked_groups() {
        let btm = botnet_btm();
        // two triplets sharing exactly one author (2): edge-merge keeps them
        // apart, vertex-merge joins them
        let t1 = triplet(0, 1, 2, &btm);
        let t2 = triplet(2, 3, 4, &btm);
        let by_edge = merge_triplets(&btm, &[t1, t2], 2);
        assert_eq!(by_edge.len(), 2);
        let by_vertex = merge_triplets(&btm, &[t1, t2], 1);
        assert_eq!(by_vertex.len(), 1);
        assert_eq!(by_vertex[0].members.len(), 5);
    }

    #[test]
    fn pruning_drops_the_tagalong() {
        let btm = botnet_btm();
        let dirty = Group {
            members: (0..6).map(AuthorId).collect(),
            group_weight: group_weight(
                &AuthorPages::all(&btm),
                &(0..6).map(AuthorId).collect::<Vec<_>>(),
            ),
            score: 0.0,
            triplet_support: 4,
        };
        assert_eq!(dirty.group_weight, 1);
        let clean = prune_group(&btm, &dirty, 8);
        assert_eq!(clean.members, (0..5).map(AuthorId).collect::<Vec<_>>());
        assert_eq!(clean.group_weight, 8);
        assert!((clean.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_stops_at_three_members() {
        let btm = botnet_btm();
        let g = Group {
            members: vec![AuthorId(0), AuthorId(1), AuthorId(5)],
            group_weight: 1,
            score: 0.0,
            triplet_support: 1,
        };
        let pruned = prune_group(&btm, &g, 100);
        assert_eq!(pruned.members.len(), 3, "never shrinks below a triplet");
    }

    #[test]
    fn empty_triplet_set_yields_no_groups() {
        let btm = botnet_btm();
        assert!(merge_triplets(&btm, &[], 2).is_empty());
    }
}
