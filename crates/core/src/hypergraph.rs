//! Step 3: hypergraph validation of candidate triplets.
//!
//! Once steps 1–2 have pruned the `O(|U|³)` triplet space to a short list of
//! high-weight triangles, the pipeline returns to the original bipartite data
//! and computes the *true* multiway interaction counts: `w_xyz` (Eq. 2) is the
//! size of the three-way intersection of the authors' page lists, and the
//! normalized score `C(x,y,z)` (Eq. 4) divides by their total page counts.
//! Note there is deliberately no time bound here — the paper validates spatial
//! coordination only (its §4.2 names time-windowed hyperedges as future work).

use crate::btm::{AuthorPages, Btm};
use crate::ids::{AuthorId, PageId};
use crate::metrics::{c_score, TripletMetrics};
use tripoll::survey::t_score;
use tripoll::Triangle;

/// Size of the intersection of three sorted, deduplicated page lists —
/// `w_xyz`, the number of pages where all three authors commented.
///
/// Built on the shared adaptive kernel ([`coordination_graph::intersect`]):
/// the two shortest lists are intersected first (linear merge or galloping,
/// chosen by their length ratio), and each survivor is located in the longest
/// list with a monotone gallop. Page lists are heavily skewed in practice —
/// a hyperactive author's list can be orders of magnitude longer than a
/// bot's — which is exactly the shape where the old three-cursor linear scan
/// paid `O(|longest|)` for nothing. Same result as
/// [`triple_intersection_count_linear`], pinned by property test.
pub fn triple_intersection_count(a: &[PageId], b: &[PageId], c: &[PageId]) -> u64 {
    use coordination_graph::intersect::{gallop_search, intersect_indices};
    let mut lists = [a, b, c];
    lists.sort_unstable_by_key(|l| l.len());
    let [s, m, l] = lists;
    if s.is_empty() {
        return 0;
    }
    let mut n = 0u64;
    // Matches of s ∩ m arrive ascending, so the cursor into the longest list
    // only moves forward: total gallop work is O(|s∩m| · log gap), bounded by
    // O(|l|).
    let mut from = 0usize;
    intersect_indices(s, m, &mut |si, _| {
        if from < l.len() {
            match gallop_search(l, from, &s[si]) {
                Ok(i) => {
                    n += 1;
                    from = i + 1;
                }
                Err(i) => from = i,
            }
        }
    });
    n
}

/// The original three-cursor linear merge — reference implementation the
/// adaptive kernel is pinned to (and the kernel-ablation bench baseline).
pub fn triple_intersection_count_linear(a: &[PageId], b: &[PageId], c: &[PageId]) -> u64 {
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    let mut n = 0u64;
    while i < a.len() && j < b.len() && k < c.len() {
        let (x, y, z) = (a[i], b[j], c[k]);
        let m = x.min(y).min(z);
        if x == y && y == z {
            n += 1;
            i += 1;
            j += 1;
            k += 1;
        } else {
            if x == m {
                i += 1;
            }
            if y == m {
                j += 1;
            }
            if z == m {
                k += 1;
            }
        }
    }
    n
}

/// `w_xyz` for three harvested authors.
pub fn hyperedge_weight(authors: &AuthorPages, x: AuthorId, y: AuthorId, z: AuthorId) -> u64 {
    triple_intersection_count(authors.pages(x), authors.pages(y), authors.pages(z))
}

/// Validate one surveyed triangle: combine its CI metadata (weights and `P'`)
/// with the hypergraph measures computed from its vertices' page lists.
pub fn validate_triangle(
    authors: &AuthorPages,
    ci_page_counts: &[u64],
    t: &Triangle,
) -> TripletMetrics {
    let pages = t.vertices().map(|v| authors.pages(AuthorId(v)));
    validate_triangle_parts(t, pages, ci_page_counts)
}

/// The representation-independent core of [`validate_triangle`]: compute a
/// triangle's [`TripletMetrics`] from the three authors' sorted,
/// deduplicated page lists (`pages[i]` belongs to `t.vertices()[i]`) and the
/// global `P'` vector. Both the resident path (which borrows the lists from
/// an [`AuthorPages`] harvest) and the distributed pipeline (which fetches
/// them from owner-rank shards) delegate here, so the two paths compute the
/// exact same floating-point expressions — byte-identical scores by
/// construction.
pub fn validate_triangle_parts(
    t: &Triangle,
    pages: [&[PageId]; 3],
    ci_page_counts: &[u64],
) -> TripletMetrics {
    let [a, b, c] = t.vertices();
    let w_xyz = triple_intersection_count(pages[0], pages[1], pages[2]);
    let (pa, pb, pc) = (
        pages[0].len() as u64,
        pages[1].len() as u64,
        pages[2].len() as u64,
    );
    let min_w = t.min_weight();
    TripletMetrics {
        authors: [AuthorId(a), AuthorId(b), AuthorId(c)],
        ci_weights: t.edge_weights(),
        min_ci_weight: min_w,
        t: t_score(
            min_w,
            ci_page_counts[a as usize],
            ci_page_counts[b as usize],
            ci_page_counts[c as usize],
        ),
        hyper_weight: w_xyz,
        c: c_score(w_xyz, pa, pb, pc),
        page_counts: [pa, pb, pc],
    }
}

/// Validate a batch of triangles, returning metrics in the same order. The
/// page lists of the triangles' vertices — all of `B` this step reads — are
/// harvested from `btm` once, up front.
pub fn validate_all(
    btm: &Btm,
    ci_page_counts: &[u64],
    triangles: &[Triangle],
) -> Vec<TripletMetrics> {
    let _stage = obs::span("validate");
    let authors = {
        let _harvest = obs::span("validate.harvest");
        AuthorPages::harvest(
            btm,
            triangles.iter().flat_map(|t| t.vertices()).map(AuthorId),
        )
    };
    obs::counter("validate.harvest_authors").add(u64::from(authors.n_authors()));
    obs::counter("validate.harvest_incidences").add(authors.n_incidences());
    let metrics: Vec<TripletMetrics> = triangles
        .iter()
        .map(|t| validate_triangle(&authors, ci_page_counts, t))
        .collect();
    obs::counter("validate.triplets").add(metrics.len() as u64);
    obs::record_stage_rss("validate");
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Event;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    fn pages(ids: &[u32]) -> Vec<PageId> {
        ids.iter().map(|&i| p(i)).collect()
    }

    #[test]
    fn triple_intersection_basics() {
        assert_eq!(
            triple_intersection_count(&pages(&[1, 2, 3]), &pages(&[2, 3, 4]), &pages(&[3, 4, 5])),
            1
        );
        assert_eq!(
            triple_intersection_count(&pages(&[1, 2]), &pages(&[1, 2]), &pages(&[1, 2])),
            2
        );
        assert_eq!(
            triple_intersection_count(&pages(&[1]), &pages(&[2]), &pages(&[3])),
            0
        );
        assert_eq!(
            triple_intersection_count(&[], &pages(&[1]), &pages(&[1])),
            0
        );
    }

    #[test]
    fn triple_intersection_matches_hashset_reference() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let mk = |rng: &mut rand_chacha::ChaCha8Rng| {
                let mut v: Vec<u32> = (0..rng.gen_range(0..40))
                    .map(|_| rng.gen_range(0..60))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
            let sa: HashSet<u32> = a.iter().copied().collect();
            let sb: HashSet<u32> = b.iter().copied().collect();
            let expect = c
                .iter()
                .filter(|x| sa.contains(x) && sb.contains(x))
                .count() as u64;
            assert_eq!(
                triple_intersection_count(&pages(&a), &pages(&b), &pages(&c)),
                expect
            );
        }
    }

    fn coordinated_btm() -> Btm {
        // authors 0,1,2 comment together on pages 0..4; author 0 also roams
        // pages 4..10 alone.
        let mut events = Vec::new();
        for page in 0..4u32 {
            for a in 0..3u32 {
                events.push(Event::new(
                    AuthorId(a),
                    PageId(page),
                    (page * 100 + a) as i64,
                ));
            }
        }
        for page in 4..10u32 {
            events.push(Event::new(AuthorId(0), PageId(page), page as i64 * 1000));
        }
        Btm::from_events(3, 10, &events)
    }

    #[test]
    fn hyperedge_weight_counts_shared_pages() {
        let authors = AuthorPages::all(&coordinated_btm());
        assert_eq!(
            hyperedge_weight(&authors, AuthorId(0), AuthorId(1), AuthorId(2)),
            4
        );
    }

    #[test]
    fn validate_combines_both_layers() {
        let btm = coordinated_btm();
        let tri = Triangle::new(0, 1, 2, 4, 4, 4);
        let ci_pages = vec![4u64, 4, 4];
        let m = validate_triangle(&AuthorPages::all(&btm), &ci_pages, &tri);
        assert_eq!(m.hyper_weight, 4);
        assert_eq!(m.min_ci_weight, 4);
        // T = 3*4/(4+4+4) = 1
        assert!((m.t - 1.0).abs() < 1e-12);
        // p_0 = 10, p_1 = p_2 = 4 → C = 3*4/18
        assert_eq!(m.page_counts, [10, 4, 4]);
        assert!((m.c - 12.0 / 18.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&m.c));
        assert!((0.0..=1.0).contains(&m.t));
    }

    #[test]
    fn validate_all_preserves_order() {
        let btm = coordinated_btm();
        let t1 = Triangle::new(0, 1, 2, 4, 4, 4);
        let t2 = Triangle::new(0, 1, 2, 1, 2, 3);
        let ci_pages = vec![4u64, 4, 4];
        let ms = validate_all(&btm, &ci_pages, &[t1, t2]);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].min_ci_weight, 4);
        assert_eq!(ms[1].min_ci_weight, 1);
        // a repeated triangle is validated again, in place
        let again = validate_all(&btm, &ci_pages, &[t2, t1, t2]);
        assert_eq!(again, [ms[1], ms[0], ms[1]]);
        assert!(validate_all(&btm, &ci_pages, &[]).is_empty());
    }

    #[test]
    fn hyper_weight_bounded_by_min_page_count() {
        let authors = AuthorPages::all(&coordinated_btm());
        let w = hyperedge_weight(&authors, AuthorId(0), AuthorId(1), AuthorId(2));
        let min_p = authors
            .page_count(AuthorId(0))
            .min(authors.page_count(AuthorId(1)))
            .min(authors.page_count(AuthorId(2)));
        assert!(w <= min_p);
    }
}
