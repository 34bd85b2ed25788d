//! Time-windowed hyperedges — the paper's first "future research" direction
//! (§4.3), implemented.
//!
//! The paper's step 3 counts a hyperedge whenever three authors share a page
//! *at any time*, which breaks any provable relationship with the windowed
//! CI-graph triangles (§4.2, third shortcoming). Restricting the hyperedge to
//! a window fixes that: define
//!
//! > `w_xyz^(δ2)` = number of pages `p` where `x`, `y`, `z` each have a
//! > comment on `p` and some choice of one comment per author has all three
//! > timestamps within a span of at most `δ2` seconds.
//!
//! **Theorem (the bound the paper wanted).** For `δ1 = 0`,
//! `w_xyz^(δ2) ≤ min{w'_xy, w'_xz, w'_yz}` computed at window `(0, δ2)`:
//! if all three comments fit in a span of `δ2`, then *every pair* of them is
//! within `δ2` of each other, so each page counted by `w_xyz^(δ2)` is also
//! counted by each pairwise weight. The property test in this module and the
//! cross-crate suite exercise this.
//!
//! The scan is a sliding window over each page's time-sorted comments: advance
//! the right cursor one comment at a time, retract the left cursor to keep the
//! span ≤ δ2, and check whether the window covers all three authors.

use crate::btm::{AuthorPages, Btm, PageRow, Row};
use crate::hypergraph::SharedPrefix;
use crate::ids::AuthorId;
use crate::metrics::c_score;
use tripoll::Triangle;

/// Count pages where `x`, `y`, `z` all comment within a span of `max_span`
/// seconds — `w_xyz^(δ2)`. `authors` is a harvest of `btm` holding all three.
pub fn windowed_hyperedge_weight(
    btm: &Btm,
    authors: &AuthorPages,
    x: AuthorId,
    y: AuthorId,
    z: AuthorId,
    max_span: i64,
) -> u64 {
    let mut kernel = SharedPrefix::new(authors);
    windowed_weight(btm, authors, &mut kernel, [x, y, z], max_span)
}

/// [`windowed_hyperedge_weight`] through a kernel over `authors`: only pages
/// all three touch can qualify, so the per-page scan runs on the pages of the
/// kernel's `pages(x) ∩ pages(y)` that `z` holds too.
fn windowed_weight(
    btm: &Btm,
    authors: &AuthorPages,
    kernel: &mut SharedPrefix<'_>,
    [x, y, z]: [AuthorId; 3],
    max_span: i64,
) -> u64 {
    assert!(max_span >= 0, "span must be non-negative");
    assert!(x != y && y != z && x != z, "authors must be distinct");
    let mut count = 0u64;
    kernel.shared([x, y]).common(authors.pages(z), &mut |p| {
        let covered = match btm.page_neighborhood(p) {
            PageRow::Narrow { row, .. } => page_has_windowed_triple(row, x, y, z, max_span),
            PageRow::Wide(row) => page_has_windowed_triple(row, x, y, z, max_span),
        };
        count += u64::from(covered);
    });
    count
}

/// Does a sliding window of span `max_span` over `comments` (time-sorted)
/// ever cover all three authors?
fn page_has_windowed_triple<R: Row>(
    comments: &[R],
    x: AuthorId,
    y: AuthorId,
    z: AuthorId,
    max_span: i64,
) -> bool {
    let mut left = 0usize;
    let (mut nx, mut ny, mut nz) = (0u32, 0u32, 0u32);
    let bump = |a: AuthorId, delta: i32, nx: &mut u32, ny: &mut u32, nz: &mut u32| {
        let slot = if a == x {
            nx
        } else if a == y {
            ny
        } else if a == z {
            nz
        } else {
            return;
        };
        *slot = slot.wrapping_add(delta as u32);
    };
    for right in 0..comments.len() {
        bump(comments[right].author(), 1, &mut nx, &mut ny, &mut nz);
        while comments[left]
            .delay_within(comments[right], max_span)
            .is_none()
        {
            bump(comments[left].author(), -1, &mut nx, &mut ny, &mut nz);
            left += 1;
        }
        if nx > 0 && ny > 0 && nz > 0 {
            return true;
        }
    }
    false
}

/// A triplet's windowed validation record: both the unbounded and the
/// windowed hyperedge weights plus the windowed coordination score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowedTriplet {
    /// The three authors, ascending.
    pub authors: [AuthorId; 3],
    /// `min{w'}` from the surveyed triangle.
    pub min_ci_weight: u64,
    /// Unbounded `w_xyz` (the paper's Eq. 2).
    pub hyper_weight: u64,
    /// Windowed `w_xyz^(δ2)`.
    pub windowed_weight: u64,
    /// `C` computed with the windowed weight — still in `[0, 1]`.
    pub windowed_c: f64,
}

/// Validate surveyed triangles with the windowed hyperedge count.
/// `max_span` should equal the projection window's `δ2` for the bound
/// `windowed_weight ≤ min_ci_weight` to hold. The vertices' page lists are
/// harvested from `btm` once.
pub fn validate_windowed(btm: &Btm, triangles: &[Triangle], max_span: i64) -> Vec<WindowedTriplet> {
    let authors = AuthorPages::harvest(
        btm,
        triangles.iter().flat_map(|t| t.vertices()).map(AuthorId),
    );
    let mut kernel = SharedPrefix::new(&authors);
    triangles
        .iter()
        .map(|t| {
            let [a, b, c] = t.vertices();
            let (xa, xb, xc) = (AuthorId(a), AuthorId(b), AuthorId(c));
            let unbounded = kernel.weight([xa, xb, xc]);
            let ww = windowed_weight(btm, &authors, &mut kernel, [xa, xb, xc], max_span);
            WindowedTriplet {
                authors: [xa, xb, xc],
                min_ci_weight: t.min_weight(),
                hyper_weight: unbounded,
                windowed_weight: ww,
                windowed_c: c_score(
                    ww,
                    authors.page_count(xa),
                    authors.page_count(xb),
                    authors.page_count(xc),
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btm::PageSet;
    use crate::ids::{Event, PageId, Timestamp};
    use crate::project::project;
    use crate::window::Window;

    fn ev(a: u32, p: u32, ts: Timestamp) -> Event {
        Event::new(AuthorId(a), PageId(p), ts)
    }

    /// `w^(span)` of authors 0, 1, 2.
    fn w012(btm: &Btm, span: i64) -> u64 {
        let authors = AuthorPages::harvest(btm, (0..3).map(AuthorId));
        windowed_hyperedge_weight(btm, &authors, AuthorId(0), AuthorId(1), AuthorId(2), span)
    }

    #[test]
    fn tight_triple_counts_loose_does_not() {
        let btm = Btm::from_events(
            3,
            2,
            &[
                // page 0: all three within 30s
                ev(0, 0, 0),
                ev(1, 0, 10),
                ev(2, 0, 30),
                // page 1: pairwise close but triple spans 90s
                ev(0, 1, 0),
                ev(1, 1, 50),
                ev(2, 1, 90),
            ],
        );
        let w = |span| w012(&btm, span);
        assert_eq!(w(30), 1);
        assert_eq!(w(89), 1);
        assert_eq!(w(90), 2);
        assert_eq!(w(9), 0);
    }

    #[test]
    fn repeat_comments_let_late_windows_qualify() {
        // author 0 comments twice; the second copy is close to 1 and 2
        let btm = Btm::from_events(
            3,
            1,
            &[ev(0, 0, 0), ev(1, 0, 500), ev(2, 0, 510), ev(0, 0, 505)],
        );
        assert_eq!(w012(&btm, 20), 1);
    }

    #[test]
    fn windowed_weight_monotone_in_span() {
        let btm = Btm::from_events(
            3,
            4,
            &[
                ev(0, 0, 0),
                ev(1, 0, 100),
                ev(2, 0, 200),
                ev(0, 1, 0),
                ev(1, 1, 5),
                ev(2, 1, 10),
                ev(0, 2, 0),
                ev(1, 2, 1000),
                ev(2, 2, 2000),
                ev(0, 3, 7),
                ev(1, 3, 8),
                ev(2, 3, 9),
            ],
        );
        let mut prev = 0;
        for span in [0i64, 10, 200, 2000, 10_000] {
            let w = w012(&btm, span);
            assert!(w >= prev, "span {span}: {w} < {prev}");
            prev = w;
        }
        assert_eq!(prev, 4);
    }

    #[test]
    fn windowed_bounded_by_unbounded() {
        let btm = Btm::from_events(
            3,
            3,
            &[
                ev(0, 0, 0),
                ev(1, 0, 10),
                ev(2, 0, 20),
                ev(0, 1, 0),
                ev(1, 1, 10_000),
                ev(2, 1, 20_000),
                ev(0, 2, 5),
            ],
        );
        let unbounded = crate::hypergraph::hyperedge_weight(
            &AuthorPages::all(&btm),
            AuthorId(0),
            AuthorId(1),
            AuthorId(2),
        );
        let windowed = w012(&btm, 60);
        assert_eq!(unbounded, 2);
        assert_eq!(windowed, 1);
        assert!(windowed <= unbounded);
    }

    /// The theorem: w_xyz^(δ2) ≤ min pairwise w' at window (0, δ2), on random
    /// data.
    #[test]
    fn windowed_weight_bounded_by_min_triangle_weight() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for trial in 0..20 {
            let events: Vec<Event> = (0..400)
                .map(|_| {
                    ev(
                        rng.gen_range(0..8),
                        rng.gen_range(0..10),
                        rng.gen_range(0..3_000),
                    )
                })
                .collect();
            let btm = Btm::from_events(8, 10, &events);
            let span = rng.gen_range(1..500i64);
            let ci = project(&btm, Window::new(0, span));
            let authors = AuthorPages::all(&btm);
            for a in 0..8u32 {
                for b in (a + 1)..8 {
                    for c in (b + 1)..8 {
                        let ww = windowed_hyperedge_weight(
                            &btm,
                            &authors,
                            AuthorId(a),
                            AuthorId(b),
                            AuthorId(c),
                            span,
                        );
                        let min_w = ci
                            .weight(AuthorId(a), AuthorId(b))
                            .min(ci.weight(AuthorId(a), AuthorId(c)))
                            .min(ci.weight(AuthorId(b), AuthorId(c)));
                        assert!(
                            ww <= min_w,
                            "trial {trial}: w^({span})={ww} > min w'={min_w} for ({a},{b},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn validate_windowed_batch() {
        let btm = Btm::from_events(
            3,
            3,
            &[
                ev(0, 0, 0),
                ev(1, 0, 5),
                ev(2, 0, 10),
                ev(0, 1, 0),
                ev(1, 1, 5),
                ev(2, 1, 9_999),
                ev(0, 2, 0),
                ev(1, 2, 3),
                ev(2, 2, 6),
            ],
        );
        let tri = Triangle::new(0, 1, 2, 2, 2, 2);
        let out = validate_windowed(&btm, &[tri], 60);
        assert_eq!(out.len(), 1);
        let w = out[0];
        assert_eq!(w.windowed_weight, 2);
        assert_eq!(w.hyper_weight, 3);
        assert!(w.windowed_weight <= w.min_ci_weight);
        assert!((w.windowed_c - c_score(2, 3, 3, 3)).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&w.windowed_c));
    }

    /// A bitset member beside two list members: author 0 is on every page
    /// of a 320-page space (a bitset: 32 × 320 ≥ 320), authors 1 and 2 on
    /// three pages each (lists: 32 × 3 < 320), sharing pages 5 and 64. The
    /// weight is the same whichever author leads.
    #[test]
    fn a_bitset_member_beside_list_members() {
        let mut events: Vec<Event> = (0..320).map(|p| ev(0, p, 0)).collect();
        events.extend([5, 64, 200].map(|p| ev(1, p, 10)));
        events.extend([(5, 20), (64, 100), (201, 0)].map(|(p, ts)| ev(2, p, ts)));
        let btm = Btm::from_events(3, 320, &events);
        let authors = AuthorPages::harvest(&btm, (0..3).map(AuthorId));
        let held = (0..3).map(|a| matches!(authors.pages(AuthorId(a)), PageSet::Bits(_)));
        assert_eq!(held.collect::<Vec<_>>(), [true, false, false]);
        for (span, want) in [(19, 0), (20, 1), (99, 1), (100, 2)] {
            let w = |x, y, z| {
                let [x, y, z] = [x, y, z].map(AuthorId);
                windowed_hyperedge_weight(&btm, &authors, x, y, z, span)
            };
            assert_eq!(w(0, 1, 2), want, "span {span}");
            assert_eq!(w(1, 2, 0), want, "span {span}");
            assert_eq!(w(2, 0, 1), want, "span {span}");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_authors_rejected() {
        let btm = Btm::from_events(2, 1, &[ev(0, 0, 0)]);
        let authors = AuthorPages::all(&btm);
        windowed_hyperedge_weight(&btm, &authors, AuthorId(0), AuthorId(0), AuthorId(1), 10);
    }
}
