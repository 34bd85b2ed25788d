//! Property-based tests of the DESIGN.md §5 invariants, over random bipartite
//! temporal multigraphs.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::TestCaseError;

use coordination::core::btm::{AuthorPages, Btm};
use coordination::core::hypergraph::hyperedge_weight;
use coordination::core::ids::{AuthorId, Event, PageId};
use coordination::core::metrics::c_score;
use coordination::core::project::project;
use coordination::core::Window;
use coordination::tripoll::survey::t_score;
use coordination::tripoll::OrientedGraph;

/// A random event log over small id spaces — small enough that collisions
/// (shared pages, repeat comments) are common.
fn arb_events(
    max_authors: u32,
    max_pages: u32,
    max_events: usize,
) -> impl Strategy<Value = (u32, u32, Vec<Event>)> {
    (2..max_authors, 1..max_pages).prop_flat_map(move |(na, np)| {
        let ev = (0..na, 0..np, 0i64..2_000).prop_map(|(a, p, t)| Event {
            author: AuthorId(a),
            page: PageId(p),
            ts: t,
        });
        (Just(na), Just(np), prop::collection::vec(ev, 0..max_events))
    })
}

/// An event with a sort key to permute it by. Ids 0 and n-1 of both id
/// spaces (10 authors, 8 pages) never occur, so rows are empty at both ends;
/// rows repeat, and timestamps are equal, negative and extreme.
type KeyedEvent = ((u32, u32, u8, i64), u32);

fn arb_keyed_events() -> impl Strategy<Value = Vec<KeyedEvent>> {
    prop::collection::vec(
        ((1u32..9, 1u32..7, 0u8..10, -40i64..40), 0u32..1_000),
        0..200,
    )
}

fn keyed_event(&((a, p, kind, t), _): &KeyedEvent) -> Event {
    Event {
        author: AuthorId(a),
        page: PageId(p),
        ts: match kind {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => i64::MIN + 41 + t,
            _ => t,
        },
    }
}

/// The same events in four arrival orders: as drawn, permuted by the drawn
/// keys, time-ordered and reverse time-ordered.
fn arrival_orders(keyed: &[KeyedEvent]) -> [Vec<Event>; 4] {
    let events: Vec<Event> = keyed.iter().map(keyed_event).collect();
    let mut permuted = keyed.to_vec();
    permuted.sort_by_key(|&(_, key)| key);
    let permuted = permuted.iter().map(keyed_event).collect();
    let mut by_time = events.clone();
    by_time.sort_by_key(|e| (e.ts, e.author));
    let reversed = by_time.iter().rev().copied().collect();
    [events, permuted, by_time, reversed]
}

/// A projection as comparable data: sorted edges and the `P'` counts.
fn canon(g: &coordination::core::CiGraph) -> (Vec<(u32, u32, u64)>, Vec<u64>) {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    (e, g.page_counts().to_vec())
}

/// Events as the definition's `(author, page, ts)` comments.
fn comments(events: &[Event]) -> Vec<definition::Comment> {
    events
        .iter()
        .map(|e| (e.author.0, e.page.0, e.ts))
        .collect()
}

/// The definition's page side, as page rows decode.
fn rows_of(events: &[Event], n_pages: u32) -> Vec<Vec<(i64, AuthorId)>> {
    let rows = definition::rows(&comments(events), n_pages).into_iter();
    rows.map(|row| row.into_iter().map(|(ts, a)| (ts, AuthorId(a))).collect())
        .collect()
}

/// The definition's author side, as a harvest holds it.
fn pages_of(events: &[Event], n_authors: u32) -> Vec<Vec<PageId>> {
    let pages = definition::author_pages(&comments(events), n_authors).into_iter();
    pages
        .map(|own| own.into_iter().map(PageId).collect())
        .collect()
}

/// The one projection property every generator below feeds: `project`
/// reports the definition's `w′` edge for edge and its `P′` for `P′`.
fn assert_matches_definition(btm: &Btm, events: &[Event], w: Window) -> Result<(), TestCaseError> {
    let params = definition::Params {
        min_weight: u64::MAX,
        ..definition::Params::keep_all(w.d1(), w.d2())
    };
    let want = definition::run(&comments(events), &[], &params);
    let ci = project(btm, w);
    let edges: BTreeMap<(u32, u32), u64> = ci.edges().map(|(x, y, w)| ((x, y), w)).collect();
    prop_assert_eq!(edges, want.w);
    let counts = (0u32..).zip(ci.page_counts().iter().copied());
    let p_prime: BTreeMap<u32, u64> = counts.filter(|&(_, n)| n > 0).collect();
    prop_assert_eq!(p_prime, want.p_prime);
    Ok(())
}

fn arb_window() -> impl Strategy<Value = Window> {
    (0i64..100, 1i64..500).prop_map(|(d1, len)| Window::new(d1, d1 + len))
}

/// A name for the NDJSON round trip, of JSON's metacharacters, every kind of
/// control character, and characters that take two, three and four UTF-8
/// bytes.
const ODD_NAME: &str =
    "[aZ_ \"\\/\0\t\n\r\u{8}\u{c}\u{1f}\u{7f}é—\u{2028}\u{feff}😀\u{10ffff}]{0,12}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `project` agrees exactly with the definition.
    #[test]
    fn projection_drivers_agree((na, np, events) in arb_events(20, 15, 300), w in arb_window()) {
        assert_matches_definition(&Btm::from_events(na, np, &events), &events, w)?;
    }

    /// Projection weights never exceed either endpoint's P' page count, and
    /// page counts never exceed the author's true page count p_x.
    #[test]
    fn projection_bounds((na, np, events) in arb_events(15, 12, 250), w in arb_window()) {
        let btm = Btm::from_events(na, np, &events);
        let ci = project(&btm, w);
        for (x, y, wt) in ci.edges() {
            prop_assert!(wt <= ci.page_count(AuthorId(x)));
            prop_assert!(wt <= ci.page_count(AuthorId(y)));
        }
        let authors = AuthorPages::all(&btm);
        for a in 0..na {
            prop_assert!(ci.page_count(AuthorId(a)) <= authors.page_count(AuthorId(a)));
        }
    }

    /// Window nesting: a window containing another yields a pointwise-larger
    /// projection (paper §3 opening).
    #[test]
    fn window_nesting_monotonicity((na, np, events) in arb_events(15, 12, 250), d2a in 1i64..200, extra in 1i64..300) {
        let btm = Btm::from_events(na, np, &events);
        let small = project(&btm, Window::new(0, d2a));
        let large = project(&btm, Window::new(0, d2a + extra));
        for (x, y, wt) in small.edges() {
            prop_assert!(large.weight(AuthorId(x), AuthorId(y)) >= wt);
        }
        for a in 0..na {
            prop_assert!(large.page_count(AuthorId(a)) >= small.page_count(AuthorId(a)));
        }
    }

    /// Every triangle of the projected graph satisfies the paper's score
    /// bounds: T, C ∈ [0,1] and w_xyz ≤ min{p_x, p_y, p_z}.
    #[test]
    fn score_ranges_hold_for_all_triangles((na, np, events) in arb_events(12, 10, 300), w in arb_window()) {
        let btm = Btm::from_events(na, np, &events);
        let ci = project(&btm, w);
        let wg = ci.to_weighted_graph();
        let oriented = OrientedGraph::from_graph(&wg);
        let mut triangles = Vec::new();
        coordination::tripoll::enumerate::for_each_triangle(&oriented, |t| triangles.push(t));
        let authors = AuthorPages::all(&btm);
        for t in triangles {
            let [a, b, c] = t.vertices();
            let ts = t_score(
                t.min_weight(),
                ci.page_count(AuthorId(a)),
                ci.page_count(AuthorId(b)),
                ci.page_count(AuthorId(c)),
            );
            prop_assert!((0.0..=1.0).contains(&ts), "T = {}", ts);
            let wxyz = hyperedge_weight(&authors, AuthorId(a), AuthorId(b), AuthorId(c));
            let (pa, pb, pc) = (
                authors.page_count(AuthorId(a)),
                authors.page_count(AuthorId(b)),
                authors.page_count(AuthorId(c)),
            );
            prop_assert!(wxyz <= pa.min(pb).min(pc));
            let cs = c_score(wxyz, pa, pb, pc);
            prop_assert!((0.0..=1.0).contains(&cs), "C = {}", cs);
        }
    }

    /// Triangle enumeration on the projected graph matches the definition's
    /// brute-force triple loop over the raw events: authors and `w′`.
    #[test]
    fn projected_triangles_match_brute_force((na, np, events) in arb_events(12, 10, 200), w in arb_window()) {
        let wg = project(&Btm::from_events(na, np, &events), w).to_weighted_graph();
        let mut fast = Vec::new();
        coordination::tripoll::enumerate::for_each_triangle(&OrientedGraph::from_graph(&wg), |t| {
            fast.push((t.vertices(), t.edge_weights()))
        });
        fast.sort_unstable();
        let params = definition::Params::keep_all(w.d1(), w.d2());
        let want = definition::run(&comments(&events), &[], &params).triplets;
        prop_assert_eq!(fast, want.iter().map(|t| (t.authors, t.w)).collect::<Vec<_>>());
    }

    /// Removing authors can only shrink projections (refinement loop, §2.4).
    #[test]
    fn author_removal_shrinks_projection((na, np, events) in arb_events(12, 10, 250), victim in 0u32..12) {
        prop_assume!(victim < na);
        let btm = Btm::from_events(na, np, &events);
        let w = Window::new(0, 120);
        let full = project(&btm, w);
        let cleaned = project(&btm.without_authors(&[AuthorId(victim)]), w);
        prop_assert_eq!(cleaned.weight(AuthorId(victim), AuthorId((victim + 1) % na)), 0);
        for (x, y, wt) in cleaned.edges() {
            prop_assert!(full.weight(AuthorId(x), AuthorId(y)) >= wt);
        }
    }

    /// NDJSON round trip: records → `write_ndjson` → `ingest_records_slice`
    /// is the identity, for names of any characters — quotes, backslashes,
    /// control characters, characters outside the BMP — and any timestamp.
    #[test]
    fn ndjson_roundtrip(
        recs in prop::collection::vec((ODD_NAME, ODD_NAME, i64::MIN..i64::MAX), 1..30),
    ) {
        use coordination::core::ingest::{ingest_records_slice, IngestConfig};
        use coordination::core::records::{write_ndjson, CommentRecord};
        let recs: Vec<CommentRecord> = recs
            .into_iter()
            .map(|(author, page, ts)| CommentRecord::new(author, page, ts))
            .collect();
        let mut buf = Vec::new();
        write_ndjson(&mut buf, &recs).expect("write");
        let (back, _) = ingest_records_slice(&buf, &IngestConfig::default()).expect("read");
        prop_assert_eq!(back, recs);
    }

    /// Windowed hyperedges: monotone in the span, bounded above by the
    /// unbounded count, and — the §4.3 theorem — bounded by the minimum
    /// pairwise CI weight at the same window.
    #[test]
    fn windowed_hyperedge_bounds((na, np, events) in arb_events(10, 8, 250), span in 1i64..400) {
        use coordination::core::windowed_hyperedge::windowed_hyperedge_weight;
        let btm = Btm::from_events(na, np, &events);
        let ci = project(&btm, Window::new(0, span));
        let authors = AuthorPages::all(&btm);
        for a in 0..na.min(6) {
            for b in (a + 1)..na.min(6) {
                for c in (b + 1)..na.min(6) {
                    let (xa, xb, xc) = (AuthorId(a), AuthorId(b), AuthorId(c));
                    let ww = windowed_hyperedge_weight(&btm, &authors, xa, xb, xc, span);
                    let unbounded = hyperedge_weight(&authors, xa, xb, xc);
                    prop_assert!(ww <= unbounded);
                    let min_w = ci.weight(xa, xb).min(ci.weight(xa, xc)).min(ci.weight(xb, xc));
                    prop_assert!(ww <= min_w, "w^({span})={} > min w'={}", ww, min_w);
                    let wider = windowed_hyperedge_weight(&btm, &authors, xa, xb, xc, span * 2);
                    prop_assert!(wider >= ww);
                }
            }
        }
    }

    /// Group weight is bounded by every member's page count, the group score
    /// stays in [0,1], and adding a member never increases w_G.
    #[test]
    fn group_weight_bounds((na, np, events) in arb_events(10, 8, 250)) {
        use coordination::core::groups::{group_score, group_weight};
        prop_assume!(na >= 4);
        let trio: Vec<AuthorId> = (0..3).map(AuthorId).collect();
        let quad: Vec<AuthorId> = (0..4).map(AuthorId).collect();
        let authors =
            AuthorPages::harvest(&Btm::from_events(na, np, &events), quad.iter().copied());
        let w3 = group_weight(&authors, &trio);
        let w4 = group_weight(&authors, &quad);
        prop_assert!(w4 <= w3, "adding a member grew the intersection");
        for &a in &quad {
            prop_assert!(w4 <= authors.page_count(a));
        }
        let s = group_score(&authors, &quad, w4);
        prop_assert!((0.0..=1.0).contains(&s), "group score {}", s);
        // triplet group weight equals the paper's w_xyz
        prop_assert_eq!(w3, hyperedge_weight(&authors, trio[0], trio[1], trio[2]));
    }

    /// Subset reprojection equals the full projection filtered to the subset.
    #[test]
    fn subset_projection_consistency((na, np, events) in arb_events(14, 10, 250), w in arb_window()) {
        use coordination::core::project::project_subset;
        let btm = Btm::from_events(na, np, &events);
        let subset: Vec<AuthorId> = (0..na).step_by(2).map(AuthorId).collect();
        let inset: std::collections::HashSet<u32> = subset.iter().map(|a| a.0).collect();
        let sub = project_subset(&btm, &subset, w);
        let full = project(&btm, w);
        let mut expect: Vec<(u32, u32, u64)> = full
            .edges()
            .filter(|(x, y, _)| inset.contains(x) && inset.contains(y))
            .collect();
        let mut got: Vec<(u32, u32, u64)> = sub.edges().collect();
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// CiGraph TSV persistence round-trips through the CSR-backed
    /// representation: same edges, same P' vector, byte-identical re-render.
    #[test]
    fn cigraph_tsv_roundtrip((na, np, events) in arb_events(15, 12, 250), w in arb_window()) {
        let btm = Btm::from_events(na, np, &events);
        let ci = project(&btm, w);
        let mut buf = Vec::new();
        ci.write_tsv(&mut buf).expect("write");
        let back = coordination::core::CiGraph::read_tsv(&buf[..]).expect("read");
        prop_assert_eq!(back.n_authors(), ci.n_authors());
        prop_assert_eq!(back.edges().collect::<Vec<_>>(), ci.edges().collect::<Vec<_>>());
        prop_assert_eq!(back.page_counts(), ci.page_counts());
        let mut buf2 = Vec::new();
        back.write_tsv(&mut buf2).expect("rewrite");
        prop_assert_eq!(buf, buf2);
    }

    /// Thresholding through the borrowed view is equivalent to the old
    /// materialize-then-survey path: same components, same surviving
    /// triangle set.
    #[test]
    fn threshold_view_equals_materialized_pipeline((na, np, events) in arb_events(12, 10, 250), cutoff in 1u64..5) {
        use coordination::core::GraphRef;
        let btm = Btm::from_events(na, np, &events);
        let ci = project(&btm, Window::new(0, 250));
        let view = ci.threshold_view(cutoff);
        let owned = ci.threshold(cutoff).to_weighted_graph();
        prop_assert_eq!(view.count_edges(), owned.m());
        prop_assert_eq!(
            coordination::graph::components(&view, 0),
            owned.components(0)
        );
        let from_view = OrientedGraph::from_ref(&view);
        let from_owned = OrientedGraph::from_graph(&owned);
        let collect = |o: &OrientedGraph| {
            let mut ts = Vec::new();
            coordination::tripoll::enumerate::for_each_triangle(o, |t| ts.push(t));
            ts.sort_unstable_by_key(|t| t.vertices());
            ts
        };
        prop_assert_eq!(collect(&from_view), collect(&from_owned));
    }

    /// The survey's min-weight predicate is exact: everything returned passes,
    /// nothing passing is dropped.
    #[test]
    fn survey_threshold_exact((na, np, events) in arb_events(12, 10, 250), cutoff in 1u64..6) {
        let btm = Btm::from_events(na, np, &events);
        let wg = project(&btm, Window::new(0, 200)).to_weighted_graph();
        let oriented = OrientedGraph::from_graph(&wg);
        let report = coordination::tripoll::survey::survey(
            &oriented,
            &coordination::tripoll::SurveyConfig::with_min_weight(cutoff),
            None,
        );
        let mut all = Vec::new();
        coordination::tripoll::enumerate::for_each_triangle(&oriented, |t| all.push(t));
        let expected: usize = all.iter().filter(|t| t.min_weight() >= cutoff).count();
        prop_assert_eq!(report.len(), expected);
        prop_assert!(report.triangles.iter().all(|s| s.min_weight >= cutoff));
        prop_assert_eq!(report.total_examined as usize, all.len());
    }

    /// Adversarial projection input #1: one mega-dense page holding every
    /// event, so the same author pair is generated over and over and the
    /// per-page dedup has to erase that.
    #[test]
    fn mega_dense_page_projects_exactly(
        events in prop::collection::vec((0u32..12, 0i64..400), 1..250),
        w in arb_window(),
    ) {
        let evs: Vec<Event> = events
            .iter()
            .map(|&(a, t)| Event { author: AuthorId(a), page: PageId(0), ts: t })
            .collect();
        assert_matches_definition(&Btm::from_events(12, 1, &evs), &evs, w)?;
    }

    /// Adversarial projection input #2: every comment carries the same
    /// timestamp, so with δ1 = 0 every author pair on a page qualifies and the
    /// candidate stream is maximally duplicate-heavy (the compaction path).
    #[test]
    fn all_equal_timestamps_project_exactly(
        events in prop::collection::vec((0u32..10, 0u32..4), 1..200),
        ts in 0i64..1_000,
    ) {
        let evs: Vec<Event> = events
            .iter()
            .map(|&(a, p)| Event { author: AuthorId(a), page: PageId(p), ts })
            .collect();
        assert_matches_definition(&Btm::from_events(10, 4, &evs), &evs, Window::new(0, 60))?;
    }

    /// Adversarial projection input #3: duplicate (author, ts) rows — the
    /// same author commenting "twice in the same second" on the same page —
    /// must not inflate pair weights (pages are deduped per pair).
    #[test]
    fn duplicate_author_ts_rows_project_exactly(
        base in prop::collection::vec((0u32..8, 0u32..3, 0i64..300), 1..60),
        copies in 1usize..4,
    ) {
        let evs: Vec<Event> = base
            .iter()
            .flat_map(|&(a, p, t)| {
                std::iter::repeat_n(
                    Event { author: AuthorId(a), page: PageId(p), ts: t },
                    copies + 1,
                )
            })
            .collect();
        let btm = Btm::from_events(8, 3, &evs);
        let w = Window::new(0, 45);
        let once = Btm::from_events(
            8,
            3,
            &base
                .iter()
                .map(|&(a, p, t)| Event { author: AuthorId(a), page: PageId(p), ts: t })
                .collect::<Vec<_>>(),
        );
        // duplicates agree with the definition…
        assert_matches_definition(&btm, &evs, w)?;
        // …and change nothing relative to the deduplicated log (δ1 = 0: the
        // duplicate row pairs with its twin at dt = 0, same as with itself —
        // page-level dedup absorbs both).
        prop_assert_eq!(canon(&project(&btm, w)), canon(&project(&once, w)));
    }

    /// The flat BTM is the BTM of the definition — per page the sorted
    /// multiset of `(ts, author)`, per author the sorted distinct pages — for
    /// any arrival order of the same events, with empty slots at both ends of
    /// both id spaces, duplicate rows, equal, negative and extreme
    /// timestamps; and excluding authors in the build ≡ removing them
    /// afterwards ≡ never feeding their events.
    #[test]
    fn flat_btm_matches_the_definition(
        keyed in arb_keyed_events(),
        excluded in prop::collection::vec(0u32..10, 0..4),
    ) {
        let (na, np) = (10, 8);
        let [events, permuted, by_time, reversed] = arrival_orders(&keyed);
        let excluded: Vec<AuthorId> = excluded.into_iter().map(AuthorId).collect();

        let filtered: Vec<Event> = events
            .iter()
            .copied()
            .filter(|e| !excluded.contains(&e.author))
            .collect();
        let (by_page, by_author) = (rows_of(&filtered, np), pages_of(&filtered, na));

        let btm = Btm::build(na, Some(np), &excluded, || events.iter().copied());
        for p in 0..np {
            prop_assert_eq!(&btm.page_neighborhood(PageId(p)).to_vec(), &by_page[p as usize]);
        }
        let authors = AuthorPages::all(&btm);
        for a in 0..na {
            prop_assert_eq!(authors.pages(AuthorId(a)).iter().collect::<Vec<_>>(), by_author[a as usize].clone());
        }
        prop_assert_eq!(btm.n_comments(), filtered.len() as u64);

        for input in [&permuted, &by_time, &reversed] {
            prop_assert_eq!(&Btm::build(na, Some(np), &excluded, || input.iter().copied()), &btm);
        }
        prop_assert_eq!(&Btm::from_events(na, np, &events).without_authors(&excluded), &btm);
        prop_assert_eq!(&Btm::from_events(na, np, &filtered), &btm);
    }

    /// Author pages ≡ the definition, for any subset: whatever authors are
    /// asked for — nobody, everybody, unsorted, repeated, authors who never
    /// commented (0 and 9 never do) — each harvested list is the naive sort +
    /// dedup of that author's pages, nobody else is held, and asking for
    /// everyone is the full transpose of the page side.
    #[test]
    fn author_pages_match_the_definition_for_any_subset(
        keyed in arb_keyed_events(),
        asked in prop::collection::vec(0u32..10, 0..24),
    ) {
        let (na, np) = (10, 8);
        let events: Vec<Event> = keyed.iter().map(keyed_event).collect();
        let by_author = pages_of(&events, na);
        let btm = Btm::from_events(na, np, &events);

        let everyone: Vec<u32> = (0..na).collect();
        for asked in [&asked, &everyone, &Vec::new()] {
            let authors = AuthorPages::harvest(&btm, asked.iter().copied().map(AuthorId));
            let mut distinct = asked.clone();
            distinct.sort_unstable();
            distinct.dedup();
            for &a in &distinct {
                prop_assert_eq!(authors.pages(AuthorId(a)).iter().collect::<Vec<_>>(), by_author[a as usize].clone());
            }
            let held = distinct.iter().map(|&a| by_author[a as usize].len());
            prop_assert_eq!(authors.n_authors() as usize, distinct.len());
            prop_assert_eq!(authors.n_incidences() as usize, held.clone().sum::<usize>());
            prop_assert_eq!(authors.active_authors() as usize, held.filter(|&l| l > 0).count());
        }
    }

    /// One page side, whatever the arrival order: the counting-scatter
    /// builder under `Btm::build` holds the definition's rows, per page the
    /// sorted multiset of `(ts, author)`, in a page space fixed up front or
    /// sized by the source as it is read.
    #[test]
    fn page_rows_match_the_definition(keyed in arb_keyed_events()) {
        let (na, np) = (10, 8);
        let orders = arrival_orders(&keyed);
        let by_page = rows_of(&orders[0], np);
        for input in &orders {
            let source = || input.iter().copied();
            let rows = Btm::build(na, Some(np), &[], source);
            prop_assert_eq!(rows.n_pages(), np);
            // sized by the source instead: the same rows up to its largest page
            let seen = Btm::build(na, None, &[], source);
            let top = input.iter().map(|e| e.page.0 + 1).max().unwrap_or(0);
            prop_assert_eq!(seen.n_pages(), top);
            for p in 0..top {
                prop_assert_eq!(&seen.page_neighborhood(PageId(p)).to_vec(), &by_page[p as usize]);
            }
            prop_assert_eq!(rows.n_comments(), input.len() as u64);
            for p in 0..np {
                prop_assert_eq!(&rows.page_neighborhood(PageId(p)).to_vec(), &by_page[p as usize]);
            }
        }
    }
}
