//! The streaming subsystem's correctness anchor: on any event log, replaying
//! the stream with no retention horizon and closing the window is *exactly*
//! the paper's definition (`definition`) — same CI-graph edges, same weights,
//! same `P'`, and the live triangle set is the definition's survivors. In
//! sliding mode, after every event of a log with ties, `δ1 > 0` and late
//! arrivals, the live state is what the definition recomputed by brute force
//! over the accepted prefix says it is.

mod definition;

use std::collections::BTreeMap;

use proptest::prelude::*;

use coordination::core::ids::{AuthorId, Event, PageId};
use coordination::core::{CiGraph, Window};
use coordination::stream::projector::StreamProjector;
use coordination::stream::triangles::TriangleTracker;

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

fn arb_window() -> impl Strategy<Value = Window> {
    (0i64..100, 1i64..500).prop_map(|(d1, len)| Window::new(d1, d1 + len))
}

/// Stream the events (timestamp order) through a cumulative projector,
/// routing every delta through a triangle tracker at `cutoff`.
fn stream_replay(
    events: &[Event],
    window: Window,
    cutoff: u64,
) -> (StreamProjector, TriangleTracker) {
    let mut projector = StreamProjector::new(window);
    let mut tracker = TriangleTracker::new(cutoff);
    let mut ordered: Vec<&Event> = events.iter().collect();
    ordered.sort_by_key(|e| e.ts);
    for e in ordered {
        for d in projector.ingest(e.author.0, e.page.0, e.ts).to_vec() {
            tracker.apply(&d);
        }
    }
    (projector, tracker)
}

fn canon(g: &CiGraph) -> (Vec<(u32, u32, u64)>, Vec<u64>) {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    (e, g.page_counts().to_vec())
}

/// The definition of `events` under `[d1, d2]`, keeping triangles with
/// `min{w′} ≥ cutoff`.
fn defined(events: &[Event], (d1, d2): (i64, i64), cutoff: u64) -> definition::Definition {
    let comments: Vec<definition::Comment> = events
        .iter()
        .map(|e| (e.author.0, e.page.0, e.ts))
        .collect();
    let params = definition::Params {
        d1,
        d2,
        edge_threshold: 1,
        min_weight: cutoff,
        min_t: 0.0,
    };
    definition::run(&comments, &[], &params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming replay + window close ≡ the definition's `w′` and `P′`,
    /// exactly.
    #[test]
    fn stream_close_equals_batch_projection(
        (na, _np, events) in arb_events(20, 15, 300),
        w in arb_window(),
    ) {
        let want = defined(&events, (w.d1(), w.d2()), u64::MAX);
        let (projector, _) = stream_replay(&events, w, 1);
        let snap = projector.snapshot(na);
        prop_assert_eq!(snap.edges().map(|(x, y, w)| ((x, y), w)).collect::<BTreeMap<_, _>>(), want.w);
        let counts = (0u32..).zip(snap.page_counts().iter().copied());
        prop_assert_eq!(counts.filter(|&(_, n)| n > 0).collect::<BTreeMap<_, _>>(), want.p_prime);
    }

    /// The incrementally-maintained triangle set, each with its min weight,
    /// is the definition's triangles with `min{w′} ≥` the cutoff.
    #[test]
    fn live_triangles_equal_tripoll_enumeration(
        (_na, _np, events) in arb_events(14, 8, 250),
        d2 in 5i64..300,
        cutoff in 1u64..5,
    ) {
        let (_, tracker) = stream_replay(&events, Window::new(0, d2), cutoff);
        let want = defined(&events, (0, d2), cutoff);
        let expect: Vec<([u32; 3], u64)> =
            want.triplets.iter().map(|t| (t.authors, t.w.into_iter().min().unwrap_or(0))).collect();
        let mut live: Vec<([u32; 3], u64)> =
            tracker.iter().map(|t| (t, tracker.min_weight(t).unwrap_or(0))).collect();
        live.sort_unstable();
        prop_assert_eq!(live, expect);
    }

    /// Sliding mode never reports *more* than cumulative mode (expiry only
    /// removes), and with a horizon past the whole log it changes nothing.
    #[test]
    fn sliding_mode_is_a_subset_of_cumulative(
        (na, _np, events) in arb_events(14, 8, 250),
        d2 in 5i64..120,
        horizon_extra in 0i64..400,
    ) {
        let w = Window::new(0, d2);
        let horizon = d2 + horizon_extra;
        let mut sliding = StreamProjector::with_horizon(w, Some(horizon));
        let mut cumulative = StreamProjector::new(w);
        let mut ordered: Vec<&Event> = events.iter().collect();
        ordered.sort_by_key(|e| e.ts);
        for e in &ordered {
            sliding.ingest(e.author.0, e.page.0, e.ts);
            cumulative.ingest(e.author.0, e.page.0, e.ts);
        }
        for (x, y, wt) in sliding.edges() {
            prop_assert!(wt <= cumulative.weight(x, y));
        }
        for a in 0..na {
            prop_assert!(sliding.page_count(a) <= cumulative.page_count(a));
        }
        // a horizon longer than the whole log ⇒ nothing has expired yet
        if let (Some(first), Some(last)) = (ordered.first(), ordered.last()) {
            if horizon >= last.ts - first.ts {
                prop_assert_eq!(
                    canon(&sliding.snapshot(na)),
                    canon(&cumulative.snapshot(na))
                );
            }
        }
    }

    /// The sliding window against its definition, after every event: live
    /// `w′`, live `P′` and the edge table equal a brute-force recomputation
    /// over the accepted prefix; each call's −1 deltas are exactly the
    /// contributions that lapsed, in ascending `(due, page, pair)` order and
    /// ahead of its +1s; the running sum of deltas is the edge table; a late
    /// event changes nothing and is counted.
    #[test]
    fn sliding_window_matches_the_definition_after_every_event(
        (na, arrivals) in arb_arrivals(150),
        (d1, len) in (0i64..20, 1i64..80),
        (mode, extra) in (0u8..3, 0i64..150),
    ) {
        let w = Window::new(d1, d1 + len);
        let h = match mode {
            0 => None,
            1 => Some(w.d2()),
            _ => Some(w.d2() + extra),
        };
        let mut projector = StreamProjector::with_horizon(w, h);
        let mut accepted: Vec<Event> = Vec::new();
        let mut before = BTreeMap::new();
        let mut sum: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut late = 0u64;
        for e in &arrivals {
            let deltas = projector.ingest(e.author.0, e.page.0, e.ts).to_vec();
            if accepted.last().is_some_and(|prev| e.ts < prev.ts) {
                late += 1;
                prop_assert!(deltas.is_empty());
            } else {
                let mut lapsed: Vec<(i64, u32, u32, u32)> = before
                    .iter()
                    .filter_map(|(&(page, x, y), &t)| {
                        let due = t + h?;
                        (due < e.ts).then_some((due, page, x, y))
                    })
                    .collect();
                lapsed.sort_unstable();
                let retracted: Vec<(u32, u32)> = deltas
                    .iter()
                    .take_while(|d| d.delta < 0)
                    .map(|d| d.pair())
                    .collect();
                let want: Vec<(u32, u32)> = lapsed.iter().map(|&(_, _, x, y)| (x, y)).collect();
                prop_assert_eq!(retracted, want);
                prop_assert!(deltas[lapsed.len()..].iter().all(|d| d.delta == 1));
                accepted.push(*e);
            }
            for d in &deltas {
                let s = sum.entry(d.pair()).or_insert(0);
                *s = s.checked_add_signed(d.delta.into()).expect("a weight below zero");
                prop_assert_eq!(*s, d.new_weight);
            }
            sum.retain(|_, s| *s > 0);

            let now = accepted.last().map_or(0, |e| e.ts);
            let live = live_support(&accepted, w, h, now);
            let mut table: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            let mut pages_of = vec![std::collections::BTreeSet::new(); na as usize];
            for &(page, x, y) in live.keys() {
                *table.entry((x, y)).or_insert(0) += 1;
                pages_of[x as usize].insert(page);
                pages_of[y as usize].insert(page);
            }
            for x in 0..na {
                prop_assert_eq!(projector.page_count(x), pages_of[x as usize].len() as u64);
                for y in x + 1..na {
                    let want = table.get(&(x, y)).copied().unwrap_or(0);
                    prop_assert_eq!(projector.weight(x, y), want);
                }
            }
            let mut edges: Vec<(u32, u32, u64)> = projector.edges().collect();
            edges.sort_unstable();
            let want: Vec<(u32, u32, u64)> = table.iter().map(|(&(x, y), &w)| (x, y, w)).collect();
            prop_assert_eq!(&edges, &want);
            let summed: Vec<(u32, u32, u64)> = sum.iter().map(|(&(x, y), &w)| (x, y, w)).collect();
            prop_assert_eq!(&summed, &want);
            before = live;
        }
        prop_assert_eq!(projector.dropped_late(), late);
    }
}

/// An arrival order over few authors, pages and timestamps (ties are
/// common): sorted by time, then some neighbours swapped, so the later of a
/// swapped pair arrives late.
fn arb_arrivals(max_events: usize) -> impl Strategy<Value = (u32, Vec<Event>)> {
    (2u32..8, 1u32..5)
        .prop_flat_map(move |(na, np)| {
            let ev = (0..na, 0..np, 0i64..400).prop_map(|(a, p, t)| Event {
                author: AuthorId(a),
                page: PageId(p),
                ts: t,
            });
            (
                Just(na),
                prop::collection::vec(ev, 0..max_events),
                prop::collection::vec(0u8..10, max_events),
            )
        })
        .prop_map(|(na, mut events, swaps)| {
            events.sort_by_key(|e| e.ts);
            for i in (1..events.len()).filter(|&i| swaps[i] == 0) {
                events.swap(i - 1, i);
            }
            (na, events)
        })
}

/// The definition, by brute force over a time-ordered prefix: for each
/// `(page, x, y)`, the latest `t` of a qualifying pair on the page —
/// comments `(a, t′)` before `(b, t)` with `{a, b} = {x, y}`, `a ≠ b` and
/// `δ1 ≤ t − t′ ≤ δ2` — kept while `t + h ≥ now`.
fn live_support(
    prefix: &[Event],
    w: Window,
    h: Option<i64>,
    now: i64,
) -> BTreeMap<(u32, u32, u32), i64> {
    let mut last = BTreeMap::new();
    for (j, b) in prefix.iter().enumerate() {
        for a in &prefix[..j] {
            let dt = b.ts - a.ts;
            if a.page == b.page && a.author != b.author && w.d1() <= dt && dt <= w.d2() {
                let (x, y) = (a.author.0.min(b.author.0), a.author.0.max(b.author.0));
                let t = last.entry((b.page.0, x, y)).or_insert(b.ts);
                *t = (*t).max(b.ts);
            }
        }
    }
    last.retain(|_, &mut t| h.is_none_or(|h| t + h >= now));
    last
}
