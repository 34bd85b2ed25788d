//! Sliding-window incremental projection of the CI graph.
//!
//! The batch projector (`coordination_core::project`) scans each page's
//! sorted comment list once and dedups author pairs into a set. This module
//! computes the same `w'` / `P'` quantities *online*: comments arrive in
//! timestamp order, each arrival pairs backwards against a per-page buffer of
//! recent comments, and every change to an edge weight is surfaced as an
//! [`EdgeDelta`] so downstream structures (the triangle tracker) can update
//! without rescanning the graph.
//!
//! Two operating modes:
//!
//! * **Cumulative** (`horizon = None`): page contributions never expire.
//!   After ingesting an entire event log, [`StreamProjector::snapshot`] is
//!   *bit-identical* to the batch projection of the same events — the
//!   equivalence test in the workspace root pins this.
//! * **Sliding** (`horizon = Some(h)`): a page's contribution to `w'_{xy}`
//!   expires once stream time moves more than `h` seconds past the pair's
//!   most recent qualifying interaction on that page, emitting a −1 delta.
//!   `P'` shrinks in step via per-(page, author) refcounts. This is the
//!   "live" mode: old coordination decays instead of accumulating forever.
//!
//! Events must arrive with non-decreasing timestamps (ties allowed in any
//! order — pair keys are unordered, so arrival order within a timestamp does
//! not change the result). Replaying a real out-of-order firehose requires a
//! reorder buffer in front of the projector; the [`crate::source`] replays
//! sort up front.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use coordination_core::btm::Btm;
use coordination_core::cigraph::CiGraph;
use coordination_core::ids::Timestamp;
use coordination_core::project::{delay_within, page_pairs_flat, unpack_pair};
use coordination_core::window::Window;

/// An unordered author pair, stored as `(min, max)`.
type Pair = (u32, u32);

/// A ±1 change to one CI-graph edge weight, emitted by
/// [`StreamProjector::ingest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Smaller endpoint author id.
    pub x: u32,
    /// Larger endpoint author id.
    pub y: u32,
    /// The edge's weight *after* applying this delta (0 means the edge just
    /// vanished).
    pub new_weight: u64,
    /// +1 (a page began supporting the pair) or −1 (a page contribution
    /// expired).
    pub delta: i8,
}

impl EdgeDelta {
    /// The unordered pair key.
    #[inline]
    pub fn pair(&self) -> Pair {
        (self.x, self.y)
    }
}

/// Incremental windowed projector: BTM events in, CI-graph edge deltas out.
///
/// State per page: a time-ordered buffer of the comments still within `δ2`
/// of the page's newest comment (older ones can never pair with a future
/// arrival, so they are pruned on each arrival). State per (page, pair): the
/// timestamp of the most recent qualifying interaction, whose presence means
/// the page currently contributes +1 to `w'` for that pair. `P'_x` is
/// maintained through a per-(page, author) count of supported pairs incident
/// to `x` — the page counts toward `P'_x` exactly while that count is > 0.
#[derive(Debug)]
pub struct StreamProjector {
    window: Window,
    horizon: Option<i64>,
    /// Stream clock: max timestamp ingested so far.
    now: Timestamp,
    started: bool,
    /// 1 + max author id seen.
    n_authors: u32,
    /// Per-page recent comments, time-ordered (oldest front).
    buffers: HashMap<u32, VecDeque<(Timestamp, u32)>>,
    /// (page, pair) → timestamp of the latest qualifying interaction.
    /// Presence ⇔ the page currently supports the pair.
    support: HashMap<(u32, Pair), Timestamp>,
    /// Live edge weights `w'` (number of supporting pages per pair).
    edges: HashMap<Pair, u64>,
    /// (page, author) → number of supported pairs on `page` incident to
    /// `author`; transitions 0↔1 move `P'`.
    incident: HashMap<(u32, u32), u32>,
    /// Dense `P'` indexed by author id (grows as authors appear).
    page_counts: Vec<u64>,
    /// Lazy expiry queue: (candidate expiry time, page, pair). Entries are
    /// validated against `support` when popped, so refreshed pairs cost one
    /// stale pop instead of a decrease-key.
    expiry: BinaryHeap<Reverse<(Timestamp, u32, Pair)>>,
    /// Deltas scratch, drained into the caller's sink each ingest.
    scratch: Vec<EdgeDelta>,
}

impl StreamProjector {
    /// A cumulative projector (no expiry) — exact batch equivalence at close.
    pub fn new(window: Window) -> Self {
        Self::with_horizon(window, None)
    }

    /// A projector whose page contributions expire `horizon` seconds after
    /// the pair's last qualifying interaction on the page. `horizon` must be
    /// ≥ `δ2` when present: a shorter horizon would expire a contribution
    /// while comments that refresh it are still arriving.
    pub fn with_horizon(window: Window, horizon: Option<i64>) -> Self {
        if let Some(h) = horizon {
            assert!(
                h >= window.d2(),
                "retention horizon ({h}s) must cover the projection window (δ2 = {}s)",
                window.d2()
            );
        }
        StreamProjector {
            window,
            horizon,
            now: Timestamp::MIN,
            started: false,
            n_authors: 0,
            buffers: HashMap::new(),
            support: HashMap::new(),
            edges: HashMap::new(),
            incident: HashMap::new(),
            page_counts: Vec::new(),
            expiry: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// Warm-start a **cumulative** projector from an already-materialised
    /// BTM: the result is state-equivalent to ingesting every BTM event one
    /// at a time, but is built with the batch flat kernel
    /// ([`coordination_core::project::page_pairs_flat`]) — one sort+dedup
    /// pass per page instead of a backward pairing scan per event. Use it to
    /// bootstrap a live projector from a historical log before switching to
    /// per-event ingestion; subsequent [`ingest`](Self::ingest) timestamps
    /// must be ≥ the BTM's newest event, as always.
    pub fn warm_start(window: Window, btm: &Btm) -> Self {
        let mut p = Self::new(window);
        let mut pairs: Vec<u64> = Vec::new();
        for (pid, comments) in btm.pages() {
            let page = pid.0;
            let (last_ts, _) = comments
                .iter()
                .next_back()
                .expect("pages() yields non-empty pages");
            if !p.started || last_ts > p.now {
                p.now = last_ts;
            }
            p.started = true;
            for (_, a) in comments.iter() {
                if p.n_authors <= a.0 {
                    p.n_authors = a.0 + 1;
                }
            }
            // The recent buffer is exactly what per-event pruning would have
            // left: comments still within δ2 of the page's own newest
            // arrival (stale pages keep their tail — pruning only ever
            // happens on an arrival to the same page).
            let recent = comments
                .iter()
                .skip_while(|&(t, _)| delay_within(t, last_ts, window.d2()).is_none());
            p.buffers
                .insert(page, recent.map(|(t, a)| (t, a.0)).collect());
            // Supported pairs via the shared flat kernel. Cumulative mode
            // never reads the support timestamp (only presence matters, and
            // nothing expires), so the page's newest comment stands in for
            // the pair's last qualifying interaction.
            page_pairs_flat(comments, &window, &mut pairs);
            for &packed in &pairs {
                let pair = unpack_pair(packed);
                p.support.insert((page, pair), last_ts);
                *p.edges.entry(pair).or_insert(0) += 1;
                for a in [pair.0, pair.1] {
                    *p.incident.entry((page, a)).or_insert(0) += 1;
                }
            }
        }
        p.page_counts = vec![0; p.n_authors as usize];
        for &(_, a) in p.incident.keys() {
            p.page_counts[a as usize] += 1;
        }
        p
    }

    /// [`StreamProjector::warm_start`] straight from an opened on-disk
    /// snapshot: the BTM streams out of the mapped event columns
    /// ([`coordination_core::snapshot::btm_from_snapshot`]), so bootstrapping
    /// a live projector from a historical archive never materializes the
    /// archive's dataset — only the projector's own state is resident.
    pub fn warm_start_snapshot(window: Window, snap: &coordination_core::store::Snapshot) -> Self {
        Self::warm_start(
            window,
            &coordination_core::snapshot::btm_from_snapshot(snap, &[]),
        )
    }

    /// The projection window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The retention horizon, if sliding.
    pub fn horizon(&self) -> Option<i64> {
        self.horizon
    }

    /// Stream time: the newest timestamp ingested, or `None` before the
    /// first event.
    pub fn now(&self) -> Option<Timestamp> {
        self.started.then_some(self.now)
    }

    /// 1 + the largest author id seen so far.
    pub fn n_authors_seen(&self) -> u32 {
        self.n_authors
    }

    /// Number of live edges (pairs with `w' ≥ 1`).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Current weight of an edge (0 if absent).
    pub fn weight(&self, x: u32, y: u32) -> u64 {
        self.edges.get(&(x.min(y), x.max(y))).copied().unwrap_or(0)
    }

    /// Current `P'_x` (0 for authors not yet seen).
    pub fn page_count(&self, x: u32) -> u64 {
        self.page_counts.get(x as usize).copied().unwrap_or(0)
    }

    /// Dense `P'` for the authors seen so far.
    pub fn page_counts(&self) -> &[u64] {
        &self.page_counts
    }

    /// Ingest one event and return the edge deltas it caused (expiries the
    /// event's timestamp triggered, then any +1 from the event itself). The
    /// returned slice is valid until the next `ingest` call.
    ///
    /// # Panics
    ///
    /// If `ts` precedes an already-ingested timestamp.
    pub fn ingest(&mut self, author: u32, page: u32, ts: Timestamp) -> &[EdgeDelta] {
        self.ingest_with_page_counts(author, page, ts).0
    }

    /// [`ingest`](Self::ingest), returning the deltas together with the
    /// dense `P'` as the event left it — what a consumer scoring each delta
    /// needs, without copying the deltas out to look at `P'`.
    ///
    /// # Panics
    ///
    /// If `ts` precedes an already-ingested timestamp.
    pub fn ingest_with_page_counts(
        &mut self,
        author: u32,
        page: u32,
        ts: Timestamp,
    ) -> (&[EdgeDelta], &[u64]) {
        assert!(
            !self.started || ts >= self.now,
            "out-of-order event: ts {ts} after stream time {} — sort the source first",
            self.now
        );
        self.now = ts;
        self.started = true;
        self.scratch.clear();

        if self.n_authors <= author {
            self.n_authors = author + 1;
            self.page_counts.resize(self.n_authors as usize, 0);
        }

        // 1. Retire page contributions whose horizon has lapsed.
        self.expire_until(ts);

        // 2. Pair the arrival against the page's recent comments.
        let buffer = self.buffers.entry(page).or_default();
        while let Some(&(t_old, _)) = buffer.front() {
            if delay_within(t_old, ts, self.window.d2()).is_some() {
                break;
            }
            buffer.pop_front();
        }
        let (d1, horizon) = (self.window.d1(), self.horizon);
        for &(t_old, a_old) in buffer.iter() {
            // Everything left in the buffer is within δ2 (so the difference
            // cannot overflow); enforce δ1 and skip self-pairs (same account
            // commenting twice).
            if ts - t_old < d1 || a_old == author {
                continue;
            }
            let pair = (a_old.min(author), a_old.max(author));
            match self.support.insert((page, pair), ts) {
                Some(_) => {} // refreshed: page already supports this pair
                None => {
                    let w = self.edges.entry(pair).or_insert(0);
                    *w += 1;
                    self.scratch.push(EdgeDelta {
                        x: pair.0,
                        y: pair.1,
                        new_weight: *w,
                        delta: 1,
                    });
                    for a in [pair.0, pair.1] {
                        let r = self.incident.entry((page, a)).or_insert(0);
                        *r += 1;
                        if *r == 1 {
                            self.page_counts[a as usize] += 1;
                        }
                    }
                }
            }
            if let Some(h) = horizon {
                self.expiry
                    .push(Reverse((ts.saturating_add(h), page, pair)));
            }
        }
        buffer.push_back((ts, author));

        (&self.scratch, &self.page_counts)
    }

    /// Advance the stream clock without an event (e.g. a timer tick in a
    /// live deployment), expiring lapsed contributions. No-op in cumulative
    /// mode. Returns the −1 deltas.
    pub fn advance_to(&mut self, ts: Timestamp) -> &[EdgeDelta] {
        assert!(
            !self.started || ts >= self.now,
            "cannot advance stream time backwards ({ts} < {})",
            self.now
        );
        self.now = ts;
        self.started = true;
        self.scratch.clear();
        self.expire_until(ts);
        &self.scratch
    }

    fn expire_until(&mut self, now: Timestamp) {
        let Some(h) = self.horizon else { return };
        while let Some(&Reverse((due, page, pair))) = self.expiry.peek() {
            if due >= now {
                break;
            }
            self.expiry.pop();
            // Stale entry if the pair was refreshed (or already expired):
            // only act when the recorded last interaction matches this due
            // time.
            match self.support.get(&(page, pair)) {
                Some(&last) if last.saturating_add(h) == due => {}
                _ => continue,
            }
            self.support.remove(&(page, pair));
            let w = self
                .edges
                .get_mut(&pair)
                .expect("supported pair must have an edge");
            *w -= 1;
            let new_weight = *w;
            if new_weight == 0 {
                self.edges.remove(&pair);
            }
            self.scratch.push(EdgeDelta {
                x: pair.0,
                y: pair.1,
                new_weight,
                delta: -1,
            });
            for a in [pair.0, pair.1] {
                let r = self
                    .incident
                    .get_mut(&(page, a))
                    .expect("supported pair must be refcounted");
                *r -= 1;
                if *r == 0 {
                    self.incident.remove(&(page, a));
                    self.page_counts[a as usize] -= 1;
                }
            }
        }
    }

    /// Materialise the current CI graph. `n_authors` must cover every author
    /// id the stream has produced (pass the interner length so the snapshot
    /// aligns with a batch projection of the same dataset).
    pub fn snapshot(&self, n_authors: u32) -> CiGraph {
        assert!(
            n_authors >= self.n_authors,
            "snapshot over {n_authors} authors but ids up to {} were seen",
            self.n_authors
        );
        let mut page_counts = self.page_counts.clone();
        page_counts.resize(n_authors as usize, 0);
        // straight to CSR: the live edge table is drained by iteration, with
        // no intermediate HashMap clone
        CiGraph::from_weighted_edges(n_authors, self.edges(), page_counts)
    }

    /// Iterate the live edges as `(x, y, w')` with `x < y`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.edges.iter().map(|(&(x, y), &w)| (x, y, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coordination_core::btm::Btm;
    use coordination_core::ids::{AuthorId, Event, PageId};
    use coordination_core::project;

    fn drive(events: &[(u32, u32, Timestamp)], window: Window) -> StreamProjector {
        let mut p = StreamProjector::new(window);
        let mut sorted = events.to_vec();
        sorted.sort_by_key(|&(_, _, t)| t);
        for &(a, pg, t) in &sorted {
            p.ingest(a, pg, t);
        }
        p
    }

    #[test]
    fn pair_within_window_creates_edge() {
        let p = drive(&[(0, 0, 100), (1, 0, 130)], Window::new(0, 60));
        assert_eq!(p.weight(0, 1), 1);
        assert_eq!(p.page_count(0), 1);
        assert_eq!(p.page_count(1), 1);
    }

    #[test]
    fn pair_outside_window_is_ignored() {
        let p = drive(&[(0, 0, 100), (1, 0, 200)], Window::new(0, 60));
        assert_eq!(p.weight(0, 1), 0);
        assert_eq!(p.n_edges(), 0);
        assert_eq!(p.page_count(0), 0);
    }

    #[test]
    fn d1_lower_bound_is_enforced() {
        // dt = 5 < δ1 = 10: no pair; dt = 10 qualifies (inclusive).
        let p = drive(&[(0, 0, 100), (1, 0, 105)], Window::new(10, 60));
        assert_eq!(p.weight(0, 1), 0);
        let q = drive(&[(0, 0, 100), (1, 0, 110)], Window::new(10, 60));
        assert_eq!(q.weight(0, 1), 1);
    }

    #[test]
    fn page_supports_a_pair_once() {
        // Four interleaved comments by the same two accounts on one page:
        // still w' = 1 (pages are deduped, Algorithm 1's HashSet).
        let p = drive(
            &[(0, 0, 100), (1, 0, 110), (0, 0, 120), (1, 0, 130)],
            Window::new(0, 60),
        );
        assert_eq!(p.weight(0, 1), 1);
        assert_eq!(p.page_count(0), 1);
    }

    #[test]
    fn weight_counts_pages_not_interactions() {
        let p = drive(
            &[(0, 0, 100), (1, 0, 110), (0, 1, 500), (1, 1, 510)],
            Window::new(0, 60),
        );
        assert_eq!(p.weight(0, 1), 2);
        assert_eq!(p.page_count(0), 2);
        assert_eq!(p.page_count(1), 2);
    }

    #[test]
    fn self_interactions_never_project() {
        let p = drive(&[(3, 0, 100), (3, 0, 110)], Window::new(0, 60));
        assert_eq!(p.n_edges(), 0);
    }

    #[test]
    fn deltas_fire_on_first_support_only() {
        let mut p = StreamProjector::new(Window::new(0, 60));
        assert!(p.ingest(0, 0, 100).is_empty());
        let d = p.ingest(1, 0, 110).to_vec();
        assert_eq!(
            d,
            vec![EdgeDelta {
                x: 0,
                y: 1,
                new_weight: 1,
                delta: 1
            }]
        );
        // same page, same pair again: no delta
        assert!(p.ingest(0, 0, 120).is_empty());
        // new page lifts the weight to 2
        p.ingest(0, 1, 500);
        let d = p.ingest(1, 1, 520).to_vec();
        assert_eq!(
            d,
            vec![EdgeDelta {
                x: 0,
                y: 1,
                new_weight: 2,
                delta: 1
            }]
        );
    }

    #[test]
    fn expiry_emits_negative_deltas_and_shrinks_p_prime() {
        let mut p = StreamProjector::with_horizon(Window::new(0, 60), Some(100));
        p.ingest(0, 0, 100);
        p.ingest(1, 0, 110); // pair supported, last interaction at 110
        assert_eq!(p.weight(0, 1), 1);
        assert_eq!(p.page_count(0), 1);
        // 110 + 100 = 210: contribution lives through stream time 210 …
        assert!(p.advance_to(210).is_empty());
        assert_eq!(p.weight(0, 1), 1);
        // … and lapses the tick after.
        let d = p.advance_to(211).to_vec();
        assert_eq!(
            d,
            vec![EdgeDelta {
                x: 0,
                y: 1,
                new_weight: 0,
                delta: -1
            }]
        );
        assert_eq!(p.weight(0, 1), 0);
        assert_eq!(p.page_count(0), 0);
        assert_eq!(p.page_count(1), 0);
        assert_eq!(p.n_edges(), 0);
    }

    #[test]
    fn extreme_timestamps_neither_pair_nor_overflow() {
        // One page spanning the whole `i64` range: every delay overflows or
        // dwarfs δ2 except the last pair's, whose expiry deadline saturates
        // instead of wrapping and so never comes due.
        let window = Window::new(0, 60);
        let mut p = StreamProjector::with_horizon(window, Some(100));
        assert!(p.ingest(0, 0, i64::MIN).is_empty());
        assert!(p.ingest(1, 0, 5).is_empty());
        assert!(p.ingest(2, 0, i64::MAX - 1).is_empty());
        assert_eq!(p.ingest(3, 0, i64::MAX).len(), 1);
        assert!(p.advance_to(i64::MAX).is_empty());
        assert_eq!((p.n_edges(), p.weight(2, 3)), (1, 1));

        let events: Vec<Event> = [i64::MIN, 5, i64::MAX - 1, i64::MAX]
            .iter()
            .enumerate()
            .map(|(a, &ts)| Event::new(AuthorId(a as u32), PageId(0), ts))
            .collect();
        let warm = StreamProjector::warm_start(window, &Btm::from_events(4, 1, &events));
        assert_eq!((warm.n_edges(), warm.weight(2, 3)), (1, 1));
    }

    #[test]
    fn refreshed_pairs_outlive_their_first_expiry() {
        let mut p = StreamProjector::with_horizon(Window::new(0, 60), Some(100));
        p.ingest(0, 0, 100);
        p.ingest(1, 0, 110);
        // refresh the interaction at t=150 (same page, same pair)
        p.ingest(0, 0, 150);
        // the original 110+100=210 deadline must not fire…
        assert!(p.advance_to(230).is_empty());
        assert_eq!(p.weight(0, 1), 1);
        // …but the refreshed 150+100=250 one does.
        let d = p.advance_to(260).to_vec();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].delta, -1);
        assert_eq!(p.weight(0, 1), 0);
    }

    #[test]
    fn expiry_only_drops_the_lapsed_page_contribution() {
        let mut p = StreamProjector::with_horizon(Window::new(0, 60), Some(100));
        p.ingest(0, 0, 100);
        p.ingest(1, 0, 110); // page 0 supports (0,1), deadline 210
        p.ingest(0, 1, 300);
        p.ingest(1, 1, 310); // page 1 supports (0,1), deadline 410
                             // page 0's contribution lapsed when stream time reached 300 — the
                             // ingest at 300 already expired it.
        assert_eq!(p.weight(0, 1), 1);
        assert_eq!(p.page_count(0), 1);
        let d = p.advance_to(411).to_vec();
        assert_eq!(
            d,
            vec![EdgeDelta {
                x: 0,
                y: 1,
                new_weight: 0,
                delta: -1
            }]
        );
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_events_panic() {
        let mut p = StreamProjector::new(Window::new(0, 60));
        p.ingest(0, 0, 100);
        p.ingest(1, 0, 50);
    }

    #[test]
    #[should_panic(expected = "must cover the projection window")]
    fn horizon_shorter_than_window_rejected() {
        StreamProjector::with_horizon(Window::new(0, 600), Some(60));
    }

    #[test]
    fn cumulative_snapshot_matches_batch_projection() {
        // A small deliberately gnarly log: duplicate timestamps, repeat
        // authors, pairs straddling the window edge.
        let events = vec![
            (0u32, 0u32, 100i64),
            (1, 0, 100), // dt = 0 pairs (δ1 = 0)
            (2, 0, 160), // dt 60 from both: inclusive upper bound
            (3, 0, 161), // dt 61 from 0/1: out; dt 1 from 2: in
            (0, 1, 500),
            (2, 1, 540),
            (0, 1, 560), // same pair again on page 1
            (4, 2, 900), // lonely author on its own page
        ];
        let window = Window::new(0, 60);
        let p = drive(&events, window);

        let evs: Vec<Event> = events
            .iter()
            .map(|&(a, g, t)| Event::new(AuthorId(a), PageId(g), t))
            .collect();
        let btm = Btm::from_events(5, 3, &evs);
        let batch = project::project(&btm, window);
        let snap = p.snapshot(5);
        assert_eq!(snap.n_edges(), batch.n_edges());
        for (x, y, w) in batch.edges() {
            assert_eq!(snap.weight(AuthorId(x), AuthorId(y)), w, "edge ({x},{y})");
        }
        assert_eq!(snap.page_counts(), batch.page_counts());
    }

    #[test]
    fn warm_start_matches_batch_and_incremental() {
        let events = vec![
            (0u32, 0u32, 100i64),
            (1, 0, 100),
            (2, 0, 160),
            (3, 0, 161),
            (0, 1, 500),
            (2, 1, 540),
            (0, 1, 560),
            (4, 2, 900),
        ];
        let window = Window::new(0, 60);
        let evs: Vec<Event> = events
            .iter()
            .map(|&(a, g, t)| Event::new(AuthorId(a), PageId(g), t))
            .collect();
        let btm = Btm::from_events(5, 3, &evs);
        let warm = StreamProjector::warm_start(window, &btm);
        let batch = project::project(&btm, window);
        let snap = warm.snapshot(5);
        assert_eq!(snap.n_edges(), batch.n_edges());
        for (x, y, w) in batch.edges() {
            assert_eq!(snap.weight(AuthorId(x), AuthorId(y)), w, "edge ({x},{y})");
        }
        assert_eq!(snap.page_counts(), batch.page_counts());

        // State equivalence, not just snapshot equivalence: the incremental
        // drive of the same log must agree field-for-field on the queryable
        // surface.
        let inc = drive(&events, window);
        assert_eq!(warm.n_edges(), inc.n_edges());
        assert_eq!(warm.now(), inc.now());
    }

    #[test]
    fn warm_start_snapshot_matches_warm_start() {
        let events = vec![
            (0u32, 0u32, 100i64),
            (1, 0, 100),
            (2, 0, 160),
            (3, 0, 161),
            (0, 1, 500),
            (2, 1, 540),
            (0, 1, 560),
            (4, 2, 900),
        ];
        let window = Window::new(0, 60);
        let evs: Vec<Event> = events
            .iter()
            .map(|&(a, g, t)| Event::new(AuthorId(a), PageId(g), t))
            .collect();
        let btm = Btm::from_events(5, 3, &evs);

        let mut w = coordination_core::store::SnapshotWriter::new();
        let authors: Vec<String> = (0..5).map(|i| format!("a{i}")).collect();
        let pages: Vec<String> = (0..3).map(|i| format!("p{i}")).collect();
        w.authors(authors.iter().map(String::as_str));
        w.pages(pages.iter().map(String::as_str));
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(_, _, t)| t);
        w.events(&sorted).unwrap();
        let disk = coordination_core::store::Snapshot::from_bytes(w.to_bytes().unwrap()).unwrap();

        let from_btm = StreamProjector::warm_start(window, &btm);
        let from_snap = StreamProjector::warm_start_snapshot(window, &disk);
        assert_eq!(from_btm.n_edges(), from_snap.n_edges());
        assert_eq!(from_btm.now(), from_snap.now());
        let a = from_btm.snapshot(5);
        let b = from_snap.snapshot(5);
        for (x, y, w) in a.edges() {
            assert_eq!(b.weight(AuthorId(x), AuthorId(y)), w, "edge ({x},{y})");
        }
        assert_eq!(a.n_edges(), b.n_edges());
        assert_eq!(a.page_counts(), b.page_counts());
    }

    #[test]
    fn warm_start_then_ingest_matches_full_drive() {
        // Split a log mid-page so the warm-started buffers matter: the
        // suffix events pair with prefix comments still inside δ2.
        let events = vec![
            (0u32, 0u32, 100i64),
            (1, 0, 110),
            (0, 1, 200),
            (2, 0, 150), // prefix ends here (sorted order: 100,110,150,200)
            (3, 0, 205), // pairs with (2,0,150) across the split
            (1, 1, 230), // pairs with (0,1,200) across the split
            (4, 2, 300),
            (0, 2, 350),
        ];
        let window = Window::new(0, 60);
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(_, _, t)| t);
        let (prefix, suffix) = sorted.split_at(4);

        let evs: Vec<Event> = prefix
            .iter()
            .map(|&(a, g, t)| Event::new(AuthorId(a), PageId(g), t))
            .collect();
        let btm = Btm::from_events(5, 3, &evs);
        let mut warm = StreamProjector::warm_start(window, &btm);
        for &(a, g, t) in suffix {
            warm.ingest(a, g, t);
        }

        let full = drive(&events, window);
        assert_eq!(warm.n_edges(), full.n_edges());
        let warm_snap = warm.snapshot(5);
        let full_snap = full.snapshot(5);
        for (x, y, w) in full_snap.edges() {
            assert_eq!(
                warm_snap.weight(AuthorId(x), AuthorId(y)),
                w,
                "edge ({x},{y})"
            );
        }
        assert_eq!(warm_snap.page_counts(), full_snap.page_counts());
    }

    #[test]
    fn equal_timestamp_arrival_order_is_irrelevant() {
        let window = Window::new(0, 60);
        let a = drive(&[(0, 0, 100), (1, 0, 100), (2, 0, 100)], window);
        let b = drive(&[(2, 0, 100), (0, 0, 100), (1, 0, 100)], window);
        for (x, y) in [(0, 1), (0, 2), (1, 2)] {
            assert_eq!(a.weight(x, y), 1);
            assert_eq!(a.weight(x, y), b.weight(x, y));
        }
    }
}
