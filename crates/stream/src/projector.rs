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
//! Events arrive with non-decreasing timestamps (ties allowed in any order —
//! pair keys are unordered, so arrival order within a timestamp does not
//! change the result). An event stamped before stream time is *late*: it
//! changes no state, yields no deltas and is counted in
//! [`StreamProjector::dropped_late`]. Replaying a real out-of-order firehose
//! without losses requires a reorder buffer in front of the projector; the
//! [`crate::source`] replays sort up front.
//!
//! # Per-event state
//!
//! Each structure is chosen from a property the ingest path guarantees:
//!
//! * **Expiry is a FIFO.** Stream time never moves backwards (late events are
//!   dropped, not applied) and the horizon is fixed, so the due time
//!   `ts + h` is non-decreasing in push order and the lapsed entries
//!   (`due < now`) are always a prefix of the queue. Retiring them sorts
//!   only that prefix by `(due, page, pair)`: ties in `due` were pushed in
//!   buffer order, and the sort puts them in the order a min-heap of the
//!   same entries pops them, so −1 deltas — and every alert downstream of
//!   them — come out as they would from a priority queue, for a push and a
//!   pop per entry instead of O(log n) cache misses.
//! * **Page buffers are indexed by page id**, dense like `P'`.
//! * **Id-keyed maps hash with [`IdHash`](coordination_core::ids::IdHash)**
//!   over packed keys (`support`: page above pair in a `u128`; `edges`: the
//!   packed pair; `incident`: page above author): one or two keyed
//!   multiplies per probe instead of SipHash, under a random per-map secret,
//!   so ids an outsider picks still cannot be crafted onto one probe chain.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use coordination_core::btm::Btm;
use coordination_core::cigraph::CiGraph;
use coordination_core::ids::{IdMap, Timestamp};
use coordination_core::project::{delay_within, pack_pair, page_pairs_flat, unpack_pair};
use coordination_core::window::Window;

/// An unordered author pair, stored as `(min, max)`.
type Pair = (u32, u32);

/// An expiry entry: `(due, page, packed pair)`.
type Expiry = (Timestamp, u32, u64);

/// The `support` key of a packed pair on a page.
#[inline]
fn support_key(page: u32, pair: u64) -> u128 {
    u128::from(page) << 64 | u128::from(pair)
}

/// The `incident` key of an author on a page.
#[inline]
fn incident_key(page: u32, author: u32) -> u64 {
    u64::from(page) << 32 | u64::from(author)
}

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
    /// Recent comments by page id, time-ordered (oldest front); grown as
    /// pages appear.
    buffers: Vec<VecDeque<(Timestamp, u32)>>,
    /// `support_key(page, pair)` → timestamp of the latest qualifying
    /// interaction. Presence ⇔ the page currently supports the pair.
    support: IdMap<u128, Timestamp>,
    /// Live edge weights `w'` (number of supporting pages) by packed pair.
    edges: IdMap<u64, u64>,
    /// `incident_key(page, author)` → number of supported pairs on `page`
    /// incident to `author`; transitions 0↔1 move `P'`.
    incident: IdMap<u64, u32>,
    /// Dense `P'` indexed by author id (grows as authors appear).
    page_counts: Vec<u64>,
    /// Lazy expiry FIFO, `due` non-decreasing front to back. Entries are
    /// checked against `support` when they lapse, so a refreshed pair costs
    /// one stale entry instead of a decrease-key.
    expiry: VecDeque<Expiry>,
    /// The lapsed prefix of `expiry` being retired (reused buffer).
    retiring: Vec<Expiry>,
    /// Deltas scratch, drained into the caller's sink each ingest.
    scratch: Vec<EdgeDelta>,
    /// Late events dropped so far.
    dropped_late: u64,
    /// Lapsed expiry entries whose pair had been refreshed or retired.
    expiry_stale: u64,
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
            buffers: Vec::new(),
            support: IdMap::default(),
            edges: IdMap::default(),
            incident: IdMap::default(),
            page_counts: Vec::new(),
            expiry: VecDeque::new(),
            retiring: Vec::new(),
            scratch: Vec::new(),
            dropped_late: 0,
            expiry_stale: 0,
        }
    }

    /// Warm-start a **cumulative** projector from an already-materialised
    /// BTM: the result is state-equivalent to ingesting every BTM event one
    /// at a time, but is built with the batch flat kernel
    /// ([`coordination_core::project::page_pairs_flat`]) — one sort+dedup
    /// pass per page instead of a backward pairing scan per event. Use it to
    /// bootstrap a live projector from a historical log before switching to
    /// per-event ingestion; later [`ingest`](Self::ingest) timestamps before
    /// the BTM's newest event are late, as always.
    pub fn warm_start(window: Window, btm: &Btm) -> Self {
        let mut p = Self::new(window);
        p.buffers.resize_with(btm.n_pages() as usize, VecDeque::new);
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
            p.buffers[page as usize] = recent.map(|(t, a)| (t, a.0)).collect();
            // Supported pairs via the shared flat kernel. Cumulative mode
            // never reads the support timestamp (only presence matters, and
            // nothing expires), so the page's newest comment stands in for
            // the pair's last qualifying interaction.
            page_pairs_flat(comments, &window, &mut pairs);
            for &pair in &pairs {
                p.support.insert(support_key(page, pair), last_ts);
                *p.edges.entry(pair).or_insert(0) += 1;
                let (x, y) = unpack_pair(pair);
                for a in [x, y] {
                    *p.incident.entry(incident_key(page, a)).or_insert(0) += 1;
                }
            }
        }
        p.page_counts = vec![0; p.n_authors as usize];
        for &key in p.incident.keys() {
            p.page_counts[key as u32 as usize] += 1;
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

    /// Stream time: the newest timestamp ingested, or `None` before the
    /// first event.
    pub fn now(&self) -> Option<Timestamp> {
        self.started.then_some(self.now)
    }

    /// 1 + the largest author id seen so far.
    pub fn n_authors_seen(&self) -> u32 {
        self.n_authors
    }

    /// Late events — stamped before stream time — dropped so far.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Lapsed expiry entries found stale so far: their pair had been
    /// refreshed on the page (or already retired) since they were queued.
    pub(crate) fn expiry_stale(&self) -> u64 {
        self.expiry_stale
    }

    /// Entries in the lazy expiry queue, stale ones included.
    pub(crate) fn expiry_queue_len(&self) -> usize {
        self.expiry.len()
    }

    /// Number of live edges (pairs with `w' ≥ 1`).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Current weight of an edge (0 if absent).
    pub fn weight(&self, x: u32, y: u32) -> u64 {
        let pair = pack_pair(x.min(y), x.max(y));
        self.edges.get(&pair).copied().unwrap_or(0)
    }

    /// Current `P'_x` (0 for authors not yet seen).
    pub fn page_count(&self, x: u32) -> u64 {
        self.page_counts.get(x as usize).copied().unwrap_or(0)
    }

    /// Dense `P'` for the authors seen so far.
    pub fn page_counts(&self) -> &[u64] {
        &self.page_counts
    }

    /// Whether an event stamped `ts` precedes stream time.
    fn is_late(&self, ts: Timestamp) -> bool {
        self.started && ts < self.now
    }

    /// Drop an event stamped `ts` if it is late, counting it; returns
    /// whether it was. `ingest` calls this itself; the engine asks first so
    /// that a late record is never interned.
    pub(crate) fn drop_if_late(&mut self, ts: Timestamp) -> bool {
        let late = self.is_late(ts);
        self.dropped_late += u64::from(late);
        late
    }

    /// Ingest one event and return the edge deltas it caused (expiries the
    /// event's timestamp triggered, then any +1 from the event itself). The
    /// returned slice is valid until the next `ingest` call. A late event is
    /// dropped: no deltas, no state change.
    pub fn ingest(&mut self, author: u32, page: u32, ts: Timestamp) -> &[EdgeDelta] {
        self.ingest_with_page_counts(author, page, ts).0
    }

    /// [`ingest`](Self::ingest), returning the deltas together with the
    /// dense `P'` as the event left it — what a consumer scoring each delta
    /// needs, without copying the deltas out to look at `P'`.
    pub fn ingest_with_page_counts(
        &mut self,
        author: u32,
        page: u32,
        ts: Timestamp,
    ) -> (&[EdgeDelta], &[u64]) {
        self.scratch.clear();
        if self.drop_if_late(ts) {
            return (&self.scratch, &self.page_counts);
        }
        if self.n_authors <= author {
            self.n_authors = author + 1;
            self.page_counts.resize(self.n_authors as usize, 0);
        }
        if self.buffers.len() <= page as usize {
            self.buffers.resize_with(page as usize + 1, VecDeque::new);
        }

        // 1. Retire page contributions whose horizon has lapsed.
        self.advance(ts);

        // 2. Pair the arrival against the page's recent comments.
        let buffer = &mut self.buffers[page as usize];
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
            let (x, y) = (a_old.min(author), a_old.max(author));
            let pair = pack_pair(x, y);
            // A refresh (the page already supports the pair) only moves the
            // support timestamp.
            if self.support.insert(support_key(page, pair), ts).is_none() {
                let w = self.edges.entry(pair).or_insert(0);
                *w += 1;
                self.scratch.push(EdgeDelta {
                    x,
                    y,
                    new_weight: *w,
                    delta: 1,
                });
                for a in [x, y] {
                    let r = self.incident.entry(incident_key(page, a)).or_insert(0);
                    *r += 1;
                    if *r == 1 {
                        self.page_counts[a as usize] += 1;
                    }
                }
            }
            if let Some(h) = horizon {
                let due = ts.saturating_add(h);
                debug_assert!(self.expiry.back().is_none_or(|&(last, ..)| last <= due));
                self.expiry.push_back((due, page, pair));
            }
        }
        buffer.push_back((ts, author));

        (&self.scratch, &self.page_counts)
    }

    /// Advance the stream clock without an event (e.g. a timer tick in a
    /// live deployment), expiring lapsed contributions. No-op in cumulative
    /// mode, and when `ts` is before stream time. Returns the −1 deltas.
    pub fn advance_to(&mut self, ts: Timestamp) -> &[EdgeDelta] {
        self.scratch.clear();
        if !self.is_late(ts) {
            self.advance(ts);
        }
        &self.scratch
    }

    /// Move stream time to `ts` (never before it) and retire what lapsed.
    fn advance(&mut self, ts: Timestamp) {
        self.now = ts;
        self.started = true;
        self.expire_until(ts);
    }

    fn expire_until(&mut self, now: Timestamp) {
        let Some(h) = self.horizon else { return };
        let lapsed = self.expiry.iter().take_while(|e| e.0 < now).count();
        if lapsed == 0 {
            return;
        }
        // The prefix is already in `due` order; the sort orders equal-`due`
        // ties by (page, pair), as a min-heap would pop them.
        let mut retiring = std::mem::take(&mut self.retiring);
        retiring.extend(self.expiry.drain(..lapsed));
        retiring.sort_unstable();
        for &(due, page, pair) in &retiring {
            // Stale entry if the pair was refreshed (or already expired):
            // only act when the recorded last interaction matches this due
            // time.
            match self.support.entry(support_key(page, pair)) {
                Entry::Occupied(last) if last.get().saturating_add(h) == due => {
                    last.remove();
                }
                _ => {
                    self.expiry_stale += 1;
                    continue;
                }
            }
            let Entry::Occupied(mut w) = self.edges.entry(pair) else {
                panic!("supported pair must have an edge");
            };
            *w.get_mut() -= 1;
            let new_weight = *w.get();
            if new_weight == 0 {
                w.remove();
            }
            let (x, y) = unpack_pair(pair);
            self.scratch.push(EdgeDelta {
                x,
                y,
                new_weight,
                delta: -1,
            });
            for a in [x, y] {
                let Entry::Occupied(mut r) = self.incident.entry(incident_key(page, a)) else {
                    panic!("supported pair must be refcounted");
                };
                *r.get_mut() -= 1;
                if *r.get() == 0 {
                    r.remove();
                    self.page_counts[a as usize] -= 1;
                }
            }
        }
        retiring.clear();
        self.retiring = retiring;
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
        self.edges.iter().map(|(&pair, &w)| {
            let (x, y) = unpack_pair(pair);
            (x, y, w)
        })
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
    fn late_events_are_dropped_and_counted() {
        let mut p = StreamProjector::with_horizon(Window::new(0, 60), Some(100));
        p.ingest(0, 0, 100);
        assert_eq!(p.ingest(1, 0, 110).len(), 1);
        let queued = p.expiry_queue_len();
        // late: would pair with both comments on page 0, and names an author
        // and a page never seen — none of it may land
        assert!(p.ingest(7, 0, 105).is_empty());
        assert!(p.ingest(2, 9, 50).is_empty());
        assert_eq!(p.dropped_late(), 2);
        assert_eq!(p.now(), Some(110));
        assert_eq!((p.n_authors_seen(), p.n_edges(), p.weight(0, 1)), (2, 1, 1));
        assert_eq!(p.page_counts(), &[1, 1]);
        assert_eq!(p.expiry_queue_len(), queued);
        // a backwards tick is a no-op, and not an event
        assert!(p.advance_to(0).is_empty());
        assert_eq!((p.now(), p.dropped_late()), (Some(110), 2));
        // equal timestamps are on time; the clock still expires on schedule
        assert_eq!(p.ingest(2, 0, 110).len(), 2);
        assert_eq!(p.advance_to(211).len(), 3);
        assert_eq!(p.n_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "must cover the projection window")]
    fn horizon_shorter_than_window_rejected() {
        StreamProjector::with_horizon(Window::new(0, 600), Some(60));
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
