//! Alerting: fire once per triplet when its score crosses the cutoff.
//!
//! A triplet alerts the first time it (a) survives the min-weight cutoff
//! (all three edges at `w' ≥ cutoff` — the condition that creates it in the
//! [`TriangleTracker`]) and (b) carries a T-score at or above the configured
//! floor. The T-score is the paper's Eq. 7, computed from the *live* `P'`
//! counts at the moment of evaluation, so an alert carries the score the
//! batch pipeline would have reported had it stopped the stream right there.
//!
//! Triplets whose T-score is initially too low are re-evaluated whenever one
//! of their edges changes weight (a `touched`/`created` event from the
//! tracker). Pure `P'` drift without an edge delta is *not* re-evaluated: in
//! cumulative mode `P'` only grows, which can only lower T, and in sliding
//! mode the next interaction or expiry on any clique edge re-triggers the
//! check. Each triplet fires at most once per engine lifetime.

use coordination_core::ids::{IdSet, Timestamp};
use tripoll::survey::t_score;

use crate::triangles::{TriangleEvents, TriangleTracker, Triple};

/// A coordinated-triplet detection, emitted mid-stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// The author triple, `authors[0] < authors[1] < authors[2]`.
    pub authors: Triple,
    /// Minimum edge weight of the triplet when it fired.
    pub min_weight: u64,
    /// T-score (Eq. 7) at firing time.
    pub t_score: f64,
    /// Stream time (event timestamp) at which the alert fired.
    pub ts: Timestamp,
    /// Events ingested before (and including) the triggering one — the
    /// detection-latency measure used in EXPERIMENTS.md.
    pub events_ingested: u64,
}

/// Once-per-triplet alert gate over tracker events.
#[derive(Debug)]
pub(crate) struct Alerter {
    min_t_score: f64,
    fired: IdSet<Triple>,
}

impl Alerter {
    /// Alert on triplets with T-score ≥ `min_t_score` (0.0 alerts on every
    /// triplet that survives the weight cutoff).
    pub(crate) fn new(min_t_score: f64) -> Self {
        assert!(min_t_score >= 0.0, "T-score floor must be non-negative");
        Alerter {
            min_t_score,
            fired: IdSet::default(),
        }
    }

    /// Triplets that have fired so far.
    pub(crate) fn fired(&self) -> &IdSet<Triple> {
        &self.fired
    }

    /// Evaluate the triplets affected by one applied delta, appending any
    /// new alerts to `out`. `page_counts` is the projector's live `P'`.
    // Out of line on purpose: whether the compiler inlines this into
    // `StreamEngine::ingest` turns on how the crate falls into codegen units,
    // and inlined it made the benchmark's stream replay 4–8 % slower.
    #[inline(never)]
    pub(crate) fn evaluate(
        &mut self,
        events: &TriangleEvents,
        tracker: &TriangleTracker,
        page_counts: &[u64],
        ts: Timestamp,
        events_ingested: u64,
        out: &mut Vec<Alert>,
    ) {
        for &t in events.created.iter().chain(events.touched.iter()) {
            if self.fired.contains(&t) {
                continue;
            }
            let Some(min_weight) = tracker.min_weight(t) else {
                continue; // destroyed later in the same batch of deltas
            };
            let p = |x: u32| page_counts.get(x as usize).copied().unwrap_or(0);
            let score = t_score(min_weight, p(t[0]), p(t[1]), p(t[2]));
            if score >= self.min_t_score {
                self.fired.insert(t);
                out.push(Alert {
                    authors: t,
                    min_weight,
                    t_score: score,
                    ts,
                    events_ingested,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projector::EdgeDelta;

    fn tracker_with_triangle(w: u64) -> (TriangleTracker, TriangleEvents) {
        let mut t = TriangleTracker::new(w);
        let mut last = TriangleEvents::default();
        for (x, y) in [(0u32, 1u32), (1, 2), (0, 2)] {
            for step in 1..=w {
                last = t.apply(&EdgeDelta {
                    x,
                    y,
                    new_weight: step,
                    delta: 1,
                });
            }
        }
        (t, last)
    }

    #[test]
    fn fires_once_with_live_score() {
        let (tracker, ev) = tracker_with_triangle(2);
        let mut alerter = Alerter::new(0.0);
        let mut out = Vec::new();
        // P' = [3, 3, 3] → T = 3·2/9
        alerter.evaluate(&ev, &tracker, &[3, 3, 3], 42, 7, &mut out);
        assert_eq!(out.len(), 1);
        let a = &out[0];
        assert_eq!(a.authors, [0, 1, 2]);
        assert_eq!(a.min_weight, 2);
        assert!((a.t_score - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!((a.ts, a.events_ingested), (42, 7));
        // same events again: the gate holds
        alerter.evaluate(&ev, &tracker, &[3, 3, 3], 43, 8, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn t_score_floor_defers_until_weight_catches_up() {
        let (mut tracker, ev) = tracker_with_triangle(2);
        // floor 0.5: T = 6/18 = 0.333 at P' = [6,6,6] → no alert yet
        let mut alerter = Alerter::new(0.5);
        let mut out = Vec::new();
        alerter.evaluate(&ev, &tracker, &[6, 6, 6], 10, 1, &mut out);
        assert!(out.is_empty());
        // weight rises to 3 on every edge → T = 9/18 = 0.5 → fires
        for (x, y) in [(0u32, 1u32), (1, 2), (0, 2)] {
            let ev = tracker.apply(&EdgeDelta {
                x,
                y,
                new_weight: 3,
                delta: 1,
            });
            alerter.evaluate(&ev, &tracker, &[6, 6, 6], 11, 2, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert!((out[0].t_score - 0.5).abs() < 1e-12);
    }
}
