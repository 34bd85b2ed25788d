//! The streaming engine: source → projector → triangle tracker → alerts,
//! with periodic CI-graph checkpoints.
//!
//! [`StreamEngine`] is the assembled pipeline. It interns raw
//! [`CommentRecord`]s into the dense id space, feeds the projector, routes
//! every edge delta through the triangle tracker, evaluates alerts on the
//! affected triplets, and — every `checkpoint_every` events — records a
//! [`Checkpoint`] with summary statistics. [`StreamEngine::snapshot`]
//! materialises the live CI graph at any moment, in exactly the form the
//! batch `analysis` / hypergraph-validation tooling consumes.

use coordination_core::cigraph::CiGraph;
use coordination_core::ids::{Interner, Timestamp};
use coordination_core::records::CommentRecord;
use coordination_core::window::Window;

use crate::alert::{Alert, Alerter};
use crate::projector::StreamProjector;
use crate::triangles::{TriangleTracker, Triple};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Projection delay window `(δ1, δ2)`.
    pub window: Window,
    /// Min edge weight for a triplet to survive (the paper's `w' ≥ 25` for
    /// January 2020; scale it down with scaled-down scenarios).
    pub min_triangle_weight: u64,
    /// T-score floor for alerting (0.0 = alert on survival alone).
    pub min_t_score: f64,
    /// Retention horizon in seconds (`None` = cumulative, batch-equivalent).
    pub horizon: Option<i64>,
    /// Record a [`Checkpoint`] every this many events (`None` = only on
    /// demand).
    pub checkpoint_every: Option<u64>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: Window::zero_to_60s(),
            min_triangle_weight: 25,
            min_t_score: 0.0,
            horizon: None,
            checkpoint_every: None,
        }
    }
}

/// Summary statistics recorded every `checkpoint_every` events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Events ingested when the checkpoint was taken.
    pub events: u64,
    /// Stream time at the checkpoint.
    pub ts: Timestamp,
    /// Live CI-graph edges.
    pub n_edges: u64,
    /// Live surviving triangles.
    pub live_triangles: u64,
    /// Alerts fired so far.
    pub alerts: u64,
}

/// The assembled streaming pipeline.
#[derive(Debug)]
pub struct StreamEngine {
    config: StreamConfig,
    authors: Interner,
    pages: Interner,
    projector: StreamProjector,
    tracker: TriangleTracker,
    alerter: Alerter,
    events: u64,
    alerts_fired: u64,
    checkpoints: Vec<Checkpoint>,
    alert_scratch: Vec<Alert>,
    // Counter handles held across the engine's lifetime: `ingest` runs per
    // event, so registry name lookups there would dominate the no-op cost.
    c_events: obs::Counter,
    c_alerts: obs::Counter,
    c_edge_additions: obs::Counter,
    c_edge_expirations: obs::Counter,
    c_checkpoints: obs::Counter,
    c_dropped_late: obs::Counter,
    c_expiry_stale: obs::Counter,
}

impl StreamEngine {
    /// Build an engine from a configuration.
    pub fn new(config: StreamConfig) -> Self {
        StreamEngine {
            projector: StreamProjector::with_horizon(config.window, config.horizon),
            tracker: TriangleTracker::new(config.min_triangle_weight.max(1)),
            alerter: Alerter::new(config.min_t_score),
            config,
            authors: Interner::new(),
            pages: Interner::new(),
            events: 0,
            alerts_fired: 0,
            checkpoints: Vec::new(),
            alert_scratch: Vec::new(),
            c_events: obs::counter("stream.events"),
            c_alerts: obs::counter("stream.alerts"),
            c_edge_additions: obs::counter("stream.edge_additions"),
            c_edge_expirations: obs::counter("stream.edge_expirations"),
            c_checkpoints: obs::counter("stream.checkpoints"),
            c_dropped_late: obs::counter("stream.dropped_late"),
            c_expiry_stale: obs::counter("stream.expiry_stale"),
        }
    }

    /// Events ingested so far (late records dropped are not counted).
    pub fn events_ingested(&self) -> u64 {
        self.events
    }

    /// The author interner (id ↔ account name).
    pub fn authors(&self) -> &Interner {
        &self.authors
    }

    /// The projector (live edge weights and `P'`).
    pub fn projector(&self) -> &StreamProjector {
        &self.projector
    }

    /// The triangle tracker (live surviving triplets).
    pub fn tracker(&self) -> &TriangleTracker {
        &self.tracker
    }

    /// Checkpoints recorded so far.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Total alerts fired.
    pub fn alerts_fired(&self) -> u64 {
        self.alerts_fired
    }

    /// Ingest one record; returns the alerts it fired (usually empty). The
    /// slice is valid until the next `ingest` call. A record stamped before
    /// stream time is late: it is dropped before interning — it assigns no
    /// author or page id — and counted in `stream.dropped_late`.
    pub fn ingest(&mut self, record: &CommentRecord) -> &[Alert] {
        let ts = record.created_utc;
        self.alert_scratch.clear();
        if self.projector.drop_if_late(ts) {
            self.c_dropped_late.inc();
            return &self.alert_scratch;
        }
        let author = self.authors.intern(&record.author);
        let page = self.pages.intern(&record.link_id);
        self.events += 1;

        let stale = self.projector.expiry_stale();
        // The deltas are read in place, beside the `P'` the same call left
        // behind: the steady state (most events change no edge) allocates
        // nothing.
        let (deltas, page_counts) = self.projector.ingest_with_page_counts(author, page, ts);
        let mut added = 0u64;
        let mut expired = 0u64;
        for d in deltas {
            if d.delta > 0 {
                added += 1;
            } else {
                expired += 1;
            }
            let ev = self.tracker.apply(d);
            self.alerter.evaluate(
                &ev,
                &self.tracker,
                page_counts,
                ts,
                self.events,
                &mut self.alert_scratch,
            );
        }
        self.alerts_fired += self.alert_scratch.len() as u64;
        self.c_events.inc();
        self.c_edge_additions.add(added);
        self.c_edge_expirations.add(expired);
        self.c_alerts.add(self.alert_scratch.len() as u64);
        self.c_expiry_stale
            .add(self.projector.expiry_stale() - stale);

        if let Some(every) = self.config.checkpoint_every {
            if every > 0 && self.events.is_multiple_of(every) {
                self.record_checkpoint(ts);
            }
        }
        &self.alert_scratch
    }

    /// Drive an entire source through the engine, invoking `on_alert` for
    /// each alert as it fires. Returns the total number of alerts.
    pub fn run<I, F>(&mut self, source: I, mut on_alert: F) -> u64
    where
        I: IntoIterator<Item = CommentRecord>,
        F: FnMut(&StreamEngine, &Alert),
    {
        let mut fired = 0u64;
        for record in source {
            self.ingest(&record);
            fired += self.alert_scratch.len() as u64;
            for a in &self.alert_scratch {
                on_alert(self, a);
            }
        }
        fired
    }

    /// Take a checkpoint now (also called automatically on the configured
    /// interval).
    pub(crate) fn record_checkpoint(&mut self, ts: Timestamp) {
        let n_edges = self.projector.n_edges() as u64;
        let live_triangles = self.tracker.len() as u64;
        self.c_checkpoints.inc();
        obs::gauge("stream.live_edges").set(n_edges);
        obs::gauge("stream.expiry_queue").set_max(self.projector.expiry_queue_len() as u64);
        obs::gauge("stream.live_triangles").set(live_triangles);
        obs::record_stage_rss("stream");
        self.checkpoints.push(Checkpoint {
            events: self.events,
            ts,
            n_edges,
            live_triangles,
            alerts: self.alerts_fired,
        });
    }

    /// Materialise the live CI graph over every author seen so far — the
    /// same structure `coordination_core::project` produces, ready for the
    /// batch survey/validation/analysis tooling.
    pub fn snapshot(&self) -> CiGraph {
        self.projector.snapshot(self.authors.len() as u32)
    }

    /// Triplets that have alerted so far, in canonical id order.
    pub fn fired_triplets(&self) -> Vec<Triple> {
        let mut v: Vec<Triple> = self.alerter.fired().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Map a triple of author ids to account names.
    pub fn author_names(&self, t: Triple) -> [&str; 3] {
        [
            self.authors.name(t[0]),
            self.authors.name(t[1]),
            self.authors.name(t[2]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trio_records(pages: usize) -> Vec<CommentRecord> {
        let mut out = Vec::new();
        for p in 0..pages {
            for (i, who) in ["a", "b", "c"].iter().enumerate() {
                out.push(CommentRecord::new(
                    *who,
                    format!("t3_{p}"),
                    (p * 1000 + i * 10) as i64,
                ));
            }
        }
        out
    }

    #[test]
    fn alert_fires_exactly_when_weight_cutoff_is_reached() {
        let mut engine = StreamEngine::new(StreamConfig {
            window: Window::new(0, 60),
            min_triangle_weight: 3,
            ..Default::default()
        });
        let records = trio_records(5);
        let mut fired_at = None;
        for (i, r) in records.iter().enumerate() {
            if !engine.ingest(r).is_empty() && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        // The third shared page completes at record index 8 (0-based): pages
        // 0,1 lift each edge to 2, page 2's third comment closes weight 3.
        assert_eq!(fired_at, Some(8));
        assert_eq!(engine.alerts_fired(), 1);
        let live: Vec<Triple> = engine.tracker().iter().collect();
        assert_eq!(live.len(), 1);
        // all five pages counted by the end
        assert_eq!(engine.tracker().min_weight(live[0]), Some(5));
    }

    #[test]
    fn snapshot_is_analysis_ready() {
        let mut engine = StreamEngine::new(StreamConfig {
            window: Window::new(0, 60),
            min_triangle_weight: 2,
            ..Default::default()
        });
        for r in trio_records(3) {
            engine.ingest(&r);
        }
        let snap = engine.snapshot();
        assert_eq!(snap.n_authors(), 3);
        assert_eq!(snap.n_edges(), 3);
        let a = engine.authors().get("a").unwrap();
        let b = engine.authors().get("b").unwrap();
        assert_eq!(
            snap.weight(
                coordination_core::ids::AuthorId(a),
                coordination_core::ids::AuthorId(b)
            ),
            3
        );
        // thresholded components find the trio
        let comps = snap.components(2);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn checkpoints_record_on_interval() {
        let mut engine = StreamEngine::new(StreamConfig {
            window: Window::new(0, 60),
            min_triangle_weight: 2,
            checkpoint_every: Some(4),
            ..Default::default()
        });
        for r in trio_records(4) {
            engine.ingest(&r);
        }
        // 12 events / every 4 = 3 checkpoints
        let cps = engine.checkpoints();
        assert_eq!(cps.len(), 3);
        assert_eq!(cps[0].events, 4);
        assert_eq!(cps[2].events, 12);
        assert!(cps[2].alerts >= 1);
        assert!(cps.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn run_drives_a_source_end_to_end() {
        let mut engine = StreamEngine::new(StreamConfig {
            window: Window::new(0, 60),
            min_triangle_weight: 2,
            ..Default::default()
        });
        let mut seen = Vec::new();
        let fired = engine.run(trio_records(4), |eng, alert| {
            seen.push((
                alert.events_ingested,
                eng.author_names(alert.authors).map(String::from),
            ));
        });
        assert_eq!(fired, 1);
        assert_eq!(seen.len(), 1);
        let names = &seen[0].1;
        assert_eq!(names, &["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn late_records_are_dropped_before_interning() {
        let mut engine = StreamEngine::new(StreamConfig {
            window: Window::new(0, 60),
            min_triangle_weight: 2,
            horizon: Some(3600),
            ..Default::default()
        });
        for r in trio_records(3) {
            engine.ingest(&r);
        }
        // before stream time (2020), by a new account on a new page: dropped
        assert!(engine
            .ingest(&CommentRecord::new("late", "t3_late", 5))
            .is_empty());
        assert_eq!(engine.projector().dropped_late(), 1);
        assert_eq!(engine.authors().get("late"), None);
        assert_eq!(engine.pages.get("t3_late"), None);
        assert_eq!((engine.authors().len(), engine.pages.len()), (3, 3));
        assert_eq!(engine.events_ingested(), 9);
        assert_eq!(engine.projector().n_edges(), 3);
        assert_eq!(engine.tracker().len(), 1);
    }

    #[test]
    fn sliding_mode_forgets_old_coordination() {
        let mut engine = StreamEngine::new(StreamConfig {
            window: Window::new(0, 60),
            min_triangle_weight: 2,
            horizon: Some(3600),
            ..Default::default()
        });
        for r in trio_records(3) {
            engine.ingest(&r);
        }
        assert_eq!(engine.tracker().len(), 1);
        // a lone unrelated comment far in the future expires everything
        engine.ingest(&CommentRecord::new("zz", "t3_zz", 1_000_000));
        assert_eq!(engine.tracker().len(), 0);
        assert_eq!(engine.projector().n_edges(), 0);
        let snap = engine.snapshot();
        assert_eq!(snap.n_edges(), 0);
        assert!(snap.page_counts().iter().all(|&c| c == 0));
    }
}
