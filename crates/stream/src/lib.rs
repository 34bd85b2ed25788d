//! # stream — online coordination detection over a live event stream
//!
//! The batch pipeline (BTM → windowed projection → triangle survey) needs the
//! whole archive up front; this crate maintains the same structures
//! *incrementally* as comments arrive, so the injected botnets are caught
//! mid-stream instead of a month later:
//!
//! 1. [`source`] — event sources replaying pushshift-style NDJSON or a
//!    generated scenario's records in timestamp order, optionally paced
//!    against the wall clock with a configurable speedup;
//! 2. [`projector`] — a sliding-window incremental projector: per-page
//!    time-ordered comment buffers emit `w'` edge deltas (+1 when an author
//!    pair first interacts within `(δ1, δ2)` on a page, −1 when a page
//!    contribution expires past the retention horizon), with `P'` maintained
//!    through per-(page, author) pair refcounts;
//! 3. [`triangles`] — an incremental triangle tracker: each edge crossing the
//!    min-weight cutoff intersects adjacency lists to update the live set of
//!    surviving triangles (delta maintenance in the style of Zhao et al.'s
//!    triadic-cardinality tracking, instead of full re-enumeration);
//! 4. [`alert`] + [`engine`] — the alerting/snapshot layer: fires once per
//!    triplet when its score crosses the cutoff, and emits periodic
//!    [`CiGraph`](coordination_core::CiGraph) checkpoints that plug straight
//!    into the existing hypergraph-validation and `analysis` tooling.
//!
//! ## Equivalence contract
//!
//! With no retention horizon, ingesting any timestamp-ordered event log and
//! closing the window yields a CI graph **identical** (edges, weights, `P'`)
//! to [`coordination_core::project::project`] on the same events, and the
//! live triangle set equals `tripoll` enumeration on the thresholded
//! snapshot. `tests/stream_equivalence.rs` in the workspace root pins this
//! property over random datasets.
//!
//! ## Example
//!
//! ```
//! use coordination_core::Window;
//! use coordination_core::records::CommentRecord;
//! use stream::engine::{StreamConfig, StreamEngine};
//!
//! // three accounts echoing each other on four pages
//! let mut records = Vec::new();
//! for p in 0..4i64 {
//!     for (i, who) in ["a", "b", "c"].iter().enumerate() {
//!         records.push(CommentRecord::new(*who, format!("t3_{p}"), p * 1000 + i as i64));
//!     }
//! }
//! let mut engine = StreamEngine::new(StreamConfig {
//!     window: Window::new(0, 60),
//!     min_triangle_weight: 3,
//!     ..Default::default()
//! });
//! let mut alerts = Vec::new();
//! for r in &records {
//!     alerts.extend_from_slice(engine.ingest(r));
//! }
//! assert_eq!(alerts.len(), 1); // the trio fires once, on its third shared page
//! assert!(alerts[0].events_ingested < records.len() as u64); // mid-stream
//! ```

#![warn(unreachable_pub)]

pub mod alert;
pub mod engine;
pub mod projector;
pub mod source;
pub mod triangles;

pub use engine::{StreamConfig, StreamEngine};
pub use projector::{EdgeDelta, StreamProjector};
pub use triangles::TriangleTracker;
