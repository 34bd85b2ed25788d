//! # coordination-core — the paper's three-step coordination-detection pipeline
//!
//! Implements Piercey (2023), *Coordinated Botnet Detection in Social Networks
//! via Clustering Analysis*:
//!
//! 1. **Projection** ([`project`]): the bipartite temporal multigraph
//!    ([`btm::Btm`]) of `(author, page, timestamp)` comments is projected,
//!    under a delay window `(δ1, δ2)` ([`window::Window`]), to the weighted
//!    *common interaction* graph ([`cigraph::CiGraph`]) whose edge `w'_{xy}`
//!    counts the pages where `x` and `y` commented within the window of each
//!    other (paper Algorithm 1). The projection also records `P'_x`, the number
//!    of pages contributing an edge at `x` (Eq. 6).
//! 2. **Triangle survey** ([`pipeline`] step 2, via the [`tripoll`] crate):
//!    triangles of the CI graph with high minimum edge weight — and optionally
//!    high normalized score `T(x,y,z)` (Eq. 7) — are enumerated.
//! 3. **Hypergraph validation** ([`hypergraph`]): each surviving triplet is
//!    checked against the original bipartite data — `w_xyz` (Eq. 2) counts the
//!    pages all three authors commented on, and `C(x,y,z)` (Eq. 4) normalizes
//!    it by the authors' page counts `p_x` (Eq. 3).
//!
//! [`pipeline::Pipeline`] wires the steps together; [`records`] parses the
//! pushshift-style NDJSON input format; [`filter`] removes known helpful bots
//! ('AutoModerator') and `[deleted]` accounts before projection, exactly as the
//! paper does.
//!
//! ## Example
//!
//! ```
//! use coordination_core::records::{CommentRecord, Dataset};
//! use coordination_core::{Pipeline, PipelineConfig, Window};
//!
//! // three accounts that hit the same 12 pages seconds apart
//! let mut records = Vec::new();
//! for page in 0..12i64 {
//!     for (i, bot) in ["a", "b", "c"].iter().enumerate() {
//!         records.push(CommentRecord::new(*bot, format!("t3_{page}"), page * 10_000 + i as i64));
//!     }
//! }
//! let dataset = Dataset::from_records(records);
//! let out = Pipeline::new(PipelineConfig {
//!     window: Window::zero_to_60s(),
//!     min_triangle_weight: 10,
//!     ..Default::default()
//! })
//! .run_dataset(&dataset);
//!
//! assert_eq!(out.triplets.len(), 1);
//! let triplet = &out.triplets[0];
//! assert_eq!(triplet.hyper_weight, 12);   // w_xyz: pages shared by all three
//! assert_eq!(triplet.min_ci_weight, 12);  // min w': windowed pairwise weight
//! assert!((triplet.c - 1.0).abs() < 1e-12); // perfectly coordinated
//! ```

pub mod btm;
pub mod cigraph;
pub mod dist_pipeline;
pub mod filter;
pub mod groups;
pub mod hypergraph;
pub mod ids;
pub mod ingest;
pub mod metrics;
pub mod pipeline;
pub mod project;
pub mod records;
pub mod snapshot;
pub mod window;
pub mod windowed_hyperedge;

/// The shared graph-representation layer (CSR storage, typed ids, borrowed
/// views) — every stage of the pipeline exchanges graphs through these types.
pub use coordination_graph as graph;

/// The columnar snapshot layer (schema-versioned on-disk format, compressed
/// CSR, mmap views) — [`snapshot`] holds the Dataset/Btm adapters over it.
pub use coordination_store as store;

pub use btm::{AuthorPages, Btm};
pub use cigraph::{CiGraph, CiGraphBuilder};
pub use coordination_graph::{GraphRef, SubsetView, ThresholdView};
pub use dist_pipeline::DistPipeline;
pub use ids::{AuthorId, Event, Interner, PageId, Timestamp};
pub use ingest::{IngestConfig, IngestStats};
pub use metrics::{c_score, t_score, TripletMetrics};
pub use pipeline::{Pipeline, PipelineConfig, PipelineOutput};
pub use window::Window;
