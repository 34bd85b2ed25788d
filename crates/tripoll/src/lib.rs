//! # tripoll — triangle surveying with metadata on weighted graphs
//!
//! A single-node stand-in for [TriPoll (SC '21)](https://doi.org/10.1145/3458817.3476200),
//! the distributed triangle-survey system the paper uses for step 2 of its
//! pipeline ("querying high edge weight triangles in the common interaction
//! graph"). The algorithmic core is the same one TriPoll reports:
//!
//! 1. build a compressed sparse row (CSR) representation of the undirected
//!    weighted graph ([`graph::WeightedGraph`]);
//! 2. orient every edge from lower to higher *degree order* — a total order on
//!    vertices by `(degree, id)` — so each triangle is discovered exactly once
//!    ([`orient::OrientedGraph`]);
//! 3. enumerate triangles by closing wedges — stamp `out(u)` once per apex,
//!    probe each `out(v)` against it — invoking a user callback with full
//!    per-edge metadata ([`enumerate`]);
//! 4. apply survey predicates (minimum edge weight, normalized coordination
//!    score) and collect summaries ([`survey`]).
//!
//! Two drivers run that core: the resident [`survey::survey`] over one
//! shared orientation, and the rank-sharded [`distributed`] driver over the
//! [`ygm`] runtime, which preserves the push-style communication structure of
//! real TriPoll. Both close wedges with the same kernel
//! (`survey::SurveyFold::close`), which counts the triangles below the
//! weight cutoff and lists the rest into the same `survey::SurveyFold`.
//!
//! ## Example
//!
//! ```
//! use tripoll::{OrientedGraph, SurveyConfig, WeightedGraph};
//!
//! // a heavy triangle hanging off a light one
//! let g = WeightedGraph::from_edges(
//!     4,
//!     [(0, 1, 30), (0, 2, 28), (1, 2, 26), (2, 3, 2), (1, 3, 3)],
//! );
//! let oriented = OrientedGraph::from_graph(&g);
//! let report = tripoll::survey::survey(&oriented, &SurveyConfig::with_min_weight(25), None);
//! assert_eq!(report.total_examined, 2);
//! assert_eq!(report.len(), 1);
//! assert_eq!(report.triangles[0].triangle.vertices(), [0, 1, 2]);
//! assert_eq!(report.triangles[0].min_weight, 26);
//! ```

#![warn(unreachable_pub)]

pub mod clique;
pub mod distributed;
pub mod enumerate;
#[cfg(test)]
mod fixtures;
pub mod graph;
pub mod orient;
pub mod survey;

pub use enumerate::Triangle;
pub use graph::{GraphRef, WeightedGraph};
pub use orient::OrientedGraph;
pub use survey::{SurveyConfig, SurveyedTriangle};
