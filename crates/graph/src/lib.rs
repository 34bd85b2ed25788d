//! # coordination-graph — the one graph representation the whole pipeline shares
//!
//! Every stage of the detection pipeline is graph-representation-bound:
//! projection produces the common-interaction graph, the triangle survey
//! orients and enumerates it, component extraction walks it, and the
//! streaming engine snapshots it. This crate is the single
//! compressed-sparse-row ([`CsrGraph`]) representation they all share, plus
//! the machinery that makes the handoffs zero-copy:
//!
//! * [`ids`] — the typed [`AuthorId`] / [`PageId`] newtypes every layer keys
//!   vertices by (re-exported through `coordination-core::ids`);
//! * [`csr`] — [`CsrGraph`] storage: [`CsrGraph::from_edges`] sorts the
//!   canonical edge list once, and the fast path
//!   [`CsrGraph::from_canonical_runs`] k-way merges the sorted runs of
//!   producers that already hold them; also the union-find
//!   ([`DisjointSets`]) and generic connected-[`components`] extraction;
//! * [`intersect`] — the adaptive sorted-slice intersection kernel (linear
//!   merge for comparable lengths, galloping from the short side for skewed
//!   ones) shared by the triangle enumerator and hypergraph validation;
//! * [`view`] — the [`GraphRef`] borrowing trait and the allocation-free
//!   [`ThresholdView`] adapter, so edge thresholding before a survey filters
//!   *during iteration* instead of cloning the edge set.
//!
//! Downstream, `tripoll::WeightedGraph` is a re-export of [`CsrGraph`], and
//! `coordination_core::CiGraph` wraps a [`CsrGraph`] plus the `P'` page
//! counts — one representation end to end.

#![warn(unreachable_pub)]

pub mod csr;
pub mod ids;
pub mod intersect;
pub mod view;

pub use csr::{components, CsrGraph, DisjointSets};
pub use ids::{AuthorId, PageId, Timestamp};
pub use intersect::{intersect_count, intersect_indices, intersect_indices_linear};
pub use view::{GraphRef, ThresholdView};
