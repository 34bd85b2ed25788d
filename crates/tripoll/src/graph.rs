//! Graph storage, re-exported from the shared [`coordination_graph`] layer.
//!
//! TriPoll used to own its CSR implementation; it now lives in
//! `crates/graph` so projection, streaming, and analysis share one
//! representation with zero-copy handoffs. `WeightedGraph` is the historical
//! tripoll name for [`coordination_graph::CsrGraph`] and remains the name the
//! survey API documents; both resolve to the same type.

/// TriPoll's historical name for the shared CSR graph.
pub use coordination_graph::CsrGraph as WeightedGraph;

pub use coordination_graph::{DisjointSets, GraphRef};
