//! # coordination-store — columnar on-disk event snapshots
//!
//! The paper's Jan-2020 deployment ingests ~138M Pushshift comments — two
//! orders of magnitude beyond what the resident pipeline can hold. This crate
//! is the ingest-once, map-forever answer (ROADMAP item 5): a
//! schema-versioned binary **snapshot** holding everything a detection run
//! needs, laid out so every downstream stage reads it *in place*:
//!
//! * [`snapshot`] — the container format (magic / version / checksummed
//!   section directory), the [`SnapshotWriter`] builder, and the validating
//!   [`Snapshot::open`] mmap reader whose accessors hand out borrowed views;
//! * [`segment`] — sorted spill segments ([`SegmentWriter`](segment::SegmentWriter) /
//!   [`SegmentReader`](segment::SegmentReader)): raw sorted key runs the memory-bounded shuffle
//!   (`ygm::runs`) evicts to disk and later k-way merges back, streaming;
//! * [`mmap`] — read-only file mapping with an owned-buffer fallback, and the
//!   one checked cast that borrows a file's `u64` row words in place;
//! * [`err`] — the typed [`StoreError`]: corrupt or truncated input is
//!   always an `Err`, never a panic.
//!
//! Both formats store every integer as a fixed-width little-endian field:
//! there is one on-disk encoding, and no variable-length one.
//!
//! The id vocabulary is the canonical one from `coordination_graph::ids`
//! (`AuthorId` / `PageId` / `Timestamp`) — snapshots store the same dense
//! `u32` ids the in-memory interner assigns, in the same first-occurrence
//! order, so a mapped snapshot and a fresh ingest of the same NDJSON agree
//! id-for-id.
//!
//! The crate is deliberately below `coordination-core` in the dependency
//! graph: it speaks raw `(author, page, ts)` tuples and `&str` name tables,
//! and core supplies the `Dataset`/`Btm` glue (`coordination_core::snapshot`).

#![warn(unreachable_pub)]

pub mod err;
pub mod mmap;
pub mod segment;
pub mod snapshot;

pub use err::StoreError;
pub use snapshot::{NamesView, Snapshot, SnapshotWriter};
pub use snapshot::{MAGIC, VERSION};
