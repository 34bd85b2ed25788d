//! The one file that names engine symbols. Every other file of the
//! benchmark imports the detector through `crate::adapter`, so a PR that
//! deletes or renames an engine path (ROADMAP item 2) needs at most a
//! one-file benchmark PR ahead of it. Restricted to what that item says
//! survives, plus the two pipeline types and `distributed_survey`: no
//! `project_hashed`/`project_bucketed`/`radix_sort_run`, no ygm containers.

pub use coordination_core::dist_pipeline::{event_source, DistPipeline};
pub use coordination_core::graph::CsrGraph;
pub use coordination_core::hypergraph::validate_all;
pub use coordination_core::ids::{AuthorId, Event, PageId};
pub use coordination_core::ingest::{ingest_slice, scan_record, IngestConfig};
pub use coordination_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
pub use coordination_core::project::{page_pairs_flat, project};
pub use coordination_core::records::{CommentRecord, Dataset};
pub use coordination_core::snapshot::write_snapshot;
pub use coordination_core::store::Snapshot;
pub use coordination_core::{Btm, CiGraph, Interner, TripletMetrics, Window};
pub use redditgen::dist::{DistMonth, DistMonthConfig};
pub use stream::source::sort_records;
pub use stream::{EdgeDelta, StreamConfig, StreamEngine, StreamProjector, TriangleTracker};
pub use tripoll::distributed::distributed_survey;
pub use tripoll::survey::{survey, SurveyConfig};
pub use tripoll::{OrientedGraph, SurveyedTriangle, Triangle};
pub use ygm::{
    block_range, owner_of, sort_run, DistRuns, PackedAggregator, PackedBatch, RankCtx, World,
};

/// The batch detector configuration of one workload.
pub fn pipeline_config(window_s: i64, edge_threshold: u64, cutoff: u64) -> PipelineConfig {
    PipelineConfig {
        window: Window::new(0, window_s),
        edge_threshold,
        min_triangle_weight: cutoff,
        ..Default::default()
    }
}

/// Resident engine: `Btm::from_events` + `Pipeline::run_btm`.
pub fn run_resident(
    cfg: &PipelineConfig,
    n_authors: u32,
    n_pages: u32,
    events: &[Event],
) -> PipelineOutput {
    let btm = Btm::from_events(n_authors, n_pages, events);
    Pipeline::new(cfg.clone()).run_btm(&btm)
}

/// Rank-sharded engine over block-ranged slices of the same in-memory
/// events, optionally under a shuffle budget (bytes) that forces spilling.
pub fn run_ranks(
    cfg: &PipelineConfig,
    nranks: usize,
    shuffle_budget: Option<usize>,
    n_authors: u32,
    events: &[Event],
) -> PipelineOutput {
    let mut dist = DistPipeline::new(cfg.clone(), nranks);
    if let Some(bytes) = shuffle_budget {
        dist = dist.with_shuffle_budget(bytes);
    }
    let source = event_source(|rank, n| {
        Box::new(events[block_range(rank, events.len(), n)].iter().copied())
    });
    dist.run_events(n_authors, &source)
}
