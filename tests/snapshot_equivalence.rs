//! What a snapshot stores, read back: the rows of any events are the BTM of
//! the definition, the rank program's blocks of the mapped BTM tile them at
//! every rank count, and a generated month keeps ingest's ids, the window it
//! was written with and the CI graph `survey --from-snapshot` projects. (The pipelines over a
//! snapshot are doors of the one matrix, `oracle.rs`.)

mod matrix;

use std::sync::Arc;

use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::filter::ExclusionList;
use coordination::core::ids::Interner;
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::project::project;
use coordination::core::records::{write_ndjson, Dataset};
use coordination::core::snapshot::{
    authors_from_snapshot, btm_from_snapshot, ingest_to_snapshot, write_snapshot,
};
use coordination::core::store::Snapshot;
use coordination::core::{AuthorId, Event, IngestConfig, PageId, Window};
use coordination::redditgen::ScenarioConfig;
use matrix::{observed, TempSnap};
use proptest::prelude::*;

/// 10 authors and 8 pages of which ids 0 and n-1 never occur (rows are empty
/// at both ends of both id spaces); rows repeat, and timestamps are equal,
/// negative and extreme — the shape `tests/invariants.rs` checks `Btm` on.
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    let event = (1u32..9, 1u32..7, 0u8..10, -40i64..40).prop_map(|(a, p, kind, t)| {
        let ts = match kind {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => i64::MIN + 41 + t,
            _ => t,
        };
        Event::new(AuthorId(a), PageId(p), ts)
    });
    prop::collection::vec(event, 0..200)
}

fn interner(prefix: &str, n: u32) -> Arc<Interner> {
    let mut names = Interner::new();
    for i in 0..n {
        names.intern(&format!("{prefix}{i}"));
    }
    Arc::new(names)
}

proptest! {
    /// Stored rows ≡ the definition: whatever the events and whoever is
    /// excluded, the BTM read off a written snapshot holds the definition's
    /// rows, the flat event iterator is a permutation of what was written,
    /// and the blocks the rank program reads of the BTM tile it for every
    /// rank count: each comment reaches exactly one rank, so every run is
    /// the resident run on the same rows.
    #[test]
    fn snapshot_rows_are_the_btm_of_the_definition(
        events in arb_events(),
        excluded in prop::collection::vec(0u32..12, 0..4),
    ) {
        let (na, np) = (10, 8);
        let ds = Dataset { authors: interner("a", na), pages: interner("p", np), events };
        let file = TempSnap::new("snapshot-rows");
        write_snapshot(&ds, None, file.path()).expect("any dataset writes");
        let snap = Snapshot::open(file.path()).expect("and opens");

        let ids: Vec<AuthorId> = excluded.iter().copied().map(AuthorId).collect();
        let btm = btm_from_snapshot(&snap, &ids);
        let kept: Vec<(u32, u32, i64)> = ds
            .events
            .iter()
            .filter(|e| !excluded.contains(&e.author.0))
            .map(|e| (e.author.0, e.page.0, e.ts))
            .collect();
        prop_assert_eq!(btm.n_authors(), na);
        for (p, want) in (0..np).zip(definition::rows(&kept, np)) {
            let row = btm.page_neighborhood(PageId(p)).iter().map(|(ts, a)| (ts, a.0));
            prop_assert_eq!(row.collect::<Vec<_>>(), want);
        }

        let stored: Vec<(u32, u32, i64)> = snap.events().iter().collect();
        let mut got = stored.clone();
        let mut want: Vec<_> = ds.events.iter().map(|e| (e.author.0, e.page.0, e.ts)).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let config = PipelineConfig { min_triangle_weight: 1, ..Default::default() };
        let resident = observed(&Pipeline::new(config.clone()).run_btm(&btm))?;
        for nranks in 2..=7 {
            let ranked = DistPipeline::new(config.clone(), nranks).run_btm(&btm);
            prop_assert_eq!(ranked.stats.comments_reviewed, btm.n_comments());
            prop_assert_eq!(&observed(&ranked)?, &resident, "{} ranks", nranks);
        }
    }
}

#[test]
fn snapshot_path_is_equivalent_end_to_end() {
    let scenario = ScenarioConfig::jan2020(0.05).build();
    let mut ndjson = Vec::new();
    write_ndjson(&mut ndjson, &scenario.records).expect("serialize scenario");

    let file = TempSnap::new("snapshot-month");
    let window = Window::zero_to_60s();
    let (summary, stats) =
        ingest_to_snapshot(&ndjson[..], &IngestConfig::default(), window, file.path())
            .expect("ingest to snapshot");
    assert_eq!(summary.n_events, stats.events);

    let snap = Snapshot::open(file.path()).expect("open snapshot");
    let resident = coordination::core::ingest::ingest_slice(&ndjson, &IngestConfig::default())
        .expect("resident ingest")
        .dataset;

    // the re-interned author table keeps ingest's dense ids
    let back = authors_from_snapshot(&snap);
    assert_eq!(back.len(), resident.authors.len());
    for (id, name) in resident.authors.iter() {
        assert_eq!(back.get(name), Some(id));
    }

    // the file records its window, and its rows under the pipeline's bot
    // exclusions project to the graph `project` builds from the NDJSON
    assert_eq!(snap.meta().window, Some((window.d1(), window.d2())));
    let excl = ExclusionList::reddit_defaults();
    let want = project(&resident.btm_without(&excl.resolve(&resident)), window);
    let mapped = btm_from_snapshot(&snap, &excl.resolve_names(snap.author_names()));
    let ci = project(&mapped, window);
    let edges = |g: &coordination::core::CiGraph| {
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        edges
    };
    assert_eq!(edges(&ci), edges(&want));
    assert_eq!(ci.page_counts(), want.page_counts());
}
