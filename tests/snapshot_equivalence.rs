//! What a snapshot stores, read back: the rows of any events are the BTM of
//! the definition, its event views tile them at every rank count, and a
//! generated month keeps ingest's ids, the CI graph the writer projected and
//! what the stream projector warm-starts from. (The pipelines over a
//! snapshot are doors of the one matrix, `oracle.rs`.)

mod definition;
mod matrix;

use std::sync::Arc;

use coordination::core::filter::ExclusionList;
use coordination::core::ids::Interner;
use coordination::core::project::project;
use coordination::core::records::{write_ndjson, Dataset};
use coordination::core::snapshot::{
    btm_from_snapshot, ci_from_snapshot, dataset_from_snapshot, ingest_to_snapshot, write_snapshot,
};
use coordination::core::store::Snapshot;
use coordination::core::{AuthorId, Event, IngestConfig, PageId, Window};
use coordination::redditgen::ScenarioConfig;
use coordination::stream::StreamProjector;
use matrix::TempSnap;
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
    /// and the rank slices tile it for every rank count.
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
        for nranks in 1..=7 {
            let tiled: Vec<_> =
                (0..nranks).flat_map(|r| snap.events().rank_slice(r, nranks)).collect();
            prop_assert_eq!(&tiled, &stored, "{} ranks", nranks);
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
    let (summary, stats) = ingest_to_snapshot(
        &ndjson[..],
        &IngestConfig::default(),
        Some(window),
        file.path(),
    )
    .expect("ingest to snapshot");
    assert_eq!(summary.n_events, stats.events);
    assert!(summary.with_ci);

    let snap = Snapshot::open(file.path()).expect("open snapshot");
    let resident = coordination::core::ingest::ingest_slice(&ndjson, &IngestConfig::default())
        .expect("resident ingest")
        .dataset;

    // the materialized dataset keeps ingest's dense ids
    let back = dataset_from_snapshot(&snap);
    assert_eq!(back.authors.len(), resident.authors.len());
    for (id, name) in resident.authors.iter() {
        assert_eq!(back.authors.get(name), Some(id));
    }

    // the embedded CI graph is the projection the writer ran, after the same
    // bot exclusions as the pipeline
    let excluded = ExclusionList::reddit_defaults().resolve(&resident);
    let want = project(&resident.btm_without(&excluded), window);
    let (w, ci) = ci_from_snapshot(&snap).expect("embedded CI graph");
    assert_eq!(w, window);
    let edges = |g: &coordination::core::CiGraph| {
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        edges
    };
    assert_eq!(edges(&ci), edges(&want));
    assert_eq!(ci.page_counts(), want.page_counts());

    // stream warm start from the mapped rows matches the resident BTM
    let warm_resident = StreamProjector::warm_start(window, &resident.btm());
    let warm_mapped = StreamProjector::warm_start_snapshot(window, &snap);
    assert_eq!(warm_resident.n_edges(), warm_mapped.n_edges());
    assert_eq!(warm_resident.now(), warm_mapped.now());
}
