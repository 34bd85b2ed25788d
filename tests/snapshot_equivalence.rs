//! Cross-crate equivalence: a generated month driven through the on-disk
//! snapshot (`ingest → snapshot write → mmap open`) must be indistinguishable
//! from the resident in-memory path at every consumer — batch pipeline,
//! triangle survey over the embedded compressed CI graph, and the stream
//! projector's warm start — and the rows a snapshot stores must be the BTM of
//! the definition for any events at all.

use std::sync::Arc;

use coordination::core::btm::reference_sides;
use coordination::core::ids::Interner;
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::records::{write_ndjson, Dataset};
use coordination::core::snapshot::{
    btm_from_snapshot, ci_from_snapshot, dataset_from_snapshot, ingest_to_snapshot, write_snapshot,
};
use coordination::core::store::Snapshot;
use coordination::core::{AuthorId, Event, IngestConfig, PageId, Window};
use coordination::redditgen::ScenarioConfig;
use coordination::stream::StreamProjector;
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
    /// excluded, the BTM read off a written snapshot is the dataset's own and
    /// the definition's, the flat event iterator is a permutation of what was
    /// written, and the rank slices tile it for every rank count.
    #[test]
    fn snapshot_rows_are_the_btm_of_the_definition(
        events in arb_events(),
        excluded in prop::collection::vec(0u32..12, 0..4),
    ) {
        let (na, np) = (10, 8);
        let ds = Dataset { authors: interner("a", na), pages: interner("p", np), events };
        let excluded: Vec<AuthorId> = excluded.into_iter().map(AuthorId).collect();
        let path = std::env::temp_dir().join(format!("snap-rows-{}.snap", std::process::id()));
        write_snapshot(&ds, None, &path).expect("any dataset writes");
        let snap = Snapshot::open(&path).expect("and opens");

        let btm = btm_from_snapshot(&snap, &excluded);
        prop_assert_eq!(&btm, &ds.btm_without(&excluded));
        let kept: Vec<Event> =
            ds.events.iter().copied().filter(|e| !excluded.contains(&e.author)).collect();
        let (by_page, _) = reference_sides(na, np, &kept);
        for p in 0..np {
            prop_assert_eq!(&btm.page_neighborhood(PageId(p)).to_vec(), &by_page[p as usize]);
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
        drop(snap);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn snapshot_path_is_equivalent_end_to_end() {
    let scenario = ScenarioConfig::jan2020(0.05).build();
    let mut ndjson = Vec::new();
    write_ndjson(&mut ndjson, &scenario.records).expect("serialize scenario");

    let path = std::env::temp_dir().join(format!("snap-equiv-{}.snap", std::process::id()));
    let window = Window::zero_to_60s();
    let (summary, stats) =
        ingest_to_snapshot(&ndjson[..], &IngestConfig::default(), Some(window), &path)
            .expect("ingest to snapshot");
    assert_eq!(summary.n_events, stats.events);
    assert!(summary.with_ci);

    let snap = Snapshot::open(&path).expect("open snapshot");
    let resident = coordination::core::ingest::ingest_slice(&ndjson, &IngestConfig::default())
        .expect("resident ingest")
        .dataset;

    // batch pipeline: identical triplets, scores bit-for-bit
    let pipeline = Pipeline::new(PipelineConfig {
        window,
        min_triangle_weight: 25,
        ..Default::default()
    });
    let a = pipeline.run_dataset(&resident);
    let b = pipeline.run_snapshot(&snap);
    assert_eq!(a.stats.ci_edges, b.stats.ci_edges);
    assert_eq!(a.triplets.len(), b.triplets.len());
    assert!(!a.triplets.is_empty(), "scenario produced no triplets");
    for (x, y) in a.triplets.iter().zip(&b.triplets) {
        assert_eq!(x.authors, y.authors);
        assert_eq!(x.t.to_bits(), y.t.to_bits());
        assert_eq!(x.c.to_bits(), y.c.to_bits());
    }

    // the materialized dataset keeps ingest's dense ids
    let back = dataset_from_snapshot(&snap);
    assert_eq!(back.authors.len(), resident.authors.len());
    for (id, name) in resident.authors.iter() {
        assert_eq!(back.authors.get(name), Some(id));
    }

    // embedded CI graph round-trips the projection the writer ran, which
    // applies the same bot exclusions as the pipeline — so it matches the
    // pipeline's own step-1 graph exactly
    let (w, ci) = ci_from_snapshot(&snap).expect("embedded CI graph");
    assert_eq!(w, window);
    assert_eq!(ci.n_edges(), a.ci.n_edges());
    assert_eq!(ci.page_counts(), a.ci.page_counts());

    // stream warm start from the mapped columns matches the resident BTM
    let warm_resident = StreamProjector::warm_start(window, &resident.btm());
    let warm_mapped = StreamProjector::warm_start_snapshot(window, &snap);
    assert_eq!(warm_resident.n_edges(), warm_mapped.n_edges());
    assert_eq!(warm_resident.now(), warm_mapped.now());

    drop(snap);
    std::fs::remove_file(&path).ok();
}
