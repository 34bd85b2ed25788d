//! One input, both row layouts: whatever reads a [`Btm`]'s rows reads the
//! same thing off 8 B rows and off 16 B ones.
//!
//! [`Btm::build_wide`] holds the drawn events in the wide layout beside the
//! narrow one [`Btm::build`] picks for them. Where the rows are built out of
//! reach — the snapshot loader, a rank's partition — the input itself goes
//! wide: one more comment, 2⁶² s away, by an author and on a page nothing else
//! uses, which adds no pair and no triangle.

use std::sync::Arc;

use proptest::prelude::*;

use crate::btm::{reference_sides, AuthorPages, Btm};
use crate::dist_pipeline::{event_source, DistPipeline};
use crate::filter::ExclusionList;
use crate::hypergraph::validate_all;
use crate::ids::{AuthorId, Event, Interner, PageId};
use crate::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use crate::project::{project, project_sequential, project_subset};
use crate::records::Dataset;
use crate::snapshot::{btm_from_snapshot, write_snapshot};
use crate::window::Window;
use crate::windowed_hyperedge::validate_windowed;
use crate::CiGraph;

/// Id spaces of the drawn events; the last author and the last page are the
/// far comment's own.
const N_AUTHORS: u32 = 10;
const N_PAGES: u32 = 8;
const FAR: Event = Event {
    author: AuthorId(N_AUTHORS - 1),
    page: PageId(N_PAGES - 1),
    ts: -(1 << 62),
};

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    let event = (0..N_AUTHORS - 1, 0..N_PAGES - 1, -300i64..300)
        .prop_map(|(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts));
    prop::collection::vec(event, 0..160)
}

/// The three receive sides of the event exchange: flat rows, a run stack
/// spilled on every batch, a run stack that never spills.
fn arb_budget() -> impl Strategy<Value = Option<usize>> {
    (0u8..3).prop_map(|kind| [None, Some(1), Some(1 << 30)][kind as usize])
}

fn canon(ci: &CiGraph) -> (Vec<(u32, u32, u64)>, Vec<u64>) {
    let mut edges: Vec<_> = ci.edges().collect();
    edges.sort_unstable();
    (edges, ci.page_counts().to_vec())
}

/// What a run detected, as comparable data (`comments_reviewed` counts the
/// far comment where there is one, so it stays out).
fn detection(out: &PipelineOutput) -> impl PartialEq + std::fmt::Debug {
    let examined = out.stats.triangles_examined;
    let found = (out.survey.triangles.clone(), out.triplets.clone());
    (canon(&out.ci), found, examined)
}

fn dataset(events: Vec<Event>) -> Dataset {
    let names = |prefix: &str, n: u32| {
        let mut interner = Interner::new();
        (0..n).for_each(|i| assert_eq!(interner.intern(&format!("{prefix}{i}")), i));
        Arc::new(interner)
    };
    Dataset {
        authors: names("a", N_AUTHORS),
        pages: names("p", N_PAGES),
        events,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_layouts_read_the_same(
        events in arb_events(),
        excluded in prop::collection::vec(0..N_AUTHORS + 2, 0..3),
        (d1, width) in (0i64..8, 1i64..200),
        nranks in 1usize..4,
        budget in arb_budget(),
    ) {
        let (na, np) = (N_AUTHORS, N_PAGES);
        let window = Window::new(d1, d1 + width);
        let excluded: Vec<AuthorId> = excluded.into_iter().map(AuthorId).collect();
        let narrow = Btm::build(na, np, &excluded, || events.iter().copied());
        let wide = Btm::build_wide(na, np, &excluded, || events.iter().copied());
        prop_assert!(narrow.is_narrow() && !wide.is_narrow());
        prop_assert_eq!(&narrow, &wide);

        // the rows of the definition
        let kept: Vec<Event> =
            events.iter().copied().filter(|e| !excluded.contains(&e.author)).collect();
        let (by_page, by_author) = reference_sides(na, np, &kept);
        for btm in [&narrow, &wide] {
            for p in 0..np {
                prop_assert_eq!(&btm.page_neighborhood(PageId(p)).to_vec(), &by_page[p as usize]);
            }
            let authors = AuthorPages::all(btm);
            for a in 0..na {
                prop_assert_eq!(authors.pages(AuthorId(a)), &by_author[a as usize][..]);
            }
        }

        // step 1, whole and on a subset, against the literal loop
        let ci = project(&narrow, window);
        prop_assert_eq!(canon(&ci), canon(&project(&wide, window)));
        prop_assert_eq!(canon(&ci), canon(&project_sequential(&wide, window)));
        let subset = [1, 2, 3, 5, 8, na].map(AuthorId);
        prop_assert_eq!(
            canon(&project_subset(&narrow, &subset, window)),
            canon(&project_subset(&wide, &subset, window))
        );

        // steps 2–3, the windowed hyperedge and the refinement's removal
        let config = PipelineConfig {
            window,
            min_triangle_weight: 1,
            exclusions: ExclusionList::new(),
            ..Default::default()
        };
        let resident = Pipeline::new(config.clone()).run_btm(&narrow);
        prop_assert_eq!(detection(&resident), detection(&Pipeline::new(config.clone()).run_btm(&wide)));
        let triangles: Vec<_> = resident.survey.triangles.iter().map(|s| s.triangle).collect();
        prop_assert_eq!(
            validate_all(&narrow, ci.page_counts(), &triangles),
            validate_all(&wide, ci.page_counts(), &triangles)
        );
        prop_assert_eq!(
            validate_windowed(&narrow, &triangles, window.d2()),
            validate_windowed(&wide, &triangles, window.d2())
        );
        let flagged: Vec<AuthorId> = resident.triplets.iter().flat_map(|t| t.authors).collect();
        let peeled = narrow.without_authors(&flagged);
        prop_assert!(peeled.is_narrow());
        prop_assert_eq!(&peeled, &wide.without_authors(&flagged));
        let mut gone = excluded.clone();
        gone.extend(&flagged);
        prop_assert_eq!(&peeled, &Btm::build(na, np, &gone, || events.iter().copied()));

        // the snapshot loader, told each input's own span
        let mut far_events = events.clone();
        far_events.insert(events.len() / 2, FAR);
        let mut excluded_and_far = excluded.clone();
        excluded_and_far.push(FAR.author);
        // (a far comment with nothing near it is a span of zero)
        for (events, excluded, is_narrow) in
            [(&events, &excluded, true), (&far_events, &excluded_and_far, events.is_empty())]
        {
            let path = std::env::temp_dir()
                .join(format!("layout-equivalence-{}.snap", std::process::id()));
            write_snapshot(&dataset(events.clone()), None, &path).expect("any dataset writes");
            let snap = crate::store::Snapshot::open(&path).expect("and opens");
            let loaded = btm_from_snapshot(&snap, excluded);
            prop_assert_eq!(loaded.is_narrow(), is_narrow);
            prop_assert_eq!(&loaded, &narrow);
            drop(snap);
            std::fs::remove_file(&path).ok();
        }

        // the rank program: every partition narrow, then the far comment's
        // owner wide beside narrow neighbours
        let unmasked = Pipeline::new(config.clone())
            .run_btm(&Btm::from_events(na, np, &events));
        let mut ranked = DistPipeline::new(config, nranks);
        if let Some(bytes) = budget {
            ranked = ranked.with_shuffle_budget(bytes);
        }
        for events in [&events, &far_events] {
            let source = event_source(|rank, n| {
                Box::new(events[ygm::block_range(rank, events.len(), n)].iter().copied())
            });
            prop_assert_eq!(detection(&ranked.run_events(na, &source)), detection(&unmasked));
        }
    }
}
