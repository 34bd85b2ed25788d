//! Both engines against the paper's definition (`definition`, written from
//! PAPER.md §1 alone): the resident `Pipeline::run_btm` and the rank-sharded
//! `DistPipeline::run_events` at 1, 2 and 3 ranks must report the
//! definition's `w′`, `P′` and survivors, and for every survivor its `T`,
//! `w_xyz`, `p_x` and `C` — the scores bit for bit.

mod definition;

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::TestCaseError;

use coordination::core::btm::Btm;
use coordination::core::dist_pipeline::{event_source, DistPipeline};
use coordination::core::ids::{AuthorId, Event, PageId};
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::Window;
use definition::{Comment, Definition, Params, Triplet};

/// Pages per input: few, so authors share them.
const N_PAGES: u32 = 5;

/// The wide id space an input may be drawn in: its top ids need 17 bits.
/// Every engine holds dense per-author tables, so the top of `u32` itself
/// is out of a test's reach.
const WIDE_AUTHORS: u32 = 1 << 17;

/// One input: the id-space size, the comments, the excluded authors.
#[derive(Clone, Debug)]
struct Input {
    n_authors: u32,
    comments: Vec<Comment>,
    excluded: Vec<u32>,
}

/// Eight authors on five pages, drawn into one of two id spaces (eight ids,
/// or the top eight of [`WIDE_AUTHORS`]), with timestamps that tie, repeat
/// whole rows, and — in some inputs — sit at both ends of `i64`.
fn arb_input() -> impl Strategy<Value = Input> {
    let comment = (0u32..8, 0u32..N_PAGES, 0u32..10, -20i64..20);
    (
        0u32..6,
        0u32..3,
        prop::collection::vec(comment, 0..60),
        0usize..10,
        prop::collection::vec(0u32..8, 0..3),
    )
        .prop_map(|(space, extremes, drawn, repeats, excluded)| {
            let (n_authors, id) = match space {
                0 => (WIDE_AUTHORS, WIDE_AUTHORS - 8),
                _ => (8, 0),
            };
            let mut comments: Vec<Comment> = drawn
                .iter()
                .map(|&(a, p, kind, t)| {
                    let ts = match kind {
                        0 if extremes == 0 => i64::MIN + 20 + t,
                        1 if extremes == 0 => i64::MAX - 20 + t,
                        _ => t,
                    };
                    (id + a, p, ts)
                })
                .collect();
            comments.extend(comments[..repeats.min(comments.len())].to_vec());
            let excluded = excluded.into_iter().map(|a| id + a).collect();
            Input {
                n_authors,
                comments,
                excluded,
            }
        })
}

fn arb_params() -> impl Strategy<Value = Params> {
    (0i64..4, 1i64..30, 0u64..3, 1u64..4, 0u32..3).prop_map(|(d1, width, threshold, min, t)| {
        Params {
            d1,
            d2: d1 + width,
            edge_threshold: threshold,
            min_weight: min,
            min_t: [0.0, 0.0, 0.3][t as usize],
        }
    })
}

/// What a pipeline run says, in the definition's terms.
fn observed(out: &PipelineOutput) -> Definition {
    let w = out.ci.edges().map(|(x, y, w)| ((x, y), w)).collect();
    let p_prime = (0u32..)
        .zip(out.ci.page_counts())
        .filter(|&(_, &n)| n > 0)
        .map(|(x, &n)| (x, n))
        .collect::<BTreeMap<u32, u64>>();
    let triplets = out
        .triplets
        .iter()
        .map(|m| Triplet {
            authors: m.authors.map(|a| a.0),
            w: m.ci_weights,
            t_bits: m.t.to_bits(),
            w_xyz: m.hyper_weight,
            p: m.page_counts,
            c_bits: m.c.to_bits(),
        })
        .collect();
    Definition {
        w,
        p_prime,
        triplets,
    }
}

/// Check both engines at 1–3 ranks against the definition; returns it.
fn check(input: &Input, params: Params) -> Result<Definition, TestCaseError> {
    let want = definition::run(&input.comments, &input.excluded, &params);
    let config = PipelineConfig {
        window: Window::new(params.d1, params.d2),
        edge_threshold: params.edge_threshold,
        min_triangle_weight: params.min_weight,
        min_t_score: params.min_t,
        ..Default::default()
    };
    let events: Vec<Event> = input
        .comments
        .iter()
        .map(|&(a, p, ts)| Event::new(AuthorId(a), PageId(p), ts))
        .collect();
    let excluded: Vec<AuthorId> = input.excluded.iter().copied().map(AuthorId).collect();
    let btm = Btm::build(input.n_authors, N_PAGES, &excluded, || {
        events.iter().copied()
    });
    let resident = Pipeline::new(config.clone()).run_btm(&btm);
    prop_assert_eq!(&observed(&resident), &want, "resident, {:?}", params);
    // `run_events` takes its exclusions upstream, in the source.
    let source = event_source(|rank, n| {
        let kept = events.iter().filter(|e| !excluded.contains(&e.author));
        Box::new(kept.skip(rank).step_by(n).copied())
    });
    for nranks in 1..=3 {
        let dist = DistPipeline::new(config.clone(), nranks).run_events(input.n_authors, &source);
        prop_assert_eq!(&observed(&dist), &want, "{} ranks, {:?}", nranks, params);
    }
    Ok(want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_match_the_definition_at_1_to_3_ranks(input in arb_input(), params in arb_params()) {
        check(&input, params)?;
    }
}

/// A fixed input the property's cases may miss: a δ1 > 0 window, survivors
/// whose leading edge `(x, y)` is shared by two triplets and by one, an
/// excluded author, and ids at the top of the wide space.
#[test]
fn runs_of_one_and_of_many_match_the_definition() {
    let top = WIDE_AUTHORS - 5;
    // top+0..top+2 answer each other 5 s apart on pages 0–2, top+3 joins
    // top+0 and top+1 on pages 0 and 3 and top+2 on page 4, and top+4 is
    // excluded: survivors (0,1,2), (0,1,3), (0,2,3), (1,2,3)
    let mut comments = Vec::new();
    for p in 0..3 {
        for a in 0..3 {
            comments.push((top + a, p, 100 * i64::from(p) + 5 * i64::from(a)));
        }
    }
    comments.extend([
        (top + 3, 0, 10),
        (top + 3, 3, 0),
        (top, 3, 5),
        (top + 1, 3, 10),
    ]);
    comments.extend([(top + 2, 4, 0), (top + 3, 4, 5)]);
    comments.extend([(top + 4, 0, 5), (top + 4, 1, 105)]);
    let input = Input {
        n_authors: WIDE_AUTHORS,
        comments,
        excluded: vec![top + 4],
    };
    let params = Params {
        d1: 5,
        d2: 10,
        edge_threshold: 1,
        min_weight: 1,
        min_t: 0.0,
    };
    let def = check(&input, params).unwrap();
    let mut runs: BTreeMap<[u32; 2], usize> = BTreeMap::new();
    for t in &def.triplets {
        *runs.entry([t.authors[0], t.authors[1]]).or_default() += 1;
    }
    assert_eq!(def.triplets.len(), 4, "{def:?}");
    assert!(runs.values().any(|&n| n == 1), "{runs:?}");
    assert!(runs.values().any(|&n| n > 1), "{runs:?}");
}
