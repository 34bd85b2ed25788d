//! Every door of every engine against the paper's definition (`definition`,
//! written from PAPER.md §1 alone), through the one matrix (`matrix::check`):
//! a drawn input at one to three ranks under drawn shuffle budgets and flush
//! thresholds, and the fixed inputs the draw would rarely reach. Larger drawn
//! inputs at up to eight ranks, and fixed inputs that pin one setting of the
//! rank-sharded engine, are in `distributed_equivalence.rs`.

mod definition;
mod matrix;

use std::collections::BTreeMap;

use proptest::prelude::*;

use definition::{Comment, Params};
use matrix::{arb_ranked, check, Input, Ranked};

/// Pages per drawn input: few, so authors share them.
const N_PAGES: u32 = 5;

/// The wide id space an input may be drawn in: its top ids need 17 bits.
/// Every engine holds dense per-author tables, so the top of `u32` itself
/// is out of a test's reach.
const WIDE_AUTHORS: u32 = 1 << 17;

/// Twelve authors on five pages, drawn into one of two id spaces (twelve
/// ids, or — one input in eight — the top twelve of [`WIDE_AUTHORS`]), in
/// one of three shapes:
/// comments a few seconds apart across the pages, every comment on one
/// mega-dense page up to 400 s apart, or every comment at one instant.
/// Timestamps tie, whole rows repeat, and — in some inputs — comments sit at
/// both ends of `i64`, which makes the rows wide.
fn arb_input() -> impl Strategy<Value = Input> {
    let comment = (0u32..12, 0u32..N_PAGES, 0u32..10, 0i64..400);
    (
        (0u32..8, 0u32..3, 0u32..4),
        prop::collection::vec(comment, 0..60),
        0usize..10,
        prop::collection::vec(0u32..12, 0..3),
    )
        .prop_map(|((space, extremes, shape), drawn, repeats, excluded)| {
            let (n_authors, id) = match space {
                0 => (WIDE_AUTHORS, WIDE_AUTHORS - 12),
                _ => (12, 0),
            };
            let mut comments: Vec<Comment> = drawn
                .iter()
                .map(|&(a, p, kind, t)| {
                    let near = t % 40;
                    let (p, ts) = match shape {
                        0 | 1 => (p, near - 20),
                        2 => (0, t),
                        _ => (p, 7),
                    };
                    let ts = match kind {
                        0 if extremes == 0 && shape < 3 => i64::MIN + near,
                        1 if extremes == 0 && shape < 3 => i64::MAX - near,
                        _ => ts,
                    };
                    (id + a, p, ts)
                })
                .collect();
            comments.extend(comments[..repeats.min(comments.len())].to_vec());
            Input {
                n_authors,
                n_pages: N_PAGES,
                comments,
                excluded: excluded.into_iter().map(|a| id + a).collect(),
            }
        })
}

/// Windows a few seconds wide, or up to ~500 s on one input in four, with
/// and without `δ1 > 0`, the edge threshold and the `T` floor.
fn arb_params() -> impl Strategy<Value = Params> {
    ((0i64..4, 1i64..30, 0u32..4), 0u64..3, 1u64..4, 0u32..3).prop_map(
        |((d1, width, long), threshold, min, t)| Params {
            d1,
            d2: d1 + if long == 0 { width * 17 } else { width },
            edge_threshold: threshold,
            min_weight: min,
            min_t: [0.0, 0.0, 0.3][t as usize],
        },
    )
}

/// Any `min{w′}`, `T` ≥ 0 and an edge threshold of 1.
fn keep_all(d1: i64, d2: i64) -> Params {
    Params {
        d1,
        d2,
        edge_threshold: 1,
        min_weight: 1,
        min_t: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One drawn input through every door, the rank-sharded ones at one,
    /// two and three ranks, each with a drawn budget, flush threshold and
    /// arrival order.
    #[test]
    fn engines_match_the_definition_at_1_to_3_ranks(
        input in arb_input(),
        params in arb_params(),
        ranked in (arb_ranked(1), arb_ranked(2), arb_ranked(3)),
    ) {
        check(&input, params, &[ranked.0, ranked.1, ranked.2])?;
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
        n_pages: N_PAGES,
        comments,
        excluded: vec![top + 4],
    };
    let def = check(&input, keep_all(5, 10), &[1, 2, 3].map(Ranked::at)).unwrap();
    let mut runs: BTreeMap<[u32; 2], usize> = BTreeMap::new();
    for t in &def.triplets {
        *runs.entry([t.authors[0], t.authors[1]]).or_default() += 1;
    }
    assert_eq!(def.triplets.len(), 4, "{def:?}");
    assert!(runs.values().any(|&n| n == 1), "{runs:?}");
    assert!(runs.values().any(|&n| n > 1), "{runs:?}");
}

/// One page of 200 simultaneous comments, whose candidate pair stream
/// outgrows the projection's mid-page compaction floor (2¹⁴): over 12
/// authors compaction collapses it and stays armed, over 200 distinct
/// authors it removes nothing and switches itself off. The 200-author page
/// is surveyed at an edge threshold no pair reaches, which keeps the
/// definition's triple loop short.
#[test]
fn pages_past_the_compaction_floor_match_the_definition() {
    for (n_authors, threshold) in [(12, 1), (200, 2)] {
        let input = Input {
            n_authors,
            n_pages: 1,
            comments: (0..200).map(|i| (i % n_authors, 0, 7)).collect(),
            excluded: Vec::new(),
        };
        let params = Params {
            edge_threshold: threshold,
            ..keep_all(0, 60)
        };
        let def = check(&input, params, &[Ranked::at(2)]).unwrap();
        let pairs = u64::from(n_authors * (n_authors - 1) / 2);
        assert_eq!(def.w.len() as u64, pairs);
    }
}
