//! The one matrix: every way into every engine, checked against the paper's
//! definition (`definition`) and against nothing else.
//!
//! [`check`] computes the definition of an input once, then runs it through
//! each door and reads back `w′`, `P′`, step 2's report and every survivor's
//! `T`, `w_xyz`, `p_x` and `C` (the scores bit for bit):
//!
//! - the resident engine: [`Pipeline::run_btm`] over [`Btm::build`] (authors
//!   excluded by id), [`Pipeline::run_dataset`] (excluded by name) and
//!   [`Pipeline::run_snapshot`] on the dataset written and opened;
//! - the rank-sharded engine at each [`Ranked`] setting: its `run_dataset`
//!   and `run_snapshot`, which build or map a BTM as the resident twins do
//!   and read its blocks through `run_btm`, and `run_events`, fed the kept
//!   comments in a permuted arrival order;
//! - the cumulative [`StreamEngine`], for `w′` and `P′`.
//!
//! Which row layout a door holds is the input's to pick: 8 B rows when the
//! kept timestamps span no more than a `u32`, 16 B rows otherwise.

// Each test binary that includes this module reads its own part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestCaseError;

use coordination::core::btm::Btm;
use coordination::core::dist_pipeline::{event_source, DistPipeline};
use coordination::core::filter::ExclusionList;
use coordination::core::ids::{AuthorId, Event, Interner, PageId};
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::records::{CommentRecord, Dataset};
use coordination::core::snapshot::{btm_from_snapshot, write_snapshot};
use coordination::core::store::Snapshot;
use coordination::core::Window;
use coordination::stream::{StreamConfig, StreamEngine};

use definition::{self, Comment, Definition, Params, Triplet};

/// One input: the id spaces, the comments, the excluded authors.
#[derive(Clone, Debug)]
pub struct Input {
    pub n_authors: u32,
    pub n_pages: u32,
    pub comments: Vec<Comment>,
    /// By id, or by the name `a{id}` where a door takes names. Every door is
    /// also told to exclude the id one past the id space, which names nobody.
    pub excluded: Vec<u32>,
}

/// How the rank-sharded engine runs: its rank count, shuffle budget and
/// exchange flush threshold (`None`: the adaptive default), and the seed of
/// the arrival order `run_events` sees.
#[derive(Clone, Copy, Debug)]
pub struct Ranked {
    pub ranks: usize,
    pub budget: Option<usize>,
    pub flush: Option<usize>,
    pub seed: u64,
}

impl Ranked {
    /// `ranks` ranks with no budget and the adaptive flush threshold.
    pub fn at(ranks: usize) -> Self {
        Ranked {
            ranks,
            budget: None,
            flush: None,
            seed: 0,
        }
    }
}

/// The shuffle budgets that reach each receive side of the event exchange:
/// none (flat page rows), one every batch overruns (a run stack spilled on
/// every batch) and one larger than any partition (a run stack that never
/// spills).
pub const BUDGETS: [Option<usize>; 3] = [None, Some(1), Some(1 << 30)];

/// `ranks` ranks with each of the [`BUDGETS`], the adaptive flush threshold
/// or one of 1–64 bytes, and any arrival order.
pub fn arb_ranked(ranks: usize) -> impl Strategy<Value = Ranked> {
    (0usize..3, 0usize..65, 0u64..u64::MAX).prop_map(move |(budget, flush, seed)| Ranked {
        ranks,
        budget: BUDGETS[budget],
        flush: (flush > 0).then_some(flush),
        seed,
    })
}

/// A `.snap` path of this process and thread's own under the temp dir,
/// unlinked on drop — also when the case that wrote it fails.
pub struct TempSnap(PathBuf);

impl TempSnap {
    pub fn new(tag: &str) -> Self {
        let (pid, thread) = (std::process::id(), std::thread::current().id());
        TempSnap(std::env::temp_dir().join(format!("{tag}-{pid}-{thread:?}.snap")))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempSnap {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The names `{prefix}0`, `{prefix}1`, … of an id space, interned in id
/// order.
fn names(prefix: &str, n: u32) -> Arc<Interner> {
    let mut interner = Interner::new();
    (0..n).for_each(|i| assert_eq!(interner.intern(&format!("{prefix}{i}")), i));
    Arc::new(interner)
}

/// The input as a named dataset, comments in input order.
pub fn dataset(input: &Input) -> Dataset {
    Dataset {
        authors: names("a", input.n_authors),
        pages: names("p", input.n_pages),
        events: input.comments.iter().map(|&c| event(c)).collect(),
    }
}

fn event((a, p, ts): Comment) -> Event {
    Event::new(AuthorId(a), PageId(p), ts)
}

/// What a pipeline run says: the definition's terms over the CI graph the
/// run kept, the weight it was cut at, and its count of every edge.
#[derive(Debug, PartialEq)]
pub struct Observed {
    /// `ci_edges`: every pair with `w′ ≥ 1`, kept by the cut or not.
    pub ci_edges: u64,
    /// The weight the run's CI graph was cut at.
    pub cut: u64,
    /// The run in the definition's terms; its `w` is the kept graph's, the
    /// pairs with `w′` at or above `cut`.
    pub def: Definition,
}

impl Observed {
    /// What a run of `params` must say about an input whose definition is
    /// `want`: every edge counted, and `w` restricted to `w ≥ max(e, 1)`.
    pub fn of(want: &Definition, params: &Params) -> Self {
        let cut = params.edge_threshold.max(1);
        let kept = want.w.iter().filter(|&(_, &w)| w >= cut);
        Observed {
            ci_edges: want.w.len() as u64,
            cut,
            def: Definition {
                comments: want.comments,
                w: kept.map(|(&xy, &w)| (xy, w)).collect(),
                p_prime: want.p_prime.clone(),
                edges_kept: want.edges_kept,
                examined: want.examined,
                max_min_weight: want.max_min_weight,
                log_hist: want.log_hist.clone(),
                triplets: want.triplets.clone(),
            },
        }
    }
}

/// What a pipeline run says — after checking that the fields of its report
/// that restate one another agree.
pub fn observed(out: &PipelineOutput) -> Result<Observed, TestCaseError> {
    let (stats, survey) = (&out.stats, &out.survey);
    let cut = out.ci.cut_weight();
    prop_assert_eq!(stats.ci_edges_after_threshold, out.ci.n_edges());
    prop_assert!(stats.ci_edges >= out.ci.n_edges());
    prop_assert!(
        out.ci.edges().all(|(_, _, w)| w >= cut),
        "an edge below {}",
        cut
    );
    prop_assert_eq!(stats.projected_authors, out.ci.active_authors());
    prop_assert_eq!(stats.triangles_examined, survey.total_examined);
    let kept = out.triplets.len() as u64;
    prop_assert_eq!([stats.triangles_kept, stats.triplets_validated], [kept; 2]);
    prop_assert_eq!(survey.triangles.len(), out.triplets.len());
    let mut triplets = Vec::new();
    for (s, m) in survey.triangles.iter().zip(&out.triplets) {
        let min = m.ci_weights.iter().min().copied();
        prop_assert_eq!(s.triangle.vertices(), m.authors.map(|a| a.0));
        prop_assert_eq!([Some(s.min_weight), Some(m.min_ci_weight)], [min; 2]);
        prop_assert_eq!(s.t_score.to_bits(), m.t.to_bits());
        triplets.push(Triplet {
            authors: m.authors.map(|a| a.0),
            w: m.ci_weights,
            t_bits: m.t.to_bits(),
            w_xyz: m.hyper_weight,
            p: m.page_counts,
            c_bits: m.c.to_bits(),
        });
    }
    let def = Definition {
        comments: stats.comments_reviewed,
        w: out.ci.edges().map(|(x, y, w)| ((x, y), w)).collect(),
        p_prime: p_prime(out.ci.page_counts()),
        edges_kept: stats.ci_edges_after_threshold,
        examined: survey.total_examined,
        max_min_weight: survey.max_min_weight,
        log_hist: survey.min_weight_log_hist.clone(),
        triplets,
    };
    Ok(Observed {
        ci_edges: stats.ci_edges,
        cut,
        def,
    })
}

/// The nonzero `P′` of a dense per-author table.
fn p_prime(page_counts: &[u64]) -> BTreeMap<u32, u64> {
    let nonzero = (0u32..).zip(page_counts).filter(|&(_, &n)| n > 0);
    nonzero.map(|(x, &n)| (x, n)).collect()
}

/// Check every door against the definition of `input` under `params`, the
/// rank-sharded ones at each of `ranked`; returns the definition.
pub fn check(
    input: &Input,
    params: Params,
    ranked: &[Ranked],
) -> Result<Definition, TestCaseError> {
    let want = definition::run(&input.comments, &input.excluded, &params);
    let mut excluded = input.excluded.clone();
    excluded.push(input.n_authors);
    let mut kept = input.comments.clone();
    kept.retain(|c| !excluded.contains(&c.0));
    let ts = kept.iter().map(|c| i128::from(c.2));
    let span = ts.clone().max().unwrap_or(0) - ts.min().unwrap_or(0);
    let layout = if span <= u32::MAX.into() {
        "narrow"
    } else {
        "wide"
    };

    let mut exclusions = ExclusionList::new();
    exclusions.extend(excluded.iter().map(|a| format!("a{a}")));
    let config = PipelineConfig {
        window: Window::new(params.d1, params.d2),
        edge_threshold: params.edge_threshold,
        min_triangle_weight: params.min_weight,
        min_t_score: params.min_t,
        exclusions,
    };
    let ds = dataset(input);
    let file = TempSnap::new("matrix");
    write_snapshot(&ds, None, file.path()).expect("any dataset writes");
    let snap = Snapshot::open(file.path()).expect("and opens");

    let resident = Pipeline::new(config.clone());
    let ids: Vec<AuthorId> = excluded.iter().copied().map(AuthorId).collect();
    let btm = Btm::build(input.n_authors, Some(input.n_pages), &ids, || {
        ds.events.iter().copied()
    });
    // the page rows a resident door reads, built or mapped, are the definition's
    let rows = definition::rows(&kept, input.n_pages);
    for (door, btm) in [
        ("run_btm", &btm),
        ("run_snapshot", &btm_from_snapshot(&snap, &ids)),
    ] {
        let row = |p| {
            btm.page_neighborhood(PageId(p))
                .iter()
                .map(|(ts, a)| (ts, a.0))
                .collect()
        };
        let got: Vec<Vec<(i64, u32)>> = (0..input.n_pages).map(row).collect();
        prop_assert_eq!(&got, &rows, "resident {} rows, {} layout", door, layout);
    }
    let mut runs = vec![
        ("resident run_btm".to_string(), resident.run_btm(&btm)),
        (
            "resident run_dataset".to_string(),
            resident.run_dataset(&ds),
        ),
        (
            "resident run_snapshot".to_string(),
            resident.run_snapshot(&snap),
        ),
    ];
    for knobs in ranked {
        let mut pipeline = DistPipeline::new(config.clone(), knobs.ranks);
        if let Some(bytes) = knobs.budget {
            pipeline = pipeline.with_shuffle_budget(bytes);
        }
        if let Some(bytes) = knobs.flush {
            pipeline = pipeline.with_batch_bytes(bytes);
        }
        let arrivals = permuted(&kept, knobs.seed);
        let source = event_source(|rank, n| {
            let block = coordination::ygm::block_range(rank, arrivals.len(), n);
            Box::new(arrivals[block].iter().copied())
        });
        let engine = format!("rank-sharded at {knobs:?}:");
        runs.push((format!("{engine} run_dataset"), pipeline.run_dataset(&ds)));
        runs.push((
            format!("{engine} run_snapshot"),
            pipeline.run_snapshot(&snap),
        ));
        let out = pipeline.run_events(input.n_authors, &source);
        runs.push((format!("{engine} run_events"), out));
    }
    let expected = Observed::of(&want, &params);
    for (door, out) in &runs {
        let context = format!("{door}, {layout} rows, {params:?}");
        let got = observed(out).map_err(|e| TestCaseError::fail(format!("{context}: {e:?}")))?;
        prop_assert_eq!(
            &got,
            &expected,
            "{context}:\n got {got:?}\nwant {expected:?}"
        );
    }

    let streamed = streamed(&kept, params);
    prop_assert_eq!(
        &streamed,
        &(want.w.clone(), want.p_prime.clone()),
        "stream, {layout} rows, {params:?}"
    );
    Ok(want)
}

/// `comments` as events in the arrival order `seed` picks.
fn permuted(comments: &[Comment], seed: u64) -> Vec<Event> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<Event> = comments.iter().map(|&c| event(c)).collect();
    order.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
    order
}

/// `w′` and `P′` of the cumulative stream engine's snapshot after the kept
/// comments in time order, in the input's ids (the engine interns its own).
fn streamed(kept: &[Comment], params: Params) -> (BTreeMap<(u32, u32), u64>, BTreeMap<u32, u64>) {
    let mut engine = StreamEngine::new(StreamConfig {
        window: Window::new(params.d1, params.d2),
        // only w′ and P′ are read: no edge reaches the triangle tracker
        min_triangle_weight: u64::MAX,
        ..Default::default()
    });
    let mut in_time = kept.to_vec();
    in_time.sort_by_key(|c| c.2);
    for (a, p, ts) in in_time {
        engine.ingest(&CommentRecord::new(format!("a{a}"), format!("p{p}"), ts));
    }
    let id = |i: u32| -> u32 { engine.authors().name(i)[1..].parse().expect("a{id}") };
    let live = engine.snapshot();
    let w = live
        .edges()
        .map(|(x, y, w)| ((id(x).min(id(y)), id(x).max(id(y))), w));
    let p = p_prime(live.page_counts())
        .into_iter()
        .map(|(x, n)| (id(x), n));
    (w.collect(), p.collect())
}
