//! The four workloads: what each one is, why it exists, and its set-up
//! (generate → materialise → write inputs), which is timed on its own and
//! never inside a throughput figure.
//!
//! All four come from `redditgen::dist::DistMonth`; `--seed` replaces the
//! generator's master seed and the engines only ever see generated events.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::adapter::*;

/// The seed the frozen counts below were taken at (`jan2020_large`'s own).
pub const DEFAULT_SEED: u64 = 0x0120_2001;

/// Exact output counts at [`DEFAULT_SEED`] and full scale. They repeat
/// exactly; at any other seed only the floors and invariants are checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frozen {
    pub ci_edges: u64,
    pub triangles_examined: u64,
    pub triangles_kept: u64,
}

/// Shape floors that must hold at every seed (full scale only): they are
/// what makes the workload stress the layer it is named for.
#[derive(Clone, Copy, Debug)]
pub struct Floors {
    pub ci_edges: u64,
    pub triangles_examined: u64,
    pub triplets: u64,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub month: DistMonthConfig,
    /// Projection window `(0, window_s)`.
    pub window_s: i64,
    pub edge_threshold: u64,
    pub cutoff: u64,
    /// Shuffle budget of the `spill` engine, small enough that it must spill.
    pub spill_budget: usize,
    /// Sliding retention horizon of the stream replay, seconds.
    pub horizon_s: i64,
    pub floors: Floors,
    pub frozen: Frozen,
}

fn month(
    n_blocks: usize,
    block_comments: usize,
    authors: u32,
    pages: u32,
    az: f64,
    pz: f64,
) -> DistMonthConfig {
    DistMonthConfig {
        n_blocks,
        block_comments,
        organic_authors: authors,
        organic_pages: pages,
        author_zipf: az,
        page_zipf: pz,
        ..DistMonthConfig::jan2020_large()
    }
}

/// The workload table. Names are fixed: later issues refer to them.
pub fn specs() -> Vec<Spec> {
    let dense = month(64, 7_800, 10_000, 2_000, 0.6, 0.7);
    vec![
        Spec {
            name: "month_sparse",
            why: "the paper's month: huge sparse bipartite graph, almost nothing survives the threshold, so Btm build and pack/exchange/sort/merge carry the wall",
            month: month(128, 7_800, 120_000, 60_000, 0.8, 0.9),
            window_s: 60,
            edge_threshold: 10,
            cutoff: 10,
            spill_budget: 2 << 20,
            horizon_s: 1_036_800,
            floors: Floors { ci_edges: 50_000, triangles_examined: 80, triplets: 80 },
            frozen: Frozen { ci_edges: 100682, triangles_examined: 80, triangles_kept: 80 },
        },
        Spec {
            name: "dense_ci",
            why: "15-minute window on hot pages: pair kernel, CSR build, orientation and wedge checks carry the wall, the shuffle is small",
            month: dense.clone(),
            window_s: 900,
            edge_threshold: 1,
            cutoff: 3,
            spill_budget: 1 << 20,
            horizon_s: 259_200,
            floors: Floors { ci_edges: 200_000, triangles_examined: 500_000, triplets: 80 },
            frozen: Frozen { ci_edges: 280668, triangles_examined: 1076549, triangles_kept: 1342 },
        },
        Spec {
            name: "triplet_flood",
            why: "same events and projection as dense_ci but the survey is bypassed and thousands of triplets on long page lists reach validation",
            month: dense,
            window_s: 900,
            edge_threshold: 2,
            cutoff: 2,
            spill_budget: 1 << 20,
            horizon_s: 259_200,
            floors: Floors { ci_edges: 200_000, triangles_examined: 5_000, triplets: 5_000 },
            frozen: Frozen { ci_edges: 280668, triangles_examined: 9162, triangles_kept: 9162 },
        },
        Spec {
            name: "stream_replay",
            why: "incremental insert and expiry under a sliding horizon instead of a batch sort: a change that helps the batch kernel at the stream engine's expense shows here",
            month: month(320, 3_120, 120_000, 60_000, 0.8, 0.9),
            window_s: 60,
            edge_threshold: 25,
            cutoff: 25,
            spill_budget: 2 << 20,
            horizon_s: 414_720,
            floors: Floors { ci_edges: 50_000, triangles_examined: 80, triplets: 80 },
            frozen: Frozen { ci_edges: 101325, triangles_examined: 80, triangles_kept: 80 },
        },
    ]
}

/// Everything the passes read: generated once per set-up.
pub struct Inputs {
    pub n_authors: u32,
    pub n_pages: u32,
    pub events: Vec<Event>,
    /// The first half of `events` as name-keyed records in stream order.
    pub stream_records: Vec<CommentRecord>,
    pub ndjson: PathBuf,
    pub snapshot: PathBuf,
    /// Generator ids of every planted clique's members.
    pub cliques: Vec<Vec<u32>>,
    pub bursts_per_clique: u32,
}

impl Inputs {
    /// Events the stream replay ingests.
    pub fn stream_prefix(&self) -> &[Event] {
        &self.events[..self.events.len() / 2]
    }
}

/// The author name written for generator id `a` (pages are `t3_{p}`).
pub fn author_name(a: u32) -> String {
    format!("u{a}")
}

/// Inverse of [`author_name`].
pub fn author_id(name: &str) -> Option<u32> {
    name.strip_prefix('u')?.parse().ok()
}

/// Generate, materialise and write one workload's inputs into `dir`.
pub fn set_up(spec: &Spec, seed: u64, scale_div: usize, dir: &Path) -> std::io::Result<Inputs> {
    let mut cfg = spec.month.clone();
    cfg.seed = seed;
    cfg.n_blocks = (cfg.n_blocks / scale_div).max(1);
    let gen = DistMonth::new(cfg.clone());
    let events: Vec<Event> = gen.all_events().collect();
    let (n_authors, n_pages) = (gen.total_authors(), gen.total_pages());

    // NDJSON in generation order, and the dataset a reader of that file
    // interns (dense ids in first-occurrence order) for the snapshot.
    let mut text = Vec::with_capacity(events.len() * 64);
    let mut authors = Interner::new();
    let mut pages = Interner::new();
    let mut author_ids = vec![u32::MAX; n_authors as usize];
    let mut page_ids = vec![u32::MAX; n_pages as usize];
    let mut interned = Vec::with_capacity(events.len());
    for e in &events {
        writeln!(
            text,
            "{{\"author\":\"u{}\",\"link_id\":\"t3_{}\",\"created_utc\":{}}}",
            e.author.0, e.page.0, e.ts
        )?;
        let a = &mut author_ids[e.author.0 as usize];
        if *a == u32::MAX {
            *a = authors.intern(&author_name(e.author.0));
        }
        let p = &mut page_ids[e.page.0 as usize];
        if *p == u32::MAX {
            *p = pages.intern(&format!("t3_{}", e.page.0));
        }
        interned.push(Event::new(AuthorId(*a), PageId(*p), e.ts));
    }
    let ndjson = dir.join(format!("{}.ndjson", spec.name));
    std::fs::write(&ndjson, &text)?;
    drop(text);
    let dataset = Dataset {
        authors: Arc::new(authors),
        pages: Arc::new(pages),
        events: interned,
    };
    let snapshot = dir.join(format!("{}.snap", spec.name));
    write_snapshot(&dataset, None, &snapshot).map_err(|e| std::io::Error::other(e.to_string()))?;
    drop(dataset);

    let mut stream_records: Vec<CommentRecord> = events[..events.len() / 2]
        .iter()
        .map(|e| CommentRecord::new(author_name(e.author.0), format!("t3_{}", e.page.0), e.ts))
        .collect();
    sort_records(&mut stream_records);

    let cliques = (0..cfg.n_cliques)
        .map(|c| {
            let first = cfg.organic_authors + c * cfg.clique_size;
            (first..first + cfg.clique_size).collect()
        })
        .collect();
    Ok(Inputs {
        n_authors,
        n_pages,
        events,
        stream_records,
        ndjson,
        snapshot,
        cliques,
        bursts_per_clique: cfg.bursts_per_clique,
    })
}

/// Every 3-subset of every clique, ascending — the triplets a run must keep.
pub fn planted_triplets(cliques: &[Vec<u32>]) -> Vec<[u32; 3]> {
    let mut out = Vec::new();
    for members in cliques {
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                for k in j + 1..members.len() {
                    out.push([members[i], members[j], members[k]]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_cliques_give_ten_triplets_each() {
        assert_eq!(author_id(&author_name(120_003)), Some(120_003));
        assert_eq!(author_id("AutoModerator"), None);
        let t = planted_triplets(&[vec![5, 6, 7, 8, 9], vec![10, 11, 12]]);
        assert_eq!(t.len(), 11);
        assert_eq!(t[0], [5, 6, 7]);
        assert_eq!(t[10], [10, 11, 12]);
    }

    #[test]
    fn workload_names_are_unique_and_match_the_contract() {
        let names: Vec<&str> = specs().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["month_sparse", "dense_ci", "triplet_flood", "stream_replay"]
        );
    }
}
