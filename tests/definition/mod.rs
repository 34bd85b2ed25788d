//! The paper's three steps by definition (PAPER.md §1), for tests only:
//! nested loops over the raw events, pages and author pairs and triples,
//! sharing no helper with any engine. Quadratic in a page's comments and
//! cubic in the active authors — small inputs only.

// Each test binary that includes this module reads its own part of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

/// One raw comment: `(author, page, created_utc)`.
pub type Comment = (u32, u32, i64);

/// The run parameters the definition reads.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// The delay window `[δ1, δ2]`, inclusive, in seconds.
    pub d1: i64,
    pub d2: i64,
    /// Edges lighter than this are dropped before the survey (0 acts as 1).
    pub edge_threshold: u64,
    /// Keep triangles with `min{w′} ≥` this.
    pub min_weight: u64,
    /// Keep triangles with `T ≥` this; 0 keeps all.
    pub min_t: f64,
}

/// One surviving triplet, as step 3 reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Triplet {
    /// `x < y < z`.
    pub authors: [u32; 3],
    /// `(w′_xy, w′_xz, w′_yz)`.
    pub w: [u64; 3],
    /// `T(x, y, z)`, as its bit pattern.
    pub t_bits: u64,
    /// The pages all three commented on.
    pub w_xyz: u64,
    /// `(p_x, p_y, p_z)`: the pages each commented on.
    pub p: [u64; 3],
    /// `C(x, y, z)`, as its bit pattern.
    pub c_bits: u64,
}

/// What the definition says about one input.
#[derive(Debug, PartialEq)]
pub struct Definition {
    /// The comments left once the excluded authors' are dropped: `|E|`.
    pub comments: u64,
    /// `w′_xy` for every pair `x < y` with at least one page.
    pub w: BTreeMap<(u32, u32), u64>,
    /// `P′_x` for every author with at least one edge.
    pub p_prime: BTreeMap<u32, u64>,
    /// Step 2's report over the edges at or above the threshold: how many
    /// there are, every triangle they close, the largest `min{w′}` of those
    /// triangles, and for each `i` up to the last nonzero count how many have
    /// `⌊log₂ max(min{w′}, 1)⌋ = i`.
    pub edges_kept: u64,
    pub examined: u64,
    pub max_min_weight: u64,
    pub log_hist: Vec<u64>,
    /// The survivors, ascending by `(x, y, z)`.
    pub triplets: Vec<Triplet>,
}

/// `3·num / (d₀ + d₁ + d₂)`, 0 for a zero denominator: `T` (Eq. 7) and `C`
/// (Eq. 4).
fn score(num: u64, d: [u64; 3]) -> f64 {
    let denom = d[0] + d[1] + d[2];
    if denom == 0 {
        return 0.0;
    }
    3.0 * num as f64 / denom as f64
}

/// The BTM's page side: for each page below `n_pages`, its comments as
/// `(created_utc, author)`, ascending, repeats kept.
pub fn rows(comments: &[Comment], n_pages: u32) -> Vec<Vec<(i64, u32)>> {
    let row = |page| {
        let on_page = comments.iter().filter(|c| c.1 == page);
        let mut row: Vec<(i64, u32)> = on_page.map(|c| (c.2, c.0)).collect();
        row.sort_unstable();
        row
    };
    (0..n_pages).map(row).collect()
}

/// The BTM's author side: for each author below `n_authors`, the distinct
/// pages they commented on, ascending.
pub fn author_pages(comments: &[Comment], n_authors: u32) -> Vec<Vec<u32>> {
    let pages = |author| {
        let theirs = comments.iter().filter(|c| c.0 == author);
        theirs
            .map(|c| c.1)
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect()
    };
    (0..n_authors).map(pages).collect()
}

/// Run the three steps on `comments`, after dropping every comment of an
/// `excluded` author.
pub fn run(comments: &[Comment], excluded: &[u32], params: &Params) -> Definition {
    let kept: Vec<Comment> = comments
        .iter()
        .copied()
        .filter(|c| !excluded.contains(&c.0))
        .collect();
    let pages: BTreeSet<u32> = kept.iter().map(|c| c.1).collect();
    let authors: Vec<u32> = kept
        .iter()
        .map(|c| c.0)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    // Step 1: on each page, the pairs of authors with comments within
    // [δ1, δ2] seconds of each other count once toward w′; every author of
    // such a pair counts the page once toward P′.
    let mut w: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut p_prime: BTreeMap<u32, u64> = BTreeMap::new();
    for &page in &pages {
        let mut pairs = BTreeSet::new();
        for a in kept.iter().filter(|c| c.1 == page) {
            for b in kept.iter().filter(|c| c.1 == page) {
                let delay = (i128::from(a.2) - i128::from(b.2)).abs();
                if a.0 < b.0 && i128::from(params.d1) <= delay && delay <= i128::from(params.d2) {
                    pairs.insert((a.0, b.0));
                }
            }
        }
        let mut touched = BTreeSet::new();
        for &(x, y) in &pairs {
            *w.entry((x, y)).or_insert(0) += 1;
            touched.extend([x, y]);
        }
        for x in touched {
            *p_prime.entry(x).or_insert(0) += 1;
        }
    }

    // Step 2: every author triple whose three edges pass the edge threshold
    // is a triangle of the survey, kept by min{w′} and T. Step 3 validates
    // the kept ones against the raw pages.
    let edge = |x: u32, y: u32| {
        w.get(&(x, y))
            .copied()
            .filter(|&wt| wt >= params.edge_threshold.max(1))
    };
    let pp = |x: u32| p_prime.get(&x).copied().unwrap_or(0);
    let commented = |x: u32, page: u32| kept.iter().any(|c| c.0 == x && c.1 == page);
    let (mut examined, mut max_min_weight, mut log_hist) = (0, 0, Vec::new());
    let mut triplets = Vec::new();
    for (i, &x) in authors.iter().enumerate() {
        for (j, &y) in authors.iter().enumerate().skip(i + 1) {
            let Some(w_xy) = edge(x, y) else {
                continue;
            };
            for &z in &authors[j + 1..] {
                let (Some(w_xz), Some(w_yz)) = (edge(x, z), edge(y, z)) else {
                    continue;
                };
                let min = w_xy.min(w_xz).min(w_yz);
                examined += 1;
                max_min_weight = max_min_weight.max(min);
                // the largest i with 2^i ≤ max(min, 1)
                let bucket = (1..64).take_while(|&i| 1u64 << i <= min).count();
                if log_hist.len() <= bucket {
                    log_hist.resize(bucket + 1, 0);
                }
                log_hist[bucket] += 1;

                let t = score(min, [pp(x), pp(y), pp(z)]);
                if min < params.min_weight || (params.min_t > 0.0 && t < params.min_t) {
                    continue;
                }
                let on = |a: u32| pages.iter().filter(|&&p| commented(a, p)).count() as u64;
                let w_xyz = pages
                    .iter()
                    .filter(|&&p| commented(x, p) && commented(y, p) && commented(z, p))
                    .count() as u64;
                let p = [on(x), on(y), on(z)];
                triplets.push(Triplet {
                    authors: [x, y, z],
                    w: [w_xy, w_xz, w_yz],
                    t_bits: t.to_bits(),
                    w_xyz,
                    p,
                    c_bits: score(w_xyz, p).to_bits(),
                });
            }
        }
    }
    let threshold = params.edge_threshold.max(1);
    Definition {
        comments: kept.len() as u64,
        edges_kept: w.values().filter(|&&wt| wt >= threshold).count() as u64,
        w,
        p_prime,
        examined,
        max_min_weight,
        log_hist,
        triplets,
    }
}
