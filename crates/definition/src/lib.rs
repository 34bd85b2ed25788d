//! The paper's three steps by definition (PAPER.md §1): loops over the raw
//! comments, pages and author triples, sharing no code with any engine — the
//! reference the engines' tests answer to. [`certify`] scores one triple from
//! the rows of its pages alone; [`run`] is the whole pipeline, quadratic in a
//! page's comments and cubic in the active authors, so small inputs only.

#![warn(unreachable_pub)]

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

impl Params {
    /// The window `[d1, d2]`, keeping every triangle: edge threshold 1,
    /// `min{w′} ≥ 1` and `T ≥ 0`.
    pub const fn keep_all(d1: i64, d2: i64) -> Self {
        Params {
            d1,
            d2,
            edge_threshold: 1,
            min_weight: 1,
            min_t: 0.0,
        }
    }
}

/// One scored triple, as step 3 reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Triplet {
    /// `[x, y, z]`; ascending in every triplet [`run`] reports.
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
    let mut rows = vec![Vec::new(); n_pages as usize];
    for &(author, page, ts) in comments.iter().filter(|c| c.1 < n_pages) {
        rows[page as usize].push((ts, author));
    }
    rows.iter_mut().for_each(|row| row.sort_unstable());
    rows
}

/// The BTM's author side: for each author below `n_authors`, the distinct
/// pages they commented on, ascending.
pub fn author_pages(comments: &[Comment], n_authors: u32) -> Vec<Vec<u32>> {
    let mut pages = vec![BTreeSet::new(); n_authors as usize];
    for &(author, page, _) in comments.iter().filter(|c| c.0 < n_authors) {
        pages[author as usize].insert(page);
    }
    pages
        .into_iter()
        .map(|own| own.into_iter().collect())
        .collect()
}

/// The authors other than `a` with a comment within `[δ1, δ2]` seconds of
/// one of `a`'s comments on `row`.
fn partners(row: &[(i64, u32)], a: u32, params: &Params) -> BTreeSet<u32> {
    let (d1, d2) = (i128::from(params.d1), i128::from(params.d2));
    let mut near = BTreeSet::new();
    for &(s, _) in row.iter().filter(|c| c.1 == a) {
        for &(t, b) in row {
            let delay = (i128::from(s) - i128::from(t)).abs();
            if b != a && d1 <= delay && delay <= d2 {
                near.insert(b);
            }
        }
    }
    near
}

/// Score `trio = [x, y, z]` from page rows laid out as [`rows`] lays them out:
/// `(w′_xy, w′_xz, w′_yz)`, the three `P′` and then `T`; `w_xyz`, the three
/// `p` and then `C`. Nothing is thresholded.
///
/// Each of these counts only pages that `x`, `y` or `z` commented on, so
/// `rows` need hold just those pages' rows, each once; rows of other pages
/// add nothing. Each row holds every author's comments on its page, since
/// `P′` counts partners outside the triple.
pub fn certify<'a>(
    rows: impl IntoIterator<Item = &'a [(i64, u32)]>,
    trio: [u32; 3],
    params: &Params,
) -> Triplet {
    let (mut w, mut p_prime, mut p, mut w_xyz) = ([0; 3], [0; 3], [0; 3], 0);
    for row in rows {
        let near = trio.map(|a| partners(row, a, params));
        let on = trio.map(|a| row.iter().any(|c| c.1 == a));
        for (k, (i, j)) in [(0, 1), (0, 2), (1, 2)].into_iter().enumerate() {
            w[k] += u64::from(near[i].contains(&trio[j]));
        }
        for i in 0..3 {
            p_prime[i] += u64::from(!near[i].is_empty());
            p[i] += u64::from(on[i]);
        }
        w_xyz += u64::from(on == [true; 3]);
    }
    Triplet {
        authors: trio,
        w,
        t_bits: score(w[0].min(w[1]).min(w[2]), p_prime).to_bits(),
        w_xyz,
        p,
        c_bits: score(w_xyz, p).to_bits(),
    }
}

/// Run the three steps on `comments`, after dropping every comment of an
/// `excluded` author.
pub fn run(comments: &[Comment], excluded: &[u32], params: &Params) -> Definition {
    let mut kept = comments.to_vec();
    kept.retain(|c| !excluded.contains(&c.0));
    let rows = rows(&kept, kept.iter().map(|c| c.1 + 1).max().unwrap_or(0));
    let pages = author_pages(&kept, kept.iter().map(|c| c.0 + 1).max().unwrap_or(0));

    // Step 1: on each page, every partner y > x of an author x counts the
    // page once toward w′_xy, and any partner at all counts it toward P′_x.
    let mut w: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut p_prime: BTreeMap<u32, u64> = BTreeMap::new();
    for row in &rows {
        for x in row.iter().map(|c| c.1).collect::<BTreeSet<u32>>() {
            let near = partners(row, x, params);
            for &y in near.iter().filter(|&&y| y > x) {
                *w.entry((x, y)).or_insert(0) += 1;
            }
            if !near.is_empty() {
                *p_prime.entry(x).or_insert(0) += 1;
            }
        }
    }

    // Step 2: every triple of authors with edges whose three edges pass the
    // edge threshold is a triangle of the survey, kept by min{w′} and T.
    // Step 3 certifies the kept ones from the rows of their pages.
    let authors: Vec<u32> = p_prime.keys().copied().collect();
    let threshold = params.edge_threshold.max(1);
    let edge = |x: u32, y: u32| w.get(&(x, y)).copied().filter(|&wt| wt >= threshold);
    let pp = |x: u32| p_prime[&x];
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
                log_hist.resize(log_hist.len().max(bucket + 1), 0);
                log_hist[bucket] += 1;

                let t = score(min, [pp(x), pp(y), pp(z)]);
                if min < params.min_weight || (params.min_t > 0.0 && t < params.min_t) {
                    continue;
                }
                let theirs: BTreeSet<_> =
                    [x, y, z].iter().flat_map(|&a| &pages[a as usize]).collect();
                let their_rows = theirs.into_iter().map(|&p| rows[p as usize].as_slice());
                triplets.push(certify(their_rows, [x, y, z], params));
            }
        }
    }
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
