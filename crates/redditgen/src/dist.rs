//! Deterministic samplers for the traffic models, and the block-sharded
//! month generator for rank-distributed workloads.
//!
//! Samplers are implemented here rather than pulling `rand_distr` to keep
//! the dependency set to the pre-approved crates: Zipf by inverse-CDF over a
//! precomputed table, log-normal via Box–Muller, exponential by inversion,
//! and Poisson by Knuth's product method (the rates used here are small).
//!
//! [`DistMonth`] generates a paper-scale synthetic month *by block*: the
//! month is tiled into fixed-size blocks, each derived from its own
//! deterministic RNG stream, so rank `r` of an `n`-rank world can generate
//! exactly blocks `r, r+n, r+2n, …` — the same global event multiset for
//! every rank count, with no rank (or any single machine) ever holding the
//! whole month. This is the workload source for
//! `DistPipeline::run_events`-style streaming benchmarks; that door pulls
//! its source twice, as `(0, 1)`, to build one `Btm` at every rank count, so
//! the month is generated twice there.

use coordination_core::ids::{AuthorId, Event, PageId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(k) ∝ (k+1)^-s`. Sampling is a binary search over the precomputed CDF —
/// O(log n) per draw, exact, and cheap to build for the ~10⁴–10⁶ element
/// ranges the generator uses.
#[derive(Clone, Debug)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf sampler over `n` ranks with exponent `s > 0`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // guard against fp slop at the tail
        *cdf.last_mut().expect("nonempty") = 1.0;
        Zipf { cdf }
    }

    /// Sample a rank in `0..n` (rank 0 most likely).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Log-normal distribution: `exp(μ + σ·Z)` with `Z ~ N(0,1)` via Box–Muller.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Log-normal with log-space mean `mu` and log-space std-dev `sigma ≥ 0`.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Draw one value (always > 0).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal draw via Box–Muller.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] so ln is finite
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Exponential with the given mean, by inversion.
pub(crate) fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

/// Weighted index sampler over arbitrary non-negative weights (CDF inversion).
#[derive(Clone, Debug)]
pub(crate) struct WeightedIndex {
    cdf: Vec<f64>,
}

impl WeightedIndex {
    /// Build from weights; at least one must be positive.
    pub(crate) fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "weights must be finite and non-negative"
            );
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        for c in &mut cdf {
            *c /= acc;
        }
        *cdf.last_mut().expect("nonempty") = 1.0;
        WeightedIndex { cdf }
    }

    /// Sample an index proportional to its weight.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Configuration for the block-sharded month generator.
///
/// The organic traffic is Zipf-skewed over dense author and page id spaces;
/// coordinated bot cliques are injected as *bursts*: for each burst, every
/// member of the clique comments on one dedicated page within a 50-second
/// span (inside the paper's 60-second coordination window), so each clique
/// pair accumulates CI weight `bursts_per_clique` — comfortably above the
/// detection threshold, giving the survey real triangles at scale.
#[derive(Clone, Debug)]
pub struct DistMonthConfig {
    /// Master seed; every block derives its own stream from it.
    pub seed: u64,
    /// Number of generation blocks the month is tiled into.
    pub n_blocks: usize,
    /// Organic comments per block.
    pub block_comments: usize,
    /// Organic author id space (bot authors are appended after it).
    pub organic_authors: u32,
    /// Organic page id space (burst pages are appended after it).
    pub organic_pages: u32,
    /// Zipf exponent for author activity.
    pub author_zipf: f64,
    /// Zipf exponent for page popularity.
    pub page_zipf: f64,
    /// Number of injected bot cliques.
    pub n_cliques: u32,
    /// Authors per clique (3+ so triangles exist).
    pub clique_size: u32,
    /// Coordinated bursts per clique — the CI edge weight each clique pair
    /// ends up with.
    pub bursts_per_clique: u32,
}

impl DistMonthConfig {
    /// The paper-scale benchmark month: ~2M comments over 120K authors and
    /// 60K pages, with 8 five-author cliques at burst weight 40.
    pub fn jan2020_large() -> Self {
        DistMonthConfig {
            seed: 0x0120_2001,
            n_blocks: 256,
            block_comments: 7_800,
            organic_authors: 120_000,
            organic_pages: 60_000,
            author_zipf: 0.8,
            page_zipf: 0.9,
            n_cliques: 8,
            clique_size: 5,
            bursts_per_clique: 40,
        }
    }
}

/// The block-sharded month generator: [`DistMonthConfig`] plus the
/// precomputed Zipf tables (built once, shared by every block).
pub struct DistMonth {
    cfg: DistMonthConfig,
    author_dist: Zipf,
    page_dist: Zipf,
}

/// SplitMix64 finalizer — decorrelates per-block seeds derived from one
/// master seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl DistMonth {
    /// Build the generator (precomputes the Zipf CDFs).
    pub fn new(cfg: DistMonthConfig) -> Self {
        assert!(cfg.n_blocks > 0, "need at least one block");
        assert!(cfg.organic_authors > 0 && cfg.organic_pages > 0);
        let author_dist = Zipf::new(cfg.organic_authors as usize, cfg.author_zipf);
        let page_dist = Zipf::new(cfg.organic_pages as usize, cfg.page_zipf);
        DistMonth {
            cfg,
            author_dist,
            page_dist,
        }
    }

    /// Total dense author id space (organic + clique members).
    pub fn total_authors(&self) -> u32 {
        self.cfg.organic_authors + self.cfg.n_cliques * self.cfg.clique_size
    }

    /// Total dense page id space (organic + one page per burst).
    pub fn total_pages(&self) -> u32 {
        self.cfg.organic_pages + self.cfg.n_cliques * self.cfg.bursts_per_clique
    }

    /// Generate block `b` into `out` (cleared first). Depends only on
    /// `(seed, b)` — which rank generates a block never changes its events.
    pub(crate) fn block_into(&self, b: usize, out: &mut Vec<Event>) {
        assert!(b < self.cfg.n_blocks, "block out of range");
        out.clear();
        let cfg = &self.cfg;
        let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(cfg.seed ^ b as u64));
        let slice = crate::MONTH_SECS / cfg.n_blocks as i64;
        let t_lo = b as i64 * slice;
        // Organic traffic: Zipf author on Zipf page, uniform in the block's
        // time slice.
        for _ in 0..cfg.block_comments {
            let a = self.author_dist.sample(&mut rng) as u32;
            let p = self.page_dist.sample(&mut rng) as u32;
            let ts = t_lo + rng.gen_range(0..slice.max(1));
            out.push(Event::new(AuthorId(a), PageId(p), ts));
        }
        // Coordinated bursts assigned to this block, round-robin by global
        // burst index. Each burst gets its own page; all clique members
        // comment within 50 seconds.
        let total_bursts = cfg.n_cliques * cfg.bursts_per_clique;
        let mut g = (b % cfg.n_blocks) as u32;
        while g < total_bursts {
            let clique = g / cfg.bursts_per_clique;
            let page = cfg.organic_pages + g;
            let t0 = t_lo + rng.gen_range(0..(slice - 55).max(1));
            for m in 0..cfg.clique_size {
                let author = cfg.organic_authors + clique * cfg.clique_size + m;
                let ts = t0 + rng.gen_range(0..50i64);
                out.push(Event::new(AuthorId(author), PageId(page), ts));
            }
            g += cfg.n_blocks as u32;
        }
    }

    /// Stream rank `r`'s share of the month — blocks `r, r+nranks, …` in
    /// order, one block buffered at a time. The union over all ranks is the
    /// same event multiset for every `nranks`.
    pub(crate) fn rank_events(
        &self,
        rank: usize,
        nranks: usize,
    ) -> impl Iterator<Item = Event> + '_ {
        assert!(nranks > 0 && rank < nranks, "bad rank/nranks");
        let mut buf: Vec<Event> = Vec::new();
        let mut at = 0usize;
        let mut next_block = rank;
        let n_blocks = self.cfg.n_blocks;
        std::iter::from_fn(move || loop {
            if at < buf.len() {
                let e = buf[at];
                at += 1;
                return Some(e);
            }
            if next_block >= n_blocks {
                return None;
            }
            self.block_into(next_block, &mut buf);
            at = 0;
            next_block += nranks;
        })
    }

    /// Stream the whole month in block order — the resident-pipeline side of
    /// the comparison (it still only buffers one block at a time; the
    /// consumer decides what to materialize).
    pub fn all_events(&self) -> impl Iterator<Item = Event> + '_ {
        self.rank_events(0, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(100, 1.1);
        let mut r = rng(1);
        let mut counts = vec![0u64; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10], "{} vs {}", counts[0], counts[10]);
        assert!(counts[0] > counts[50]);
        // all samples in range is implied by indexing; top rank gets ≥ 10%
        assert!(counts[0] as f64 / 20_000.0 > 0.10);
    }

    #[test]
    fn zipf_single_rank_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut r = rng(2);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    fn lognormal_moments_are_plausible() {
        let ln = LogNormal::new(0.0, 0.5);
        let mut r = rng(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| ln.sample(&mut r)).sum::<f64>() / n as f64;
        // E[lognormal(0, 0.5)] = exp(0.125) ≈ 1.133
        assert!((mean - 1.133).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn lognormal_is_positive() {
        let ln = LogNormal::new(-2.0, 2.0);
        let mut r = rng(4);
        for _ in 0..1000 {
            assert!(ln.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 42.0)).sum::<f64>() / n as f64;
        assert!((mean - 42.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndex::new(&[1.0, 0.0, 3.0]);
        let mut r = rng(7);
        let mut counts = [0u64; 3];
        for _ in 0..40_000 {
            counts[w.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let z = Zipf::new(50, 1.2);
        let a: Vec<usize> = {
            let mut r = rng(9);
            (0..20).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = rng(9);
            (0..20).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn weighted_index_rejects_all_zero() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    fn small_month() -> DistMonth {
        DistMonth::new(DistMonthConfig {
            seed: 42,
            n_blocks: 12,
            block_comments: 300,
            organic_authors: 500,
            organic_pages: 200,
            author_zipf: 0.8,
            page_zipf: 0.9,
            n_cliques: 2,
            clique_size: 4,
            bursts_per_clique: 6,
        })
    }

    fn event_key(e: &Event) -> (u32, u32, i64) {
        (e.author.0, e.page.0, e.ts)
    }

    #[test]
    fn dist_month_counts_and_bounds() {
        let m = small_month();
        let events: Vec<Event> = m.all_events().collect();
        assert_eq!(events.len(), 12 * 300 + 2 * 6 * 4);
        for e in &events {
            assert!(e.author.0 < m.total_authors());
            assert!(e.page.0 < m.total_pages());
            assert!((0..crate::MONTH_SECS).contains(&e.ts));
        }
        // The bursts really land: every clique author appears.
        let organic = m.cfg.organic_authors;
        for a in organic..m.total_authors() {
            assert!(events.iter().any(|e| e.author.0 == a), "author {a} missing");
        }
    }

    #[test]
    fn dist_month_same_multiset_for_every_rank_count() {
        let m = small_month();
        let mut reference: Vec<_> = m.all_events().map(|e| event_key(&e)).collect();
        reference.sort_unstable();
        for nranks in [1usize, 2, 4, 5] {
            let mut union: Vec<_> = (0..nranks)
                .flat_map(|r| m.rank_events(r, nranks).collect::<Vec<_>>())
                .map(|e| event_key(&e))
                .collect();
            union.sort_unstable();
            assert_eq!(union, reference, "nranks {nranks} changed the multiset");
        }
    }

    #[test]
    fn dist_month_is_deterministic_per_seed() {
        let a: Vec<_> = small_month().all_events().map(|e| event_key(&e)).collect();
        let b: Vec<_> = small_month().all_events().map(|e| event_key(&e)).collect();
        assert_eq!(a, b);
        let mut cfg = small_month().cfg.clone();
        cfg.seed = 43;
        let c: Vec<_> = DistMonth::new(cfg)
            .all_events()
            .map(|e| event_key(&e))
            .collect();
        assert_ne!(a, c, "seed should matter");
    }

    #[test]
    fn dist_month_bursts_sit_inside_the_coordination_window() {
        let m = small_month();
        // Group burst-page events by page; each burst spans < 60 seconds.
        let organic_pages = m.cfg.organic_pages;
        let mut per_page: std::collections::HashMap<u32, Vec<i64>> = Default::default();
        for e in m.all_events() {
            if e.page.0 >= organic_pages {
                per_page.entry(e.page.0).or_default().push(e.ts);
            }
        }
        assert_eq!(
            per_page.len() as u32,
            m.cfg.n_cliques * m.cfg.bursts_per_clique
        );
        for (page, ts) in per_page {
            assert_eq!(ts.len() as u32, m.cfg.clique_size, "page {page}");
            let span = ts.iter().max().unwrap() - ts.iter().min().unwrap();
            assert!(span < 60, "page {page} burst spans {span}s");
        }
    }
}
