//! Organic mimicry: bot activity shaped on the human diurnal curve.
//!
//! Naive injectors post uniformly around the clock — a rhythm no human
//! population produces, and an easy tell for activity-profile detectors. This
//! network schedules everything by rejection-sampling against the *same*
//! `organic::diurnal_accept` curve the organic generator uses, so
//! per-hour activity histograms match the human baseline exactly. On top of
//! the gpt2-style coordinated pages it sprinkles diurnal solo comments on a
//! wide filler-page pool: those inflate every member's page count, diluting
//! the normalized `C`/`T` scores (the camouflage effect) while the timing
//! side of the disguise defeats rhythm-based triage. Raw `min w'`/`w_xyz`
//! still see the coordination — pile-ons must stay synchronized to work.

use coordination_core::records::CommentRecord;
use rand::seq::SliceRandom;
use rand::Rng;

use super::gpt2::Injection;
use crate::organic::diurnal_accept;

/// Configuration of a diurnal-camouflaged coordinated network.
#[derive(Clone, Debug)]
pub struct MimicryConfig {
    /// Network size.
    pub n_bots: usize,
    /// Coordinated pages the network creates during the month.
    pub n_pages: usize,
    /// How many bots (beyond the creator) pile onto a page.
    pub participants: std::ops::Range<usize>,
    /// Seconds between consecutive comments on a coordinated page.
    pub comment_gap: std::ops::Range<i64>,
    /// Diurnal solo comments per bot, as a multiple of its coordinated
    /// comment count (the `C`/`T` dilution knob).
    pub solo_ratio: f64,
    /// Size of the filler-page pool solo comments land on.
    pub solo_pages: usize,
    /// Month start.
    pub t0: i64,
    /// Month length in seconds.
    pub span: i64,
    /// Account-name prefix.
    pub name_prefix: String,
}

impl Default for MimicryConfig {
    fn default() -> Self {
        MimicryConfig {
            n_bots: 10,
            n_pages: 80,
            participants: 3..7,
            comment_gap: 5..50,
            solo_ratio: 2.0,
            // wide pool: solo comments rarely collide, so they dilute the
            // normalized scores without adding shared pages
            solo_pages: 600,
            t0: 0,
            span: crate::MONTH_SECS,
            name_prefix: "mimic_bot_".to_string(),
        }
    }
}

/// Sample a timestamp whose acceptance follows the organic diurnal curve.
fn diurnal_ts<R: Rng + ?Sized>(rng: &mut R, t0: i64, span: i64) -> i64 {
    loop {
        let ts = t0 + rng.gen_range(0..span.max(1));
        if rng.gen::<f64>() <= diurnal_accept(ts, t0) {
            return ts;
        }
    }
}

/// Generate the month's diurnal-shaped coordinated + solo activity.
pub(crate) fn generate<R: Rng + ?Sized>(cfg: &MimicryConfig, rng: &mut R) -> Injection {
    assert!(cfg.n_bots >= 2, "need at least two bots");
    assert!(!cfg.comment_gap.is_empty() && cfg.comment_gap.start >= 0);
    assert!(!cfg.participants.is_empty());
    assert!(cfg.solo_ratio >= 0.0);
    assert!(cfg.solo_pages > 0, "need filler pages for solo comments");
    let members: Vec<String> = (0..cfg.n_bots)
        .map(|i| format!("{}{}", cfg.name_prefix, i))
        .collect();
    let idx: Vec<usize> = (0..cfg.n_bots).collect();
    let mut records = Vec::new();

    for page in 0..cfg.n_pages {
        let page_id = format!("t3_{}page{page}", cfg.name_prefix);
        // the pile-on *starts* on the human clock; the burst itself must stay
        // tight or the coordination stops working
        let birth = diurnal_ts(rng, cfg.t0, cfg.span);
        let creator = rng.gen_range(0..cfg.n_bots);
        records.push(CommentRecord::new(&members[creator], &page_id, birth));
        let mut joiners = idx.clone();
        joiners.retain(|&i| i != creator);
        joiners.shuffle(rng);
        let k = rng
            .gen_range(cfg.participants.clone())
            .min(cfg.n_bots - 1)
            .max(1);
        let mut ts = birth;
        for &j in joiners.iter().take(k) {
            ts += rng.gen_range(cfg.comment_gap.clone());
            records.push(CommentRecord::new(&members[j], &page_id, ts));
        }
    }

    // solo filler, also on the human clock
    let mut per_bot = vec![0usize; cfg.n_bots];
    for r in &records {
        let i: usize = r.author[cfg.name_prefix.len()..].parse().expect("suffix");
        per_bot[i] += 1;
    }
    for (i, m) in members.iter().enumerate() {
        let solos = (per_bot[i] as f64 * cfg.solo_ratio).round() as usize;
        for _ in 0..solos {
            let page = rng.gen_range(0..cfg.solo_pages);
            records.push(CommentRecord::new(
                m,
                format!("t3_{}solo{page}", cfg.name_prefix),
                diurnal_ts(rng, cfg.t0, cfg.span),
            ));
        }
    }
    Injection { records, members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coordination_core::records::Dataset;
    use coordination_core::{project, AuthorId, Window};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn inject(seed: u64, cfg: &MimicryConfig) -> Injection {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate(cfg, &mut rng)
    }

    /// Ratio of activity in the curve's peak half-cycle to its trough half.
    fn day_night_ratio(records: &[CommentRecord]) -> f64 {
        let (mut day, mut night) = (0usize, 0usize);
        for r in records {
            let phase = (r.created_utc % 86_400) as f64 / 86_400.0;
            if phase < 0.5 {
                day += 1; // sin > 0: the curve's peak half
            } else {
                night += 1;
            }
        }
        day as f64 / night.max(1) as f64
    }

    #[test]
    fn activity_matches_the_organic_rhythm() {
        let inj = inject(1, &MimicryConfig::default());
        let bots = day_night_ratio(&inj.records);
        // ∫accept over the peak half ≈ 3.2× the trough half; bursts and
        // comment gaps smear a little
        assert!(
            bots > 2.0,
            "bot activity should be diurnal: ratio {bots:.2}"
        );

        // and it matches what organic traffic actually does
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let organic = crate::organic::generate(
            &crate::organic::OrganicConfig {
                n_comments: 5_000,
                mean_page_delay: 600.0, // tight decay isolates the diurnal term
                burst_prob: 0.0,
                ..Default::default()
            },
            &mut rng,
        );
        let humans = day_night_ratio(&organic);
        assert!(
            (bots / humans - 1.0).abs() < 0.5,
            "rhythms should be indistinguishable: bots {bots:.2} humans {humans:.2}"
        );
    }

    #[test]
    fn raw_weights_still_expose_the_coordination() {
        let inj = inject(3, &MimicryConfig::default());
        let ds = Dataset::from_records(inj.records);
        let ci = project::project(&ds.btm(), Window::zero_to_60s());
        assert!(
            ci.max_weight() >= 12,
            "pile-ons stay synchronized: max {}",
            ci.max_weight()
        );
    }

    #[test]
    fn solo_filler_dilutes_the_normalized_score() {
        let c_of = |solo_ratio: f64| {
            let inj = inject(
                4,
                &MimicryConfig {
                    solo_ratio,
                    ..Default::default()
                },
            );
            let ds = Dataset::from_records(inj.records);
            let btm = ds.btm();
            let id = |n: &str| AuthorId(ds.authors.get(n).unwrap());
            let (a, b, c) = (id("mimic_bot_0"), id("mimic_bot_1"), id("mimic_bot_2"));
            let pages = coordination_core::AuthorPages::harvest(&btm, [a, b, c]);
            let w_xyz = coordination_core::hypergraph::hyperedge_weight(&pages, a, b, c);
            coordination_core::metrics::c_score(
                w_xyz,
                pages.page_count(a),
                pages.page_count(b),
                pages.page_count(c),
            )
        };
        let (clean, hidden) = (c_of(0.0), c_of(2.0));
        assert!(
            hidden < clean * 0.55,
            "solo filler should dilute C: {clean:.3} -> {hidden:.3}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = MimicryConfig::default();
        assert_eq!(inject(9, &cfg).records, inject(9, &cfg).records);
    }
}
