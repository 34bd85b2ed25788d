//! # redditgen — synthetic Reddit comment streams with ground-truth botnets
//!
//! The paper's data is the pushshift.io Reddit archive (January 2020: 138
//! million comments; October 2016), which is unavailable offline and terabyte
//! scale. This crate generates scaled-down months of comment traffic whose
//! *mechanisms* match what the paper observed, so the pipeline's behaviour on
//! them has the same shape:
//!
//! * [`organic`] — baseline human traffic: Zipf-popular pages, lognormal user
//!   activity, page-age-decaying comment arrival with a diurnal cycle;
//! * [`bots::gpt2`] — the GPT-2 text-generation subreddit of paper §3.1.1:
//!   bot-only pages, self-threads (invisible to projection), and mixed pages
//!   commented by random bot subsets (a sparse CI component);
//! * [`bots::reshare`] — the restream link-sharing network of §3.1.2: a
//!   trigger post followed by near-immediate responses from most members
//!   (a dense clique with high edge weights);
//! * [`bots::reply_trigger`] — the ":)"-for-":(" reply bots of §3.1.4 whose
//!   triplet dwarfs everything else (the (4460, 5516, 13355) outlier);
//! * [`bots::helpful`] — AutoModerator and `[deleted]`, which the paper
//!   excludes before projection;
//! * evasion injectors — adversaries the paper never faced: [`bots::jitter`]
//!   (bursts straddling the (δ1, δ2) edge), [`bots::slow_drip`] (staying
//!   below the min-weight cutoff), [`bots::churn`] (handle rotation, scored
//!   through the ground-truth alias map), [`bots::mimicry`] (diurnal-shaped
//!   activity on the organic time curve), and [`bots::camouflage`] (decoy
//!   comments diluting the normalized scores);
//! * [`scenario`] — month presets mirroring the January 2020 and October 2016
//!   analyses, at a configurable scale;
//! * [`truth`] — ground-truth labels, enabling the precision/recall reporting
//!   the paper could not do on unlabeled data.
//!
//! All generation is deterministic given a seed.

#![warn(unreachable_pub)]

pub mod bots;
pub mod dist;
pub mod organic;
pub mod scenario;
pub mod truth;

pub use scenario::{Scenario, ScenarioConfig};
pub use truth::GroundTruth;

/// One month of seconds — every preset spans `[t0, t0 + MONTH_SECS)`.
pub(crate) const MONTH_SECS: i64 = 30 * 24 * 3600;
