//! # analysis — evaluation artifacts for the pipeline's results
//!
//! The paper's evaluation consists of log-scaled 2D hexbin histograms
//! comparing the CI-graph and hypergraph metrics (Figures 3–10), component
//! visualizations of found botnets (Figures 1–2), and prose scale statistics.
//! This crate computes those artifacts:
//!
//! * [`hexbin`] — matplotlib-style hexagonal binning with log color levels;
//! * [`render`] — ASCII heatmaps and CSV export of binned data;
//! * [`stats`] — Pearson/Spearman correlation and distribution summaries
//!   (used to *assert* the figures' qualitative claims, e.g. "a longer window
//!   brings T and C closer together");
//! * [`components`] — component reports and Graphviz DOT export (the stand-in
//!   for the paper's Cytoscape renderings);
//! * [`evalmetrics`] — threshold sweeps of precision/recall over scored
//!   triplets, enabling the detection-quality table the paper could not
//!   produce without ground truth.

#![warn(unreachable_pub)]

pub mod components;
pub mod evalmetrics;
pub mod hexbin;
pub mod render;
pub mod report;
pub mod stats;

pub use stats::Summary;
