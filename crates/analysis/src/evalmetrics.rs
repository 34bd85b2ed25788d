//! Threshold sweeps over scored candidates, and the detection-quality report.
//!
//! The pipeline scores every candidate triplet (by `min w'`, `T`, `w_xyz`, or
//! `C`); picking the survey cutoff is a precision/recall trade the paper
//! discusses but cannot quantify without labels. Given `(score, is_positive)`
//! pairs from a generated scenario's ground truth, these helpers produce the
//! precision/recall curve and its summary numbers, and bundle them into the
//! schema-versioned [`QualityReport`] the quality bench emits as
//! `BENCH_quality.json` (validated by `report-validate --kind quality`, gated
//! in CI against a committed baseline).
//!
//! ## Conventions
//!
//! * **`precision = 1.0` when `flagged = 0`** — the vacuous threshold (above
//!   every score) flags nothing and is therefore never *wrong*; reporting 0
//!   or NaN there would punish a detector for silence. The sweep itself only
//!   emits points that flag at least one candidate, but
//!   `redditgen::truth::GroundTruth::evaluate` and the zero-candidate
//!   [`QualityReport`] both follow this convention (the report flags the
//!   empty pool separately via the `candidates` field, which CI gates on).
//! * **Non-finite scores are dropped, audibly** — a NaN score cannot be
//!   ordered into a threshold sweep; each dropped candidate increments the
//!   `eval.dropped_nonfinite` obs counter so a run report (or the quality
//!   bench) can expose a scoring bug instead of silently shrinking the pool.

/// One point of a precision/recall sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SweepPoint {
    /// Score threshold: candidates with `score >= threshold` are flagged.
    pub threshold: f64,
    /// Candidates flagged at this threshold.
    pub flagged: usize,
    /// Flagged candidates that are true positives.
    pub true_positives: usize,
    /// `true_positives / flagged` (1.0 when nothing flagged).
    pub precision: f64,
    /// `true_positives / total positives` (1.0 when there are no positives).
    pub recall: f64,
}

impl SweepPoint {
    /// Harmonic mean of precision and recall; 0.0 when both are zero.
    pub(crate) fn f1(&self) -> f64 {
        let (p, r) = (self.precision, self.recall);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Sweep thresholds over scored candidates, descending. Each distinct score
/// value becomes one threshold; every emitted point flags at least one
/// candidate (see the module docs for the `flagged = 0` convention).
/// Non-finite scores are dropped and counted on `eval.dropped_nonfinite`.
pub(crate) fn precision_recall_sweep(scored: &[(f64, bool)]) -> Vec<SweepPoint> {
    let mut sorted: Vec<(f64, bool)> = scored
        .iter()
        .copied()
        .filter(|(s, _)| s.is_finite())
        .collect();
    let dropped = scored.len() - sorted.len();
    if dropped > 0 {
        obs::counter("eval.dropped_nonfinite").add(dropped as u64);
    }
    sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
    let total_pos = sorted.iter().filter(|&&(_, p)| p).count();
    let mut out = Vec::new();
    let mut flagged = 0usize;
    let mut tp = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let threshold = sorted[i].0;
        // absorb ties: all candidates with this score flip together
        while i < sorted.len() && sorted[i].0 == threshold {
            flagged += 1;
            if sorted[i].1 {
                tp += 1;
            }
            i += 1;
        }
        out.push(SweepPoint {
            threshold,
            flagged,
            true_positives: tp,
            precision: if flagged == 0 {
                1.0
            } else {
                tp as f64 / flagged as f64
            },
            recall: if total_pos == 0 {
                1.0
            } else {
                tp as f64 / total_pos as f64
            },
        });
    }
    out
}

/// Area under the precision/recall curve (trapezoid over recall). 1.0 means a
/// threshold exists separating all positives from all negatives.
pub fn average_precision(scored: &[(f64, bool)]) -> f64 {
    let sweep = precision_recall_sweep(scored);
    if sweep.is_empty() {
        return 1.0;
    }
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for p in &sweep {
        ap += (p.recall - prev_recall) * p.precision;
        prev_recall = p.recall;
    }
    ap
}

/// The sweep point with the best F1, plus the score it was achieved at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BestF1 {
    /// Threshold achieving the best F1 (ties go to the *highest* threshold —
    /// the same quality for fewer flagged candidates).
    pub threshold: f64,
    /// Precision at that threshold.
    pub precision: f64,
    /// Recall at that threshold.
    pub recall: f64,
    /// The best F1 itself.
    pub f1: f64,
    /// Candidates flagged at that threshold.
    pub flagged: usize,
}

/// Best F1 over the full threshold sweep — the scalar CI gates on: it asks
/// "could *any* cutoff have separated this botnet?", independent of where the
/// operating point was tuned. `None` when no finite-scored candidates exist.
pub(crate) fn best_f1(scored: &[(f64, bool)]) -> Option<BestF1> {
    let mut best: Option<BestF1> = None;
    for p in precision_recall_sweep(scored) {
        let f1 = p.f1();
        if best.is_none_or(|b| f1 > b.f1) {
            best = Some(BestF1 {
                threshold: p.threshold,
                precision: p.precision,
                recall: p.recall,
                f1,
                flagged: p.flagged,
            });
        }
    }
    best
}

// ------------------------------------------------------------ quality report

/// Version stamp every quality report carries; bump on any layout change.
pub(crate) const QUALITY_SCHEMA_VERSION: u32 = 1;

/// The four score metrics every scenario is swept over, in report order:
/// the triangle survey's `min w'` and `T`, validation's `w_xyz` and `C`.
pub(crate) const SCORE_METRICS: [&str; 4] = ["min_w", "t_score", "w_xyz", "c_score"];

/// Per-metric detection quality within one scenario.
#[derive(Clone, Debug)]
pub struct MetricQuality {
    /// Metric label: `min_w`, `t_score`, `w_xyz` or `c_score`.
    pub metric: String,
    /// Area under the precision/recall curve.
    pub average_precision: f64,
    /// Best F1 over the threshold sweep; `None` when the candidate pool is
    /// empty.
    pub best: Option<BestF1>,
}

/// Detection quality of one scenario: the candidate pool the pipeline
/// produced and how well each score metric separates truth from noise.
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Scenario name (`jan2020`, `adv_churn`, …).
    pub scenario: String,
    /// Whether this is an evasion scenario (reported, but only
    /// collapse-gated in CI — see the quality bench).
    pub adversarial: bool,
    /// Comments generated for the scenario.
    pub comments: usize,
    /// Candidate triplets the pipeline produced (0 = collapse).
    pub candidates: usize,
    /// Candidates whose authors are one coordinated family (ground truth).
    pub positives: usize,
    /// Non-finite scores dropped while sweeping this scenario.
    pub dropped_nonfinite: u64,
    /// One entry per score metric.
    pub metrics: Vec<MetricQuality>,
}

impl QualityReport {
    /// Start a report for a scenario with an empty metric list.
    pub fn new(scenario: &str, adversarial: bool, comments: usize) -> Self {
        QualityReport {
            scenario: scenario.to_string(),
            adversarial,
            comments,
            candidates: 0,
            positives: 0,
            dropped_nonfinite: 0,
            metrics: Vec::new(),
        }
    }

    /// Sweep one metric's scored candidates and append its summary. All
    /// metrics of a report must score the same candidate pool.
    pub fn add_metric(&mut self, metric: &str, scored: &[(f64, bool)]) {
        let positives = scored.iter().filter(|&&(_, p)| p).count();
        if self.metrics.is_empty() {
            self.candidates = scored.len();
            self.positives = positives;
        } else {
            assert_eq!(self.candidates, scored.len(), "metric pools differ");
            assert_eq!(self.positives, positives, "metric labels differ");
        }
        self.metrics.push(MetricQuality {
            metric: metric.to_string(),
            average_precision: average_precision(scored),
            best: best_f1(scored),
        });
    }

    fn render(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let deep = " ".repeat(indent + 4);
        let mut out = format!(
            "{pad}{{\n{inner}\"scenario\": \"{}\",\n{inner}\"adversarial\": {},\n\
             {inner}\"comments\": {},\n{inner}\"candidates\": {},\n\
             {inner}\"positives\": {},\n{inner}\"dropped_nonfinite\": {},\n\
             {inner}\"metrics\": [\n",
            self.scenario,
            self.adversarial,
            self.comments,
            self.candidates,
            self.positives,
            self.dropped_nonfinite
        );
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let best = match &m.best {
                    Some(b) => format!(
                        "\"threshold\": {:.4}, \"precision\": {:.4}, \
                         \"recall\": {:.4}, \"f1\": {:.4}, \"flagged\": {}",
                        b.threshold, b.precision, b.recall, b.f1, b.flagged
                    ),
                    None => "\"f1\": null".to_string(),
                };
                format!(
                    "{deep}{{\"metric\": \"{}\", \"average_precision\": {:.4}, {best}}}",
                    m.metric, m.average_precision
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str(&format!("\n{inner}]\n{pad}}}"));
        out
    }
}

/// Serialize quality reports as the schema-versioned document the quality
/// bench writes to `BENCH_quality.json`. The flat `"checks"` map carries the
/// gateable scalars: `<scenario>/<metric>/best_f1` and
/// `<scenario>/candidates`.
pub fn render_quality_document(mode: &str, reports: &[QualityReport]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {QUALITY_SCHEMA_VERSION},\n"
    ));
    out.push_str("  \"kind\": \"quality\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"scenarios\": [\n");
    let rows: Vec<String> = reports.iter().map(|r| r.render(4)).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"checks\": {\n");
    let mut checks = Vec::new();
    for r in reports {
        checks.push(format!(
            "    \"{}/candidates\": {}",
            r.scenario, r.candidates
        ));
        for m in &r.metrics {
            let f1 = m.best.map_or(0.0, |b| b.f1);
            checks.push(format!(
                "    \"{}/{}/best_f1\": {:.4}",
                r.scenario, m.metric, f1
            ));
        }
    }
    out.push_str(&checks.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Extract the `schema_version` value from an emitted document, textually.
fn parse_schema_version(json: &str) -> Option<u64> {
    let at = json.find("\"schema_version\"")?;
    let rest = json[at + "\"schema_version\"".len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: &str = &rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())];
    digits.parse().ok()
}

/// Validate an emitted quality document: it must carry this build's
/// quality schema version, declare `"kind": "quality"`, report every
/// score metric for at least one scenario, carry the
/// per-scenario `candidates` counts the collapse gate reads, and contain no
/// non-finite numbers (a NaN that reached the report is a scoring bug the
/// sweep failed to drop). Textual, like `obs::report::validate` — this
/// crate validates only its own renderer's output and carries no JSON
/// parser. Returns every violation at once.
pub fn validate_quality(json: &str) -> Result<(), String> {
    match parse_schema_version(json) {
        Some(v) if v == QUALITY_SCHEMA_VERSION as u64 => {}
        Some(v) => {
            return Err(format!(
                "unsupported quality schema_version {v} (this build understands \
                 {QUALITY_SCHEMA_VERSION}); regenerate with a matching build"
            ));
        }
        None => {
            return Err("document carries no integer schema_version field; \
                 not a quality report this build can validate"
                .to_string());
        }
    }
    let mut problems = Vec::new();
    if !json.contains("\"kind\": \"quality\"") {
        problems.push("missing \"kind\": \"quality\" marker".to_string());
    }
    if !json.contains("\"scenario\": ") {
        problems.push("no scenarios".to_string());
    }
    for m in SCORE_METRICS {
        if !json.contains(&format!("\"metric\": \"{m}\"")) {
            problems.push(format!("score metric {m:?} never reported"));
        }
    }
    if !json.contains("\"candidates\": ") {
        problems.push("missing per-scenario candidate counts".to_string());
    }
    for token in [": NaN", ": inf", ": -inf"] {
        if json.contains(token) {
            problems.push(format!(
                "non-finite value ({})",
                token.trim_start_matches(": ")
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("quality report invalid: {}", problems.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bots score 10..20, humans 1..9 — perfectly separable.
    fn separable() -> Vec<(f64, bool)> {
        let mut v = Vec::new();
        for i in 10..20 {
            v.push((i as f64, true));
        }
        for i in 1..10 {
            v.push((i as f64, false));
        }
        v
    }

    #[test]
    fn separable_data_has_perfect_ap() {
        assert!((average_precision(&separable()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_monotone_in_flagged_count() {
        let sweep = precision_recall_sweep(&separable());
        for pair in sweep.windows(2) {
            assert!(pair[0].threshold > pair[1].threshold);
            assert!(pair[0].flagged < pair[1].flagged);
            assert!(pair[0].recall <= pair[1].recall);
        }
        let last = sweep.last().unwrap();
        assert_eq!(last.flagged, 19);
        assert_eq!(last.recall, 1.0);
    }

    #[test]
    fn precision_degrades_once_negatives_flag() {
        let sweep = precision_recall_sweep(&separable());
        let at_10 = sweep.iter().find(|p| p.threshold == 10.0).unwrap();
        assert_eq!(at_10.precision, 1.0);
        assert_eq!(at_10.recall, 1.0);
        let at_5 = sweep.iter().find(|p| p.threshold == 5.0).unwrap();
        assert!(at_5.precision < 1.0);
    }

    #[test]
    fn ties_flip_together() {
        let scored = vec![(5.0, true), (5.0, false), (1.0, false)];
        let sweep = precision_recall_sweep(&scored);
        assert_eq!(sweep[0].flagged, 2);
        assert_eq!(sweep[0].precision, 0.5);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(average_precision(&[]), 1.0);
        let all_neg = vec![(1.0, false), (2.0, false)];
        let sweep = precision_recall_sweep(&all_neg);
        assert!(sweep.iter().all(|p| p.recall == 1.0));
        assert!(sweep.iter().all(|p| p.true_positives == 0));
        let nan = vec![(f64::NAN, true), (1.0, true)];
        assert_eq!(precision_recall_sweep(&nan).len(), 1);
    }

    #[test]
    fn interleaved_scores_give_partial_ap() {
        let scored = vec![(4.0, true), (3.0, false), (2.0, true), (1.0, false)];
        let ap = average_precision(&scored);
        assert!(ap > 0.5 && ap < 1.0, "ap = {ap}");
    }

    #[test]
    fn f1_is_the_harmonic_mean() {
        let p = SweepPoint {
            threshold: 1.0,
            flagged: 4,
            true_positives: 2,
            precision: 0.5,
            recall: 1.0,
        };
        assert!((p.f1() - 2.0 / 3.0).abs() < 1e-12);
        let zero = SweepPoint {
            threshold: 1.0,
            flagged: 1,
            true_positives: 0,
            precision: 0.0,
            recall: 0.0,
        };
        assert_eq!(zero.f1(), 0.0, "0/0 precision-recall is F1 0, not NaN");
    }

    #[test]
    fn best_f1_finds_the_separating_threshold() {
        let b = best_f1(&separable()).unwrap();
        assert_eq!(b.threshold, 10.0);
        assert_eq!(b.f1, 1.0);
        assert_eq!(b.flagged, 10);
        assert_eq!(best_f1(&[]), None);
        assert_eq!(best_f1(&[(f64::NAN, true)]), None);
    }

    #[test]
    fn best_f1_ties_go_to_the_highest_threshold() {
        // thresholds 3.0 and 2.0 both achieve F1 = 2·(1·0.5)/1.5 = 2/3 vs
        // precision loss later; equal-F1 points must keep the earlier (higher)
        // threshold so the operating point flags fewer candidates
        let scored = vec![(3.0, true), (2.0, false), (1.0, true)];
        let b = best_f1(&scored).unwrap();
        let sweep = precision_recall_sweep(&scored);
        let tied: Vec<f64> = sweep
            .iter()
            .filter(|p| (p.f1() - b.f1).abs() < 1e-12)
            .map(|p| p.threshold)
            .collect();
        assert_eq!(b.threshold, tied[0], "ties keep the first (highest)");
    }

    #[test]
    fn nonfinite_drops_are_counted_when_obs_is_on() {
        let c = obs::counter("eval.dropped_nonfinite");
        obs::Obs::enable();
        let before = c.get();
        precision_recall_sweep(&[
            (f64::NAN, true),
            (f64::INFINITY, false),
            (1.0, true),
            (0.5, false),
        ]);
        let delta = c.get() - before;
        obs::Obs::disable();
        // ≥ rather than ==: the counter is global and other tests in this
        // binary may drop NaNs concurrently while recording is enabled
        assert!(delta >= 2, "expected ≥2 drops counted, got {delta}");
    }

    fn sample_reports() -> Vec<QualityReport> {
        let mut clean = QualityReport::new("jan2020", false, 11_000);
        for m in SCORE_METRICS {
            clean.add_metric(m, &separable());
        }
        let mut adv = QualityReport::new("adv_slow_drip", true, 6_000);
        for m in SCORE_METRICS {
            adv.add_metric(m, &[(4.0, true), (3.0, false), (2.0, true)]);
        }
        vec![clean, adv]
    }

    #[test]
    fn quality_document_renders_and_validates() {
        let json = render_quality_document("smoke", &sample_reports());
        validate_quality(&json).expect("valid document");
        assert!(json.contains(&format!("\"schema_version\": {QUALITY_SCHEMA_VERSION}")));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"jan2020/min_w/best_f1\": 1.0000"));
        assert!(json.contains("\"jan2020/candidates\": 19"));
        assert!(json.contains("\"adv_slow_drip/candidates\": 3"));
        assert!(json.contains("\"adversarial\": true"));
    }

    #[test]
    fn quality_validator_rejects_future_versions_and_gaps() {
        let json = render_quality_document("smoke", &sample_reports());
        let future = json.replace(
            &format!("\"schema_version\": {QUALITY_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", QUALITY_SCHEMA_VERSION + 1),
        );
        assert!(validate_quality(&future).is_err());
        assert!(validate_quality("{}").is_err(), "no schema_version");

        let missing_metric = json.replace("\"metric\": \"c_score\"", "\"metric\": \"c_scoreX\"");
        let err = validate_quality(&missing_metric).unwrap_err();
        assert!(err.contains("c_score"), "{err}");

        let nan = json.replace("\"f1\": 1.0000", "\"f1\": NaN");
        let err = validate_quality(&nan).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn zero_candidate_report_is_well_formed() {
        let mut empty = QualityReport::new("adv_collapse", true, 1_000);
        for m in SCORE_METRICS {
            empty.add_metric(m, &[]);
        }
        assert_eq!(empty.candidates, 0);
        let json = render_quality_document("smoke", &[empty]);
        // structurally valid — the *gate* (not the validator) fails on
        // candidates = 0, reading the checks map
        validate_quality(&json).expect("well-formed");
        assert!(json.contains("\"adv_collapse/candidates\": 0"));
        assert!(json.contains("\"adv_collapse/min_w/best_f1\": 0.0000"));
    }

    #[test]
    #[should_panic(expected = "metric pools differ")]
    fn mismatched_metric_pools_panic() {
        let mut r = QualityReport::new("x", false, 10);
        r.add_metric("min_w", &separable());
        r.add_metric("t_score", &[(1.0, true)]);
    }
}
