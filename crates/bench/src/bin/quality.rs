//! Detection-quality bench: every scenario preset — the paper months and the
//! adversarial evasion suite — through the full pipeline, flagged triplets
//! scored against ground truth per score metric (`min w'`, `T`, `w_xyz`,
//! `C`), written to `BENCH_quality.json`.
//!
//! ```text
//! cargo run --release -p bench --bin quality -- [--smoke] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--smoke` — reduced scenario scale (the CI mode; generation is seeded,
//!   so smoke-mode numbers are bit-reproducible across runs and machines);
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_quality.json` in the working directory);
//! * `--check BASELINE` — gate against a committed baseline report and exit
//!   non-zero when quality regressed:
//!   - every *non-adversarial* scenario/metric `best_f1` in the baseline must
//!     be matched within [`F1_TOLERANCE`] (missing keys fail — a scenario
//!     cannot silently leave the gate);
//!   - every scenario in the *current* report — adversarial included — must
//!     produce at least one candidate triplet (the collapse gate: an evasion
//!     preset may legitimately score near zero F1, but a run that suddenly
//!     surveys zero triangles is a pipeline bug, not an evasion win);
//!   - the baseline's `mode` must match this run's, so a full-mode baseline
//!     is never compared against smoke-mode numbers.
//!
//! Adversarial scenarios (`adv_*`) report their F1 for EXPERIMENTS.md but are
//! exempt from the F1 floor: their entire point is to degrade specific
//! metrics, and how far they degrade is a finding, not a regression.

use std::fmt::Write as _;

use analysis::evalmetrics::{render_quality_document, validate_quality, QualityReport};
use analysis::report::{fnum, Table};
use bench::label_triplets;
use coordination_core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination_core::Window;
use redditgen::ScenarioConfig;

/// How far a non-adversarial scenario/metric best-F1 may fall below the
/// committed baseline before `--check` fails. Smoke-mode generation is
/// seeded, so today's drift is exactly zero; the tolerance absorbs future
/// intentional reshapes of scenario internals that perturb the RNG stream.
const F1_TOLERANCE: f64 = 0.05;

/// Scenario scale in `--smoke` (CI) mode.
const SMOKE_SCALE: f64 = 0.15;

/// Scenario scale in full mode.
const FULL_SCALE: f64 = 0.5;

/// The survey configuration the quality sweep runs: the paper's (0, 60 s]
/// window, but a low triangle cutoff so the candidate pool spans *both*
/// sides of every interesting threshold — sweeping `min w'` from a pool
/// already pre-filtered at the paper's cutoff 10 would show nothing below
/// it. The standard exclusions (AutoModerator etc.) stay on, as in every
/// documented run.
fn quality_config() -> PipelineConfig {
    PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 3,
        ..Default::default()
    }
}

/// Run one scenario preset end to end and score every candidate triplet
/// against its ground truth, per metric.
fn run_scenario(name: &str, scale: f64) -> QualityReport {
    let cfg = ScenarioConfig::preset(name, scale).expect("known preset");
    let scenario = cfg.build();
    let ds = scenario.dataset();
    let out: PipelineOutput = Pipeline::new(quality_config()).run_dataset(&ds);
    let labeled = label_triplets(&out, &ds, &scenario.truth);

    // one scored pool per score metric, same candidates and labels throughout
    let pools: [(&str, Vec<(f64, bool)>); 4] = [
        (
            "min_w",
            labeled
                .iter()
                .map(|&(m, p)| (m.min_ci_weight as f64, p))
                .collect(),
        ),
        ("t_score", labeled.iter().map(|&(m, p)| (m.t, p)).collect()),
        (
            "w_xyz",
            labeled
                .iter()
                .map(|&(m, p)| (m.hyper_weight as f64, p))
                .collect(),
        ),
        ("c_score", labeled.iter().map(|&(m, p)| (m.c, p)).collect()),
    ];

    let adversarial = name.starts_with("adv_");
    let mut report = QualityReport::new(name, adversarial, scenario.records.len());
    let drop_counter = obs::counter("eval.dropped_nonfinite");
    obs::Obs::enable();
    let drops_before = drop_counter.get();
    for (metric, scored) in &pools {
        report.add_metric(metric, scored);
    }
    report.dropped_nonfinite = drop_counter.get() - drops_before;
    obs::Obs::disable();
    report
}

fn print_table(reports: &[QualityReport]) {
    let mut t = Table::new(vec![
        "scenario",
        "metric",
        "candidates",
        "positives",
        "ap",
        "precision",
        "recall",
        "best_f1",
    ]);
    for r in reports {
        for m in &r.metrics {
            let (p, rec, f1) = m
                .best
                .map_or((f64::NAN, f64::NAN, 0.0), |b| (b.precision, b.recall, b.f1));
            t.row(vec![
                r.scenario.clone(),
                m.metric.clone(),
                r.candidates.to_string(),
                r.positives.to_string(),
                fnum(m.average_precision, 3),
                fnum(p, 3),
                fnum(rec, 3),
                fnum(f1, 3),
            ]);
        }
    }
    println!("{}", t.to_text());
}

/// Pull the flat `"checks"` map back out of a report, without a JSON parser
/// (same textual contract as `obs::report`).
fn parse_checks(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"checks\"") else {
        return Vec::new();
    };
    let Some(open) = json[start..].find('{') else {
        return Vec::new();
    };
    let body_start = start + open + 1;
    let Some(close) = json[body_start..].find('}') else {
        return Vec::new();
    };
    json[body_start..body_start + close]
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((
                k.trim().trim_matches('"').to_string(),
                v.trim().parse().ok()?,
            ))
        })
        .collect()
}

/// Extract the `"mode"` string from a report, textually.
fn parse_mode(json: &str) -> Option<&str> {
    let at = json.find("\"mode\": \"")?;
    let rest = &json[at + "\"mode\": \"".len()..];
    rest.split('"').next()
}

/// The detection-quality gate. See the module docs for the three rules.
fn check_regressions(current: &str, baseline_path: &str) -> Result<(), String> {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let base = parse_checks(&baseline);
    if base.is_empty() {
        return Err(format!("baseline {baseline_path} has no checks section"));
    }
    let cur = parse_checks(current);
    let mut failures = Vec::new();
    match (parse_mode(&baseline), parse_mode(current)) {
        (Some(b), Some(c)) if b == c => {}
        (b, c) => failures.push(format!(
            "mode mismatch: baseline {b:?} vs current {c:?} — regenerate the \
             baseline in the mode CI runs"
        )),
    }
    let lookup = |key: &str| cur.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    for (key, base_val) in &base {
        // adversarial scenarios are reported but never F1-gated
        if key.starts_with("adv_") || !key.ends_with("/best_f1") {
            continue;
        }
        match lookup(key) {
            Some(cur_val) => {
                println!(
                    "  check {key}: {cur_val:.4} vs baseline {base_val:.4} \
                     (floor {:.4})",
                    base_val - F1_TOLERANCE
                );
                if cur_val < base_val - F1_TOLERANCE {
                    failures.push(format!(
                        "{key} regressed: best F1 {cur_val:.4} below baseline \
                         {base_val:.4} - {F1_TOLERANCE}"
                    ));
                }
            }
            None => failures.push(format!(
                "{key} present in baseline ({base_val:.4}) but missing from \
                 current report"
            )),
        }
    }
    // collapse gate: every scenario in the *current* report must have
    // candidates, adversarial included
    for (key, val) in &cur {
        if key.ends_with("/candidates") && *val <= 0.0 {
            failures.push(format!(
                "{key} = 0: the pipeline produced no candidate triplets for \
                 this scenario (silent collapse)"
            ));
        }
    }
    if !cur.iter().any(|(k, _)| k.ends_with("/candidates")) {
        failures.push("current report carries no candidate counts".to_string());
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn run(smoke: bool, out_path: &str, baseline: Option<&str>) {
    let (mode, scale) = if smoke {
        ("smoke", SMOKE_SCALE)
    } else {
        ("full", FULL_SCALE)
    };
    println!("quality bench ({mode}, scale {scale}):");
    let reports: Vec<QualityReport> = ScenarioConfig::PRESETS
        .iter()
        .map(|name| {
            let r = run_scenario(name, scale);
            let mut line = format!(
                "  {}: {} comments, {} candidates ({} positive)",
                r.scenario, r.comments, r.candidates, r.positives
            );
            if r.dropped_nonfinite > 0 {
                let _ = write!(line, ", {} non-finite scores dropped", r.dropped_nonfinite);
            }
            println!("{line}");
            r
        })
        .collect();
    print_table(&reports);

    let report = render_quality_document(mode, &reports);
    validate_quality(&report).expect("emitted quality report must validate");
    std::fs::write(out_path, &report).expect("write quality report");
    println!("wrote {out_path}");

    if let Some(baseline_path) = baseline {
        println!("checking against baseline {baseline_path}:");
        if let Err(msg) = check_regressions(&report, baseline_path) {
            eprintln!("QUALITY REGRESSION: {msg}");
            std::process::exit(1);
        }
        println!(
            "no paper scenario's best F1 fell more than {F1_TOLERANCE} below \
             baseline; no scenario collapsed"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_quality.json".to_string());
    let baseline = flag_value("--check");
    run(smoke, &out_path, baseline.as_deref());
}
