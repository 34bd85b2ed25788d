//! Regenerate every figure and in-text result of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin figures [fig1 fig2 ... fig10 scale quality all]
//! ```
//!
//! For each figure the harness prints the measured artifact (ASCII hexbin or
//! component description), the paper's qualitative claim, and whether the
//! reproduction exhibits it; CSV/DOT files land in `target/figures/`. The
//! binary exits 1 if any claim check missed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use analysis::components::{component_dot, describe, named_components};
use analysis::hexbin::{Hexbin, HexbinConfig};
use analysis::render::{ascii_heatmap, hexbin_csv, with_commas};
use analysis::stats::{mean_diagonal_gap, pearson, spearman};
use bench::{jan2020, label_triplets, oct2016, run_figures_config, run_hunt_config};
use coordination_core::pipeline::PipelineOutput;
use coordination_core::Window;

fn out_dir() -> PathBuf {
    let d = PathBuf::from("target/figures");
    std::fs::create_dir_all(&d).expect("create target/figures");
    d
}

fn save(name: &str, content: &str) {
    let p = out_dir().join(name);
    std::fs::write(&p, content).expect("write figure file");
    println!("  wrote {}", p.display());
}

struct Runs {
    jan_hunt: PipelineOutput,
    jan_fig: PipelineOutput,
    oct_60s: PipelineOutput,
    oct_10m: PipelineOutput,
    oct_1h: PipelineOutput,
}

fn compute_runs() -> Runs {
    let (_, jan_ds) = jan2020();
    let (_, oct_ds) = oct2016();
    println!(
        "workloads: jan2020 = {} comments, oct2016 = {} comments\n",
        with_commas(jan_ds.len() as u64),
        with_commas(oct_ds.len() as u64)
    );
    Runs {
        jan_hunt: run_hunt_config(jan_ds),
        jan_fig: run_figures_config(jan_ds, Window::zero_to_60s()),
        oct_60s: run_figures_config(oct_ds, Window::zero_to_60s()),
        oct_10m: run_figures_config(oct_ds, Window::zero_to_10m()),
        oct_1h: run_figures_config(oct_ds, Window::zero_to_1h()),
    }
}

/// Claim checks that missed; `main` exits 1 after printing everything if any
/// did.
static MISSES: AtomicUsize = AtomicUsize::new(0);

fn check(label: &str, ok: bool) {
    println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
    if !ok {
        MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

fn score_hexbin(out: &PipelineOutput) -> Hexbin {
    Hexbin::compute(
        &out.score_points(),
        &HexbinConfig {
            gridsize: 40,
            x_range: Some((0.0, 1.0)),
            y_range: Some((0.0, 1.0)),
        },
    )
}

fn weight_hexbin(out: &PipelineOutput, clip_outlier: bool) -> Hexbin {
    let mut pts = out.weight_points();
    if clip_outlier {
        // the paper omits the smiley-bot outlier "to better show the rest"
        if let Some(max) = out.heaviest_triplet() {
            pts.retain(|&(x, _)| (x as u64) < max.min_ci_weight);
        }
    }
    Hexbin::compute(
        &pts,
        &HexbinConfig {
            gridsize: 40,
            x_range: None,
            y_range: None,
        },
    )
}

fn fig1(runs: &Runs) {
    println!("== Figure 1: GPT-2 text-generation network (jan2020, (0,60s), cutoff 25) ==");
    let (_, ds) = jan2020();
    let comps = named_components(&ds.authors, &runs.jan_hunt.ci, 25);
    println!("  components at cutoff 25: {}", comps.len());
    let gpt = comps
        .iter()
        .find(|c| c.members.iter().all(|m| m.starts_with("gpt2_bot_")) && c.members.len() >= 4);
    match gpt {
        Some(c) => {
            println!("  gpt2 component: {}", describe(c));
            let (lo, hi) = c.summary.weight_range.unwrap_or((0, 0));
            check(
                "found as a connected component (paper: one of 39 components)",
                true,
            );
            check(
                &format!("edge weights in a narrow band near 25–33 (measured {lo}–{hi})"),
                lo >= 25 && hi <= 45,
            );
            check(
                &format!(
                    "sparse, not a clique (density {:.2} < 0.7)",
                    c.summary.density
                ),
                c.summary.density < 0.7,
            );
            let ids: Vec<u32> = c
                .members
                .iter()
                .map(|m| ds.authors.get(m).expect("member interned"))
                .collect();
            save(
                "fig1_gpt2.dot",
                &component_dot(&ds.authors, &runs.jan_hunt.ci, &ids, 25),
            );
        }
        None => check("gpt2 component found", false),
    }
    println!();
}

fn fig2(runs: &Runs) {
    println!("== Figure 2: restream link-sharing network (jan2020, (0,60s), cutoff 25) ==");
    let (_, ds) = jan2020();
    let comps = named_components(&ds.authors, &runs.jan_hunt.ci, 25);
    let stream = comps
        .iter()
        .find(|c| c.members.iter().all(|m| m.starts_with("stream_bot_")) && c.members.len() >= 4);
    match stream {
        Some(c) => {
            println!("  restream component: {}", describe(c));
            check(
                &format!(
                    "contains an 8-clique (paper: 8-clique; measured {})",
                    c.summary.max_clique_size
                ),
                c.summary.max_clique_size >= 8,
            );
            let (lo, hi) = c.summary.weight_range.unwrap_or((0, 0));
            check(
                &format!("edge weights higher than the GPT net (paper 27–91; measured {lo}–{hi})"),
                lo >= 25,
            );
            check(
                &format!("dense (density {:.2} ≥ 0.9)", c.summary.density),
                c.summary.density >= 0.9,
            );
            let ids: Vec<u32> = c
                .members
                .iter()
                .map(|m| ds.authors.get(m).expect("member interned"))
                .collect();
            save(
                "fig2_restream.dot",
                &component_dot(&ds.authors, &runs.jan_hunt.ci, &ids, 25),
            );
        }
        None => check("restream component found", false),
    }
    println!();
}

fn score_figure(name: &str, title: &str, out: &PipelineOutput) {
    println!("== {title} ==");
    let hb = score_hexbin(out);
    print!("{}", ascii_heatmap(&hb, 64, 20));
    let pts = out.score_points();
    let r = pearson(&pts).unwrap_or(f64::NAN);
    let rho = spearman(&pts).unwrap_or(f64::NAN);
    println!("  triplets={} pearson={r:.3} spearman={rho:.3}", pts.len());
    check(
        "positive relationship between T and C (paper: 'appears positive')",
        r > 0.2,
    );
    save(&format!("{name}.csv"), &hexbin_csv(&hb));
    println!();
}

fn weight_figure(name: &str, title: &str, out: &PipelineOutput, clip: bool) {
    println!("== {title} ==");
    let hb = weight_hexbin(out, clip);
    print!("{}", ascii_heatmap(&hb, 64, 20));
    let pts: Vec<(f64, f64)> = out.weight_points();
    let r = pearson(&pts).unwrap_or(f64::NAN);
    println!("  triplets={} pearson={r:.3}", pts.len());
    check("positive correlation between min w' and w_xyz", r > 0.2);
    save(&format!("{name}.csv"), &hexbin_csv(&hb));
    println!();
}

fn fig4(runs: &Runs) {
    weight_figure(
        "fig4_weights_jan2020_60s",
        "Figure 4: min triangle weight vs w_xyz (jan2020, (0,60s), cutoff 10)",
        &runs.jan_fig,
        true,
    );
    let (_, ds) = jan2020();
    if let Some(max) = runs.jan_fig.heaviest_triplet() {
        let names: Vec<&str> = max.authors.iter().map(|a| ds.authors.name(a.0)).collect();
        let mut w = max.ci_weights;
        w.sort_unstable();
        println!(
            "  heaviest triangle: {:?} with CI edge weights {:?} (paper: smiley bots at (4460, 5516, 13355))",
            names, w
        );
        check(
            "heaviest triangle is the reply-trigger (smiley) trio",
            names.iter().all(|n| n.starts_with("smiley_bot_")),
        );
        check(
            "its weights dwarf the rest of the plot (omitted from the hexbin, as in the paper)",
            w[0] > 3 * runs
                .jan_fig
                .triplets
                .iter()
                .filter(|m| {
                    !m.authors
                        .iter()
                        .any(|a| ds.authors.name(a.0).starts_with("smiley"))
                })
                .map(|m| m.min_ci_weight)
                .max()
                .unwrap_or(1),
        );
        check("weights are asymmetric (two big, one smaller)", w[2] > w[0]);
    }
    println!();
}

fn window_comparison(runs: &Runs) {
    println!("== Window-length effect (Figures 5→7→9 and 6→8→10 claims) ==");
    let gap = |o: &PipelineOutput| mean_diagonal_gap(&o.score_points()).unwrap_or(f64::NAN);
    let (g60, g600, g3600) = (gap(&runs.oct_60s), gap(&runs.oct_10m), gap(&runs.oct_1h));
    println!(
        "  mean |C - T| by window (all triplets): 60s={g60:.4} 600s={g600:.4} 3600s={g3600:.4}"
    );
    // the comparable version holds the triplet set fixed (the 60s survivors):
    // for those, a longer window raises min w' toward the time-unbounded
    // hyperedge weight, pulling T toward C — the Figure 7/9 tightening
    let base_set: std::collections::HashSet<[coordination_core::AuthorId; 3]> =
        runs.oct_60s.triplets.iter().map(|m| m.authors).collect();
    let fixed_gap = |o: &PipelineOutput| {
        let pts: Vec<(f64, f64)> = o
            .triplets
            .iter()
            .filter(|m| base_set.contains(&m.authors))
            .map(|m| m.score_point())
            .collect();
        mean_diagonal_gap(&pts).unwrap_or(f64::NAN)
    };
    let (f60, f600, f3600) = (
        fixed_gap(&runs.oct_60s),
        fixed_gap(&runs.oct_10m),
        fixed_gap(&runs.oct_1h),
    );
    println!(
        "  mean |C - T| for the 60s triplet set: 60s={f60:.4} 600s={f600:.4} 3600s={f3600:.4}"
    );
    check(
        "longer window tightens the score relationship (paper Fig 7 vs 5, fixed set)",
        f600 <= f60 + 1e-9 && f3600 <= f600 + 1e-9,
    );
    let corr = |o: &PipelineOutput| pearson(&o.score_points()).unwrap_or(0.0);
    println!(
        "  pearson(T,C) by window: 60s={:.3} 600s={:.3} 3600s={:.3}",
        corr(&runs.oct_60s),
        corr(&runs.oct_10m),
        corr(&runs.oct_1h)
    );
    // longer windows capture more of the triplet space (paper: 21.2M at 1h)
    let n60 = runs.oct_60s.triplets.len();
    let n600 = runs.oct_10m.triplets.len();
    let n3600 = runs.oct_1h.triplets.len();
    println!("  triplets above cutoff 10: 60s={n60} 600s={n600} 3600s={n3600}");
    check(
        "longer windows surface more triplets at the same cutoff",
        n60 <= n600 && n600 <= n3600,
    );
    // fixed-triplet view: for the triplets already visible at 60s, growing the
    // window can only raise min w' toward (and past) the time-unbounded w_xyz,
    // so the fraction still above the diagonal must not grow (paper Fig 8:
    // "shared interactions with a page may not happen within 10 minutes")
    let base: std::collections::HashSet<[coordination_core::AuthorId; 3]> =
        runs.oct_60s.triplets.iter().map(|m| m.authors).collect();
    let above_fixed = |o: &PipelineOutput| {
        let sel: Vec<&coordination_core::TripletMetrics> = o
            .triplets
            .iter()
            .filter(|m| base.contains(&m.authors))
            .collect();
        if sel.is_empty() {
            return 0.0;
        }
        sel.iter()
            .filter(|m| m.hyper_weight > m.min_ci_weight)
            .count() as f64
            / sel.len() as f64
    };
    let (a60, a600, a3600) = (
        above_fixed(&runs.oct_60s),
        above_fixed(&runs.oct_10m),
        above_fixed(&runs.oct_1h),
    );
    println!(
        "  of the 60s triplets, fraction with w_xyz > min w': 60s={a60:.3} 600s={a600:.3} 3600s={a3600:.3}"
    );
    check(
        "for a fixed triplet set, longer windows close the hyperedge/triangle gap",
        a600 <= a60 + 1e-9 && a3600 <= a600 + 1e-9,
    );
    // window targeting (§2.2): the slow-burn curation ring responds on the
    // minute scale, so the 60 s hunt misses it and the 10 min one nails it
    let (_, ds) = oct2016();
    let slow_triplets = |o: &PipelineOutput| {
        o.triplets
            .iter()
            .filter(|m| {
                m.authors
                    .iter()
                    .all(|a| ds.authors.name(a.0).starts_with("curator_bot_"))
            })
            .count()
    };
    let (s60, s600) = (slow_triplets(&runs.oct_60s), slow_triplets(&runs.oct_10m));
    println!("  slow-burn (curator) triplets at cutoff 10: 60s={s60} 600s={s600}");
    check(
        "minute-scale coordination is only exposed by the wider window (paper §2.2)",
        s60 == 0 && s600 >= 10,
    );
    println!();
}

fn scale_report(runs: &Runs) {
    println!("== Scale statistics (paper §3.1 and §3.2.3, scaled ~1000x down) ==");
    let (_, jan_ds) = jan2020();
    let (_, oct_ds) = oct2016();
    let s = &runs.jan_fig.stats;
    println!(
        "  jan2020 (0,60s): {} comments reviewed (paper: 138,000,000), {} authors, {} CI edges",
        with_commas(s.comments_reviewed),
        with_commas(jan_ds.authors.len() as u64),
        with_commas(s.ci_edges)
    );
    let s = &runs.oct_1h.stats;
    println!(
        "  oct2016 (0,1h): {} authors projected (paper: 2,950,000), {} CI edges (paper: 3,280,000,000), {} triangles examined (paper: 315,000,000 at weight ≥ 5), {} triplets kept at cutoff 10 (paper: 21,200,000)",
        with_commas(s.projected_authors as u64),
        with_commas(s.ci_edges),
        with_commas(s.triangles_examined),
        with_commas(s.triangles_kept)
    );
    check(
        "1h projection is the largest of the three windows",
        runs.oct_1h.stats.ci_edges > runs.oct_10m.stats.ci_edges
            && runs.oct_10m.stats.ci_edges > runs.oct_60s.stats.ci_edges,
    );
    let _ = oct_ds;
    println!();
}

fn quality(runs: &Runs) {
    println!("== Detection quality vs ground truth (beyond the paper) ==");
    let (scen, ds) = jan2020();
    // a permissive cutoff so organic (negative) candidates enter the ranking
    let permissive = coordination_core::Pipeline::new(coordination_core::PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 5,
        ..Default::default()
    })
    .run_dataset(ds);
    let labeled = label_triplets(&permissive, ds, &scen.truth);
    let by_min_w: Vec<(f64, bool)> = labeled
        .iter()
        .map(|&(m, p)| (m.min_ci_weight as f64, p))
        .collect();
    let by_t: Vec<(f64, bool)> = labeled.iter().map(|&(m, p)| (m.t, p)).collect();
    let by_c: Vec<(f64, bool)> = labeled.iter().map(|&(m, p)| (m.c, p)).collect();
    let by_w: Vec<(f64, bool)> = labeled
        .iter()
        .map(|&(m, p)| (m.hyper_weight as f64, p))
        .collect();
    println!(
        "  candidates={} coordinated={}",
        labeled.len(),
        labeled.iter().filter(|&&(_, p)| p).count()
    );
    let mut table = String::from("metric,average_precision\n");
    for (name, scored) in [
        ("min_ci_weight", &by_min_w),
        ("t_score", &by_t),
        ("hyper_weight", &by_w),
        ("c_score", &by_c),
    ] {
        let ap = analysis::evalmetrics::average_precision(scored);
        println!("  ranking by {name:<14} average precision = {ap:.3}");
        let _ = writeln!(table, "{name},{ap}");
    }
    save("quality_ap.csv", &table);

    // the paper's actual operating point: triplet-level evaluation at cutoff 25
    let flagged: Vec<[&str; 3]> = runs
        .jan_hunt
        .triplets
        .iter()
        .map(|m| {
            let n: Vec<&str> = m.authors.iter().map(|a| ds.authors.name(a.0)).collect();
            [n[0], n[1], n[2]]
        })
        .collect();
    let eval = scen.truth.evaluate(flagged.iter().copied());
    println!(
        "  at cutoff 25: precision={:.3} family recall={:.3} ({}/{} families), member recall={:.3}",
        eval.precision,
        eval.family_recall,
        eval.families_detected,
        eval.families_total,
        eval.member_recall
    );
    check(
        "cutoff-25 flags are dominated by true coordination",
        eval.precision > 0.9,
    );
    check(
        "all injected coordinated families are detected",
        eval.family_recall >= 1.0,
    );
    println!();
}

fn future_work(runs: &Runs) {
    println!("== Future-work features (paper §4.3), exercised ==");
    let (scen, ds) = jan2020();
    let excl = coordination_core::filter::ExclusionList::reddit_defaults();
    let btm = ds.btm_without(&excl.resolve(ds));

    // 1. time-windowed hyperedges: the provable bound the paper lacked
    let triangles: Vec<tripoll::Triangle> = runs
        .jan_hunt
        .survey
        .triangles
        .iter()
        .map(|s| s.triangle)
        .collect();
    let windowed = coordination_core::windowed_hyperedge::validate_windowed(&btm, &triangles, 60);
    let bound_ok = windowed
        .iter()
        .all(|w| w.windowed_weight <= w.min_ci_weight);
    check(
        &format!(
            "windowed w_xyz ≤ min w' holds for all {} surveyed triplets (the §4.2 bound, restored)",
            windowed.len()
        ),
        bound_ok,
    );
    let tightened = windowed
        .iter()
        .filter(|w| w.windowed_weight < w.hyper_weight)
        .count();
    println!(
        "  {} of {} triplets have windowed w_xyz strictly below the unbounded count",
        tightened,
        windowed.len()
    );

    // 2. group growth: triplets merge back into the full networks
    let groups = coordination_core::groups::merge_triplets(&btm, &runs.jan_hunt.triplets, 2);
    println!(
        "  {} groups merged from {} triplets:",
        groups.len(),
        runs.jan_hunt.triplets.len()
    );
    let mut table = analysis::report::Table::new(["members", "w_G", "score", "family"]);
    for g in &groups {
        let names: Vec<&str> = g.members.iter().map(|a| ds.authors.name(a.0)).collect();
        let fam = scen
            .truth
            .family_of(names[0])
            .map(|f| f.name.as_str())
            .unwrap_or("organic");
        table.row([
            g.members.len().to_string(),
            g.group_weight.to_string(),
            format!("{:.3}", g.score),
            fam.to_string(),
        ]);
        println!(
            "    {} members (w_G = {}, score = {:.3}): {fam}",
            g.members.len(),
            g.group_weight,
            g.score
        );
    }
    save("future_groups.csv", &table.to_csv());
    check(
        "the restream family reassembles as one group of all 8 members",
        groups.iter().any(|g| {
            g.members.len() == 8
                && g.members
                    .iter()
                    .all(|a| ds.authors.name(a.0).starts_with("stream_bot_"))
        }),
    );
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |k: &str| args.is_empty() || args.iter().any(|a| a == k || a == "all");

    let runs = compute_runs();

    if want("fig1") {
        fig1(&runs);
    }
    if want("fig2") {
        fig2(&runs);
    }
    if want("fig3") {
        score_figure(
            "fig3_scores_jan2020_60s",
            "Figure 3: T(x,y,z) vs C(x,y,z) (jan2020, (0,60s), cutoff 10)",
            &runs.jan_fig,
        );
    }
    if want("fig4") {
        fig4(&runs);
    }
    if want("fig5") {
        score_figure(
            "fig5_scores_oct2016_60s",
            "Figure 5: T vs C (oct2016, (0,60s), cutoff 10)",
            &runs.oct_60s,
        );
    }
    if want("fig6") {
        weight_figure(
            "fig6_weights_oct2016_60s",
            "Figure 6: min triangle weight vs w_xyz (oct2016, (0,60s), cutoff 10)",
            &runs.oct_60s,
            false,
        );
    }
    if want("fig7") {
        score_figure(
            "fig7_scores_oct2016_10m",
            "Figure 7: T vs C (oct2016, (0,600s), cutoff 10)",
            &runs.oct_10m,
        );
    }
    if want("fig8") {
        weight_figure(
            "fig8_weights_oct2016_10m",
            "Figure 8: min triangle weight vs w_xyz (oct2016, (0,600s), cutoff 10)",
            &runs.oct_10m,
            false,
        );
    }
    if want("fig9") {
        score_figure(
            "fig9_scores_oct2016_1h",
            "Figure 9: T vs C (oct2016, (0,3600s), cutoff 10)",
            &runs.oct_1h,
        );
    }
    if want("fig10") {
        weight_figure(
            "fig10_weights_oct2016_1h",
            "Figure 10: min triangle weight vs w_xyz (oct2016, (0,3600s), cutoff 10)",
            &runs.oct_1h,
            false,
        );
    }
    if want("windows") || args.is_empty() {
        window_comparison(&runs);
    }
    if want("scale") {
        scale_report(&runs);
    }
    if want("quality") {
        quality(&runs);
    }
    if want("future") {
        future_work(&runs);
    }
    let misses = MISSES.load(Ordering::Relaxed);
    if misses > 0 {
        eprintln!("{misses} claim check(s) missed");
        std::process::exit(1);
    }
    println!("done.");
}
