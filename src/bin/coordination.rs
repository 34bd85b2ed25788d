//! `coordination` — command-line front end to the detection pipeline.
//!
//! ```text
//! coordination generate --preset jan2020 --scale 0.3 --out month.ndjson
//! coordination hunt     --input month.ndjson --d2 60 --cutoff 25 [--dot-dir DIR]
//! coordination validate --input month.ndjson --d2 60 --cutoff 10 [--windowed]
//! coordination groups   --input month.ndjson --d2 60 --cutoff 25
//! coordination refine   --input month.ndjson --d2 60 --cutoff 25 --rounds 3
//! ```
//!
//! Input is pushshift-style NDJSON (one JSON object per line with `author`,
//! `link_id`, `created_utc`); `--input -` reads stdin. Exit code 2 signals a
//! usage error.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::ExitCode;

use coordination::analysis::components::{component_dot, describe, named_components};
use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::ingest::{self, IngestConfig, IngestStats};
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::records::{write_ndjson, Dataset};
use coordination::core::snapshot::btm_from_snapshot;
use coordination::core::{Btm, CiGraph, Window};
use coordination::redditgen::ScenarioConfig;

/// Stage spans every batch run records — `report-validate` and the CI gate
/// fail if any is missing from a run report.
const BATCH_SPANS: &[&str] = &["ingest", "btm.build", "project", "survey", "validate"];

/// Counters the batch pipeline documents (registered even when zero, so a
/// lossless run still reports `ingest.skipped_lines: 0`).
const BATCH_COUNTERS: &[&str] = &[
    "ingest.bytes",
    "ingest.chunks",
    "ingest.lines",
    "ingest.events",
    "ingest.skipped_lines",
    "ingest.intern_wait_ns",
    "ingest.scan_wait_ns",
    "btm.pages_presorted",
    "btm.pages_sorted",
    "btm.rows_narrow",
    "btm.rows_wide",
    "btm.rows_mapped",
    "project.pages",
    "project.edges",
    "survey.triangles_examined",
    "survey.triangles_kept",
    "validate.triplets",
    "validate.harvest_authors",
    "validate.harvest_incidences",
    "validate.prefix_runs",
    "validate.prefix_pages",
];

/// Stage spans / counters the stream engine documents.
const STREAM_SPANS: &[&str] = &["stream"];
const STREAM_COUNTERS: &[&str] = &[
    "stream.events",
    "stream.alerts",
    "stream.edge_additions",
    "stream.edge_expirations",
    "stream.checkpoints",
    "stream.dropped_late",
    "stream.expiry_stale",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: coordination <generate|stats|project|survey|hunt|validate|groups|refine|pipeline|stream|snapshot|report-validate> [flags]\n\
         \n\
         generate  --preset jan2020|oct2016|adv_* [--scale F=0.3] --out FILE\n\
         stats     --input FILE\n\
         pipeline  --input FILE [--d1 S=0] [--d2 S=60] [--cutoff N=10] [--t-score F=0]\n\
         \x20          [--ranks N=1] [--shuffle-budget BYTES]\n\
         project   --input FILE [--d1 S=0] [--d2 S=60] --out GRAPH.tsv\n\
         survey    --graph GRAPH.tsv [--cutoff N=10] [--t-score F=0] [--top N]\n\
         hunt      --input FILE [--d1 S=0] [--d2 S=60] [--cutoff N=25] [--dot-dir DIR]\n\
         validate  --input FILE [--d1 S=0] [--d2 S=60] [--cutoff N=10] [--t-score F=0] [--windowed]\n\
         groups    --input FILE [--d1 S=0] [--d2 S=60] [--cutoff N=25]\n\
         refine    --input FILE [--d1 S=0] [--d2 S=60] [--cutoff N=25] [--rounds N=3]\n\
         stream    --input FILE | --preset jan2020|oct2016|adv_* [--scale F=0.3]\n\
         \x20          [--d1 S=0] [--d2 S=60] [--cutoff N=25] [--t-score F=0]\n\
         \x20          [--horizon S] [--checkpoint N] [--speedup F] [--snapshot-out GRAPH.tsv]\n\
         snapshot write   --input FILE --out FILE.snap [--d1 S=0] [--d2 S=60]\n\
         snapshot inspect --snapshot FILE.snap\n\
         report-validate --report FILE [--kind batch|stream|quality]\n\
         \n\
         `project` persists the expensive step-1 graph; `survey` re-queries it\n\
         at any cutoff without reprojecting. `pipeline` runs ingest →\n\
         projection → survey → validation end to end and prints a\n\
         deterministic analysis; with --ranks N > 1 it runs rank-sharded on\n\
         N ygm ranks and produces byte-identical stdout. `stream`\n\
         replays the input as a live event stream and alerts on coordinated\n\
         triplets mid-stream.\n\
         `snapshot write` serializes an ingest to the columnar binary snapshot\n\
         format; stats/survey/hunt/validate/groups/refine then accept\n\
         --from-snapshot FILE.snap in place of --input and run over the\n\
         memory-mapped columns (survey projects them under the window\n\
         `snapshot write` recorded).\n\
         `report-validate` checks a --report file for the documented schema\n\
         version, stage spans, and counters (exit 2 on any gap); --kind\n\
         quality validates a BENCH_quality.json detection-quality report.\n\
         `generate --preset adv_*` emits the adversarial evasion scenarios\n\
         (adv_jitter|adv_slow_drip|adv_churn|adv_mimicry); churn truth\n\
         sidecars carry Alias rows mapping rotated handles to canonical\n\
         members.\n\
         Input is pushshift-style NDJSON.\n\
         \n\
         Global: --ranks N (`pipeline` only; errors elsewhere) runs the\n\
         rank-sharded engine on N ranks; the default, 1, is the resident\n\
         engine. --shuffle-budget BYTES (`pipeline` only) caps each rank's\n\
         resident shuffle run stack per label; overflow spills sorted\n\
         segments to disk and the output is bit-identical to an unbounded\n\
         run. A budget selects the rank-sharded engine at any --ranks.\n\
         --skip-bad-lines counts and skips malformed input lines instead of\n\
         aborting (default: strict). --report FILE writes a schema-versioned\n\
         JSON run report (span timings + counters); --progress prints live\n\
         per-stage lines to stderr. A flag no command reads is a usage error."
    );
    ExitCode::from(2)
}

/// Every flag some command reads. Anything else is a typo or a flag that no
/// longer exists, and is refused before any work instead of ignored.
const KNOWN_FLAGS: &[&str] = &[
    "checkpoint",
    "cutoff",
    "d1",
    "d2",
    "dot-dir",
    "from-snapshot",
    "graph",
    "horizon",
    "input",
    "kind",
    "out",
    "preset",
    "progress",
    "ranks",
    "report",
    "rounds",
    "scale",
    "shuffle-budget",
    "skip-bad-lines",
    "snapshot",
    "snapshot-out",
    "speedup",
    "t-score",
    "top",
    "windowed",
];

/// Minimal `--flag value` / `--flag` parser.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if !a.starts_with("--") {
                eprintln!("unexpected argument: {a}");
                return None;
            }
            let key = a.trim_start_matches("--").to_string();
            if !KNOWN_FLAGS.contains(&key.as_str()) {
                eprintln!("unknown flag: {a}");
                return None;
            }
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                map.insert(key, args[i + 1].clone());
                i += 2;
            } else {
                map.insert(key, String::new()); // boolean flag
                i += 1;
            }
        }
        Some(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

/// Open `--input` (a path, or `-` for stdin) for the ingest layer, which
/// reads it a chunk at a time on a thread of its own: a pipe streams, and the
/// file is never held. Stdin is not locked here: a `StdinLock` cannot move to
/// that thread.
fn open_input(flags: &Flags) -> Result<(Box<dyn Read + Send>, &str), String> {
    let path = flags.get("input").ok_or("--input is required")?;
    let reader: Box<dyn Read + Send> = if path == "-" {
        Box::new(std::io::stdin())
    } else {
        Box::new(std::fs::File::open(path).map_err(|e| format!("read {path}: {e}"))?)
    };
    Ok((reader, path))
}

fn ingest_config(flags: &Flags) -> IngestConfig {
    IngestConfig {
        skip_bad_lines: flags.has("skip-bad-lines"),
    }
}

fn report_skipped(stats: &IngestStats) {
    if stats.skipped_lines > 0 {
        eprintln!(
            "skipped {} malformed lines (of {})",
            stats.skipped_lines, stats.lines
        );
    }
}

/// Open a snapshot file with the typed store errors rendered for the CLI.
/// Corrupt, truncated, or future-versioned files land here as a clear
/// message and exit code 2 — never a panic.
fn open_snapshot(path: &str) -> Result<coordination::core::store::Snapshot, String> {
    use coordination::core::store::{Snapshot, StoreError};
    let snap = Snapshot::open(std::path::Path::new(path)).map_err(|e| match e {
        // a snapshot is a cache of its NDJSON, so another version is rebuilt, not converted
        StoreError::UnsupportedVersion { .. } => {
            format!("open snapshot {path}: {e}; re-create it with `coordination snapshot write`")
        }
        e => format!("open snapshot {path}: {e}"),
    })?;
    let m = snap.meta();
    eprintln!(
        "mapped {path}: {} comments, {} authors, {} pages{}",
        m.n_events,
        m.n_authors,
        m.n_pages,
        if snap.is_mapped() {
            ""
        } else {
            " (read, not mmapped)"
        }
    );
    Ok(snap)
}

/// Guard against mixing the resident and mapped input paths.
fn reject_both_inputs(flags: &Flags) -> Result<(), String> {
    if flags.has("from-snapshot") && flags.has("input") {
        return Err("use exactly one of --input and --from-snapshot".to_string());
    }
    Ok(())
}

/// What a command runs over: `--input` ingested, or `--from-snapshot` mapped.
enum Input {
    Dataset(Dataset),
    Snapshot(coordination::core::store::Snapshot),
}

impl Input {
    fn open(flags: &Flags) -> Result<Input, String> {
        reject_both_inputs(flags)?;
        if let Some(path) = flags.get("from-snapshot") {
            return open_snapshot(path).map(Input::Snapshot);
        }
        let (reader, path) = open_input(flags)?;
        let ing = ingest::ingest_reader(reader, &ingest_config(flags))
            .map_err(|e| format!("read {path}: {e}"))?;
        report_skipped(&ing.stats);
        let ds = ing.dataset;
        eprintln!(
            "loaded {} comments, {} authors, {} pages",
            ds.len(),
            ds.authors.len(),
            ds.pages.len()
        );
        Ok(Input::Dataset(ds))
    }

    /// The input as a [`Dataset`]; a snapshot materializes its tables.
    fn into_dataset(self) -> Dataset {
        match self {
            Input::Dataset(ds) => ds,
            Input::Snapshot(snap) => coordination::core::snapshot::dataset_from_snapshot(&snap),
        }
    }
}

fn load_dataset(flags: &Flags) -> Result<Dataset, String> {
    Input::open(flags).map(Input::into_dataset)
}

fn window(flags: &Flags) -> Result<Window, String> {
    let d1: i64 = flags.num("d1", 0)?;
    let d2: i64 = flags.num("d2", 60)?;
    if d2 <= d1 || d1 < 0 {
        return Err(format!("bad window ({d1}, {d2}): need 0 <= d1 < d2"));
    }
    Ok(Window::new(d1, d2))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let preset = flags.get("preset").ok_or("--preset is required")?;
    let scale: f64 = flags.num("scale", 0.3)?;
    let out = flags.get("out").ok_or("--out is required")?;
    let cfg = ScenarioConfig::preset(preset, scale).ok_or_else(|| {
        format!(
            "unknown preset {preset:?} (known: {})",
            ScenarioConfig::PRESETS.join("|")
        )
    })?;
    let scenario = cfg.build();
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_ndjson(std::io::BufWriter::new(file), &scenario.records)
        .map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {} comments to {out}", scenario.len());
    // ground truth sidecar so downstream evaluation is possible; alias rows
    // map rotated handles (churn evasion) back to their canonical member
    let truth_path = format!("{out}.truth.tsv");
    let mut truth = String::from("family\tkind\tmember\n");
    for fam in scenario.truth.families() {
        for m in &fam.members {
            truth.push_str(&format!("{}\t{:?}\t{}\n", fam.name, fam.kind, m));
        }
    }
    for (alias, canonical) in scenario.truth.aliases() {
        let fam = scenario
            .truth
            .family_of(canonical)
            .expect("alias resolves to a family");
        truth.push_str(&format!("{}\tAlias\t{alias}={canonical}\n", fam.name));
    }
    std::fs::write(&truth_path, truth).map_err(|e| format!("write {truth_path}: {e}"))?;
    eprintln!("wrote ground truth to {truth_path}");
    Ok(())
}

/// The detector configuration of the commands that run all three steps.
fn pipeline_config(flags: &Flags, default_cutoff: u64) -> Result<PipelineConfig, String> {
    Ok(PipelineConfig {
        window: window(flags)?,
        min_triangle_weight: flags.num("cutoff", default_cutoff)?,
        min_t_score: flags.num("t-score", 0.0)?,
        ..Default::default()
    })
}

/// Run the three steps over `input`. The rank count alone says which engine
/// runs: the rank program at `--ranks N > 1` — or at any count under a
/// `--shuffle-budget`, which only it can honour — and the resident engine
/// otherwise. Both print the same bytes (events reach the BTM in a different
/// order, which it is insensitive to), and a snapshot feeds its mapped rows
/// to either without materializing a [`Dataset`]. `release_events` is
/// [`run_resident`]'s; the rank program reads its events as it runs.
fn run_detector(
    flags: &Flags,
    config: PipelineConfig,
    input: &mut Input,
    release_events: bool,
) -> Result<PipelineOutput, String> {
    // `main` has checked both for a positive count
    let ranks: usize = flags.num("ranks", 1)?;
    let budget: Option<usize> = flags.get("shuffle-budget").and_then(|v| v.parse().ok());
    let out = if ranks > 1 || budget.is_some() {
        let mut ranked = DistPipeline::new(config, ranks);
        if let Some(bytes) = budget {
            ranked = ranked.with_shuffle_budget(bytes);
        }
        match input {
            Input::Dataset(ds) => ranked.run_dataset(ds),
            Input::Snapshot(snap) => ranked.run_snapshot(snap),
        }
    } else {
        run_resident(config, input, release_events).0
    };
    log_timings(&out);
    Ok(out)
}

/// The resident engine over `input`, and the BTM it read, built under the
/// run's own exclusion list. With `release_events` the caller reads nothing
/// but the name tables afterwards, so the dataset's event column is dropped
/// once the BTM's rows are built from it — the two never sit side by side
/// through projection and survey.
fn run_resident(
    config: PipelineConfig,
    input: &mut Input,
    release_events: bool,
) -> (PipelineOutput, Btm) {
    let exclusions = &config.exclusions;
    let btm = match input {
        Input::Dataset(ds) => {
            let btm = ds.btm_without(&exclusions.resolve(ds));
            if release_events {
                ds.events = Vec::new();
            }
            btm
        }
        Input::Snapshot(snap) => {
            btm_from_snapshot(snap, &exclusions.resolve_names(snap.author_names()))
        }
    };
    (Pipeline::new(config).run_btm(&btm), btm)
}

fn log_timings(out: &PipelineOutput) {
    eprintln!(
        "projection: {} edges in {:.2?}; survey: {} triangles in {:.2?}; {} triplets validated in {:.2?}",
        out.stats.ci_edges,
        out.timings.projection,
        out.stats.triangles_examined,
        out.timings.survey,
        out.stats.triplets_validated,
        out.timings.validation,
    );
}

/// The three steps for a command that prints names afterwards, on the
/// resident engine (`--ranks` and `--shuffle-budget` are `pipeline`'s alone):
/// the dataset, the output and the BTM the run read.
fn run_pipeline(
    flags: &Flags,
    default_cutoff: u64,
) -> Result<(Dataset, PipelineOutput, Btm), String> {
    let config = pipeline_config(flags, default_cutoff)?;
    let mut input = Input::open(flags)?;
    let (out, btm) = run_resident(config, &mut input, false);
    log_timings(&out);
    // downstream printing needs the name tables either way
    Ok((input.into_dataset(), out, btm))
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let btm = ds.btm();
    let authors = coordination::core::AuthorPages::all(&btm);
    let per_author: Vec<f64> = (0..btm.n_authors())
        .map(|a| authors.page_count(coordination::core::AuthorId(a)) as f64)
        .collect();
    let active: Vec<f64> = per_author.iter().copied().filter(|&c| c > 0.0).collect();
    println!("comments            {}", btm.n_comments());
    println!(
        "authors (active)    {} ({})",
        btm.n_authors(),
        authors.active_authors()
    );
    println!("pages               {}", btm.n_pages());
    println!("largest page        {} comments", btm.max_page_degree());
    if let Some(s) = coordination::analysis::Summary::of(&active) {
        println!(
            "pages/author        min {} q1 {} median {} q3 {} max {} mean {:.1}",
            s.min, s.q1, s.median, s.q3, s.max, s.mean
        );
    }
    let heavy = coordination::core::filter::high_volume_accounts(&ds, 100);
    if !heavy.is_empty() {
        println!("accounts with ≥100 comments (exclusion-list candidates):");
        for (name, c) in heavy.iter().take(10) {
            println!("  {name}: {c}");
        }
    }
    Ok(())
}

/// Step 1 as `project` and `survey --from-snapshot` run it: `btm` (built
/// under the paper's standard bot exclusions) projected under `w`, with its
/// size and time on stderr.
fn project_logged(btm: &Btm, w: Window) -> CiGraph {
    let t0 = std::time::Instant::now();
    let ci = coordination::core::project::project(btm, w);
    eprintln!(
        "projected window {w}: {} edges, {} active authors in {:.2?}",
        ci.n_edges(),
        ci.active_authors(),
        t0.elapsed()
    );
    ci
}

fn cmd_project(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let out_path = flags.get("out").ok_or("--out is required")?;
    let w = window(flags)?;
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let ci = project_logged(&ds.btm_without(&excl.resolve(&ds)), w);
    let file = std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    ci.write_tsv(std::io::BufWriter::new(file))
        .map_err(|e| format!("write {out_path}: {e}"))?;
    // name sidecar so survey output can be human-readable
    let names_path = format!("{out_path}.names");
    let mut names = String::new();
    for (id, name) in ds.authors.iter() {
        names.push_str(&format!("{id}\t{name}\n"));
    }
    std::fs::write(&names_path, names).map_err(|e| format!("write {names_path}: {e}"))?;
    eprintln!("wrote {out_path} and {names_path}");
    Ok(())
}

/// An author's name in `survey`'s output, by id.
type Label = Box<dyn Fn(u32) -> String>;

/// `survey --from-snapshot`: the mapped rows, after the paper's standard
/// bot exclusions as `project` applies them, projected under the window
/// `snapshot write` recorded, with the author names read off the mapping.
fn project_snapshot(path: &str) -> Result<(CiGraph, Label), String> {
    let snap = open_snapshot(path)?;
    let (d1, d2) = snap.meta().window.ok_or_else(|| {
        format!(
            "{path} records no projection window; re-create it with `coordination snapshot write`"
        )
    })?;
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let btm = btm_from_snapshot(&snap, &excl.resolve_names(snap.author_names()));
    let ci = project_logged(&btm, Window::new(d1, d2));
    let label = move |id: u32| snap.author_names().get(id).to_string();
    Ok((ci, Box::new(label)))
}

/// `survey --graph`: a `project --out` TSV, labelled by its `.names`
/// sidecar if there is one and by author id otherwise.
fn read_graph(graph_path: &str) -> Result<(CiGraph, Label), String> {
    let file = std::fs::File::open(graph_path).map_err(|e| format!("open {graph_path}: {e}"))?;
    let ci = CiGraph::read_tsv(BufReader::new(file))?;
    eprintln!(
        "loaded CI graph: {} authors, {} edges",
        ci.n_authors(),
        ci.n_edges()
    );
    let names: HashMap<u32, String> = std::fs::read_to_string(format!("{graph_path}.names"))
        .ok()
        .map(|text| {
            text.lines()
                .filter_map(|l| {
                    let (id, name) = l.split_once('\t')?;
                    Some((id.parse().ok()?, name.to_string()))
                })
                .collect()
        })
        .unwrap_or_default();
    let label = move |id: u32| names.get(&id).cloned().unwrap_or_else(|| id.to_string());
    Ok((ci, Box::new(label)))
}

fn cmd_survey(flags: &Flags) -> Result<(), String> {
    let (ci, label) = match (flags.get("from-snapshot"), flags.get("graph")) {
        (Some(_), Some(_)) => {
            return Err("use exactly one of --graph and --from-snapshot".to_string())
        }
        (Some(path), None) => project_snapshot(path)?,
        (None, Some(path)) => read_graph(path)?,
        (None, None) => return Err("--graph is required".to_string()),
    };
    let cutoff: u64 = flags.num("cutoff", 10)?;
    let min_t: f64 = flags.num("t-score", 0.0)?;
    let top: Option<usize> = flags
        .get("top")
        .map(|v| v.parse().map_err(|_| "--top: bad value"))
        .transpose()?;
    let oriented = coordination::tripoll::OrientedGraph::from_ref(ci.as_csr());
    let t0 = std::time::Instant::now();
    let report = coordination::tripoll::survey::survey(
        &oriented,
        &coordination::tripoll::SurveyConfig {
            min_edge_weight: cutoff,
            min_t_score: min_t,
            top_k: top,
        },
        Some(ci.page_counts()),
    );
    eprintln!(
        "surveyed {} triangles in {:.2?}; {} pass cutoff {cutoff}",
        report.total_examined,
        t0.elapsed(),
        report.len()
    );
    println!("a\tb\tc\tmin_w\tT");
    for s in &report.triangles {
        let [a, b, c] = s.triangle.vertices();
        println!(
            "{}\t{}\t{}\t{}\t{:.4}",
            label(a),
            label(b),
            label(c),
            s.min_weight,
            s.t_score
        );
    }
    Ok(())
}

fn cmd_hunt(flags: &Flags) -> Result<(), String> {
    let cutoff: u64 = flags.num("cutoff", 25)?;
    let (ds, out, _) = run_pipeline(flags, 25)?;
    let comps = named_components(&ds, &out.ci, cutoff);
    println!("{} connected components at cutoff {cutoff}:", comps.len());
    for (i, c) in comps.iter().enumerate() {
        println!("[{i}] {}", describe(c));
        println!("    {:?}", c.members);
        if let Some(dir) = flags.get("dot-dir") {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir}: {e}"))?;
            let ids: Vec<u32> = c
                .members
                .iter()
                .map(|m| ds.authors.get(m).expect("member interned"))
                .collect();
            let path = format!("{dir}/component_{i}.dot");
            std::fs::write(&path, component_dot(&ds, &out.ci, &ids, cutoff))
                .map_err(|e| format!("write {path}: {e}"))?;
            println!("    wrote {path}");
        }
    }
    Ok(())
}

/// Write a whole report through one locked, buffered stdout handle, flushed
/// before returning: a report of thousands of rows is a handful of
/// `write(2)`s, not one per line, and a closed pipe is an error, not a panic.
fn with_stdout(
    report: impl FnOnce(&mut BufWriter<std::io::StdoutLock<'static>>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut out = BufWriter::new(std::io::stdout().lock());
    report(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("write stdout: {e}"))
}

fn cmd_validate(flags: &Flags) -> Result<(), String> {
    let (ds, out, btm) = run_pipeline(flags, 10)?;
    if flags.has("windowed") {
        // future-work variant: hyperedges bounded by the projection window
        let bound = window(flags)?.d2();
        let triangles: Vec<coordination::tripoll::Triangle> =
            out.survey.triangles.iter().map(|s| s.triangle).collect();
        let rows =
            coordination::core::windowed_hyperedge::validate_windowed(&btm, &triangles, bound);
        with_stdout(|w| {
            writeln!(w, "a\tb\tc\tmin_w\tw_xyz\tw_xyz_windowed\tC_windowed")?;
            for r in rows {
                let [a, b, c] = r.authors.map(|a| ds.authors.name(a.0));
                writeln!(
                    w,
                    "{a}\t{b}\t{c}\t{}\t{}\t{}\t{:.4}",
                    r.min_ci_weight, r.hyper_weight, r.windowed_weight, r.windowed_c
                )?;
            }
            Ok(())
        })
    } else {
        with_stdout(|w| write_triplet_rows(w, &out.triplets, |id| ds.authors.name(id)))
    }
}

/// The validated-triplet TSV — header, then one row per triplet — with
/// author names read in place through `name`.
fn write_triplet_rows<'a>(
    w: &mut impl Write,
    triplets: &[coordination::core::TripletMetrics],
    name: impl Fn(u32) -> &'a str,
) -> std::io::Result<()> {
    writeln!(w, "a\tb\tc\tmin_w\tT\tw_xyz\tC")?;
    for m in triplets {
        let [a, b, c] = m.authors.map(|a| name(a.0));
        writeln!(
            w,
            "{a}\t{b}\t{c}\t{}\t{:.4}\t{}\t{:.4}",
            m.min_ci_weight, m.t, m.hyper_weight, m.c
        )?;
    }
    Ok(())
}

/// `pipeline`: the full ingest → projection → survey → validation run with a
/// deterministic stdout report — the same bytes whichever engine `--ranks`
/// and `--shuffle-budget` select, which is what the CLI equivalence test
/// pins. Timings go to stderr only.
fn cmd_pipeline(flags: &Flags) -> Result<(), String> {
    let config = pipeline_config(flags, 10)?;
    let mut input = Input::open(flags)?;
    let out = run_detector(flags, config, &mut input, true)?;
    // Author names are read in place: off the mapping on the snapshot path
    // (no Dataset is materialized), out of the interner's arena otherwise.
    match &input {
        Input::Dataset(ds) => print_pipeline_report(&out, |id| ds.authors.name(id)),
        Input::Snapshot(snap) => {
            let names = snap.author_names();
            print_pipeline_report(&out, |id| names.get(id))
        }
    }
}

/// `pipeline`'s deterministic report.
fn print_pipeline_report<'a>(
    out: &PipelineOutput,
    name: impl Fn(u32) -> &'a str,
) -> Result<(), String> {
    let s = &out.stats;
    with_stdout(|w| {
        writeln!(w, "comments reviewed      {}", s.comments_reviewed)?;
        writeln!(
            w,
            "authors (projected)    {} ({})",
            s.total_authors, s.projected_authors
        )?;
        writeln!(
            w,
            "ci edges               {} ({} after threshold)",
            s.ci_edges, s.ci_edges_after_threshold
        )?;
        writeln!(
            w,
            "triangles              {} examined, {} kept (max min-weight {})",
            s.triangles_examined, s.triangles_kept, out.survey.max_min_weight
        )?;
        writeln!(
            w,
            "min-weight log2 hist   {:?}",
            out.survey.min_weight_log_hist
        )?;
        write_triplet_rows(w, &out.triplets, name)
    })
}

fn cmd_groups(flags: &Flags) -> Result<(), String> {
    let (ds, out, btm) = run_pipeline(flags, 25)?;
    let groups = coordination::core::groups::merge_triplets(&btm, &out.triplets, 2);
    println!(
        "{} groups from {} triplets:",
        groups.len(),
        out.triplets.len()
    );
    for (i, g) in groups.iter().enumerate() {
        let names: Vec<&str> = g.members.iter().map(|a| ds.authors.name(a.0)).collect();
        println!(
            "[{i}] {} members, w_G = {}, score = {:.3}, {} supporting triplets",
            g.members.len(),
            g.group_weight,
            g.score,
            g.triplet_support
        );
        println!("    {names:?}");
    }
    Ok(())
}

fn cmd_refine(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let rounds: usize = flags.num("rounds", 3)?;
    let pipeline = Pipeline::new(PipelineConfig {
        window: window(flags)?,
        min_triangle_weight: flags.num("cutoff", 25)?,
        ..Default::default()
    });
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let btm = ds.btm_without(&excl.resolve(&ds));
    for (i, round) in pipeline.run_refinement(&btm, rounds).iter().enumerate() {
        let names: Vec<&str> = round.flagged.iter().map(|a| ds.authors.name(a.0)).collect();
        println!(
            "round {i}: {} triplets, {} authors flagged: {names:?}",
            round.output.triplets.len(),
            round.flagged.len()
        );
    }
    Ok(())
}

fn cmd_stream(flags: &Flags) -> Result<(), String> {
    use coordination::stream::{source, StreamConfig, StreamEngine};

    // Source: an NDJSON file / stdin, or a generated preset scenario (which
    // also gives us ground truth to judge the alerts against).
    let (records, truth) = match (flags.get("input"), flags.get("preset")) {
        (Some(_), None) => {
            let (reader, path) = open_input(flags)?;
            let (records, stats) = source::read_ndjson_sorted(reader, flags.has("skip-bad-lines"))
                .map_err(|e| format!("read {path}: {e}"))?;
            report_skipped(&stats);
            (records, None)
        }
        (None, Some(preset)) => {
            let scale: f64 = flags.num("scale", 0.3)?;
            let cfg = ScenarioConfig::preset(preset, scale).ok_or_else(|| {
                format!(
                    "unknown preset {preset:?} (known: {})",
                    ScenarioConfig::PRESETS.join("|")
                )
            })?;
            let scenario = cfg.build();
            let records = source::scenario_records(&scenario);
            (records, Some(scenario.truth))
        }
        _ => return Err("need exactly one of --input or --preset".to_string()),
    };
    let total = records.len();
    eprintln!("streaming {total} events");

    let horizon = flags
        .get("horizon")
        .map(|v| v.parse::<i64>())
        .transpose()
        .map_err(|_| "--horizon: bad value")?;
    let w = window(flags)?;
    if let Some(h) = horizon {
        if h < w.d2() {
            return Err(format!(
                "--horizon {h} must be at least the window's δ2 ({})",
                w.d2()
            ));
        }
    }
    let mut engine = StreamEngine::new(StreamConfig {
        window: w,
        min_triangle_weight: flags.num("cutoff", 25)?,
        min_t_score: flags.num("t-score", 0.0)?,
        horizon,
        checkpoint_every: flags
            .get("checkpoint")
            .map(|v| v.parse::<u64>())
            .transpose()
            .map_err(|_| "--checkpoint: bad value")?,
    });

    let speedup: f64 = flags.num("speedup", 0.0)?; // 0 = unpaced
    let replay = source::Replay::new(records).with_speedup(speedup);
    let stream_span = obs::span("stream");
    engine.run(replay, |eng, alert| {
        let [a, b, c] = eng.author_names(alert.authors);
        let tag = truth
            .as_ref()
            .and_then(|t| [a, b, c].iter().find_map(|n| t.family_of(n)))
            .map(|f| format!(" [{}]", f.name))
            .unwrap_or_default();
        println!(
            "ALERT @{} after {} events: {a} {b} {c} (min_w={}, T={:.3}){tag}",
            alert.ts, alert.events_ingested, alert.min_weight, alert.t_score
        );
    });
    drop(stream_span);
    obs::record_stage_rss("stream");
    for cp in engine.checkpoints() {
        eprintln!(
            "checkpoint @{}: {} events, {} edges, {} live triangles, {} alerts",
            cp.ts, cp.events, cp.n_edges, cp.live_triangles, cp.alerts
        );
    }

    eprintln!(
        "done: {} events, {} alerts, {} live triangles, {} live edges",
        engine.events_ingested(),
        engine.alerts_fired(),
        engine.tracker().len(),
        engine.projector().n_edges()
    );
    if let Some(truth) = &truth {
        let fired = engine.fired_triplets();
        let eval = truth.evaluate(fired.iter().map(|&t| engine.author_names(t)));
        eprintln!(
            "vs ground truth: precision {:.3}, family recall {:.3}, member recall {:.3}",
            eval.precision, eval.family_recall, eval.member_recall
        );
    }
    if let Some(out) = flags.get("snapshot-out") {
        let snap = engine.snapshot();
        let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        snap.write_tsv(std::io::BufWriter::new(file))
            .map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("wrote final CI-graph snapshot to {out}");
    }
    Ok(())
}

/// `snapshot write`: NDJSON ingest straight into the columnar binary
/// snapshot format, recording the `--d1/--d2` window that
/// `survey --from-snapshot` projects the rows under.
fn cmd_snapshot_write(flags: &Flags) -> Result<(), String> {
    let (reader, in_path) = open_input(flags)?;
    let out = flags.get("out").ok_or("--out is required")?;
    let w = window(flags)?;
    let (summary, stats) = coordination::core::snapshot::ingest_to_snapshot(
        reader,
        &ingest_config(flags),
        w,
        std::path::Path::new(out),
    )
    .map_err(|e| format!("snapshot {in_path} -> {out}: {e}"))?;
    report_skipped(&stats);
    eprintln!(
        "wrote {out}: {} events, {} bytes, window {w}",
        summary.n_events, summary.bytes
    );
    Ok(())
}

/// `snapshot inspect`: validate and describe a snapshot file. A corrupt,
/// truncated, or future-versioned file fails [`open_snapshot`] with a typed
/// error message and exit code 2.
fn cmd_snapshot_inspect(flags: &Flags) -> Result<(), String> {
    let path = flags.get("snapshot").ok_or("--snapshot is required")?;
    let snap = open_snapshot(path)?;
    print!("{}", snap.describe());
    Ok(())
}

fn cmd_report_validate(flags: &Flags) -> Result<(), String> {
    let path = flags.get("report").ok_or("--report is required")?;
    let kind = flags.get("kind").unwrap_or("batch");
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // quality reports have their own schema and validator (the detection-
    // quality bench's BENCH_quality.json), separate from the obs run reports
    if kind == "quality" {
        analysis::evalmetrics::validate_quality(&json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: ok (quality report, schema validated)");
        return Ok(());
    }
    let (spans, counters) = match kind {
        "batch" => (BATCH_SPANS, BATCH_COUNTERS),
        "stream" => (STREAM_SPANS, STREAM_COUNTERS),
        other => {
            return Err(format!(
                "unknown --kind {other:?} (want batch|stream|quality)"
            ))
        }
    };
    obs::report::validate(&json, spans, counters).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "{path}: ok ({kind}: {} stage spans, {} counters present)",
        spans.len(),
        counters.len()
    );
    Ok(())
}

fn dispatch(cmd: &str, flags: &Flags) -> Option<Result<(), String>> {
    Some(match cmd {
        "generate" => cmd_generate(flags),
        "stats" => cmd_stats(flags),
        "project" => cmd_project(flags),
        "survey" => cmd_survey(flags),
        "hunt" => cmd_hunt(flags),
        "validate" => cmd_validate(flags),
        "groups" => cmd_groups(flags),
        "pipeline" => cmd_pipeline(flags),
        "refine" => cmd_refine(flags),
        "stream" => cmd_stream(flags),
        "snapshot write" => cmd_snapshot_write(flags),
        "snapshot inspect" => cmd_snapshot_inspect(flags),
        "report-validate" => cmd_report_validate(flags),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        return usage();
    }
    // `snapshot` takes a subcommand before its flags; fold it into the
    // dispatch key so everything downstream stays a flat match.
    let (cmd, rest): (String, &[String]) = if cmd == "snapshot" {
        match rest.split_first() {
            Some((sub, more)) if !sub.starts_with("--") => (format!("snapshot {sub}"), more),
            _ => {
                eprintln!("snapshot needs a subcommand: write|inspect");
                return usage();
            }
        }
    } else {
        (cmd.clone(), rest)
    };
    let cmd = cmd.as_str();
    let Some(flags) = Flags::parse(rest) else {
        return usage();
    };
    // `--ranks` and `--shuffle-budget` choose and bound `pipeline`'s engine.
    // Catching them here gives every other subcommand the same clear error
    // instead of a silently ignored flag.
    for (flag, what) in [("ranks", "rank count"), ("shuffle-budget", "byte count")] {
        let Some(v) = flags.get(flag) else { continue };
        if cmd != "pipeline" {
            eprintln!(
                "error: --{flag} only applies to `pipeline`; use `pipeline [--ranks N] [--shuffle-budget BYTES]`"
            );
            return ExitCode::from(2);
        }
        if !matches!(v.parse::<usize>(), Ok(n) if n > 0) {
            eprintln!("error: --{flag}: need a positive {what}, got {v:?}");
            return ExitCode::from(2);
        }
    }
    // `--report` / `--progress` turn instrumentation on for the whole run;
    // otherwise every obs call site stays on its disabled fast path.
    let report_path = flags.get("report").filter(|_| cmd != "report-validate");
    if report_path.is_some() || flags.has("progress") {
        obs::Obs::enable();
        obs::Obs::set_progress(flags.has("progress"));
    }
    let Some(result) = dispatch(cmd, &flags) else {
        eprintln!("unknown command: {cmd}");
        return usage();
    };
    match result {
        Ok(()) => {
            if let Some(path) = report_path {
                let json = obs::report::render_current(cmd);
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error: write report {path}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("wrote run report to {path}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
