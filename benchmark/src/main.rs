//! The repo's benchmark: four seeded workloads, a correctness gate, ten
//! end-to-end metrics measured with tracing off, and a separate traced pass
//! that times calls into each crate's public functions from outside to fill
//! a per-layer ledger. See README.md beside this crate and BENCHMARK.json
//! at the root of the repo.
//!
//! Load shape: one process, closed loop, one operation in flight at a time,
//! never more than 2 rank threads, CLI children one at a time.

mod adapter;
mod calib;
mod child;
mod layers;
mod ops;
mod report;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ops::{Bench, Tally};
use report::{Machine, Metrics, TimedSamples, END_TO_END, PER_LAYER};
use stats::summarize;
use workload::{Spec, DEFAULT_SEED};

const USAGE: &str =
    "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|both]
                 [--reps N] [--smoke] [--selfcheck] [--trace-out FILE] [--out FILE]

  --workload   month_sparse | dense_ci | triplet_flood | stream_replay | all (default all)
  --seed       generator seed (default 0x01202001, the seed the frozen counts hold at)
  --seconds    how long each pass of each workload measures (default 20)
  --trace      0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced pass;
               both (default) = one after the other, never mixed
  --reps       measure exactly N repetitions instead of for --seconds
  --smoke      n_blocks / 16, one repetition, gate + traced pass only
  --selfcheck  run the timed pass twice and compare the medians against the bounds
  --trace-out  Chrome trace-event JSON of the traced pass (default <target>/benchmark/trace.json)
  --out        also write every result as one JSON document";

/// How often set-up is timed for its own median, after one discarded
/// set-up (the first in a process runs up to 40 % slower than the rest).
const SETUP_REPS: usize = 3;

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// Run the timed pass (`--trace 0` or `both`).
    timed: bool,
    /// Run the traced pass (`--trace 1` or `both`).
    traced: bool,
    reps: Option<usize>,
    smoke: bool,
    selfcheck: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        timed: true,
        traced: true,
        reps: None,
        smoke: false,
        selfcheck: false,
        trace_out: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                let parsed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16));
                args.seed = parsed.map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                (args.timed, args.traced) = match value()?.as_str() {
                    "0" => (true, false),
                    "1" => (false, true),
                    "both" => (true, true),
                    other => return Err(format!("--trace {other}: want 0, 1 or both")),
                }
            }
            "--reps" => args.reps = Some(value()?.parse().map_err(|e| format!("--reps: {e}"))?),
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        (args.timed, args.traced) = (false, true);
        args.reps = Some(1);
    }
    Ok(args)
}

/// Removes the scratch directory (NDJSON, snapshot, spill segments, child
/// stdout) when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result of one pass over one workload.
struct PassResult {
    workload: &'static str,
    traced: bool,
    /// The figures the result line carries: at reference machine speed for
    /// the timed pass, as measured for the traced pass.
    metrics: Metrics,
    /// The timed pass's figures as measured (empty for the traced pass).
    raw: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Repeat `cycle` for `seconds` (at least twice), or exactly `reps` times.
fn measure(seconds: f64, reps: Option<usize>, mut cycle: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        cycle();
        done += 1;
        let enough = match reps {
            Some(n) => done >= n,
            None => done >= 2 && start.elapsed().as_secs_f64() >= seconds,
        };
        if enough {
            return;
        }
    }
}

fn summaries(samples: &BTreeMap<&'static str, Vec<f64>>) -> Metrics {
    samples
        .iter()
        .map(|(name, values)| (*name, Some(summarize(values))))
        .collect()
}

fn run_workload(
    spec: &Spec,
    args: &Args,
    cli: &Path,
    scratch: &Path,
    spans: &mut Vec<trace::Span>,
) -> Vec<PassResult> {
    let scale_div = if args.smoke { 16 } else { 1 };
    println!("workload {}: {}", spec.name, spec.why);
    let mut tally = Tally::default();
    let mut setup = TimedSamples::default();
    let mut inputs = None;
    let mut before = calib::read();
    for rep in 0..=SETUP_REPS {
        drop(inputs.take()); // free the previous copy before generating the next
        let start = Instant::now();
        inputs = tally.op("set-up", || {
            workload::set_up(spec, args.seed, scale_div, scratch).map_err(|e| e.to_string())
        });
        let raw = start.elapsed().as_secs_f64();
        let after = calib::read();
        if rep > 0 {
            setup.record(
                "setup_s",
                raw,
                calib::slowdown(calib::Class::Mixed, before, after),
            );
        }
        before = after;
    }
    let failed_early = |tally: Tally| PassResult {
        workload: spec.name,
        traced: !args.timed,
        metrics: Metrics::new(),
        raw: Metrics::new(),
        attempted: tally.attempted,
        failed: tally.failed,
        correct: false,
    };
    let Some(inputs) = inputs else {
        eprintln!("{}: {:?}", spec.name, tally.failures);
        return vec![failed_early(tally)];
    };
    let bench = Bench {
        spec,
        inputs: &inputs,
        cfg: adapter::pipeline_config(spec.window_s, spec.edge_threshold, spec.cutoff),
        cli,
        scratch,
        seed: args.seed,
        scale_div,
    };
    let Some(reference) = bench.gate(&mut tally) else {
        eprintln!("{}: {:?}", spec.name, tally.failures);
        return vec![failed_early(tally)];
    };
    // Each pass's result counts the set-up and gate operations and its own.
    let gate = tally;
    let mut results = Vec::new();

    if args.timed {
        let mut tally = gate.clone();
        let mut samples = setup;
        measure(args.seconds, args.reps, || {
            bench.timed_cycle(&reference, &mut tally, &mut samples)
        });
        let metrics = summaries(&samples.calibrated);
        let raw = summaries(&samples.raw);
        let complete = END_TO_END
            .iter()
            .all(|(name, ..)| metrics.contains_key(name));
        for f in &tally.failures {
            eprintln!("{}: FAILED {f}", spec.name);
        }
        results.push(PassResult {
            workload: spec.name,
            traced: false,
            metrics,
            raw,
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.failed == 0 && complete,
        });
    }
    if args.traced {
        let mut tally = gate.clone();
        let mut samples = layers::Samples::new();
        let mut tracer = trace::Tracer::new(spec.name);
        measure(args.seconds, args.reps, || {
            layers::traced_cycle(&mut layers::Pass {
                bench: &bench,
                reference: &reference,
                tracer: &mut tracer,
                tally: &mut tally,
                samples: &mut samples,
            })
        });
        let mut metrics: Metrics = PER_LAYER.iter().map(|(name, ..)| (*name, None)).collect();
        metrics.extend(summaries(&samples));
        for f in &tally.failures {
            eprintln!("{}: FAILED {f}", spec.name);
        }
        spans.append(&mut tracer.spans);
        results.push(PassResult {
            workload: spec.name,
            traced: true,
            metrics,
            raw: Metrics::new(),
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.failed == 0,
        });
    }
    results
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = workload::specs();
    let selected: Vec<&Spec> = all
        .iter()
        .filter(|s| args.workload == "all" || args.workload == s.name)
        .collect();
    if selected.is_empty() {
        eprintln!("error: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    let bench_dir = child::target_dir().join("benchmark");
    let scratch = Scratch(bench_dir.join(format!("scratch-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    // Spill segments go to std::env::temp_dir(): keep them inside the checkout.
    let scratch_abs = std::fs::canonicalize(&scratch.0).unwrap_or_else(|_| scratch.0.clone());
    std::env::set_var("TMPDIR", &scratch_abs);
    let cli = match child::build_cli() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::probe();
    println!(
        "machine: nproc {} (rank threads used: 1 and 2; the vendored rayon stand-in runs sequentially), {}, commit {}, seed {:#x}",
        machine.nproc, machine.rustc, machine.commit, args.seed
    );

    let mut spans = Vec::new();
    let mut results = Vec::new();
    for spec in &selected {
        results.extend(run_workload(spec, &args, &cli, &scratch_abs, &mut spans));
    }
    let mut ok = results.iter().all(|r| r.correct);
    if args.selfcheck {
        ok &= selfcheck(&selected, &args, &cli, &scratch_abs, &results);
    }
    if !spans.is_empty() {
        let mut stdout = std::io::stdout().lock();
        let _ = trace::print_ledger(&spans, &mut stdout);
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| bench_dir.join("trace.json"));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            trace::write_chrome_trace(&spans, &mut w)?;
            std::io::Write::flush(&mut w)
        });
        match written {
            Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("error: write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    for r in &results {
        let table: &[_] = if r.traced { &PER_LAYER } else { &END_TO_END };
        report::print_metrics(r.workload, table, &r.metrics, &r.raw);
        println!(
            "{:<14} ops_attempted {} ops_failed {}",
            r.workload, r.attempted, r.failed
        );
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, document(&machine, &args, &results)) {
            eprintln!("error: write {}: {e}", path.display());
            ok = false;
        }
    }
    // One result line per pass; the driver asks for one workload and one
    // pass, so its line is the last line of stdout.
    for r in &results {
        let table: &[_] = if r.traced { &PER_LAYER } else { &END_TO_END };
        println!(
            "{}",
            report::result_line(table, &r.metrics, r.attempted, r.failed, r.correct)
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the timed pass a second time and compare both sets of medians with
/// the bounds of `BENCHMARK.json`; prints the table, false if any cell
/// differs by more than its bound.
fn selfcheck(
    selected: &[&Spec],
    args: &Args,
    cli: &Path,
    scratch: &Path,
    first: &[PassResult],
) -> bool {
    let bounds = match read_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: selfcheck needs BENCHMARK.json in the current directory: {e}");
            return false;
        }
    };
    let again = Args {
        timed: true,
        traced: false,
        selfcheck: false,
        trace_out: None,
        out: None,
        ..args.clone()
    };
    let mut ok = true;
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel_diff", "bound"
    );
    for spec in selected {
        let second = run_workload(spec, &again, cli, scratch, &mut Vec::new());
        let (Some(a), Some(b)) = (
            first.iter().find(|r| r.workload == spec.name && !r.traced),
            second.first(),
        ) else {
            eprintln!("error: selfcheck needs the timed pass (--trace 0 or both)");
            return false;
        };
        ok &= b.correct;
        for (name, ..) in END_TO_END {
            let (Some(Some(x)), Some(Some(y))) = (a.metrics.get(name), b.metrics.get(name)) else {
                continue;
            };
            let Some(&bound) = bounds.get(name) else {
                eprintln!("error: BENCHMARK.json has no bound for {name}");
                return false;
            };
            let rel_diff = stats::rel_diff(x.median, y.median);
            println!(
                "{:<14} {:<24} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}% {}",
                spec.name,
                name,
                x.median,
                y.median,
                rel_diff * 100.0,
                bound * 100.0,
                if rel_diff <= bound { "" } else { "EXCEEDS" }
            );
            ok &= rel_diff <= bound;
        }
    }
    ok
}

fn read_bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let list = doc
        .get("end_to_end")
        .and_then(|l| l.as_array())
        .ok_or("no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(|b| b.as_f64())
            .ok_or("metric without a bound")?;
        bounds.insert(name.to_string(), bound);
    }
    Ok(bounds)
}

/// Every result as one JSON document, with the machine record.
fn document(machine: &Machine, args: &Args, results: &[PassResult]) -> String {
    let mut doc = format!(
        "{{\n  \"nproc\": {},\n  \"rank_counts_used\": [1, 2],\n  \"rustc\": \"{}\",\n  \"commit\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {:?},\n  \"reps\": {},\n  \"results\": [",
        machine.nproc,
        machine.rustc,
        machine.commit,
        args.seed,
        args.seconds,
        args.reps.map_or("null".to_string(), |n| n.to_string()),
    );
    for (i, r) in results.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        doc.push_str(&format!(
            "{sep}\n    {{\"workload\": \"{}\", \"traced\": {}, \"metrics\": {{",
            r.workload, r.traced
        ));
        let mut first = true;
        for (name, summary) in &r.metrics {
            let sep = if first { "" } else { ", " };
            first = false;
            match summary {
                Some(s) => doc.push_str(&format!(
                    "{sep}\"{name}\": {{\"median\": {:?}, \"q1\": {:?}, \"q3\": {:?}, \"n\": {}}}",
                    s.median, s.q1, s.q3, s.n
                )),
                None => doc.push_str(&format!("{sep}\"{name}\": null")),
            }
        }
        doc.push_str(&format!(
            "}}, \"ops_attempted\": {}, \"ops_failed\": {}, \"correct\": {}}}",
            r.attempted, r.failed, r.correct
        ));
    }
    doc.push_str("\n  ]\n}\n");
    doc
}
