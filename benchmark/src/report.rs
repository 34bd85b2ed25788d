//! Metric names and units (the same list as `BENCHMARK.json`; a unit test
//! holds the two together), the machine record, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::calib;
use crate::stats::Summary;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// End-to-end metrics: what a user of the detector sees. Bounds live in
/// `BENCHMARK.json` only.
pub const END_TO_END: [(&str, &str, Better); 8] = [
    ("setup_s", "s", Better::Lower),
    ("resident_events_per_s", "events/s", Better::Higher),
    ("ranks1_events_per_s", "events/s", Better::Higher),
    ("spill_events_per_s", "events/s", Better::Higher),
    ("cli_ndjson_wall_s", "s", Better::Lower),
    ("cli_snapshot_wall_s", "s", Better::Lower),
    ("cli_peak_rss_mb", "MB", Better::Lower),
    ("stream_events_per_s", "events/s", Better::Higher),
];

/// Per-layer metrics, named after this repo's crates and modules.
pub const PER_LAYER: [(&str, &str, Better); 59] = [
    ("core.ingest.scan_ns_per_event", "ns", Better::Lower),
    ("core.ingest.total_ns_per_event", "ns", Better::Lower),
    ("core.ingest.input_bytes_per_event", "B", Better::Lower),
    ("store.snapshot.write_s", "s", Better::Lower),
    ("store.snapshot.bytes_per_event", "B", Better::Lower),
    ("store.snapshot.open_ms", "ms", Better::Lower),
    ("store.snapshot.decode_ns_per_event", "ns", Better::Lower),
    ("core.btm.build_ns_per_event", "ns", Better::Lower),
    ("core.project.ns_per_event", "ns", Better::Lower),
    ("core.project.pair_kernel_ns_per_pair", "ns", Better::Lower),
    ("core.project.pair_occurrences", "count", Better::Lower),
    ("core.project.ci_edges", "count", Better::Lower),
    ("graph.csr.build_ns_per_edge", "ns", Better::Lower),
    ("tripoll.orient.ns_per_edge", "ns", Better::Lower),
    ("tripoll.survey.ns_per_triangle", "ns", Better::Lower),
    ("tripoll.survey.triangles_examined", "count", Better::Lower),
    ("tripoll.survey.triangles_kept", "count", Better::Higher),
    (
        "tripoll.dist_survey.ns_per_triangle_r1",
        "ns",
        Better::Lower,
    ),
    (
        "tripoll.dist_survey.ns_per_triangle_r2",
        "ns",
        Better::Lower,
    ),
    (
        "core.hypergraph.validate_ns_per_triplet",
        "ns",
        Better::Lower,
    ),
    ("core.hypergraph.triplets", "count", Better::Higher),
    ("core.resident.btm_share", "%", Better::Lower),
    ("core.resident.project_share", "%", Better::Lower),
    ("core.resident.survey_share", "%", Better::Lower),
    ("core.resident.validate_share", "%", Better::Lower),
    ("ygm.exchange.ship_ns_per_event_r1", "ns", Better::Lower),
    ("ygm.exchange.ship_ns_per_event_r2", "ns", Better::Lower),
    ("ygm.exchange.wire_bytes_per_event", "B", Better::Lower),
    ("ygm.exchange.batches", "count", Better::Lower),
    ("ygm.runs.absorb_ns_per_event_r1", "ns", Better::Lower),
    ("ygm.runs.absorb_ns_per_event_r2", "ns", Better::Lower),
    ("ygm.runs.drain_ns_per_event", "ns", Better::Lower),
    ("ygm.runs.sort_ns_per_key", "ns", Better::Lower),
    ("ygm.comm.barrier_ns_r2", "ns", Better::Lower),
    ("ygm.partition.page_skew_r2", "ratio", Better::Lower),
    ("core.dist.ingest_s_r1", "s", Better::Lower),
    ("core.dist.exchange_s_r1", "s", Better::Lower),
    ("core.dist.project_s_r1", "s", Better::Lower),
    ("core.dist.survey_s_r1", "s", Better::Lower),
    ("core.dist.validate_s_r1", "s", Better::Lower),
    ("core.dist.ranks2_events_per_s", "events/s", Better::Higher),
    ("core.dist.scaling_r2_over_r1", "ratio", Better::Higher),
    ("store.segment.spilled_bytes_per_event", "B", Better::Lower),
    ("store.segment.spill_wall_ratio", "ratio", Better::Higher),
    ("stream.projector.ns_per_event", "ns", Better::Lower),
    ("stream.projector.deltas_per_event", "ratio", Better::Lower),
    ("stream.tracker.ns_per_delta", "ns", Better::Lower),
    (
        "stream.engine.cumulative_events_per_s",
        "events/s",
        Better::Higher,
    ),
    ("stream.engine.event_p50_us", "us", Better::Lower),
    ("stream.engine.event_p99_us", "us", Better::Lower),
    ("stream.engine.event_p999_us", "us", Better::Lower),
    ("stream.engine.live_edges_end", "count", Better::Lower),
    ("obs.enabled_overhead_ratio", "ratio", Better::Lower),
    ("bench.trace_overhead_ratio", "ratio", Better::Lower),
    ("bench.ledger_coverage_resident", "ratio", Better::Higher),
    ("bench.ledger_coverage_ranks1", "ratio", Better::Higher),
    ("proc.first_run_over_warm", "ratio", Better::Lower),
    ("calib.sort_1m_u64_ms", "ms", Better::Lower),
    ("proc.peak_rss_mb", "MB", Better::Lower),
];

/// Where and with what the numbers were measured.
pub struct Machine {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Machine {
    pub fn probe() -> Self {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: first_line("rustc", &["-V"]),
            // A driver checkout is not a git repository: "unknown" there.
            commit: first_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// The samples of the timed pass: every measurement as taken (`raw`) and at
/// reference machine speed (`calibrated`, the figure the bounds apply to).
#[derive(Default)]
pub struct TimedSamples {
    pub raw: BTreeMap<&'static str, Vec<f64>>,
    pub calibrated: BTreeMap<&'static str, Vec<f64>>,
}

impl TimedSamples {
    pub fn record(&mut self, name: &'static str, raw: f64, slowdown: f64) {
        let unit = END_TO_END.iter().find(|m| m.0 == name).map_or("", |m| m.1);
        self.raw.entry(name).or_default().push(raw);
        self.calibrated
            .entry(name)
            .or_default()
            .push(calib::at_reference_speed(unit, raw, slowdown));
    }
}

/// The measured value of every metric of one pass of one workload. `None`
/// marks a layer figure whose source disappeared (an obs span renamed by a
/// later PR): it prints as `null` in the ledger and as 0 in the result line.
pub type Metrics = BTreeMap<&'static str, Option<Summary>>;

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn result_line(
    table: &[(&'static str, &'static str, Better)],
    metrics: &Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
) -> String {
    let mut line = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, _)) in table.iter().enumerate() {
        let value = metrics
            .get(name)
            .copied()
            .flatten()
            .map_or(0.0, |s| s.median);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    line.push_str("}}");
    line
}

/// The human table: median, quartiles and sample count of every metric;
/// for the timed pass also the median as measured, before calibration.
pub fn print_metrics(
    workload: &str,
    table: &[(&'static str, &'static str, Better)],
    metrics: &Metrics,
    raw: &Metrics,
) {
    if metrics.is_empty() {
        return; // the gate failed before anything was measured
    }
    println!(
        "{:<14} {:<42} {:>16} {:>16} {:>16} {:>4} {:>16}  unit",
        "workload", "metric", "median", "q1", "q3", "n", "median as measured"
    );
    for (name, unit, _) in table {
        let as_measured = raw
            .get(name)
            .copied()
            .flatten()
            .map_or(String::new(), |s| format!("{:.4}", s.median));
        match metrics.get(name).copied().flatten() {
            Some(s) => println!("{workload:<14} {name:<42} {:>16.4} {:>16.4} {:>16.4} {:>4} {as_measured:>16}  {unit}", s.median, s.q1, s.q3, s.n),
            None => println!("{workload:<14} {name:<42} {:>16} {:>16} {:>16} {:>4} {as_measured:>16}  {unit}", "null", "-", "-", 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn contract() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(contract: &Value, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        let list = contract.get(key).and_then(Value::as_array).unwrap();
        list.iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn coded(table: &[(&'static str, &'static str, Better)]) -> Vec<(String, String, String)> {
        let better = |b: &Better| {
            if *b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), better(b).to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
        let contract = contract();
        assert_eq!(listed(&contract, "end_to_end"), coded(&END_TO_END));
        assert_eq!(listed(&contract, "per_layer"), coded(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        let contract = contract();
        let field = |w: &Value, k: &str| w.get(k).and_then(Value::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = contract
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = crate::workload::specs()
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(listed, specs);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        let s = Summary {
            median: 1.25,
            q1: 1.0,
            q3: 1.5,
            n: 3,
        };
        metrics.insert("setup_s", Some(s));
        let line = result_line(&END_TO_END, &metrics, 7, 0, true);
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        let Value::Object(all) = v.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(all.len(), END_TO_END.len());
    }
}
