//! Smoke tests of the `coordination` CLI binary: every subcommand runs on a
//! generated month and produces the expected artifacts.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coordination"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coordination-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn generate_month(dir: &std::path::Path) -> PathBuf {
    let out = dir.join("month.ndjson");
    let status = bin()
        .args(["generate", "--preset", "jan2020", "--scale", "0.1", "--out"])
        .arg(&out)
        .status()
        .expect("run generate");
    assert!(status.success());
    assert!(out.exists());
    out
}

#[test]
fn generate_writes_ndjson_and_truth_sidecar() {
    let dir = tmpdir("generate");
    let out = generate_month(&dir);
    let text = std::fs::read_to_string(&out).expect("read output");
    assert!(text.lines().count() > 1_000);
    let first: serde_json::Value =
        serde_json::from_str(text.lines().next().expect("nonempty")).expect("valid json");
    assert!(first.get("author").is_some());
    assert!(first.get("link_id").is_some());
    assert!(first.get("created_utc").is_some());
    let truth = std::fs::read_to_string(format!("{}.truth.tsv", out.display())).expect("sidecar");
    assert!(truth.contains("gpt2"));
    assert!(truth.contains("mlb_restream"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn hunt_finds_components_and_writes_dot_files() {
    let dir = tmpdir("hunt");
    let input = generate_month(&dir);
    let dot_dir = dir.join("dots");
    let output = bin()
        .args(["hunt", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--cutoff", "25", "--dot-dir"])
        .arg(&dot_dir)
        .output()
        .expect("run hunt");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("connected components at cutoff 25"),
        "{stdout}"
    );
    assert!(stdout.contains("stream_bot_"), "{stdout}");
    let dots: Vec<_> = std::fs::read_dir(&dot_dir).expect("dot dir").collect();
    assert!(!dots.is_empty(), "no dot files written");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn validate_emits_triplet_tsv() {
    let dir = tmpdir("validate");
    let input = generate_month(&dir);
    let output = bin()
        .args(["validate", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--cutoff", "25"])
        .output()
        .expect("run validate");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines();
    assert_eq!(lines.next().expect("header"), "a\tb\tc\tmin_w\tT\tw_xyz\tC");
    let data: Vec<&str> = lines.collect();
    assert!(!data.is_empty(), "no triplets reported");
    for line in &data {
        assert_eq!(line.split('\t').count(), 7, "bad row {line:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn validate_windowed_respects_the_bound() {
    let dir = tmpdir("windowed");
    let input = generate_month(&dir);
    let output = bin()
        .args(["validate", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--cutoff", "25", "--windowed"])
        .output()
        .expect("run validate --windowed");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().skip(1) {
        let cells: Vec<&str> = line.split('\t').collect();
        let min_w: u64 = cells[3].parse().expect("min_w");
        let windowed: u64 = cells[5].parse().expect("windowed");
        assert!(windowed <= min_w, "bound violated on {line:?}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn groups_reassemble_the_restream_ring() {
    let dir = tmpdir("groups");
    let input = generate_month(&dir);
    let output = bin()
        .args(["groups", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--cutoff", "25"])
        .output()
        .expect("run groups");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("8 members"), "{stdout}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn refine_reports_rounds() {
    let dir = tmpdir("refine");
    let input = generate_month(&dir);
    let output = bin()
        .args(["refine", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--cutoff", "25", "--rounds", "2"])
        .output()
        .expect("run refine");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("round 0:"), "{stdout}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn stats_surfaces_exclusion_candidates() {
    let dir = tmpdir("stats");
    let input = generate_month(&dir);
    let output = bin()
        .args(["stats", "--input"])
        .arg(&input)
        .output()
        .expect("run stats");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("comments"), "{stdout}");
    assert!(
        stdout.contains("AutoModerator"),
        "the platform bot should top the volume list"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn project_then_survey_matches_direct_pipeline() {
    let dir = tmpdir("projsurvey");
    let input = generate_month(&dir);
    let graph = dir.join("graph.tsv");
    let status = bin()
        .args(["project", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--out"])
        .arg(&graph)
        .status()
        .expect("run project");
    assert!(status.success());
    assert!(graph.exists());
    assert!(dir.join("graph.tsv.names").exists());

    let surveyed = bin()
        .args(["survey", "--graph"])
        .arg(&graph)
        .args(["--cutoff", "25"])
        .output()
        .expect("run survey");
    assert!(surveyed.status.success());
    let survey_rows: Vec<String> = String::from_utf8_lossy(&surveyed.stdout)
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect();
    assert!(!survey_rows.is_empty());
    assert!(survey_rows.iter().all(|r| r.split('\t').count() == 5));

    // the persisted-graph path and the end-to-end path agree on triplet count
    let direct = bin()
        .args(["validate", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--cutoff", "25"])
        .output()
        .expect("run validate");
    let direct_rows = String::from_utf8_lossy(&direct.stdout).lines().count() - 1;
    assert_eq!(survey_rows.len(), direct_rows);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn snapshot_write_inspect_and_from_snapshot_paths() {
    let dir = tmpdir("snapshot");
    let input = generate_month(&dir);
    let snap = dir.join("month.snap");
    let status = bin()
        .args(["snapshot", "write", "--input"])
        .arg(&input)
        .args(["--out"])
        .arg(&snap)
        .args(["--d2", "60"])
        .status()
        .expect("run snapshot write");
    assert!(status.success());
    assert!(snap.exists());

    let inspect = bin()
        .args(["snapshot", "inspect", "--snapshot"])
        .arg(&snap)
        .output()
        .expect("run snapshot inspect");
    assert!(inspect.status.success());
    let described = String::from_utf8_lossy(&inspect.stdout);
    assert!(described.contains("snapshot v6"), "{described}");
    assert!(
        described.contains("rows:    narrow, 8 B per comment"),
        "{described}"
    );
    assert!(described.contains("window:  (0s, 60s)"), "{described}");
    // META, both name tables and ROWS; nothing else
    assert_eq!(described.matches("  section ").count(), 4, "{described}");

    // the acceptance bar: --from-snapshot output is byte-identical to the
    // resident --input path
    let resident = bin()
        .args(["validate", "--input"])
        .arg(&input)
        .args(["--d2", "60", "--cutoff", "25"])
        .output()
        .expect("run validate --input");
    let mapped = bin()
        .args(["validate", "--from-snapshot"])
        .arg(&snap)
        .args(["--d2", "60", "--cutoff", "25"])
        .output()
        .expect("run validate --from-snapshot");
    assert!(resident.status.success() && mapped.status.success());
    assert!(!resident.stdout.is_empty());
    assert_eq!(resident.stdout, mapped.stdout, "paths diverged");

    // a rank-sharded run off the mapping reads each rank's pages in place:
    // its report validates as a batch report of the snapshot door, and no
    // comment went through the event exchange
    let report = dir.join("snapshot_ranks2.json");
    let run = bin()
        .args(["pipeline", "--from-snapshot"])
        .arg(&snap)
        .args(["--d2", "60", "--cutoff", "25", "--ranks", "2", "--report"])
        .arg(&report)
        .output()
        .expect("run pipeline --from-snapshot --ranks 2");
    assert!(run.status.success());
    let check = bin()
        .args(["report-validate", "--kind", "batch", "--report"])
        .arg(&report)
        .output()
        .expect("run report-validate");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(check.status.success(), "{stderr}");
    let text = std::fs::read_to_string(&report).expect("read report");
    assert!(!text.contains("events_to_pages"), "events shuffled: {text}");

    // survey re-projects the mapped rows under the window the file records:
    // the same bytes as `project` then `survey --graph`, at either window
    let snap_600 = dir.join("month600.snap");
    let status = bin()
        .args(["snapshot", "write", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&snap_600)
        .args(["--d1", "0", "--d2", "600"])
        .status()
        .expect("run snapshot write");
    assert!(status.success());
    let graph = dir.join("graph.tsv");
    for (d2, snap) in [("60", &snap), ("600", &snap_600)] {
        let status = bin()
            .args(["project", "--input"])
            .arg(&input)
            .args(["--d2", d2, "--out"])
            .arg(&graph)
            .status()
            .expect("run project");
        assert!(status.success());
        let survey = |door: &str, path: &PathBuf| {
            let run = bin()
                .args(["survey", door])
                .arg(path)
                .args(["--cutoff", "5"])
                .output()
                .expect("run survey");
            assert!(run.status.success(), "survey {door} at d2 {d2}");
            run.stdout
        };
        let want = survey("--graph", &graph);
        assert!(String::from_utf8_lossy(&want).lines().count() > 10);
        let got = survey("--from-snapshot", snap);
        assert!(got == want, "survey --from-snapshot at d2 {d2} diverged");
    }

    // the same month plus one comment 10^13 s later, by its own author on
    // its own page: stored wide, and still the same pipeline stdout
    let far = dir.join("far.ndjson");
    let mut text = std::fs::read_to_string(&input).expect("read month");
    text.push_str("{\"author\":\"far\",\"created_utc\":10000000000000,\"link_id\":\"t3_far\"}\n");
    std::fs::write(&far, text).expect("write far month");
    let far_snap = dir.join("far.snap");
    let status = bin()
        .args(["snapshot", "write", "--input"])
        .arg(&far)
        .arg("--out")
        .arg(&far_snap)
        .status()
        .expect("run snapshot write");
    assert!(status.success());
    let inspect = bin()
        .args(["snapshot", "inspect", "--snapshot"])
        .arg(&far_snap)
        .output()
        .expect("run snapshot inspect");
    let described = String::from_utf8_lossy(&inspect.stdout);
    assert!(
        described.contains("rows:    wide, 16 B per comment"),
        "{described}"
    );
    let pipeline = |door: &str, path: &PathBuf, ranks: &str| {
        let run = bin()
            .args(["pipeline", door])
            .arg(path)
            .args(["--d2", "60", "--cutoff", "25", "--ranks", ranks])
            .output()
            .expect("run pipeline");
        assert!(run.status.success(), "pipeline {door} --ranks {ranks}");
        run.stdout
    };
    let want = pipeline("--input", &far, "1");
    for ranks in ["1", "2"] {
        let got = pipeline("--from-snapshot", &far_snap, ranks);
        assert!(got == want, "wide --from-snapshot --ranks {ranks} diverged");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// The snapshot door maps rows the `--input` door has to parse and build, so
/// its process high-water mark — the `validate.peak_rss_kb` gauge of the run
/// report — must come in strictly below. The month is a full-scale one (75 K
/// comments), not `generate_month`'s tenth: the doors then differ by ~1 MB
/// of a debug build's ~10 MB, where at 0.1 scale they differ by ~0.2 MB and
/// the noise of the `cli` tests running beside this one can close that gap.
#[test]
fn snapshot_door_peaks_below_the_input_door() {
    let dir = tmpdir("snapshot-rss");
    let input = dir.join("month.ndjson");
    let status = bin()
        .args(["generate", "--preset", "jan2020", "--scale", "1.0", "--out"])
        .arg(&input)
        .status()
        .expect("run generate");
    assert!(status.success());
    let snap = dir.join("month.snap");
    let status = bin()
        .args(["snapshot", "write", "--input"])
        .arg(&input)
        .arg("--out")
        .arg(&snap)
        .status()
        .expect("run snapshot write");
    assert!(status.success());
    let peak_kb = |door: &str, path: &PathBuf| {
        let report = dir.join("report.json");
        let status = bin()
            .args(["validate", door])
            .arg(path)
            .args(["--cutoff", "10", "--report"])
            .arg(&report)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run validate --report");
        assert!(status.success(), "validate {door}");
        let text = std::fs::read_to_string(&report).expect("read report");
        let json: serde_json::Value = serde_json::from_str(&text).expect("report is JSON");
        json.get("gauges")
            .and_then(|g| g.get("validate.peak_rss_kb"))
            .and_then(|kb| kb.as_u64())
            .expect("validate.peak_rss_kb gauge")
    };
    let input_kb = peak_kb("--input", &input);
    let snapshot_kb = peak_kb("--from-snapshot", &snap);
    assert!(
        snapshot_kb < input_kb,
        "snapshot door peak {snapshot_kb} kB not below --input door peak {input_kb} kB"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn snapshot_inspect_rejects_damaged_and_future_files() {
    let dir = tmpdir("snapshot-bad");
    let input = generate_month(&dir);
    let snap = dir.join("month.snap");
    assert!(bin()
        .args(["snapshot", "write", "--input"])
        .arg(&input)
        .args(["--out"])
        .arg(&snap)
        .status()
        .expect("run snapshot write")
        .success());
    let bytes = std::fs::read(&snap).expect("read snapshot");

    // truncated
    let trunc = dir.join("trunc.snap");
    std::fs::write(&trunc, &bytes[..bytes.len() / 2]).unwrap();
    // forged magic
    let forged = dir.join("forged.snap");
    let mut b = bytes.clone();
    b[..8].copy_from_slice(b"NOTASNAP");
    std::fs::write(&forged, &b).unwrap();
    // future schema version
    let future = dir.join("future.snap");
    let mut b = bytes.clone();
    b[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&future, &b).unwrap();
    // the previous schema, whose `META` was varints
    let v5 = dir.join("v5.snap");
    let mut b = bytes.clone();
    b[8..12].copy_from_slice(&5u32.to_le_bytes());
    std::fs::write(&v5, &b).unwrap();

    // a version 1 file, as far as any reader gets into one: the 16-byte header
    let v1 = dir.join("v1.snap");
    let mut header = b"COORSNAP".to_vec();
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&5u32.to_le_bytes());
    std::fs::write(&v1, &header).unwrap();

    for (path, needle) in [
        (&trunc, "truncated"),
        (&forged, "bad magic"),
        (&future, "unsupported snapshot schema version 99"),
        (
            &v5,
            "unsupported snapshot schema version 5 (this build reads version 6); \
             re-create it with `coordination snapshot write`",
        ),
        (
            &v1,
            "unsupported snapshot schema version 1 (this build reads version 6); \
             re-create it with `coordination snapshot write`",
        ),
    ] {
        let out = bin()
            .args(["snapshot", "inspect", "--snapshot"])
            .arg(path)
            .output()
            .expect("run snapshot inspect");
        assert_eq!(out.status.code(), Some(2), "{}", path.display());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{}: {stderr}", path.display());
    }
    std::fs::remove_dir_all(dir).ok();
}

/// `survey --from-snapshot` projects under the window a file records: a
/// file that records none, or a forged window behind a repaired checksum,
/// is a usage error (exit 2), never a panic.
#[test]
fn survey_from_snapshot_needs_a_recorded_window() {
    use coordination::core::records::{CommentRecord, Dataset};
    use coordination::core::snapshot::write_snapshot;
    use coordination::core::store::snapshot::checksum;

    let dir = tmpdir("snapshot-window");
    let survey = |path: &PathBuf| {
        let out = bin()
            .args(["survey", "--from-snapshot"])
            .arg(path)
            .output()
            .expect("run survey --from-snapshot");
        assert_eq!(out.status.code(), Some(2), "{}", path.display());
        assert!(out.stdout.is_empty(), "{}", path.display());
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let recs = ["a", "b", "c"].map(|who| CommentRecord::new(who, "t3_p", 10));
    let ds = Dataset::from_records(recs.to_vec());

    let bare = dir.join("bare.snap");
    write_snapshot(&ds, None, &bare).expect("write without a window");
    let stderr = survey(&bare);
    assert!(stderr.contains("records no projection window"), "{stderr}");
    assert!(stderr.contains("snapshot write"), "{stderr}");

    // `META` is the first section and ends in the presence byte 1 and the
    // window's `d1` and `d2` as `i64` LE: 0 and 60
    let good = dir.join("good.snap");
    write_snapshot(&ds, Some(coordination::core::Window::new(0, 60)), &good).expect("write");
    let bytes = std::fs::read(&good).expect("read snapshot");
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (at, len) = (field(20), field(28));
    let tail = |presence: u8, d1: i64, d2: i64| {
        let mut tail = vec![presence];
        tail.extend_from_slice(&d1.to_le_bytes());
        tail.extend_from_slice(&d2.to_le_bytes());
        tail
    };
    assert_eq!(bytes[at + len - 17..at + len], tail(1, 0, 60));
    for (tail, what) in [
        (tail(1, -1, 60), "window (-1, 60) breaks 0 <= d1 < d2"),
        (tail(1, 60, 60), "window (60, 60) breaks 0 <= d1 < d2"),
        (tail(1, 0, 0), "window (0, 0) breaks 0 <= d1 < d2"),
        (tail(2, 0, 60), "META window presence byte 2"),
    ] {
        let mut forged = bytes.clone();
        forged[at + len - 17..at + len].copy_from_slice(&tail);
        let sum = checksum(&forged[at..at + len]);
        forged[36..44].copy_from_slice(&sum.to_le_bytes());
        let path = dir.join("forged.snap");
        std::fs::write(&path, &forged).expect("write forged snapshot");
        let stderr = survey(&path);
        assert!(
            stderr.contains(&format!("corrupt snapshot: {what}")),
            "{what}: {stderr}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn pipeline_distributed_stdout_is_byte_identical_to_resident() {
    let dir = tmpdir("pipeline-dist");
    let input = generate_month(&dir);
    let pipeline = |engine: &[&str]| {
        let run = bin()
            .args(["pipeline", "--input"])
            .arg(&input)
            .args(["--d2", "60", "--cutoff", "25"])
            .args(engine)
            .output()
            .expect("run pipeline");
        assert!(run.status.success(), "pipeline {engine:?}");
        run.stdout
    };
    let resident = pipeline(&[]);
    let stdout = String::from_utf8_lossy(&resident);
    assert!(stdout.contains("comments reviewed"), "{stdout}");
    assert!(stdout.contains("a\tb\tc\tmin_w\tT\tw_xyz\tC"), "{stdout}");

    // the acceptance bar: the rank-sharded run prints the same bytes
    let report = dir.join("ranks3.json");
    let report = report.to_str().expect("utf-8 temp path");
    let budget_report = dir.join("ranks3_budget.json");
    let budget_report = budget_report.to_str().expect("utf-8 temp path");
    for engine in [
        &["--ranks", "3", "--report", report][..],
        &["--shuffle-budget", "65536"],
        &[
            "--ranks",
            "3",
            "--shuffle-budget",
            "65536",
            "--report",
            budget_report,
        ],
    ] {
        assert!(
            resident == pipeline(engine),
            "pipeline {engine:?} stdout diverged from the resident engine's"
        );
    }
    // and its run report documents the resident run's stages and counters
    let check = bin()
        .args(["report-validate", "--kind", "batch", "--report", report])
        .output()
        .expect("run report-validate");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(check.status.success(), "{stderr}");
    // and books the rows door's build (`btm.build` and the passes nested in
    // it, once each) and nothing else as a build: the ranks read the rows in
    // place. The ranks shard projection and the survey only: the calling
    // thread orients the threshold view and validates once, as the resident
    // run does, and no oriented edge is shipped
    let entry = |label: &str, count: usize| format!("\"label\": \"{label}\", \"count\": {count},");
    let text = std::fs::read_to_string(report).expect("read report");
    for (label, count) in [
        ("btm.build", 1),
        ("btm.count", 1),
        ("btm.scatter", 1),
        ("btm.order", 1),
        ("survey.orient", 1),
        ("validate", 1),
        ("validate.harvest", 1),
    ] {
        let entry = entry(label, count);
        assert!(text.contains(&entry), "no {entry} in {text}");
    }
    assert!(!text.contains("btm.shard"), "a shard span in {text}");
    assert!(
        !text.contains("ygm.oriented_edges"),
        "an oriented-edge shuffle in {text}"
    );
    // under a budget each rank's event exchange is booked apart, as
    // `btm.shard`, once a rank
    let text = std::fs::read_to_string(budget_report).expect("read report");
    let entry = entry("btm.shard", 3);
    assert!(text.contains(&entry), "no {entry} in {text}");
    std::fs::remove_dir_all(dir).ok();
}

/// The rank program gauges its stages' memory as the resident run does: a
/// `--ranks 2` report and a budgeted one-rank report each carry
/// `project.peak_rss_kb` and `survey.peak_rss_kb`. Under the budget every
/// comment crosses the event exchange as one 16 B run key.
#[test]
fn rank_program_reports_project_and_survey_peak_rss() {
    let dir = tmpdir("rank-rss");
    let input = generate_month(&dir);
    for engine in [["--ranks", "2"], ["--shuffle-budget", "65536"]] {
        let report = dir.join("report.json");
        let status = bin()
            .args(["pipeline", "--input"])
            .arg(&input)
            .args(["--cutoff", "25"])
            .args(engine)
            .arg("--report")
            .arg(&report)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run pipeline --report");
        assert!(status.success(), "pipeline {engine:?}");
        let text = std::fs::read_to_string(&report).expect("read report");
        let json: serde_json::Value = serde_json::from_str(&text).expect("report is JSON");
        let read = |kind: &str, name: &str| json.get(kind).and_then(|g| g.get(name))?.as_u64();
        for gauge in ["project.peak_rss_kb", "survey.peak_rss_kb"] {
            let kb = read("gauges", gauge);
            assert!(kb.is_some_and(|kb| kb > 0), "{engine:?}: {gauge} {kb:?}");
        }
        if engine[0] == "--shuffle-budget" {
            let items = read("counters", "ygm.events_to_pages.items_sent").unwrap_or(0);
            let bytes = read("counters", "ygm.events_to_pages.bytes_sent");
            assert!(
                items > 0 && bytes == Some(16 * items),
                "{items} comments, {bytes:?} B"
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Run `coordination <args> --input <input>` — or, `piped`, `--input -` with
/// the file's bytes written down a pipe.
fn run_on(args: &[&str], input: &std::path::Path, piped: bool) -> std::process::Output {
    use std::io::Write;
    use std::process::Stdio;
    if !piped {
        return bin()
            .args(args)
            .arg("--input")
            .arg(input)
            .output()
            .expect("run on a file");
    }
    let mut child = bin()
        .args(args)
        .args(["--input", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn on a pipe");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let bytes = std::fs::read(input).expect("read input");
    let writer = std::thread::spawn(move || {
        // a strict run that stops at a bad line closes its end early
        let _ = stdin.write_all(&bytes);
    });
    let out = child.wait_with_output().expect("run on a pipe");
    writer.join().expect("pipe writer");
    out
}

#[test]
fn streamed_input_is_byte_identical_to_a_file() {
    let dir = tmpdir("streamed-input");
    let clean = generate_month(&dir);
    // the same month with a junk line spliced in every 1000 lines
    let junky = dir.join("junky.ndjson");
    let text = std::fs::read_to_string(&clean).expect("read month");
    assert!(text.len() > 1 << 20, "the month is more than one chunk");
    let mut spliced = String::new();
    for (i, line) in text.lines().enumerate() {
        if i % 1000 == 500 {
            spliced.push_str("{\"author\": 12, \"oops\n");
        }
        spliced.push_str(line);
        spliced.push('\n');
    }
    std::fs::write(&junky, spliced).expect("write junky month");
    let snap = dir.join("month.snap");
    let snap_path = snap.to_str().expect("utf-8 temp path");
    let commands = [
        &["pipeline", "--d2", "60", "--cutoff", "25"][..],
        &["stream", "--cutoff", "8"],
        &["snapshot", "write", "--out", snap_path],
    ];

    for (input, lossy) in [(&clean, false), (&junky, true)] {
        for command in commands {
            let args = [command, if lossy { &["--skip-bad-lines"] } else { &[] }].concat();
            let [file, pipe] = [false, true].map(|piped| {
                let run = run_on(&args, input, piped);
                assert!(run.status.success(), "{args:?}, piped: {piped}");
                // what the run wrote besides stdout, if it is that command
                (run, std::fs::read(&snap).unwrap_or_default())
            });
            assert!(file.0.stdout == pipe.0.stdout, "{args:?}: stdout diverged");
            assert!(file.1 == pipe.1, "{args:?}: snapshot bytes diverged");
            assert!(!file.0.stdout.is_empty() || !file.1.is_empty(), "{args:?}");
            std::fs::remove_file(&snap).ok();
        }
    }

    // strict on the junky month: the same line, named the same way
    for command in commands {
        for piped in [false, true] {
            let run = run_on(command, &junky, piped);
            assert_eq!(run.status.code(), Some(2), "{command:?}");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(stderr.contains("parse error on line 501"), "{stderr}");
            assert!(run.stdout.is_empty() && !snap.exists(), "{command:?}");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A line nested 50,000 deep is a parse error, not a blown stack: a strict
/// run stops at it with exit 2, and a `--skip-bad-lines` run skips it and
/// prints what the clean month prints.
#[test]
fn a_line_nested_50000_deep_is_a_parse_error() {
    let dir = tmpdir("deep-line");
    let clean = generate_month(&dir);
    let text = std::fs::read_to_string(&clean).expect("read month");
    let deep_line = format!(
        "{{\"x\":{}{},\"author\":\"a\",\"link_id\":\"t3_a\",\"created_utc\":1}}",
        "[".repeat(50_000),
        "]".repeat(50_000)
    );
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(699, &deep_line);
    let deep = dir.join("deep.ndjson");
    std::fs::write(&deep, lines.join("\n") + "\n").expect("write deep month");
    for command in [
        &["pipeline", "--d2", "60", "--cutoff", "25"][..],
        &["stream", "--cutoff", "8"],
    ] {
        let expected = run_on(command, &clean, false);
        assert!(expected.status.success(), "{command:?}");
        let strict = run_on(command, &deep, false);
        let stderr = String::from_utf8_lossy(&strict.stderr);
        assert_eq!(strict.status.code(), Some(2), "{command:?}: {stderr}");
        assert!(
            stderr.contains("parse error on line 700: nested deeper than 128"),
            "{stderr}"
        );
        let lossy = run_on(&[command, &["--skip-bad-lines"]].concat(), &deep, false);
        assert_eq!(lossy.status.code(), Some(0), "{command:?}");
        assert!(
            lossy.stdout == expected.stdout,
            "{command:?}: stdout diverged"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn ranks_flag_is_validated_and_scoped_to_distributed_runs() {
    let dir = tmpdir("ranks-flag");
    let input = generate_month(&dir);
    let stderr_of_exit_2 = |args: &[&str]| {
        let out = bin().args(args).arg(&input).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    // the engine flags on any other subcommand are an error naming `pipeline`
    for args in [
        ["stats", "--ranks", "4", "--input"],
        ["hunt", "--shuffle-budget", "65536", "--input"],
    ] {
        let stderr = stderr_of_exit_2(&args);
        assert!(
            stderr.contains(&format!("{} only applies to `pipeline`", args[1])),
            "{args:?}: {stderr}"
        );
    }
    // a non-positive or malformed count is an error
    for (flag, bad) in [
        ("--ranks", "0"),
        ("--ranks", "-3"),
        ("--ranks", "x"),
        ("--shuffle-budget", "0"),
    ] {
        let stderr = stderr_of_exit_2(&["pipeline", flag, bad, "--input"]);
        assert!(
            stderr.contains(&format!("{flag}: need a positive")),
            "{flag} {bad}: {stderr}"
        );
    }
    // the flag that used to pick the engine is gone, refused like any typo
    let stderr = stderr_of_exit_2(&["pipeline", "--distributed", "--input"]);
    assert!(stderr.contains("unknown flag: --distributed"), "{stderr}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    let status = bin().arg("frobnicate").status().expect("run");
    assert_eq!(status.code(), Some(2));
    let status = bin().args(["hunt"]).status().expect("run without input");
    assert_eq!(status.code(), Some(2));
    let status = bin()
        .args(["hunt", "--input", "/nonexistent/file", "--d2", "0"])
        .status()
        .expect("bad window");
    assert_eq!(status.code(), Some(2));
}

/// A flag no command reads — a typo, or one that no longer exists — is a
/// usage error naming the flag, raised before the input is even opened.
#[test]
fn unknown_flags_are_refused_before_any_work() {
    let dir = tmpdir("unknown-flag");
    let input = generate_month(&dir);
    for (cmd, flag, value) in [
        ("pipeline", "--threads", "4"),
        ("validate", "--cuttoff", "5"),
    ] {
        let output = bin()
            .args([cmd, "--input"])
            .arg(&input)
            .args([flag, value])
            .output()
            .expect("run with an unknown flag");
        assert_eq!(output.status.code(), Some(2), "{cmd} {flag}");
        assert!(output.stdout.is_empty(), "{cmd} {flag} printed to stdout");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(flag), "{cmd} {flag}: stderr was {stderr}");
        assert!(!stderr.contains("loaded"), "{cmd} {flag} ingested first");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A report command whose stdout reader has gone — `coordination … | head`
/// once `head` is done — fails with exit 2 and `write stdout: …` on stderr,
/// never a panic. The read end is closed before the command starts, so
/// every command meets the closed pipe at its first write, however short
/// its report is.
#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    let dir = tmpdir("closed-stdout");
    let path = |p: PathBuf| p.to_str().expect("utf-8 temp dir").to_owned();
    let month = path(generate_month(&dir));
    let (graph, snap) = (path(dir.join("graph.tsv")), path(dir.join("month.snap")));
    let run = |args: &[&str]| {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = bin().args(args).stdout(writer).output();
        out.expect("run with a closed stdout")
    };
    for setup in [
        &["project", "--input", &month, "--out", &graph][..],
        &["snapshot", "write", "--input", &month, "--out", &snap],
    ] {
        assert!(run(setup).status.success(), "{setup:?}");
    }
    let input = ["--input", month.as_str(), "--cutoff", "5"];
    let commands = [
        vec!["stats", "--input", &month],
        vec!["survey", "--graph", &graph, "--cutoff", "5"],
        [&["hunt"][..], &input].concat(),
        [&["validate"][..], &input].concat(),
        [&["groups"][..], &input].concat(),
        [&["refine"][..], &input].concat(),
        [&["pipeline"][..], &input].concat(),
        [&["pipeline"][..], &input, &["--ranks", "2"]].concat(),
        [&["stream"][..], &input].concat(),
        vec!["snapshot", "inspect", "--snapshot", &snap],
    ];
    for args in &commands {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: write stdout: "),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}
