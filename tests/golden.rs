//! Golden outputs: the CLI's stdout on a small generated month (`jan2020`
//! at scale 0.05, 11,893 comments), byte for byte against the files under
//! `tests/golden/`. Engine-against-engine byte identity cannot see a change
//! that moves every engine alike; this test can. A change that means to
//! move an output rewrites its file in the same commit, so the diff shows
//! it: run `coordination generate --preset jan2020 --scale 0.05 --out M`
//! and `coordination project --input M --out G`, then the command the
//! failure names, into the file.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coordination"))
}

/// Run the CLI with `args`, requiring success, and return its stdout.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = bin().args(args).output().expect("run coordination");
    assert!(
        out.status.success(),
        "coordination {}: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn cli_stdout_matches_the_golden_files() {
    let dir = std::env::temp_dir().join(format!("coordination-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp dir").to_owned();
    let (month, graph) = (path("month.ndjson"), path("graph.tsv"));
    stdout_of(&[
        "generate", "--preset", "jan2020", "--scale", "0.05", "--out", &month,
    ]);
    stdout_of(&["project", "--input", &month, "--out", &graph]);

    let input = ["--input", month.as_str()];
    let cutoff = ["--cutoff", "25"];
    let runs: [(&str, Vec<&str>); 10] = [
        ("stats", [&["stats"][..], &input].concat()),
        ("pipeline", [&["pipeline"][..], &input, &cutoff].concat()),
        (
            "pipeline",
            [&["pipeline"][..], &input, &cutoff, &["--ranks", "2"]].concat(),
        ),
        ("validate", [&["validate"][..], &input, &cutoff].concat()),
        // cutoff 3 harvests the authors of the densest triangles, nearly all
        // held as bitsets; the T floor keeps the listing short
        (
            "validate_cutoff3",
            [
                &["validate"][..],
                &input,
                &["--cutoff", "3", "--t-score", "0.11"],
            ]
            .concat(),
        ),
        ("hunt", [&["hunt"][..], &input, &cutoff].concat()),
        ("groups", [&["groups"][..], &input, &cutoff].concat()),
        ("stream", [&["stream"][..], &input, &cutoff].concat()),
        (
            "stream_sliding",
            [
                &["stream"][..],
                &input,
                &["--cutoff", "5", "--horizon", "86400", "--t-score", "0.2"],
            ]
            .concat(),
        ),
        (
            "survey_graph",
            [&["survey", "--graph", &graph][..], &cutoff].concat(),
        ),
    ];

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut differ = Vec::new();
    for (name, args) in &runs {
        let file: PathBuf = golden.join(format!("{name}.out"));
        let got = stdout_of(args);
        let want = std::fs::read(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        if got != want {
            let line = got.split(|&b| b == b'\n').zip(want.split(|&b| b == b'\n'));
            let first = line.take_while(|(g, w)| g == w).count() + 1;
            differ.push(format!(
                "coordination {} differs from {} from line {first}",
                args.join(" ").replace(&month, "M").replace(&graph, "G"),
                file.display()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(differ.is_empty(), "{}", differ.join("\n"));
}
