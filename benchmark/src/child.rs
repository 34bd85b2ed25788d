//! The CLI child: build `coordination` from the checkout, run it one child
//! at a time (spawn → exit is the wall), and read its peak RSS from procfs.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Cargo's target directory as seen from the checkout root (the cwd).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the CLI from the root manifest of the checkout and return the
/// binary's path. A no-op when it is fresh.
pub fn build_cli() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "coordination",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin coordination: {status}"));
    }
    let bin = target_dir().join("release").join("coordination");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not found after build", bin.display()))
    }
}

/// What one child run measured.
pub struct ChildRun {
    pub wall_s: f64,
    /// `VmHWM` of the child in MB, the last value polled before it exited.
    pub peak_rss_mb: f64,
    pub stdout: Vec<u8>,
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Run `coordination pipeline` on one input (`--input F` or
/// `--from-snapshot F`), stdout captured through `stdout_path`.
pub fn run_pipeline_child(
    bin: &Path,
    input_flag: &str,
    input: &Path,
    window_s: i64,
    cutoff: u64,
    stdout_path: &Path,
) -> Result<ChildRun, String> {
    let stdout =
        std::fs::File::create(stdout_path).map_err(|e| format!("create stdout file: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(bin)
        .arg("pipeline")
        .arg(input_flag)
        .arg(input)
        .args([
            "--d2",
            &window_s.to_string(),
            "--cutoff",
            &cutoff.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let pid = child.id();
    let exited = AtomicBool::new(false);
    // The poller only sleeps and reads procfs; the main thread blocks in
    // wait(), so the wall is not quantised by the polling period.
    let (status, wall_s, peak_kb) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak = 0u64;
            while !exited.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        exited.store(true, Ordering::SeqCst);
        (status, wall_s, poller.join().expect("rss poller panicked"))
    });
    let status = status.map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("coordination pipeline {input_flag}: {status}"));
    }
    let stdout = std::fs::read(stdout_path).map_err(|e| format!("read stdout file: {e}"))?;
    Ok(ChildRun {
        wall_s,
        peak_rss_mb: peak_kb as f64 / 1024.0,
        stdout,
    })
}
