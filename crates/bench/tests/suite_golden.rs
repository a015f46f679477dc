//! Golden byte-identity tests for the one-process `suite` runner.
//!
//! The whole point of the shared [`CellCache`] is that it must be
//! invisible in the output: a figure rendered by `suite` — possibly
//! entirely from cells another figure already computed — must be
//! byte-identical to the standalone binary's TSV. These tests spawn the
//! real binaries (via `CARGO_BIN_EXE_*`) and `cmp` their bytes.
//!
//! The cheap checks always run. The full fig13/fig14 matrix at two
//! thread counts takes a couple of seconds per invocation, so it is
//! gated behind `JUMANJI_SUITE_GOLDEN=1` — `scripts/verify.sh` sets it.
//!
//! [`CellCache`]: jumanji_bench::cell_cache::CellCache

// Test gates read their own opt-in env switches; never fingerprinted output.
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("jumanji_suite_golden_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A command for `bin` with a scrubbed environment: no `JUMANJI_*` knobs
/// leak in from the outside, so the test is deterministic wherever it
/// runs.
fn clean_command(bin: &str, args: &[&str]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for var in [
        "JUMANJI_TRACE",
        "JUMANJI_MIXES",
        "JUMANJI_THREADS",
        "JUMANJI_ACCESSES",
        "JUMANJI_NO_CACHE",
        "JUMANJI_CACHE_DIR",
        "JUMANJI_CACHE_CAP",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

/// Runs a binary with a scrubbed environment and asserts it succeeded.
fn run_clean(bin: &str, args: &[&str]) -> Output {
    let out = clean_command(bin, args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `suite --figures fig05` must reproduce the standalone `fig05` binary
/// byte for byte, and repeating the figure in one invocation must serve
/// the second rendering from the cache.
#[test]
fn suite_matches_standalone_and_reuses_cells() {
    let tmp = TempDir::new("cheap");
    let stats = tmp.path().join("stats.json");

    let standalone = run_clean(env!("CARGO_BIN_EXE_fig05"), &["--threads", "2"]);
    let suite = run_clean(
        env!("CARGO_BIN_EXE_suite"),
        &[
            "--figures",
            "fig05",
            "--threads",
            "2",
            "--stats",
            stats.to_str().unwrap(),
        ],
    );
    assert_eq!(
        suite.stdout, standalone.stdout,
        "suite fig05 differs from the standalone binary"
    );

    // fig04 and fig05 share the case-study experiment matrix, so running
    // both must reuse cells (fig05's Static/Jumanji/Jigsaw runs at high
    // load repeat fig04's).
    let stats2 = tmp.path().join("stats2.json");
    run_clean(
        env!("CARGO_BIN_EXE_suite"),
        &[
            "--figures",
            "fig04,fig05",
            "--threads",
            "2",
            "--stats",
            stats2.to_str().unwrap(),
        ],
    );
    let text = String::from_utf8(read(&stats2)).expect("stats JSON is UTF-8");
    let reused = read_number(&text, "\"cells_reused\":").expect("cells_reused in stats");
    assert!(
        reused > 0.0,
        "expected fig04+fig05 to reuse cells, stats: {text}"
    );
}

/// `--no-cache` must not change a single byte of output.
#[test]
fn no_cache_output_is_byte_identical() {
    let cached = run_clean(env!("CARGO_BIN_EXE_suite"), &["--figures", "fig05"]);
    let fresh = run_clean(
        env!("CARGO_BIN_EXE_suite"),
        &["--figures", "fig05", "--no-cache"],
    );
    assert_eq!(
        cached.stdout, fresh.stdout,
        "--no-cache changed the rendered TSV"
    );
}

/// `JUMANJI_NO_CACHE=1` is the environment spelling of `--no-cache`: the
/// same bytes as the cached run, through the uncached reference path,
/// which runs no scheduler and so prints no `[suite] sched:` line.
#[test]
fn no_cache_env_output_is_byte_identical_and_unscheduled() {
    let args = ["--figures", "fig05", "--mixes", "1"];
    let cached = run_clean(env!("CARGO_BIN_EXE_suite"), &args);
    let fresh = clean_command(env!("CARGO_BIN_EXE_suite"), &args)
        .env("JUMANJI_NO_CACHE", "1")
        .output()
        .expect("spawn suite");
    assert!(
        fresh.status.success(),
        "JUMANJI_NO_CACHE=1 suite failed: {}",
        String::from_utf8_lossy(&fresh.stderr)
    );
    assert_eq!(
        cached.stdout, fresh.stdout,
        "JUMANJI_NO_CACHE=1 changed the rendered TSV"
    );
    assert!(
        String::from_utf8_lossy(&cached.stderr).contains("[suite] sched:"),
        "the cached run should report its scheduler"
    );
    assert!(
        !String::from_utf8_lossy(&fresh.stderr).contains("[suite] sched:"),
        "JUMANJI_NO_CACHE=1 still ran the scheduler"
    );
}

/// An unknown figure name is a usage error (exit 2), not a crash.
#[test]
fn unknown_figure_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--figures", "fig99"])
        .output()
        .expect("spawn suite");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fig99"),
        "error should name the unknown figure"
    );
}

/// A flag whose value is missing is a usage error (exit 2) raised before
/// any file, directory or store is opened: the flag that follows must
/// never be taken for a trace file, store, or output directory.
#[test]
fn flags_missing_values_exit_2_and_touch_nothing() {
    let suite = env!("CARGO_BIN_EXE_suite");
    let fig05 = env!("CARGO_BIN_EXE_fig05");
    let cases: [(&str, &[&str]); 4] = [
        (suite, &["--figures", "table2", "--trace", "--mixes", "2"]),
        (
            suite,
            &["--figures", "table2", "--cache-dir", "--mixes", "2"],
        ),
        (fig05, &["--cache-dir", "--mixes", "1"]),
        (
            suite,
            &["--figures", "table2", "--out", "--stats", "s.json"],
        ),
    ];
    for (i, (bin, args)) in cases.into_iter().enumerate() {
        let tmp = TempDir::new(&format!("flags{i}"));
        let out = clean_command(bin, args)
            .current_dir(tmp.path())
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let left: Vec<_> = std::fs::read_dir(tmp.path())
            .expect("read temp dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(left.is_empty(), "{bin} {args:?} left {left:?} behind");
    }
}

/// The full gated matrix: fig13 + fig14 through the suite at 1 and 4
/// threads, byte-identical to the standalone binaries. fig14 renders
/// entirely from fig13's cells, so this exercises the
/// all-hits-no-computation path against real golden output.
#[test]
fn gated_fig13_fig14_match_standalone_at_all_thread_counts() {
    if std::env::var("JUMANJI_SUITE_GOLDEN").ok().as_deref() != Some("1") {
        eprintln!("skipping: set JUMANJI_SUITE_GOLDEN=1 to run the full matrix");
        return;
    }
    let tmp = TempDir::new("full");
    let mixes = "2";

    let fig13 = run_clean(env!("CARGO_BIN_EXE_fig13"), &["--mixes", mixes]);
    let fig14 = run_clean(env!("CARGO_BIN_EXE_fig14"), &["--mixes", mixes]);

    for threads in ["1", "4"] {
        let dir = tmp.path().join(format!("t{threads}"));
        run_clean(
            env!("CARGO_BIN_EXE_suite"),
            &[
                "--figures",
                "fig13,fig14",
                "--mixes",
                mixes,
                "--threads",
                threads,
                "--out",
                dir.to_str().unwrap(),
            ],
        );
        assert_eq!(
            read(&dir.join("fig13.tsv")),
            fig13.stdout,
            "suite fig13 differs at --threads {threads}"
        );
        assert_eq!(
            read(&dir.join("fig14.tsv")),
            fig14.stdout,
            "suite fig14 differs at --threads {threads}"
        );
    }
}

/// Pulls one numeric field out of the suite's stats report (a minimal
/// scan; the schema is our own).
fn read_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == ' ' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
