//! One declarative description of a figure run, shared by every binary.
//!
//! [`ExperimentSpec`] collects the knobs the 18 figure/table binaries
//! used to resolve by hand — mix count, worker threads, RNG seed,
//! detailed-sim accesses, design list, output, telemetry — behind one
//! builder, with one resolution order everywhere:
//!
//! 1. CLI flag (`--mixes`, `--threads`, `--seed`, `--accesses`,
//!    `--trace`, `--cache-dir`, `--cache-cap-bytes`, `--no-cache`) —
//!    strict: a missing or unparseable value is a usage error, raised
//!    before any file, directory or store is opened.
//! 2. Environment (`JUMANJI_MIXES`, `JUMANJI_THREADS`, `JUMANJI_TRACE`,
//!    `JUMANJI_CACHE_DIR`, `JUMANJI_CACHE_CAP`, `JUMANJI_NO_CACHE`) —
//!    lenient: an unparseable value falls through, so a stale export
//!    degrades to the default instead of silently meaning something
//!    else.
//! 3. The spec's builder value ([`ExperimentSpec::cache_dir`] /
//!    [`ExperimentSpec::no_cache`] for the cache controls), then the
//!    figure's own default ([`FigureKind::default_mixes`] etc.).
//!
//! [`ExperimentSpec::from_args_env`] is exactly that: the environment
//! fills in over the defaults, then one strict CLI pass
//! ([`ExperimentSpec::from_args`]'s) runs over the result. Every binary
//! parses flags with [`flag_text`].
//!
//! A binary is then a one-liner:
//!
//! ```no_run
//! use jumanji_bench::{figure_main, FigureKind};
//!
//! fn main() -> std::process::ExitCode {
//!     figure_main(FigureKind::Fig13)
//! }
//! ```
//!
//! and library callers build specs directly:
//!
//! ```no_run
//! use jumanji_bench::{run_spec, ExperimentSpec, FigureKind};
//!
//! let spec = ExperimentSpec::new(FigureKind::Fig14).mixes(2).threads(4);
//! run_spec(&spec).expect("figure renders");
//! ```

// spec.rs IS the centralized JUMANJI_* config surface (lint.toml
// [paths].env_allow), so the env-read ban does not apply here.
#![allow(clippy::disallowed_methods)]

use crate::cell_cache::{attach_global_disk, persist_global_disk, CellCache};
use crate::suite::run_suite;
use jumanji::prelude::*;
use jumanji::types::Error;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Every figure, table, and study binary in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants mirror the paper's figure numbers
pub enum FigureKind {
    Fig02,
    Fig04,
    Fig05,
    Fig08,
    Fig09,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
    Fig18,
    Table2,
    Table3,
    Ablation,
    Sensitivity,
    Validate,
}

impl FigureKind {
    /// All kinds, in figure order.
    pub fn all() -> [FigureKind; 18] {
        use FigureKind::*;
        [
            Fig02,
            Fig04,
            Fig05,
            Fig08,
            Fig09,
            Fig11,
            Fig12,
            Fig13,
            Fig14,
            Fig15,
            Fig16,
            Fig17,
            Fig18,
            Table2,
            Table3,
            Ablation,
            Sensitivity,
            Validate,
        ]
    }

    /// Binary name (`fig13`, `table2`, …).
    pub fn name(self) -> &'static str {
        use FigureKind::*;
        match self {
            Fig02 => "fig02",
            Fig04 => "fig04",
            Fig05 => "fig05",
            Fig08 => "fig08",
            Fig09 => "fig09",
            Fig11 => "fig11",
            Fig12 => "fig12",
            Fig13 => "fig13",
            Fig14 => "fig14",
            Fig15 => "fig15",
            Fig16 => "fig16",
            Fig17 => "fig17",
            Fig18 => "fig18",
            Table2 => "table2",
            Table3 => "table3",
            Ablation => "ablation",
            Sensitivity => "sensitivity",
            Validate => "validate",
        }
    }

    /// The kind whose [`FigureKind::name`] is `name`, if any.
    ///
    /// This is the parsing direction, used by the `suite` binary's
    /// `--figures fig13,fig14,…` list.
    pub fn from_name(name: &str) -> Option<FigureKind> {
        FigureKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Default mix/seed count. Figures that run a single fixed scenario
    /// (the case study, the attack demos, the config tables) report `1`.
    pub fn default_mixes(self) -> usize {
        use FigureKind::*;
        match self {
            Fig13 => crate::PAPER_MIXES,
            Fig14 | Fig15 | Fig16 | Fig17 | Fig18 => 8,
            Fig09 => 5,
            Ablation => 6,
            Validate => 4,
            Sensitivity => 3,
            Fig02 | Fig04 | Fig05 | Fig08 | Fig11 | Fig12 | Table2 | Table3 => 1,
        }
    }

    /// Default detailed-sim accesses per app (only [`FigureKind::Fig02`]
    /// and [`FigureKind::Validate`] run the detailed simulator).
    pub fn default_accesses(self) -> usize {
        match self {
            FigureKind::Fig02 => 40_000,
            _ => 200_000,
        }
    }

    /// Default design list. Empty for figures whose structure fixes the
    /// designs (e.g. Fig. 16's three Jumanji variants, the attack demos).
    pub fn default_designs(self) -> Vec<DesignKind> {
        use FigureKind::*;
        match self {
            Fig02 => vec![
                DesignKind::Adaptive,
                DesignKind::VmPart,
                DesignKind::Jigsaw,
                DesignKind::Jumanji,
            ],
            Fig04 | Fig05 | Fig13 | Fig14 => DesignKind::main_four().to_vec(),
            Fig15 => vec![
                DesignKind::Static,
                DesignKind::Adaptive,
                DesignKind::VmPart,
                DesignKind::Jigsaw,
                DesignKind::Jumanji,
            ],
            Fig16 => vec![
                DesignKind::Jumanji,
                DesignKind::JumanjiInsecure,
                DesignKind::JumanjiIdealBatch,
            ],
            _ => Vec::new(),
        }
    }
}

/// Declarative description of one figure run.
///
/// Build with [`ExperimentSpec::new`] (per-figure defaults) or
/// [`ExperimentSpec::from_args_env`] (the binaries' CLI/env resolution),
/// then refine with the builder methods and hand to [`run_spec`].
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Which figure to render.
    pub kind: FigureKind,
    /// Random mixes (or seeds) per configuration.
    pub mixes: usize,
    /// Worker threads for the experiment fan-out.
    pub threads: usize,
    /// Base RNG seed (the analytic simulator's arrival streams and the
    /// case-study mix derive from it).
    pub seed: u64,
    /// Detailed-sim accesses per app (Fig. 2 and the validation study).
    pub accesses: usize,
    /// Designs to evaluate, for figures that iterate over a design list.
    pub designs: Vec<DesignKind>,
    /// Back the shared cell cache with a persistent store at this
    /// directory (applied by [`ExperimentSpec::apply_cache`]; ignored
    /// when `no_cache` is set).
    pub cache_dir: Option<PathBuf>,
    /// Bound the persistent store to this many bytes, evicting the
    /// least-recently-written cells on overflow (`None` or zero means
    /// unbounded).
    pub cache_cap_bytes: Option<u64>,
    /// Disable the shared cell cache entirely: every cell computes
    /// fresh (beats `cache_dir`).
    pub no_cache: bool,
    /// Write telemetry as JSONL to this path (ignored when `telemetry`
    /// is set).
    pub trace: Option<PathBuf>,
    /// Explicit telemetry sink; takes precedence over `trace`.
    pub telemetry: Option<Arc<dyn Telemetry>>,
}

impl std::fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("kind", &self.kind)
            .field("mixes", &self.mixes)
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .field("accesses", &self.accesses)
            .field("designs", &self.designs)
            .field("cache_dir", &self.cache_dir)
            .field("cache_cap_bytes", &self.cache_cap_bytes)
            .field("no_cache", &self.no_cache)
            .field("trace", &self.trace)
            .field("telemetry", &self.telemetry.as_ref().map(|_| ".."))
            .finish()
    }
}

impl ExperimentSpec {
    /// A spec with `kind`'s defaults: paper mix count, all available
    /// cores, seed 1, no telemetry.
    pub fn new(kind: FigureKind) -> ExperimentSpec {
        ExperimentSpec {
            kind,
            mixes: kind.default_mixes(),
            threads: available_threads(),
            seed: 1,
            accesses: kind.default_accesses(),
            designs: kind.default_designs(),
            cache_dir: None,
            cache_cap_bytes: None,
            no_cache: false,
            trace: None,
            telemetry: None,
        }
    }

    /// Sets the mix count.
    pub fn mixes(mut self, mixes: usize) -> ExperimentSpec {
        self.mixes = mixes.max(1);
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> ExperimentSpec {
        self.threads = threads.max(1);
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> ExperimentSpec {
        self.seed = seed;
        self
    }

    /// Sets the detailed-sim accesses per app.
    pub fn accesses(mut self, accesses: usize) -> ExperimentSpec {
        self.accesses = accesses.max(1);
        self
    }

    /// Sets the design list.
    pub fn designs(mut self, designs: &[DesignKind]) -> ExperimentSpec {
        self.designs = designs.to_vec();
        self
    }

    /// Backs the shared cell cache with a persistent store at `dir`
    /// when the spec runs (same semantics as the binaries'
    /// `--cache-dir`; overridden by `JUMANJI_CACHE_DIR` and the CLI
    /// flag under [`Self::from_args_env`]).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> ExperimentSpec {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disables the shared cell cache for this spec's run (same
    /// semantics as the binaries' `--no-cache`; beats
    /// [`Self::cache_dir`]).
    pub fn no_cache(mut self) -> ExperimentSpec {
        self.no_cache = true;
        self
    }

    /// Writes telemetry as JSONL to `path`.
    pub fn trace(mut self, path: impl Into<PathBuf>) -> ExperimentSpec {
        self.trace = Some(path.into());
        self
    }

    /// Installs an explicit telemetry sink (beats [`Self::trace`]).
    pub fn telemetry(mut self, sink: Arc<dyn Telemetry>) -> ExperimentSpec {
        self.telemetry = Some(sink);
        self
    }

    /// Parses an argv-style slice (program name first or not — only
    /// `--flag value` pairs are inspected) over the figure's defaults.
    ///
    /// # Errors
    ///
    /// Returns a usage [`Error::Flag`] for a recognized flag with a
    /// missing or unparseable value. Unrecognized arguments are ignored,
    /// as the original binaries did.
    pub fn from_args(kind: FigureKind, args: &[String]) -> Result<ExperimentSpec, Error> {
        ExperimentSpec::new(kind).with_args(args)
    }

    /// [`Self::from_args`] on the process's own argv, with the
    /// environment filled in underneath: CLI beats `JUMANJI_*` beats the
    /// figure's default.
    ///
    /// # Errors
    ///
    /// Usage errors from CLI flags only — environment values that fail
    /// to parse fall through to the default.
    pub fn from_args_env(kind: FigureKind) -> Result<ExperimentSpec, Error> {
        let args: Vec<String> = std::env::args().collect();
        ExperimentSpec::new(kind)
            .with_env(|var| std::env::var(var).ok())
            .with_args(&args)
    }

    /// Fills in the `JUMANJI_*` values `env` yields, leniently: an
    /// empty or unparseable value leaves the field alone, and
    /// `JUMANJI_NO_CACHE` counts unless it is empty or `0`. Factored
    /// over a lookup function so tests need not mutate the process
    /// environment.
    fn with_env(mut self, env: impl Fn(&str) -> Option<String>) -> ExperimentSpec {
        let var = |name: &str| env(name).filter(|v| !v.is_empty());
        if let Some(v) = var("JUMANJI_MIXES").and_then(|v| v.parse().ok()) {
            self.mixes = v;
        }
        if let Some(v) = var("JUMANJI_THREADS").and_then(|v| v.parse().ok()) {
            self.threads = v;
        }
        if let Some(p) = var("JUMANJI_TRACE") {
            self.trace = Some(PathBuf::from(p));
        }
        if var("JUMANJI_NO_CACHE").is_some_and(|v| v != "0") {
            self.no_cache = true;
        }
        if let Some(dir) = var("JUMANJI_CACHE_DIR") {
            self.cache_dir = Some(PathBuf::from(dir));
        }
        if let Some(cap) = var("JUMANJI_CACHE_CAP").and_then(|v| v.trim().parse().ok()) {
            self.cache_cap_bytes = Some(cap);
        }
        self
    }

    /// One strict pass of the CLI flags over the current values.
    fn with_args(mut self, args: &[String]) -> Result<ExperimentSpec, Error> {
        if let Some(v) = parse_flag(args, "--mixes")? {
            self.mixes = v;
        }
        if let Some(v) = parse_flag(args, "--threads")? {
            self.threads = v;
        }
        if let Some(v) = parse_flag(args, "--seed")? {
            self.seed = v;
        }
        if let Some(v) = parse_flag(args, "--accesses")? {
            self.accesses = v;
        }
        if let Some(p) = flag_text(args, "--trace")? {
            self.trace = Some(PathBuf::from(p));
        }
        if args.iter().any(|a| a == "--no-cache") {
            self.no_cache = true;
        }
        if let Some(dir) = flag_text(args, "--cache-dir")? {
            self.cache_dir = Some(PathBuf::from(dir));
        }
        if let Some(cap) = parse_flag(args, "--cache-cap-bytes")? {
            self.cache_cap_bytes = Some(cap);
        }
        // Counts floor at 1, as the builder methods floor them.
        self.mixes = self.mixes.max(1);
        self.threads = self.threads.max(1);
        self.accesses = self.accesses.max(1);
        Ok(self)
    }

    /// Applies the spec's cache controls to the process-wide cell
    /// cache: `no_cache` disables it; otherwise `cache_dir` attaches a
    /// persistent store there (bounded by `cache_cap_bytes`) and
    /// warm-starts the simulator's model memos from it. An unopenable
    /// directory warns and leaves the cache memory-only.
    pub fn apply_cache(&self) {
        let cache = CellCache::global();
        if self.no_cache {
            cache.set_enabled(false);
            return;
        }
        let Some(dir) = &self.cache_dir else {
            return;
        };
        // Re-attaching the same root would reset its counters mid-run.
        if cache.disk().is_some_and(|d| d.root() == dir.as_path()) {
            return;
        }
        attach_global_disk(&dir.to_string_lossy());
        if let (Some(cap), Some(disk)) = (self.cache_cap_bytes.filter(|&c| c > 0), cache.disk()) {
            disk.set_cap_bytes(cap);
            disk.enforce_cap();
        }
    }
}

/// The value of `flag`, as text, in either `--flag value` or
/// `--flag=value` form (first occurrence wins). Present-with-no-value —
/// a bare trailing flag, another `--flag` in value position, or an empty
/// `--flag=` — is a usage error. This is the one flag parser every
/// binary uses, so a missing value is rejected before it can be taken
/// for a path.
///
/// # Errors
///
/// Returns a usage [`Error::Flag`] naming `flag` when its value is
/// missing.
pub fn flag_text(args: &[String], flag: &str) -> Result<Option<String>, Error> {
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            return match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(Error::flag(flag, "expected a value")),
            };
        }
        if let Some(value) = arg.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            if value.is_empty() {
                return Err(Error::flag(flag, "expected a value"));
            }
            return Ok(Some(value.to_string()));
        }
    }
    Ok(None)
}

/// The machine's available parallelism, at least 1: the worker count
/// when neither `--threads` nor `JUMANJI_THREADS` sets one.
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The value after `flag`, parsed. Unparseable is a usage error.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Error> {
    match flag_text(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| Error::flag(flag, format!("invalid value `{v}`"))),
    }
}

/// Renders the spec's figure to stdout (locked for the duration).
///
/// # Errors
///
/// Propagates figure errors ([`run_spec_to`]).
pub fn run_spec(spec: &ExperimentSpec) -> Result<(), Error> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    run_spec_to(spec, &mut out)
}

/// Renders the spec's figure to any writer through the one execution
/// path — [`run_suite`] on this single spec — resolving the telemetry
/// sink (explicit sink, then `trace` path as a [`JsonlSink`], then the
/// no-op sink) and applying the spec's cache controls first. The
/// attached disk store is persisted whether or not the figure succeeds,
/// so the next process finds this run's cells and model memos.
///
/// # Errors
///
/// Returns usage errors for bad spec inputs (unknown workload names),
/// and runtime errors for I/O failures on `out` or the trace file.
pub fn run_spec_to(spec: &ExperimentSpec, out: &mut dyn Write) -> Result<(), Error> {
    spec.apply_cache();
    let result = emit_to(spec, out);
    persist_global_disk();
    result
}

/// [`run_spec_to`] without the cache set-up and persistence.
fn emit_to(spec: &ExperimentSpec, out: &mut dyn Write) -> Result<(), Error> {
    let jsonl;
    let tel: &dyn Telemetry = match (&spec.telemetry, &spec.trace) {
        (Some(sink), _) => sink.as_ref(),
        (None, Some(path)) => {
            jsonl = JsonlSink::create(path)?;
            &jsonl
        }
        (None, None) => &NoopSink,
    };
    run_suite(std::slice::from_ref(spec), spec.threads, tel, &mut |fig| {
        Ok(out.write_all(&fig.bytes)?)
    })?;
    out.flush()?;
    Ok(())
}

/// The whole `main` of a figure binary: parse argv/env strictly
/// (including the `--no-cache` / `--cache-dir DIR` cache controls), run
/// (which applies the cache controls and persists the disk store either
/// way), and map errors to exit codes (usage → 2, runtime → 1).
pub fn figure_main(kind: FigureKind) -> ExitCode {
    let spec = match ExperimentSpec::from_args_env(kind) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{}: {e}", kind.name());
            return ExitCode::from(2);
        }
    };
    match run_spec(&spec) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}: {e}", kind.name());
            ExitCode::from(if e.is_usage() { 2 } else { 1 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_follow_the_figure() {
        let spec = ExperimentSpec::new(FigureKind::Fig13);
        assert_eq!(spec.mixes, crate::PAPER_MIXES);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.designs, DesignKind::main_four().to_vec());
        assert!(spec.trace.is_none());
        assert_eq!(ExperimentSpec::new(FigureKind::Fig09).mixes, 5);
        assert_eq!(ExperimentSpec::new(FigureKind::Fig02).accesses, 40_000);
        assert_eq!(ExperimentSpec::new(FigureKind::Validate).accesses, 200_000);
        assert!(ExperimentSpec::new(FigureKind::Table2).designs.is_empty());
    }

    #[test]
    fn builder_methods_override_and_clamp() {
        let spec = ExperimentSpec::new(FigureKind::Fig14)
            .mixes(0)
            .threads(0)
            .seed(9)
            .accesses(0)
            .designs(&[DesignKind::Jumanji])
            .trace("/tmp/t.jsonl");
        assert_eq!(spec.mixes, 1);
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.accesses, 1);
        assert_eq!(spec.designs, vec![DesignKind::Jumanji]);
        assert_eq!(
            spec.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
    }

    #[test]
    fn cli_flags_parse_strictly() {
        let args = argv(&["fig13", "--mixes", "7", "--threads", "3", "--seed", "42"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.threads, spec.seed), (7, 3, 42));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes", "x"]))
            .expect_err("unparseable value");
        assert!(err.is_usage());
        assert!(err.to_string().contains("--mixes"));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes"]))
            .expect_err("missing value");
        assert!(err.is_usage());

        // A flag in value position counts as missing, not as a value.
        let err =
            ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--trace", "--verbose"]))
                .expect_err("flag as value");
        assert!(err.to_string().contains("--trace"));
    }

    #[test]
    fn cli_flags_accept_equals_form() {
        let args = argv(&["fig13", "--mixes=7", "--threads=3", "--seed=42"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.threads, spec.seed), (7, 3, 42));

        let spec =
            ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--trace=/tmp/t.jsonl"]))
                .expect("valid argv");
        assert_eq!(
            spec.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );

        // Mixed forms in one argv; first occurrence wins per flag.
        let args = argv(&["fig13", "--mixes=5", "--threads", "2"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.threads), (5, 2));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes="]))
            .expect_err("empty value");
        assert!(err.is_usage());
        assert!(err.to_string().contains("--mixes"));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes=x"]))
            .expect_err("unparseable value");
        assert!(err.is_usage());
    }

    /// An environment lookup over fixed `(var, value)` pairs.
    fn env_of(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |var| pairs.iter().find(|(k, _)| k == var).map(|(_, v)| v.clone())
    }

    #[test]
    fn cache_controls_resolve_cli_over_env_over_builder() {
        use std::path::Path;
        let resolve = |spec: ExperimentSpec, env: &[(&str, &str)], args: &[&str]| {
            spec.with_env(env_of(env)).with_args(&argv(args))
        };
        // Builder value survives when neither CLI nor env speaks.
        let builder = || ExperimentSpec::new(FigureKind::Fig13).cache_dir("/from/builder");
        let spec = resolve(builder(), &[], &["fig13"]).expect("valid");
        assert_eq!(spec.cache_dir.as_deref(), Some(Path::new("/from/builder")));
        assert!(!spec.no_cache);

        // Environment beats the builder.
        let env = [
            ("JUMANJI_NO_CACHE", "1"),
            ("JUMANJI_CACHE_DIR", "/from/env"),
            ("JUMANJI_CACHE_CAP", "4096"),
        ];
        let spec = resolve(builder(), &env, &["fig13"]).expect("valid");
        assert_eq!(spec.cache_dir.as_deref(), Some(Path::new("/from/env")));
        assert!(spec.no_cache);
        assert_eq!(spec.cache_cap_bytes, Some(4096));

        // CLI beats the environment.
        let new = || ExperimentSpec::new(FigureKind::Fig13);
        let spec = resolve(
            new(),
            &env,
            &["fig13", "--cache-dir", "/from/cli", "--cache-cap-bytes=8"],
        )
        .expect("valid");
        assert_eq!(spec.cache_dir.as_deref(), Some(Path::new("/from/cli")));
        assert_eq!(spec.cache_cap_bytes, Some(8));

        // The environment is lenient: empty and `0` mean unset, and an
        // unparseable cap falls through.
        let lenient = [("JUMANJI_NO_CACHE", "0"), ("JUMANJI_CACHE_CAP", "lots")];
        let spec = resolve(new(), &lenient, &["fig13"]).expect("valid");
        assert!(!spec.no_cache);
        assert_eq!(spec.cache_cap_bytes, None);
        let spec = resolve(new(), &[("JUMANJI_NO_CACHE", "")], &["fig13"]).expect("valid");
        assert!(!spec.no_cache);

        // CLI --no-cache is a bare flag; --cache-dir and
        // --cache-cap-bytes stay strict.
        let spec = resolve(new(), &[], &["fig13", "--no-cache"]).expect("valid");
        assert!(spec.no_cache);
        for args in [
            &["fig13", "--cache-dir"][..],
            &["fig13", "--cache-dir", "--mixes", "2"],
            &["fig13", "--cache-cap-bytes", "lots"],
        ] {
            let err = resolve(new(), &[], args).expect_err("missing or bad value");
            assert!(err.is_usage(), "{args:?}");
        }
    }

    #[test]
    fn env_fills_in_under_the_cli() {
        let env = env_of(&[
            ("JUMANJI_MIXES", "3"),
            ("JUMANJI_THREADS", "x"),
            ("JUMANJI_TRACE", "/from/env.jsonl"),
        ]);
        let spec = ExperimentSpec::new(FigureKind::Fig13)
            .with_env(&env)
            .with_args(&argv(&["fig13", "--trace", "/from/cli.jsonl"]))
            .expect("valid");
        // Env mixes apply, the unparseable thread count falls through to
        // the default, and the CLI trace path wins.
        assert_eq!(spec.mixes, 3);
        assert_eq!(spec.threads, ExperimentSpec::new(FigureKind::Fig13).threads);
        assert_eq!(
            spec.trace.as_deref(),
            Some(std::path::Path::new("/from/cli.jsonl"))
        );
        let spec = ExperimentSpec::new(FigureKind::Fig13)
            .with_env(&env)
            .with_args(&argv(&["fig13", "--mixes", "5"]))
            .expect("valid");
        assert_eq!(spec.mixes, 5);
    }

    #[test]
    fn flag_text_accepts_equals_form() {
        let args = argv(&["prog", "--mixes=7", "--threads=3"]);
        assert_eq!(flag_text(&args, "--mixes").unwrap().as_deref(), Some("7"));
        assert_eq!(flag_text(&args, "--threads").unwrap().as_deref(), Some("3"));
        assert_eq!(flag_text(&args, "--other").unwrap(), None);
        // An empty value is a usage error, not an absent flag.
        let err = flag_text(&argv(&["prog", "--mixes="]), "--mixes").expect_err("empty value");
        assert!(err.is_usage());
        // A longer flag sharing the prefix must not match.
        let args = argv(&["prog", "--mixes-per-run=9"]);
        assert_eq!(flag_text(&args, "--mixes").unwrap(), None);
        // Values containing '=' survive intact.
        let args = argv(&["prog", "--out=a=b"]);
        assert_eq!(flag_text(&args, "--out").unwrap().as_deref(), Some("a=b"));
    }

    #[test]
    fn flag_text_first_occurrence_wins_across_forms() {
        let args = argv(&["prog", "--mixes=5", "--mixes", "9"]);
        assert_eq!(flag_text(&args, "--mixes").unwrap().as_deref(), Some("5"));
        let args = argv(&["prog", "--mixes", "9", "--mixes=5"]);
        assert_eq!(flag_text(&args, "--mixes").unwrap().as_deref(), Some("9"));
    }

    #[test]
    fn builder_cache_controls_set_fields() {
        let spec = ExperimentSpec::new(FigureKind::Fig14)
            .cache_dir("/tmp/cells")
            .no_cache();
        assert_eq!(
            spec.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/cells"))
        );
        assert!(spec.no_cache);
        let spec = ExperimentSpec::new(FigureKind::Fig14);
        assert!(spec.cache_dir.is_none() && !spec.no_cache);
    }

    #[test]
    fn from_name_round_trips_every_kind() {
        for kind in FigureKind::all() {
            assert_eq!(FigureKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FigureKind::from_name("fig99"), None);
        assert_eq!(FigureKind::from_name(""), None);
    }

    #[test]
    fn unrecognized_arguments_are_ignored() {
        let spec =
            ExperimentSpec::from_args(FigureKind::Fig14, &argv(&["fig14", "--unknown", "5"]))
                .expect("unknown flags ignored");
        assert_eq!(spec.mixes, 8);
    }

    #[test]
    fn kind_names_are_unique_and_match_binaries() {
        let mut names: Vec<&str> = FigureKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 18);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "duplicate binary name");
    }
}
