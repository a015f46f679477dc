//! One-process suite runner: plans every requested figure, unions the
//! plans into one deduplicated work graph, executes it on a
//! work-stealing pool, and streams each figure's TSV the moment its last
//! cell completes (see [`jumanji_bench::suite`]).
//!
//! fig13 and fig14 run the *same* experiment matrix and differ only in
//! rendering; the sensitivity study's default rows duplicate the
//! main-results cells; the ablation re-runs case-study seeds. The work
//! graph computes each unique cell exactly once *before* any figure
//! renders — with byte-identical TSVs at every thread count, enforced by
//! the golden tests, `tests/sched_identity.rs`, and `scripts/verify.sh`.
//!
//! Usage:
//!
//! ```text
//! suite [--figures all|fig13,fig14,…] [--out DIR] [--stats PATH]
//!       [--mixes N] [--threads N] [--seed N] [--accesses N]
//!       [--trace PATH] [--no-cache] [--cache-dir DIR]
//!       [--cache-cap-bytes N]
//! ```
//!
//! - `--figures` — comma-separated [`FigureKind`] names, or `all` for
//!   all 18 in figure order (also the default). Repeats are deduplicated
//!   silently.
//! - `--out DIR` — write each figure to `DIR/<name>.tsv` (created if
//!   missing) instead of concatenating everything to stdout.
//! - `--stats PATH` — write a JSON cache/scheduler statistics report.
//! - `--mixes` / `--threads` / `--seed` / `--accesses` — forwarded to
//!   every figure exactly as the standalone binaries resolve them
//!   (CLI beats `JUMANJI_*` env beats the per-figure default).
//!   `--threads` also sizes the work-stealing pool.
//! - `--trace PATH` — one shared JSONL sink for the whole suite (also
//!   honours `JUMANJI_TRACE`); the scheduler emits each unique cell's
//!   event stream exactly once.
//! - `--no-cache` — disable the shared cache and any store (also
//!   honours `JUMANJI_NO_CACHE`): the work graph is skipped and every
//!   planned lookup computes fresh, serially, in the gather step (the
//!   reference run that exposes key collisions).
//! - `--cache-dir DIR` — back the cache with a persistent store (also
//!   honours `JUMANJI_CACHE_DIR`): completed cells — analytic runs *and*
//!   detailed-simulator reports — are read from and written to `DIR`, so
//!   a second suite run — or a standalone figure binary pointed at the
//!   same directory — starts warm.
//! - `--cache-cap-bytes N` — bound the persistent store (also honours
//!   `JUMANJI_CACHE_CAP`): oldest cells are evicted first once the
//!   store exceeds `N` bytes (0 = unbounded, the default).
//!
//! Every flag is parsed strictly before any file, directory or store is
//! opened: a flag missing its value exits 2 and touches nothing.
//! Per-figure timing and cache-delta lines go to stderr; exit codes match
//! the figure binaries (usage → 2, runtime → 1).

use jumanji::telemetry::{Event, JsonlSink, NoopSink, Telemetry};
use jumanji::types::Error;
use jumanji_bench::cell_cache::{CellCache, CellCacheStats};
use jumanji_bench::spec::flag_text;
use jumanji_bench::suite::{run_suite, SchedReport, SuiteFigure};
use jumanji_bench::{ExperimentSpec, FigureKind};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// One figure's timing and cache-delta report.
struct FigureReport {
    name: &'static str,
    seconds: f64,
    computed: u64,
    reused: u64,
}

/// The figures to run: `--figures a,b,c` with `all` as shorthand for
/// the full 18-figure sweep (also the default). Repeated names are
/// deduplicated silently — the work graph would dedupe their cells
/// anyway, and rendering the same figure twice in one suite is never
/// what the caller meant.
fn parse_figures(args: &[String]) -> Result<Vec<FigureKind>, Error> {
    let Some(list) = flag_text(args, "--figures")? else {
        return Ok(FigureKind::all().to_vec());
    };
    let mut out = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        if name == "all" {
            for kind in FigureKind::all() {
                if !out.contains(&kind) {
                    out.push(kind);
                }
            }
            continue;
        }
        let kind = FigureKind::from_name(name)
            .ok_or_else(|| Error::flag("--figures", format!("unknown figure `{name}`")))?;
        if !out.contains(&kind) {
            out.push(kind);
        }
    }
    Ok(out)
}

fn cells_of(stats: &CellCacheStats) -> (u64, u64) {
    (
        stats.runs.misses + stats.details.misses,
        stats.runs.hits + stats.details.hits,
    )
}

fn write_stats(
    path: &PathBuf,
    reports: &[FigureReport],
    total_seconds: f64,
    stats: &CellCacheStats,
    sched: Option<&SchedReport>,
) -> std::io::Result<()> {
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    let (computed, reused) = cells_of(stats);
    let lookups = computed + reused;
    let reuse_rate = if lookups == 0 {
        0.0
    } else {
        reused as f64 / lookups as f64
    };
    writeln!(f, "{{")?;
    writeln!(f, "  \"figures\": [")?;
    for (i, r) in reports.iter().enumerate() {
        writeln!(
            f,
            "    {{\"name\": \"{}\", \"seconds\": {:.3}, \"computed\": {}, \"reused\": {}}}{}",
            r.name,
            r.seconds,
            r.computed,
            r.reused,
            if i + 1 < reports.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"total_seconds\": {total_seconds:.3},")?;
    writeln!(f, "  \"cells_computed\": {computed},")?;
    writeln!(f, "  \"cells_reused\": {reused},")?;
    writeln!(f, "  \"cell_reuse_rate\": {reuse_rate:.4},")?;
    writeln!(
        f,
        "  \"experiments\": {{\"hits\": {}, \"misses\": {}}},",
        stats.experiments.hits, stats.experiments.misses
    )?;
    writeln!(
        f,
        "  \"allocs\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},",
        stats.allocs.hits, stats.allocs.misses, stats.allocs.entries
    )?;
    writeln!(
        f,
        "  \"details\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},",
        stats.details.hits, stats.details.misses, stats.details.entries
    )?;
    writeln!(
        f,
        "  \"hulls\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}}{}",
        stats.hulls.hits,
        stats.hulls.misses,
        stats.hulls.entries,
        if sched.is_some() || stats.disk.is_some() {
            ","
        } else {
            ""
        }
    )?;
    if let Some(s) = sched {
        let comma = if stats.disk.is_some() { "," } else { "" };
        writeln!(f, "  \"sched\": {{")?;
        writeln!(f, "    \"planned_runs\": {},", s.planned_runs)?;
        writeln!(f, "    \"planned_details\": {},", s.planned_details)?;
        writeln!(f, "    \"nodes\": {},", s.nodes)?;
        writeln!(f, "    \"edges\": {},", s.edges)?;
        writeln!(f, "    \"workers\": {},", s.graph.workers)?;
        writeln!(f, "    \"steals\": {},", s.graph.steals)?;
        writeln!(f, "    \"critical_path_us\": {},", s.graph.critical_path_us)?;
        writeln!(f, "    \"elapsed_us\": {},", s.graph.elapsed_us)?;
        writeln!(f, "    \"computed_runs\": {},", s.computed_runs)?;
        writeln!(f, "    \"disk_run_hits\": {},", s.disk_run_hits)?;
        writeln!(f, "    \"detail_computed\": {},", s.detail_computed)?;
        writeln!(f, "    \"detail_disk_hits\": {},", s.detail_disk_hits)?;
        writeln!(f, "    \"warm_skipped_exps\": {},", s.warm_skipped_exps)?;
        writeln!(f, "    \"cost_drift\": [")?;
        for (i, d) in s.drift.iter().enumerate() {
            writeln!(
                f,
                "      {{\"design\": \"{}\", \"prior\": {:.3}, \"measured\": {:.3}, \
                 \"samples\": {}}}{}",
                d.design,
                d.prior,
                d.measured,
                d.samples,
                if i + 1 < s.drift.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "    ]")?;
        writeln!(f, "  }}{comma}")?;
    }
    if let Some(d) = &stats.disk {
        writeln!(f, "  \"disk_cache\": {{")?;
        writeln!(f, "    \"hits\": {},", d.hits)?;
        writeln!(f, "    \"misses\": {},", d.misses)?;
        writeln!(f, "    \"writes\": {},", d.writes)?;
        writeln!(f, "    \"evictions\": {},", d.evictions)?;
        writeln!(f, "    \"corrupt_dropped\": {}", d.corrupt_dropped)?;
        writeln!(f, "  }}")?;
    }
    writeln!(f, "}}")?;
    f.flush()
}

fn run(args: &[String]) -> Result<(), Error> {
    // Parse everything first: nothing below may open a file, directory
    // or store on behalf of a flag that turns out to be malformed.
    let figures = parse_figures(args)?;
    let out_dir = flag_text(args, "--out")?.map(PathBuf::from);
    let stats_path = flag_text(args, "--stats")?.map(PathBuf::from);
    let mut specs = figures
        .iter()
        .map(|&kind| ExperimentSpec::from_args_env(kind))
        .collect::<Result<Vec<_>, Error>>()?;
    // Every spec resolved the same shared knobs from the same argv and
    // environment; the first one speaks for the suite.
    let first = specs[0].clone();
    let threads = first.threads;
    // The suite owns telemetry (one shared sink, so figures append
    // instead of truncating each other's streams) and rendering.
    for spec in &mut specs {
        spec.trace = None;
        spec.telemetry = None;
    }

    first.apply_cache();
    let sink = match &first.trace {
        Some(path) => Some(Arc::new(JsonlSink::create(path)?)),
        None => None,
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let tel: &dyn Telemetry = match &sink {
        Some(s) => s.as_ref(),
        None => &NoopSink,
    };

    let cache = CellCache::global();
    let mut reports = Vec::with_capacity(specs.len());
    let mut emit = |fig: SuiteFigure| -> Result<(), Error> {
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.tsv", fig.kind.name()));
            std::fs::write(&path, &fig.bytes)?;
        } else {
            let stdout = std::io::stdout();
            stdout.lock().write_all(&fig.bytes)?;
        }
        let report = FigureReport {
            name: fig.kind.name(),
            seconds: fig.seconds,
            computed: fig.computed,
            reused: fig.reused,
        };
        eprintln!(
            "[suite] {}: {:.2}s ({} cells computed, {} reused)",
            report.name, report.seconds, report.computed, report.reused
        );
        reports.push(report);
        Ok(())
    };
    let summary = run_suite(&specs, threads, tel, &mut emit)?;
    let total_seconds = summary.total_seconds;

    let stats = cache.stats();
    let (computed, reused) = cells_of(&stats);
    let lookups = computed + reused;
    let reuse_pct = if lookups == 0 {
        0.0
    } else {
        100.0 * reused as f64 / lookups as f64
    };
    eprintln!(
        "[suite] total {:.2}s; cells: {} computed, {} reused ({:.1}% reuse); \
         hulls: {} computed, {} reused",
        total_seconds, computed, reused, reuse_pct, stats.hulls.misses, stats.hulls.hits
    );
    if let Some(s) = &summary.sched {
        eprintln!(
            "[suite] sched: {} nodes ({} planned runs, {} planned detail cells), \
             {} edges, {} workers, {} steals, critical path {:.2}s of {:.2}s",
            s.nodes,
            s.planned_runs,
            s.planned_details,
            s.edges,
            s.graph.workers,
            s.graph.steals,
            s.graph.critical_path_us as f64 / 1e6,
            s.graph.elapsed_us as f64 / 1e6
        );
        if stats.disk.is_some() {
            eprintln!(
                "[suite] sched: {} runs computed, {} served from disk, \
                 {} experiment constructions skipped warm",
                s.computed_runs, s.disk_run_hits, s.warm_skipped_exps
            );
            eprintln!(
                "[suite] sched: {} detail cells computed, {} served from disk",
                s.detail_computed, s.detail_disk_hits
            );
        }
        for d in &s.drift {
            eprintln!(
                "[suite] cost drift: {} prior {:.2} measured {:.2} ({} samples)",
                d.design, d.prior, d.measured, d.samples
            );
        }
    }
    if let Some(d) = &stats.disk {
        eprintln!(
            "[suite] disk cache: {} hits, {} misses, {} writes, \
             {} evictions, {} corrupt dropped",
            d.hits, d.misses, d.writes, d.evictions, d.corrupt_dropped
        );
    }

    if let Some(sink) = &sink {
        for (scope, m) in [
            ("runs", stats.runs),
            ("details", stats.details),
            ("experiments", stats.experiments),
            ("allocs", stats.allocs),
            ("hulls", stats.hulls),
        ] {
            sink.emit(&Event::CacheStats {
                scope,
                hits: m.hits,
                misses: m.misses,
                entries: m.entries,
            });
        }
        if let Some(d) = &stats.disk {
            sink.emit(&Event::DiskCacheStats {
                hits: d.hits,
                misses: d.misses,
                writes: d.writes,
                evictions: d.evictions,
                corrupt_dropped: d.corrupt_dropped,
            });
        }
        sink.flush()?;
    }
    if let Some(path) = &stats_path {
        write_stats(
            path,
            &reports,
            total_seconds,
            &stats,
            summary.sched.as_ref(),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let result = run(&args);
    // Persist on every exit path: cells computed before a failure stay
    // warm for the next process.
    jumanji_bench::cell_cache::persist_global_disk();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(if e.is_usage() { 2 } else { 1 })
        }
    }
}
