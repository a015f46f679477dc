//! Experiment-execution engine.
//!
//! - [`sched`] — the dependency-aware work-graph scheduler every figure
//!   runs on (through [`run_suite`](crate::suite::run_suite)): per-worker
//!   deques, steal-half work stealing, long-pole-first ordering. It is
//!   the only place cells fan out across threads, and the only emitter
//!   of [`Event::WorkerSpan`](jumanji::telemetry::Event::WorkerSpan).
//! - [`thread_count`] / [`resolve_count`] / [`available_threads`] —
//!   worker-count resolution (`--threads N` beats `JUMANJI_THREADS`
//!   beats the machine's available parallelism).
//!
//! Determinism: every cell derives its RNG streams from its own inputs,
//! and results are read back in plan order, so output is byte-identical
//! no matter how many workers run or how the scheduler interleaves them.

// exec/ is the sanctioned timing layer and (with spec.rs) the JUMANJI_*
// config surface — lint.toml [paths] sanctions both; mirrored for clippy.
#![allow(clippy::disallowed_methods)]

pub mod sched;

/// Resolves a count knob with CLI-beats-env-beats-default precedence.
///
/// A present-but-unparseable source falls through to the next one, so a
/// typo degrades gracefully instead of silently meaning something else.
pub fn resolve_count(flag: Option<&str>, env: Option<&str>, default: usize) -> usize {
    flag.and_then(|v| v.parse().ok())
        .or_else(|| env.and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

/// The machine's available parallelism, at least 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of worker threads: `--threads N`, then `JUMANJI_THREADS`, then
/// the machine's available parallelism.
pub fn thread_count() -> usize {
    let args: Vec<String> = std::env::args().collect();
    resolve_count(
        crate::spec::flag_text(&args, "--threads")
            .ok()
            .flatten()
            .as_deref(),
        std::env::var("JUMANJI_THREADS").ok().as_deref(),
        available_threads(),
    )
    .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_count_precedence_flag_env_default() {
        assert_eq!(resolve_count(Some("4"), Some("9"), 2), 4);
        assert_eq!(resolve_count(None, Some("9"), 2), 9);
        assert_eq!(resolve_count(None, None, 2), 2);
        // Unparseable sources fall through.
        assert_eq!(resolve_count(Some("x"), Some("9"), 2), 9);
        assert_eq!(resolve_count(Some("x"), Some("y"), 2), 2);
    }
}
