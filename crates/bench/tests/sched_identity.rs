//! Property test: the work-graph scheduler is invisible in the output.
//!
//! For random subsets of the plannable figures and random thread counts,
//! rendering through the scheduled path must produce byte-identical
//! TSVs to an independent reference: the same figures rendered with the
//! process-wide [`CellCache`] disabled, so every planned cell is computed
//! fresh and serially by the gather step instead of read back from the
//! cells the scheduler just cached. The scheduled run goes first with a
//! fresh spec seed, so the scheduler (not a warm cache) computes its
//! cells.
//!
//! This binary holds this one test, so disabling the global cache for
//! the reference run cannot perturb any other test.
//!
//! [`CellCache`]: jumanji_bench::cell_cache::CellCache

use jumanji::telemetry::NoopSink;
use jumanji_bench::cell_cache::CellCache;
use jumanji_bench::suite::run_suite;
use jumanji_bench::{ExperimentSpec, FigureKind};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Figures with a non-empty plan (the ones the scheduler can own) —
/// analytic matrices plus the two detailed-simulator studies.
const PLANNABLE: [FigureKind; 13] = [
    FigureKind::Fig02,
    FigureKind::Fig04,
    FigureKind::Fig05,
    FigureKind::Fig09,
    FigureKind::Fig13,
    FigureKind::Fig14,
    FigureKind::Fig15,
    FigureKind::Fig16,
    FigureKind::Fig17,
    FigureKind::Fig18,
    FigureKind::Ablation,
    FigureKind::Sensitivity,
    FigureKind::Validate,
];

/// Distinct spec seed per case so every case's cells start cold in the
/// process-wide cache.
static CASE_SEED: AtomicU64 = AtomicU64::new(40_000);

fn render_all(specs: &[ExperimentSpec], threads: usize) -> Vec<Vec<u8>> {
    let mut outputs = Vec::new();
    run_suite(specs, threads, &NoopSink, &mut |fig| {
        outputs.push(fig.bytes);
        Ok(())
    })
    .expect("suite runs");
    outputs
}

/// Disables the global cache until dropped, re-enabling it even when
/// the reference run panics.
struct CacheOff;

impl CacheOff {
    fn new() -> CacheOff {
        CellCache::global().set_enabled(false);
        CacheOff
    }
}

impl Drop for CacheOff {
    fn drop(&mut self) {
        CellCache::global().set_enabled(true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn scheduled_output_is_byte_identical_to_sequential(
        mask in 1u32..(1 << PLANNABLE.len()),
        threads_pick in 0usize..3,
    ) {
        let threads = [1, 2, 4][threads_pick];
        let seed = CASE_SEED.fetch_add(1, Ordering::Relaxed);
        let kinds: Vec<FigureKind> = PLANNABLE
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &k)| k)
            .take(3) // bound per-case cost; the mask still varies which
            .collect();
        let specs: Vec<ExperimentSpec> = kinds
            .iter()
            // The seed varies the analytic cells; accesses varies the
            // detailed ones (whose identity ignores the spec seed), so
            // each case's cells start cold.
            .map(|&k| {
                ExperimentSpec::new(k)
                    .mixes(1)
                    .threads(threads)
                    .seed(seed)
                    .accesses(4_000 + (seed as usize & 0xF))
            })
            .collect();
        // Scheduler first: its cells are cold, so the work graph (not
        // the warm cache) produces them.
        let scheduled = render_all(&specs, threads);
        let reference = {
            let _off = CacheOff::new();
            render_all(&specs, threads)
        };
        prop_assert_eq!(scheduled.len(), reference.len());
        for (i, (s, q)) in scheduled.iter().zip(&reference).enumerate() {
            prop_assert!(
                s == q,
                "figure {} differs between scheduled and uncached at {} threads",
                kinds[i].name(),
                threads
            );
        }
    }
}
