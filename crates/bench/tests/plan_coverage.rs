//! Pins the plan/schedule identity contract: for every plannable
//! figure, the work graph computes *exactly* the cells the figure's
//! gather step reads.
//!
//! Renderers read only the cells their plan names, so a plan can no
//! longer miss a cell silently; but a union or scheduler that dropped a
//! planned node would push the compute into the serial gather step, and
//! a plan with duplicate-keyed spurious cells would burn compute nobody
//! reads. Both escape the byte-identity tests — so this test runs each
//! figure through the scheduler against a cleared cache and asserts
//! (a) the gather step computed nothing (every cell it wanted was
//! already there) and (b) the scheduler computed exactly one cell per
//! distinct key the plan names (no spurious work).
//!
//! It also pins the uncached reference path: with the cache disabled,
//! (c) the gather step computes every planned lookup fresh — one per
//! lookup, none reused, no scheduler — so a cell two lookups share is
//! computed twice. That is what lets the reference run expose a
//! cache-key collision instead of deduplicating it away.
//!
//! Runs in its own process (one integration-test binary, one `#[test]`)
//! so clearing or disabling the global cache cannot perturb other tests.
//! The cheap figures always run; the full-matrix figures (13–16,
//! sensitivity) are gated behind `JUMANJI_SUITE_GOLDEN=1` —
//! `scripts/verify.sh` sets it.

// Test gates read their own opt-in env switches; never fingerprinted
// output. The key sets are Mix64Build-hashed, so deterministic.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use jumanji::telemetry::NoopSink;
use jumanji::types::hash::Mix64Build;
use jumanji_bench::cell_cache::{run_key, CellCache};
use jumanji_bench::figures::plan;
use jumanji_bench::suite::run_suite;
use jumanji_bench::{ExperimentSpec, FigureKind};
use std::collections::HashSet;

/// Disables the global cache until dropped, re-enabling it even when the
/// reference run panics.
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

/// Planned lookups (before deduplication) and distinct cell keys in
/// `plan`: design runs keyed by `run_key`, detailed cells by their own
/// key.
fn lookups_and_distinct(plan: &plan::FigurePlan) -> (u64, u64) {
    let mut runs: HashSet<u128, Mix64Build> = HashSet::default();
    let mut lookups = 0u64;
    for cell in &plan.cells {
        for &design in &cell.designs {
            lookups += 1;
            runs.insert(run_key(cell.experiment_key(), design));
        }
    }
    let details: HashSet<u128, Mix64Build> = plan.details.iter().map(|d| d.key()).collect();
    lookups += plan.details.len() as u64;
    (lookups, (runs.len() + details.len()) as u64)
}

#[test]
fn plans_cover_their_renders_exactly() {
    let mut plannable = vec![
        FigureKind::Fig02,
        FigureKind::Fig04,
        FigureKind::Fig05,
        FigureKind::Fig09,
        FigureKind::Fig17,
        FigureKind::Fig18,
        FigureKind::Ablation,
        FigureKind::Validate,
    ];
    if std::env::var_os("JUMANJI_SUITE_GOLDEN").is_some() {
        plannable.extend([
            FigureKind::Fig13,
            FigureKind::Fig14,
            FigureKind::Fig15,
            FigureKind::Fig16,
            FigureKind::Sensitivity,
        ]);
    } else {
        eprintln!("set JUMANJI_SUITE_GOLDEN=1 to cover the full-matrix figures");
    }
    let cache = CellCache::global();
    for &kind in &plannable {
        // Short detailed runs keep fig02/validate cheap; the analytic
        // figures ignore `accesses`.
        let specs = [ExperimentSpec::new(kind)
            .mixes(2)
            .threads(2)
            .accesses(4_000)];
        let (lookups, distinct) = lookups_and_distinct(&plan::of(&specs[0]).expect("plans"));

        cache.clear();
        let mut rendered = Vec::new();
        run_suite(&specs, 2, &NoopSink, &mut |fig| {
            rendered.push((fig.computed, fig.reused));
            Ok(())
        })
        .expect("scheduled suite runs");
        let stats = cache.stats();
        let scheduled_misses = stats.runs.misses + stats.details.misses;
        let (computed, reused) = rendered[0];
        assert_eq!(
            computed,
            0,
            "{}: the gather step computed {computed} cells the scheduler missed",
            kind.name()
        );
        assert!(
            reused > 0,
            "{}: the gather step read no cells at all",
            kind.name()
        );
        assert_eq!(
            scheduled_misses,
            distinct,
            "{}: scheduled path computed {scheduled_misses} cells, the plan names {distinct} \
             distinct keys",
            kind.name()
        );

        cache.clear();
        let mut rendered = Vec::new();
        let report = {
            let _off = CacheOff::new();
            run_suite(&specs, 2, &NoopSink, &mut |fig| {
                rendered.push((fig.computed, fig.reused));
                Ok(())
            })
            .expect("uncached suite runs")
        };
        assert!(
            report.sched.is_none(),
            "{}: the uncached reference ran the scheduler",
            kind.name()
        );
        assert_eq!(
            rendered,
            vec![(lookups, 0)],
            "{}: the uncached reference must compute each of its {lookups} planned lookups fresh",
            kind.name()
        );
    }
}
