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
//! already there) and (b) the scheduler computed exactly as many run
//! cells as the sequential path does (no spurious work).
//!
//! Runs in its own process (one integration-test binary, one `#[test]`)
//! so clearing the global cache cannot perturb other tests. The cheap
//! figures always run; the full-matrix figures (13–16, sensitivity) are
//! gated behind `JUMANJI_SUITE_GOLDEN=1` — `scripts/verify.sh` sets it.

// Test gates read their own opt-in env switches; never fingerprinted output.
#![allow(clippy::disallowed_methods)]

use jumanji::telemetry::NoopSink;
use jumanji_bench::cell_cache::CellCache;
use jumanji_bench::suite::run_suite;
use jumanji_bench::{ExperimentSpec, FigureKind};

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

        cache.clear();
        let mut rendered = Vec::new();
        run_suite(&specs, 2, false, &NoopSink, &mut |fig| {
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

        cache.clear();
        run_suite(&specs, 2, true, &NoopSink, &mut |_| Ok(())).expect("sequential suite runs");
        let stats = cache.stats();
        let sequential_misses = stats.runs.misses + stats.details.misses;
        assert_eq!(
            scheduled_misses, sequential_misses,
            "{}: scheduled path computed {scheduled_misses} run cells, sequential {sequential_misses}",
            kind.name()
        );
    }
}
