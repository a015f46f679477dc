//! Figure renderers: one pure function per figure/table/study, each
//! writing the same TSV the original standalone binary printed.
//!
//! Every figure is a plan plus a renderer. The plan ([`plan::of`])
//! names the cells the figure reads; the suite
//! ([`run_suite`](crate::suite::run_suite)) computes them and reads them
//! back, in plan order, into [`CompletedCells`]; [`render`] turns those
//! into TSV. A renderer never reaches the cell cache, telemetry, the
//! worker pool or `spec.threads`: its output is a function of the spec
//! and its completed cells, so it is byte-identical at every thread
//! count and in every execution mode. jumanji-lint's `plan-bypass` rule
//! forbids naming `CellCache` anywhere under this directory.
//!
//! The figures with nothing to plan (the closed-form fig08, the attack
//! demos fig11/fig12, the config tables) compute their fixed scenarios
//! inline.
//!
//! Output contract: at a figure's default spec, the bytes written to
//! `out` are identical to the pre-spec binaries (the golden TSVs under
//! `results/` enforce this in CI). Human-facing summaries that were on
//! stderr stay on stderr.

use crate::spec::{ExperimentSpec, FigureKind};
use jumanji::prelude::*;
use jumanji::sim::detail::DetailReport;
use jumanji::types::Error;
use std::io::Write;
use std::sync::Arc;

mod attacks;
mod case_study;
mod main_results;
// The plan lives outside this directory: it is the one part of the
// figure pipeline allowed to name the cell cache (see its module docs).
#[path = "../plan.rs"]
pub mod plan;
mod scaling;
mod studies;
mod tables;
mod validate;

/// A figure's plan with every planned cell completed: the whole input of
/// a renderer.
#[derive(Debug, Clone)]
pub struct CompletedCells {
    /// The plan the cells were read for.
    pub plan: plan::FigurePlan,
    /// Per analytic cell of the plan, one result per planned design, in
    /// `plan.cells[i].designs` order.
    pub runs: Vec<Vec<Arc<ExperimentResult>>>,
    /// Per detailed cell of the plan, its report.
    pub details: Vec<Arc<DetailReport>>,
}

impl CompletedCells {
    /// The result of `design` on analytic cell `cell`.
    ///
    /// # Panics
    ///
    /// When the plan did not name `design` on that cell: a renderer
    /// reading a cell its plan never listed is a bug, not a recompute.
    pub fn run(&self, cell: usize, design: DesignKind) -> &ExperimentResult {
        let at = self.plan.cells[cell]
            .designs
            .iter()
            .position(|&d| d == design)
            .unwrap_or_else(|| panic!("cell {cell} of the plan does not run {design}"));
        &self.runs[cell][at]
    }
}

/// Renders `spec.kind` from its completed cells to `out`.
///
/// # Errors
///
/// Usage errors for bad spec contents, runtime errors for I/O failures.
pub fn render(
    spec: &ExperimentSpec,
    cells: &CompletedCells,
    out: &mut dyn Write,
) -> Result<(), Error> {
    match spec.kind {
        FigureKind::Fig02 => case_study::fig02(cells, out),
        FigureKind::Fig04 => case_study::fig04(spec, cells, out),
        FigureKind::Fig05 => case_study::fig05(spec, cells, out),
        FigureKind::Fig08 => case_study::fig08(out),
        FigureKind::Fig09 => case_study::fig09(spec, cells, out),
        FigureKind::Fig11 => attacks::fig11(out),
        FigureKind::Fig12 => attacks::fig12(out),
        FigureKind::Fig13 => main_results::fig13(spec, cells, out),
        FigureKind::Fig14 => main_results::fig14(spec, cells, out),
        FigureKind::Fig15 => main_results::fig15(spec, cells, out),
        FigureKind::Fig16 => main_results::fig16(spec, cells, out),
        FigureKind::Fig17 => scaling::fig17(spec, cells, out),
        FigureKind::Fig18 => scaling::fig18(spec, cells, out),
        FigureKind::Table2 => tables::table2(out),
        FigureKind::Table3 => tables::table3(out),
        FigureKind::Ablation => studies::ablation(spec, cells, out),
        FigureKind::Sensitivity => studies::sensitivity(spec, cells, out),
        FigureKind::Validate => validate::validate(spec, cells, out),
    }
}

/// Jumanji's per-cell batch speedups over the Static baseline, and its
/// worst normalized tail, across plan cells `range`.
fn jumanji_vs_static(cells: &CompletedCells, range: std::ops::Range<usize>) -> (Vec<f64>, f64) {
    let mut speedups = Vec::new();
    let mut worst_tail = 0.0f64;
    for i in range {
        let r = cells.run(i, DesignKind::Jumanji);
        speedups.push(r.weighted_speedup_vs(cells.run(i, DesignKind::Static)));
        worst_tail = worst_tail.max(r.max_norm_tail());
    }
    (speedups, worst_tail)
}

/// Display label for a load level.
fn load_label(load: LcLoad) -> &'static str {
    match load {
        LcLoad::High => "high",
        LcLoad::Low => "low",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spec_to;
    use jumanji::telemetry::RecordingSink;

    /// Renders `kind` at minimum cost into a buffer and sanity-checks it.
    fn smoke(kind: FigureKind, mixes: usize) -> String {
        let spec = ExperimentSpec::new(kind)
            .mixes(mixes)
            .threads(2)
            .accesses(2_000);
        let mut buf = Vec::new();
        run_spec_to(&spec, &mut buf).expect("figure renders");
        let text = String::from_utf8(buf).expect("valid utf-8");
        assert!(
            text.starts_with('#'),
            "{}: output must open with a comment header",
            kind.name()
        );
        assert!(
            text.ends_with('\n'),
            "{}: output must end with a newline",
            kind.name()
        );
        assert!(text.lines().count() >= 3, "{}: too few lines", kind.name());
        text
    }

    #[test]
    fn cheap_figures_render_well_formed_tsv() {
        // The figures that finish quickly even in debug builds; the full
        // 18-figure sweep runs under JUMANJI_SMOKE_ALL=1 (CI does this in
        // release mode via scripts/verify.sh).
        let tables = smoke(FigureKind::Table2, 1);
        assert!(tables.contains("parameter\tvalue"));
        let t3 = smoke(FigureKind::Table3, 1);
        assert!(t3.contains("deadline_ms"));
        let f8 = smoke(FigureKind::Fig08, 1);
        assert!(f8.contains("alloc_mb\tsnuca_p95_ms\tdnuca_p95_ms"));
        let f5 = smoke(FigureKind::Fig05, 1);
        // One data row per design in the default list.
        let rows = f5
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("design"))
            .count();
        assert_eq!(rows, FigureKind::Fig05.default_designs().len());
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // opt-in smoke sweep reads its own gate
    fn every_figure_renders_at_mixes_1_when_enabled() {
        if std::env::var_os("JUMANJI_SMOKE_ALL").is_none() {
            eprintln!("set JUMANJI_SMOKE_ALL=1 to sweep all 18 figures");
            return;
        }
        for kind in FigureKind::all() {
            smoke(kind, 1);
        }
    }

    #[test]
    fn trace_sink_sees_a_whole_figure_run() {
        // A standalone figure runs plan → schedule → render: the
        // scheduler computes the baseline plus four designs once each
        // and the sink sees one RunSummary per run plus the
        // per-interval controller stream, without changing the bytes.
        let spec = ExperimentSpec::new(FigureKind::Fig05).threads(2);
        let mut plain = Vec::new();
        run_spec_to(&spec, &mut plain).expect("renders");
        let sink = Arc::new(RecordingSink::new());
        let mut traced = Vec::new();
        run_spec_to(&spec.clone().telemetry(sink.clone()), &mut traced).expect("renders");
        assert_eq!(plain, traced, "telemetry must not perturb figure output");
        let events = sink.events();
        let summaries = events
            .iter()
            .filter(|e| matches!(e, Event::RunSummary { .. }))
            .count();
        assert_eq!(summaries, 1 + spec.designs.len());
        assert!(events.iter().any(|e| matches!(e, Event::Controller { .. })));
    }
}
