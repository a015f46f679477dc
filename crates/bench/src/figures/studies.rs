//! Reproduction studies beyond the paper's figures: the design-choice
//! ablation and the modeling-constant sensitivity sweep.

use super::plan::sensitivity_labels;
use super::CompletedCells;
use crate::spec::ExperimentSpec;
use jumanji::core::jumanji_with_trades;
use jumanji::prelude::*;
use jumanji::sim::metrics::gmean;
use jumanji::types::Error;
use std::io::Write;

/// Ablation study of Jumanji's design choices (DESIGN.md §"ablations"):
///
/// 1. **Trade refinement** (Sec. V-D): Jumanji + the trade pass vs plain
///    Jumanji — reproduces the paper's negative result (trades are rare
///    and gains marginal).
/// 2. **Bank isolation** (Sec. VI-D): Jumanji vs Insecure — what the
///    security guarantee costs.
/// 3. **Greedy LC placement** (Sec. VIII-C): Jumanji vs Ideal Batch —
///    what the simple LatCritPlacer leaves on the table.
/// 4. **Controller panic** (Sec. V-C): paper controller vs one with the
///    panic disabled — why the boost matters for tails.
///
/// Parts 2–4 read two plan cells per seed: the case-study mix under the
/// paper's controller (cell `2 * seed`), then under the panic-disabled
/// one (cell `2 * seed + 1`).
pub fn ablation(
    spec: &ExperimentSpec,
    cells: &CompletedCells,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;

    // 1. Trade refinement on static placement problems.
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let base = DesignKind::Jumanji.allocate(&input);
    let (traded, stats) = jumanji_with_trades(&input);
    let avg_batch_dist = |alloc: &jumanji::core::Allocation| -> f64 {
        let batch: Vec<_> = input
            .apps
            .iter()
            .filter(|a| a.kind == jumanji::core::AppKind::Batch)
            .collect();
        batch
            .iter()
            .map(|a| alloc.avg_distance(&input, a.id))
            .sum::<f64>()
            / batch.len() as f64
    };
    writeln!(out, "# Ablation 1: trade-based refinement (paper Sec. V-D)")?;
    writeln!(
        out,
        "trades\taccepted {}/{} candidates",
        stats.accepted, stats.attempted
    )?;
    writeln!(
        out,
        "trades\tbatch avg distance: {:.3} hops -> {:.3} hops",
        avg_batch_dist(&base),
        avg_batch_dist(&traded)
    )?;
    writeln!(
        out,
        "# expected: few accepts, marginal distance change (the paper omitted trades).\n"
    )?;

    // 2-3. Isolation and ideality costs over random mixes.
    let speedup = |seed: usize, design: DesignKind| {
        cells
            .run(2 * seed, design)
            .weighted_speedup_vs(cells.run(2 * seed, DesignKind::Static))
    };
    let per_seed: Vec<(f64, f64, f64)> = (0..mixes)
        .map(|seed| {
            (
                speedup(seed, DesignKind::Jumanji),
                speedup(seed, DesignKind::JumanjiInsecure),
                speedup(seed, DesignKind::JumanjiIdealBatch),
            )
        })
        .collect();
    let jumanji_s: Vec<f64> = per_seed.iter().map(|r| r.0).collect();
    let insecure_s: Vec<f64> = per_seed.iter().map(|r| r.1).collect();
    let ideal_s: Vec<f64> = per_seed.iter().map(|r| r.2).collect();
    writeln!(
        out,
        "# Ablation 2-3: isolation and greedy-placement costs ({mixes} mixes)"
    )?;
    writeln!(
        out,
        "isolation\tjumanji {:+.2}% vs insecure {:+.2}% (cost {:.2} pp)",
        (gmean(&jumanji_s) - 1.0) * 100.0,
        (gmean(&insecure_s) - 1.0) * 100.0,
        (gmean(&insecure_s) - gmean(&jumanji_s)) * 100.0
    )?;
    writeln!(
        out,
        "greedy-lc\tjumanji {:+.2}% vs ideal {:+.2}% (gap {:.2} pp)",
        (gmean(&jumanji_s) - 1.0) * 100.0,
        (gmean(&ideal_s) - 1.0) * 100.0,
        (gmean(&ideal_s) - gmean(&jumanji_s)) * 100.0
    )?;
    writeln!(
        out,
        "# expected: isolation cost < ~3 pp, ideality gap < ~2 pp (Fig. 16).\n"
    )?;

    // 4. Panic ablation: raise the threshold out of reach.
    let tails: Vec<(f64, f64)> = (0..mixes)
        .map(|seed| {
            (
                cells.run(2 * seed, DesignKind::Jumanji).max_norm_tail(),
                cells.run(2 * seed + 1, DesignKind::Jumanji).max_norm_tail(),
            )
        })
        .collect();
    let with_t = tails.iter().map(|t| t.0).fold(0.0f64, f64::max);
    let without_t = tails.iter().map(|t| t.1).fold(0.0f64, f64::max);
    writeln!(out, "# Ablation 4: controller panic boost")?;
    writeln!(
        out,
        "panic\tworst norm tail with panic: {with_t:.2}, without: {without_t:.2}"
    )?;
    writeln!(
        out,
        "# expected: disabling the panic worsens worst-case tails (queueing spikes"
    )?;
    writeln!(out, "# otherwise recover one 10% step per 100 ms).")?;
    Ok(())
}

struct Row {
    label: String,
    jumanji_speedup: f64,
    jigsaw_speedup: f64,
    adaptive_speedup: f64,
    jumanji_tail: f64,
    jigsaw_tail: f64,
}

/// Robustness of the reproduction's conclusions to its modeling
/// constants.
///
/// The workload models involve calibrated constants the paper's real
/// binaries fix implicitly (the pointer-chasing miss-serialization
/// factor, simulated horizon, reconfiguration period, RNG seeds). This
/// sweep shows the *qualitative* conclusions — Jumanji meets deadlines
/// near Jigsaw's batch speedup while Jigsaw violates and S-NUCA designs
/// gain nothing — hold across those choices.
pub fn sensitivity(
    spec: &ExperimentSpec,
    cells: &CompletedCells,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let n = spec.mixes;
    writeln!(
        out,
        "# Sensitivity of conclusions to modeling choices ({n} seeds each)"
    )?;
    writeln!(
        out,
        "knob\tvariant\tjumanji%\tjigsaw%\tadaptive%\tjumanji_tail\tjigsaw_tail"
    )?;
    // One plan cell per sweep job, labelled in the same order.
    let rows: Vec<Row> = sensitivity_labels(n)
        .into_iter()
        .enumerate()
        .map(|(i, label)| {
            let stat = cells.run(i, DesignKind::Static);
            let jumanji = cells.run(i, DesignKind::Jumanji);
            let jigsaw = cells.run(i, DesignKind::Jigsaw);
            let adaptive = cells.run(i, DesignKind::Adaptive);
            Row {
                label,
                jumanji_speedup: (jumanji.weighted_speedup_vs(stat) - 1.0) * 100.0,
                jigsaw_speedup: (jigsaw.weighted_speedup_vs(stat) - 1.0) * 100.0,
                adaptive_speedup: (adaptive.weighted_speedup_vs(stat) - 1.0) * 100.0,
                jumanji_tail: jumanji.max_norm_tail(),
                jigsaw_tail: jigsaw.max_norm_tail(),
            }
        })
        .collect();

    // Aggregate rows by label.
    let mut agg: Vec<(String, Vec<&Row>)> = Vec::new();
    for r in &rows {
        match agg.iter_mut().find(|(l, _)| *l == r.label) {
            Some((_, v)) => v.push(r),
            None => agg.push((r.label.clone(), vec![r])),
        }
    }
    let mut ok = true;
    for (label, group) in &agg {
        let mean = |f: fn(&Row) -> f64| -> f64 {
            group.iter().map(|r| f(r)).sum::<f64>() / group.len() as f64
        };
        let (ju, ji, ad) = (
            mean(|r| r.jumanji_speedup),
            mean(|r| r.jigsaw_speedup),
            mean(|r| r.adaptive_speedup),
        );
        let (jut, jit) = (mean(|r| r.jumanji_tail), mean(|r| r.jigsaw_tail));
        writeln!(
            out,
            "{label}\t{ju:.2}\t{ji:.2}\t{ad:.2}\t{jut:.2}\t{jit:.2}"
        )?;
        // The qualitative claims under every variant: Jumanji gains real
        // batch speedup while (roughly) meeting deadlines, Jigsaw gains
        // more but its mean worst-case tail violates the deadline, and
        // S-NUCA partitioning gains comparatively nothing. The Jigsaw
        // gate is a violation test (> 1.1), not a magnitude test: how far
        // past the deadline Jigsaw lands swings with the knobs (12.8x at
        // 4x miss-serialization, 1.2x at 2x), and that swing is expected.
        ok &= ju > 4.0 && ji > ju && ju > ad + 3.0 && jut < 1.5 && jit > 1.1;
    }
    writeln!(
        out,
        "# qualitative conclusions hold under every variant: {}",
        if ok {
            "YES"
        } else {
            "NO — inspect rows above"
        }
    )?;
    Ok(())
}
