//! Cross-validation of the two simulator layers: for each application,
//! the analytic epoch model's miss ratio and hop distance vs. the
//! detailed execution-driven simulation of the same allocation.

use super::CompletedCells;
use crate::spec::ExperimentSpec;
use jumanji::sim::perf::{evaluate, Profile};
use jumanji::types::Error;
use std::io::Write;

/// Analytic-vs-detailed cross-validation over `(design, mix)` cells.
///
/// The plan holds one detailed cell per `(design, mix)`, design-major;
/// each carries the allocation, profiles and core pinning the analytic
/// model evaluates here for comparison.
pub fn validate(
    spec: &ExperimentSpec,
    cells: &CompletedCells,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Analytic vs detailed simulation, per app, {mixes} mixes, two designs"
    )?;
    writeln!(
        out,
        "design\tmix\tapp\tcap_mb\tmr_analytic\tmr_detailed\thops_analytic\thops_detailed"
    )?;
    for (idx, (cell, detail)) in cells.plan.details.iter().zip(&cells.details).enumerate() {
        let mix = idx % mixes;
        let rates: Vec<f64> = cell
            .profiles
            .iter()
            .map(|p| match p {
                Profile::Batch(b) => 1.5e9 * b.llc_apki / 1000.0,
                Profile::Lc(l, load) => l.qps(*load) * l.accesses_per_req,
            })
            .collect();
        let analytic = evaluate(
            &cell.opts.cfg,
            &cell.profiles,
            &cell.cores,
            &cell.alloc,
            &rates,
        );
        for (i, profile) in cell.profiles.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{:.2}\t{:.3}\t{:.3}\t{:.2}\t{:.2}",
                cell.design,
                mix,
                profile.name(),
                analytic[i].capacity_bytes / 1048576.0,
                analytic[i].miss_ratio,
                detail.apps[i].miss_ratio(),
                analytic[i].avg_hops,
                detail.apps[i].avg_hops(),
            )?;
        }
        writeln!(
            out,
            "# {} mix {}: VM-isolated in real cache state: {}",
            cell.design,
            mix,
            detail.vm_isolated(&cell.vms)
        )?;
    }
    writeln!(
        out,
        "# expected: columns agree within coarse tolerance; Jumanji isolated, Adaptive not."
    )?;
    Ok(())
}
