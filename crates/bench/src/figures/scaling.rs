//! Scaling and sensitivity figures: VM-count scaling (Fig. 17) and NoC
//! router-delay sensitivity (Fig. 18).

use super::plan::FIG18_ROUTER_CYCLES;
use super::{jumanji_vs_static, CompletedCells};
use crate::spec::ExperimentSpec;
use jumanji::prelude::*;
use jumanji::sim::metrics::gmean;
use jumanji::types::Error;
use std::io::Write;

/// Fig. 17: Jumanji's batch speedup as the 20 applications are grouped
/// into 1 to 12 VMs (mixed latency-critical apps, high load).
pub fn fig17(
    spec: &ExperimentSpec,
    cells: &CompletedCells,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Fig. 17: Jumanji batch speedup vs number of VMs ({mixes} mixes, mixed LC, high load)"
    )?;
    writeln!(out, "config\tgmean_speedup_pct\tworst_norm_tail")?;
    // Each VM config owns `mixes` consecutive cells of the plan.
    for (c, (label, _)) in fig17_configs().iter().enumerate() {
        let (speedups, worst_tail) = jumanji_vs_static(cells, c * mixes..(c + 1) * mixes);
        writeln!(
            out,
            "{label}\t{:.2}\t{:.3}",
            (gmean(&speedups) - 1.0) * 100.0,
            worst_tail
        )?;
    }
    writeln!(
        out,
        "# expected: speedup roughly flat from 1 VM (~16%) to 12 VMs (~13%)."
    )?;
    Ok(())
}

/// Fig. 18: NoC sensitivity — Jumanji's batch speedup on random mixes as
/// router delay varies from 1 to 3 cycles.
pub fn fig18(
    spec: &ExperimentSpec,
    cells: &CompletedCells,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Fig. 18: Jumanji speedup vs router delay ({mixes} mixed-LC mixes, high load)"
    )?;
    writeln!(out, "router_cycles\tgmean_speedup_pct")?;
    // Each router delay owns `mixes` consecutive cells of the plan.
    for (r, router) in FIG18_ROUTER_CYCLES.iter().enumerate() {
        let (speedups, _) = jumanji_vs_static(cells, r * mixes..(r + 1) * mixes);
        writeln!(out, "{router}\t{:.2}", (gmean(&speedups) - 1.0) * 100.0)?;
    }
    writeln!(
        out,
        "# expected: speedup grows with router delay (paper: ~9% -> ~15% for 1 -> 3)."
    )?;
    Ok(())
}
