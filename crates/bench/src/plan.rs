//! The figures' *plan* phase: enumerate a figure's experiment cells
//! without computing any of them.
//!
//! Every figure is a plan plus a pure renderer. [`of`] produces, for a
//! resolved [`ExperimentSpec`], the exact cell descriptors the figure
//! reads — analytic `(experiment, design)` cells ([`CellPlan`]) and
//! detailed-simulator cells ([`DetailPlan`]) — and this module is the
//! only place those cells are named. The suite
//! ([`run_suite`](crate::suite::run_suite)) unions the plans of many
//! figures into one deduplicated work graph, executes it, then reads
//! each figure's planned cells back through the
//! cell cache ([`crate::cell_cache::CellCache`]) once each, in plan
//! order, and hands them to the renderer as
//! [`CompletedCells`](crate::figures::CompletedCells). Renderers never
//! look a cell up themselves, so the plan and the render cannot drift
//! apart: a renderer sees exactly the cells listed here, in this order.
//!
//! The renderers index cells by position, so the layout helpers they
//! share with [`of`] — [`matrices`], [`fig09_cases`],
//! [`FIG18_ROUTER_CYCLES`], [`sensitivity_labels`], [`VALIDATE_DESIGNS`]
//! — live here too. Figures with nothing to pre-compute (the
//! closed-form fig08, the attack demos, the config tables) return an
//! empty plan and compute their fixed scenarios inline.
//!
//! This file sits outside `figures/` (it is mounted as `figures::plan`
//! by a `#[path]` attribute) because it is the one part of the figure
//! pipeline that may name the cell cache: the detailed plans resolve
//! their allocations through it. jumanji-lint's `plan-bypass` rule
//! forbids the name everywhere under `figures/`.
//!
//! Cost priors ([`experiment_cost`], [`run_cost`], [`detail_cost`]) feed
//! the scheduler's long-pole-first ordering. They are *relative* weights
//! calibrated once from measured run times (an analytic run costs about one
//! interval-unit per reconfiguration interval; placement-solving designs
//! cost more per interval; experiment construction about half a Static
//! run; a detailed cell about two interval-units per
//! [`DETAIL_UNIT_ACCESSES`] simulated accesses), not wall-clock
//! predictions — only their ordering matters. The suite's cost-drift
//! report (`[suite] cost drift`, `sched.cost_drift` in `--stats`)
//! compares them with the durations a persistent store has measured.

use crate::cell_cache::CellCache;
use crate::disk_cache::MeasuredCosts;
use crate::spec::{ExperimentSpec, FigureKind};
use crate::LcGroup;
use jumanji::core::AppKind;
use jumanji::prelude::*;
use jumanji::sim::detail::DetailOptions;
use jumanji::sim::perf::Profile;
use jumanji::types::{CoreId, Error, Seconds, VmId};
use jumanji::workloads::WorkloadMix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One experiment cell a figure reads: the experiment's construction
/// inputs plus every design the figure runs on it.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The workload mix.
    pub mix: WorkloadMix,
    /// Latency-critical load level.
    pub load: LcLoad,
    /// Simulation options, after the cell's seed derivation.
    pub opts: SimOptions,
    /// Designs the figure runs on this experiment (duplicates allowed;
    /// the graph dedups).
    pub designs: Vec<DesignKind>,
}

impl CellPlan {
    /// The cache identity of this cell's experiment.
    pub fn experiment_key(&self) -> u128 {
        crate::cell_cache::experiment_key(&self.mix, self.load, &self.opts)
    }
}

/// One detailed-simulator cell a figure reads: the full input of
/// [`run_detailed`](jumanji::sim::detail::run_detailed), including the
/// allocation under test (allocations are cheap and memoized through
/// the cell cache, so the plan pass resolves them up front and the
/// renderer reads them from here).
#[derive(Debug, Clone)]
pub struct DetailPlan {
    /// The design whose allocation is simulated (labeling only — the
    /// cell's identity is carried by `alloc` and the other inputs).
    pub design: DesignKind,
    /// Detailed-run options, after the cell's seed derivation.
    pub opts: DetailOptions,
    /// Per-app profiles in app order.
    pub profiles: Vec<Profile>,
    /// Per-app core pinning.
    pub cores: Vec<CoreId>,
    /// Per-app VM membership.
    pub vms: Vec<VmId>,
    /// The allocation under test.
    pub alloc: Allocation,
}

impl DetailPlan {
    /// The cache identity of this detailed cell.
    pub fn key(&self) -> u128 {
        crate::cell_cache::detail_key(
            &self.opts,
            &self.profiles,
            &self.cores,
            &self.vms,
            &self.alloc,
        )
    }
}

/// A figure's full cell enumeration.
#[derive(Debug, Clone)]
pub struct FigurePlan {
    /// The figure this plan describes.
    pub kind: FigureKind,
    /// Its analytic cells, in the order the renderer reads them.
    pub cells: Vec<CellPlan>,
    /// Its detailed-simulator cells, in the order the renderer reads
    /// them.
    pub details: Vec<DetailPlan>,
}

impl FigurePlan {
    /// Total design runs across analytic cells (before any
    /// deduplication).
    pub fn runs(&self) -> usize {
        self.cells.iter().map(|c| c.designs.len()).sum()
    }

    /// True when the figure pre-computes nothing through the cell cache
    /// (no analytic and no detailed cells).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.details.is_empty()
    }
}

/// Relative cost prior of constructing an experiment (profile hulls,
/// deadline isolation runs, stream generators): about half a Static run
/// of the same horizon, as measured when the prior was calibrated.
pub fn experiment_cost(opts: &SimOptions) -> f64 {
    0.5 * run_cost(opts, DesignKind::Static)
}

/// Reconfiguration intervals `opts` simulates — the unit both the
/// static priors and the persisted measured durations normalize by.
pub fn intervals_of(opts: &SimOptions) -> f64 {
    (opts.duration.as_f64() / opts.reconfig.as_f64()).max(1.0)
}

/// The static prior for a design's per-interval cost relative to a
/// Static run, calibrated once from measured run times. Used whenever
/// no measured data exists for the design.
fn static_factor(design: DesignKind) -> f64 {
    match design {
        DesignKind::Static => 1.0,
        DesignKind::Adaptive | DesignKind::VmPart => 1.15,
        DesignKind::Jigsaw => 1.45,
        DesignKind::Jumanji | DesignKind::JumanjiInsecure | DesignKind::JumanjiIdealBatch => 1.6,
    }
}

/// Relative cost prior of running `design` on an experiment with
/// `opts`: one unit per reconfiguration interval, scaled up for designs
/// that solve a placement every interval.
pub fn run_cost(opts: &SimOptions, design: DesignKind) -> f64 {
    intervals_of(opts) * static_factor(design)
}

/// Total simulated accesses in one detailed-cell work unit — the unit
/// both the detailed static prior and the persisted measured durations
/// ([`MeasuredCosts::details`]) normalize by.
pub const DETAIL_UNIT_ACCESSES: f64 = 25_000.0;

/// Work units of a detailed cell with `opts` over `napps` applications:
/// total simulated accesses per [`DETAIL_UNIT_ACCESSES`], never below
/// one.
pub fn detail_units(opts: &DetailOptions, napps: usize) -> f64 {
    ((opts.accesses_per_app * napps) as f64 / DETAIL_UNIT_ACCESSES).max(1.0)
}

/// The static prior for a detailed cell's per-work-unit cost relative
/// to a Static analytic interval, calibrated once from measured run
/// times (execution-driven simulation of one unit of accesses costs
/// about two analytic intervals).
const DETAIL_STATIC_FACTOR: f64 = 2.0;

/// Relative cost prior of a detailed-simulator cell (same unit as
/// [`run_cost`]).
pub fn detail_cost(opts: &DetailOptions, napps: usize) -> f64 {
    detail_units(opts, napps) * DETAIL_STATIC_FACTOR
}

/// One design's prior-vs-measured cost comparison, for the suite's
/// drift report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostDrift {
    /// The design.
    pub design: DesignKind,
    /// The static prior factor (relative to a Static run).
    pub prior: f64,
    /// The measured factor (mean µs-per-interval over the measured
    /// Static mean).
    pub measured: f64,
    /// Samples behind the measured factor.
    pub samples: u64,
}

/// The scheduler's cost estimates: the static priors above by default,
/// replaced by measured per-design durations from the persistent store
/// when the store has seen real runs.
///
/// Measured means are kept *relative* — each design's mean
/// µs-per-interval over the measured Static mean — so partially
/// measured tables blend with the unit-normalized static priors without
/// mixing units, and the long-pole ordering (all that matters to the
/// scheduler) reflects real hardware instead of a guess.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    measured: MeasuredCosts,
}

impl CostModel {
    /// A model using only the static priors.
    pub fn priors() -> CostModel {
        CostModel::default()
    }

    /// A model that prefers `measured` data where it exists.
    pub fn from_measured(measured: MeasuredCosts) -> CostModel {
        CostModel { measured }
    }

    /// True when at least one design's cost comes from measurement.
    pub fn is_measured(&self) -> bool {
        self.run_factor_measured(DesignKind::Static).is_some()
    }

    fn run_factor_measured(&self, design: DesignKind) -> Option<f64> {
        let base = self.measured.mean_run_us(DesignKind::Static)?;
        if base <= 0.0 {
            return None;
        }
        Some(self.measured.mean_run_us(design)? / base)
    }

    fn run_factor(&self, design: DesignKind) -> f64 {
        self.run_factor_measured(design)
            .unwrap_or_else(|| static_factor(design))
    }

    /// Cost estimate for running `design` with `opts` (same unit as
    /// [`run_cost`]; equal to it when nothing is measured).
    pub fn run_cost(&self, opts: &SimOptions, design: DesignKind) -> f64 {
        intervals_of(opts) * self.run_factor(design)
    }

    /// Cost estimate for constructing an experiment with `opts`.
    pub fn experiment_cost(&self, opts: &SimOptions) -> f64 {
        let factor = self
            .measured
            .mean_exp_us()
            .and_then(|exp| {
                let base = self.measured.mean_run_us(DesignKind::Static)?;
                (base > 0.0).then(|| exp / base)
            })
            .unwrap_or(0.5);
        intervals_of(opts) * factor
    }

    /// Cost estimate for a detailed-simulator cell (same unit as
    /// [`run_cost`](CostModel::run_cost); equal to [`detail_cost`] when
    /// nothing is measured). Measured means are kept relative to the
    /// measured Static analytic mean, like every other row.
    pub fn detail_cost(&self, opts: &DetailOptions, napps: usize) -> f64 {
        let factor = self
            .measured
            .mean_detail_us()
            .and_then(|detail| {
                let base = self.measured.mean_run_us(DesignKind::Static)?;
                (base > 0.0).then(|| detail / base)
            })
            .unwrap_or(DETAIL_STATIC_FACTOR);
        detail_units(opts, napps) * factor
    }

    /// Prior-vs-measured drift, one row per design with measured data.
    /// Empty when the model is running on priors alone.
    pub fn drift(&self) -> Vec<CostDrift> {
        DesignKind::all()
            .into_iter()
            .filter_map(|design| {
                let measured = self.run_factor_measured(design)?;
                let samples = self.measured.runs[crate::disk_cache::design_tag(design) as usize].0;
                Some(CostDrift {
                    design,
                    prior: static_factor(design),
                    measured,
                    samples,
                })
            })
            .collect()
    }
}

/// Analytic-simulator options derived from the spec (seed 1 — the
/// default — reproduces the golden TSVs byte for byte).
fn sim_opts(spec: &ExperimentSpec) -> SimOptions {
    SimOptions {
        seed: spec.seed,
        ..SimOptions::default()
    }
}

/// `designs` with the Static baseline prepended (every speedup is
/// normalized to it) and duplicates dropped.
fn with_baseline(designs: &[DesignKind]) -> Vec<DesignKind> {
    let mut out = vec![DesignKind::Static];
    for &d in designs {
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// The `(group, load)` matrices of a main-results figure, in plan
/// order: every workload group at high then low load (Figs. 13, 14 and
/// 16), or at high load only (Fig. 15). Each matrix owns `spec.mixes`
/// consecutive cells of the plan.
pub fn matrices(kind: FigureKind) -> Vec<(LcGroup, LcLoad)> {
    let loads: &[LcLoad] = match kind {
        FigureKind::Fig15 => &[LcLoad::High],
        _ => &[LcLoad::High, LcLoad::Low],
    };
    loads
        .iter()
        .flat_map(|&load| LcGroup::all().into_iter().map(move |g| (g, load)))
        .collect()
}

/// The matrix figures' cells: one per `(group, load, seed)`, Static
/// baseline plus the spec's designs. Seed `s` of a group runs the
/// group's mix `s` with the base options' seed salted by `s`.
fn matrix_cells(spec: &ExperimentSpec) -> Result<Vec<CellPlan>, Error> {
    let base = sim_opts(spec);
    let designs = with_baseline(&spec.designs);
    let mut cells = Vec::new();
    for (group, load) in matrices(spec.kind) {
        for seed in 0..spec.mixes as u64 {
            let mut opts = base.clone();
            opts.seed ^= seed.wrapping_mul(0x9E37_79B9);
            cells.push(CellPlan {
                mix: group.mix(seed)?,
                load,
                opts,
                designs: designs.clone(),
            });
        }
    }
    Ok(cells)
}

/// The Fig. 9 controller-parameter grid: `(group, label, params)` rows
/// in plotting order. Each row owns `spec.mixes` consecutive cells of
/// the plan.
pub fn fig09_cases() -> Vec<(&'static str, &'static str, ControllerParams)> {
    let llc = SystemConfig::micro2020().llc.total_bytes() as f64;
    let base = ControllerParams::micro2020(llc);
    vec![
        (
            "target",
            "75-85%",
            ControllerParams {
                target_low: 0.75,
                target_high: 0.85,
                ..base
            },
        ),
        ("target", "85-95% (default)", base),
        (
            "target",
            "90-100%",
            ControllerParams {
                target_low: 0.90,
                target_high: 1.00,
                ..base
            },
        ),
        (
            "panic",
            "105%",
            ControllerParams {
                panic_threshold: 1.05,
                ..base
            },
        ),
        ("panic", "110% (default)", base),
        (
            "panic",
            "120%",
            ControllerParams {
                panic_threshold: 1.20,
                ..base
            },
        ),
        ("step", "5%", ControllerParams { step: 0.05, ..base }),
        ("step", "10% (default)", base),
        ("step", "20%", ControllerParams { step: 0.20, ..base }),
    ]
}

/// The workload mix one Fig. 17 `(config, seed)` cell simulates: four
/// distinct LC servers (as in the Mixed group) drawn with the fig17 seed
/// salt, grouped per the VM config spec.
fn fig17_mix(cfg_spec: &[(usize, usize)], seed: u64) -> WorkloadMix {
    let mut pool = tailbench();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF17);
    pool.shuffle(&mut rng);
    pool.truncate(4);
    WorkloadMix::from_spec(cfg_spec, &pool, seed)
}

/// Fig. 18's router delays, in plotting order. Each owns `spec.mixes`
/// consecutive cells of the plan.
pub const FIG18_ROUTER_CYCLES: [u64; 3] = [1, 2, 3];

/// The sensitivity sweep for `n` seeds per knob: `(mix, options,
/// label)` rows in sweep order, one cell each.
fn sensitivity_jobs(n: usize) -> Vec<(WorkloadMix, SimOptions, String)> {
    let mut jobs: Vec<(WorkloadMix, SimOptions, String)> = Vec::new();

    // 1. Miss-serialization factor of the LC service model.
    for stall in [2.0f64, 3.0, 4.0] {
        for seed in 0..n as u64 {
            let mut mix = case_study_mix(seed);
            for vm in &mut mix.vms {
                for lc in &mut vm.lc {
                    lc.miss_stall = stall;
                }
            }
            jobs.push((mix, SimOptions::default(), format!("miss_stall\t{stall}x")));
        }
    }
    // 2. Simulated horizon.
    for secs in [2.0f64, 4.0, 8.0] {
        for seed in 0..n as u64 {
            jobs.push((
                case_study_mix(seed),
                SimOptions {
                    duration: Seconds(secs),
                    ..SimOptions::default()
                },
                format!("duration\t{secs}s"),
            ));
        }
    }
    // 3. Reconfiguration period (the paper: "more frequent
    //    reconfigurations do not improve results").
    for ms in [50.0f64, 100.0, 200.0] {
        for seed in 0..n as u64 {
            jobs.push((
                case_study_mix(seed),
                SimOptions {
                    reconfig: Seconds::from_millis(ms),
                    ..SimOptions::default()
                },
                format!("reconfig\t{ms}ms"),
            ));
        }
    }
    // 4. Arrival-stream seeds.
    for seed in 0..(3 * n as u64) {
        jobs.push((
            case_study_mix(seed),
            SimOptions {
                seed: seed ^ 0xC0FFEE,
                ..SimOptions::default()
            },
            "seed\tvaried".to_string(),
        ));
    }
    jobs
}

/// The row label of each sensitivity cell, in plan order.
pub fn sensitivity_labels(n: usize) -> Vec<String> {
    sensitivity_jobs(n)
        .into_iter()
        .map(|(_, _, label)| label)
        .collect()
}

/// The designs whose allocations the validation study simulates, in
/// plan order (each owns `spec.mixes` consecutive detailed cells).
pub const VALIDATE_DESIGNS: [DesignKind; 2] = [DesignKind::Adaptive, DesignKind::Jumanji];

/// Per-app core pinning and VM membership of a placement input.
fn cores_and_vms(input: &PlacementInput) -> (Vec<CoreId>, Vec<VmId>) {
    (
        input.apps.iter().map(|a| a.core).collect(),
        input.apps.iter().map(|a| a.vm).collect(),
    )
}

/// The detailed-simulator profile list for mix `mix` of the example
/// placement input: the LC and batch rosters rotated by the mix index
/// (mix 0 is Fig. 2's canonical assignment).
fn detail_profiles(input: &PlacementInput, mix: usize) -> Vec<Profile> {
    let lc = tailbench();
    let batch = spec2006();
    input
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| match a.kind {
            AppKind::LatencyCritical => Profile::Lc(lc[(i + mix) % lc.len()].clone(), LcLoad::High),
            AppKind::Batch => Profile::Batch(batch[(i + 2 * mix) % batch.len()].clone()),
        })
        .collect()
}

/// The detailed-run options for mix `mix`: the stream seed derives from
/// the mix index alone (mix 0 keeps the default seed, as in Fig. 2).
fn detail_opts(cfg: &SystemConfig, accesses: usize, mix: usize) -> DetailOptions {
    DetailOptions {
        cfg: cfg.clone(),
        accesses_per_app: accesses,
        seed: DetailOptions::default().seed ^ (mix as u64).wrapping_mul(0x9E37_79B9),
        ..DetailOptions::default()
    }
}

/// Enumerates the cells `spec`'s renderer reads, without computing any
/// of them. Figures that read no cells return an empty plan.
///
/// # Errors
///
/// Returns [`Error::UnknownWorkload`] for specs naming unknown servers,
/// before any compute.
pub fn of(spec: &ExperimentSpec) -> Result<FigurePlan, Error> {
    use FigureKind::*;
    let cells = match spec.kind {
        Fig04 => {
            let opts = SimOptions {
                duration: Seconds(4.0),
                ..sim_opts(spec)
            };
            vec![CellPlan {
                mix: case_study_mix(spec.seed),
                load: LcLoad::High,
                opts,
                designs: spec.designs.clone(),
            }]
        }
        Fig05 => vec![CellPlan {
            mix: case_study_mix(spec.seed),
            load: LcLoad::High,
            opts: sim_opts(spec),
            designs: with_baseline(&spec.designs),
        }],
        Fig09 => {
            let base_opts = sim_opts(spec);
            let mut cells = Vec::new();
            for (_, _, params) in fig09_cases() {
                for seed in 0..spec.mixes as u64 {
                    cells.push(CellPlan {
                        mix: case_study_mix(seed),
                        load: LcLoad::High,
                        opts: SimOptions {
                            controller: Some(params),
                            ..base_opts.clone()
                        },
                        designs: vec![DesignKind::Static, DesignKind::Jumanji],
                    });
                }
            }
            cells
        }
        Fig13 | Fig14 | Fig15 | Fig16 => matrix_cells(spec)?,
        Fig17 => {
            let opts = sim_opts(spec);
            let mut cells = Vec::new();
            for (_, cfg_spec) in fig17_configs() {
                for seed in 0..spec.mixes as u64 {
                    cells.push(CellPlan {
                        mix: fig17_mix(&cfg_spec, seed),
                        load: LcLoad::High,
                        opts: opts.clone(),
                        designs: vec![DesignKind::Static, DesignKind::Jumanji],
                    });
                }
            }
            cells
        }
        Fig18 => {
            let mut cells = Vec::new();
            for router in FIG18_ROUTER_CYCLES {
                let mut cfg = SystemConfig::micro2020();
                cfg.noc.router_cycles = router;
                let opts = SimOptions {
                    cfg,
                    ..sim_opts(spec)
                };
                for seed in 0..spec.mixes as u64 {
                    cells.push(CellPlan {
                        mix: WorkloadMix::mixed_lc(seed),
                        load: LcLoad::High,
                        opts: opts.clone(),
                        designs: vec![DesignKind::Static, DesignKind::Jumanji],
                    });
                }
            }
            cells
        }
        // Two cells per seed: the isolation/ideality cell, then the
        // same mix under the panic-disabled controller (the paper's
        // parameters with the panic threshold raised out of reach).
        Ablation => {
            let opts = sim_opts(spec);
            let llc = SystemConfig::micro2020().llc.total_bytes() as f64;
            let no_panic = ControllerParams {
                panic_threshold: f64::MAX,
                ..ControllerParams::micro2020(llc)
            };
            let mut cells = Vec::new();
            for seed in 0..spec.mixes as u64 {
                cells.push(CellPlan {
                    mix: case_study_mix(seed),
                    load: LcLoad::High,
                    opts: opts.clone(),
                    designs: vec![
                        DesignKind::Static,
                        DesignKind::Jumanji,
                        DesignKind::JumanjiInsecure,
                        DesignKind::JumanjiIdealBatch,
                    ],
                });
                cells.push(CellPlan {
                    mix: case_study_mix(seed),
                    load: LcLoad::High,
                    opts: SimOptions {
                        controller: Some(no_panic),
                        ..opts.clone()
                    },
                    designs: vec![DesignKind::Jumanji],
                });
            }
            cells
        }
        Sensitivity => sensitivity_jobs(spec.mixes)
            .into_iter()
            .map(|(mix, opts, _)| CellPlan {
                mix,
                load: LcLoad::High,
                opts,
                designs: vec![
                    DesignKind::Static,
                    DesignKind::Jumanji,
                    DesignKind::Jigsaw,
                    DesignKind::Adaptive,
                ],
            })
            .collect(),
        // No analytic cells: Fig. 2 and validate run the detailed
        // simulator (enumerated below), the rest are the closed-form
        // queueing curve, the attack demos, and the tables.
        Fig02 | Fig08 | Fig11 | Fig12 | Table2 | Table3 | Validate => Vec::new(),
    };
    let details = match spec.kind {
        // One cell per requested design, on mix 0's profiles.
        Fig02 => {
            let cfg = SystemConfig::micro2020();
            let input = PlacementInput::example(&cfg);
            let (cores, vms) = cores_and_vms(&input);
            spec.designs
                .iter()
                .map(|&design| DetailPlan {
                    design,
                    opts: detail_opts(&cfg, spec.accesses, 0),
                    profiles: detail_profiles(&input, 0),
                    cores: cores.clone(),
                    vms: vms.clone(),
                    alloc: CellCache::global().allocate(design, &input),
                })
                .collect()
        }
        // Design-major, mix-minor: cell `d * mixes + m`.
        Validate => {
            let cfg = SystemConfig::micro2020();
            let input = PlacementInput::example(&cfg);
            let (cores, vms) = cores_and_vms(&input);
            let mut details = Vec::new();
            for design in VALIDATE_DESIGNS {
                let alloc = CellCache::global().allocate(design, &input);
                for mix in 0..spec.mixes {
                    details.push(DetailPlan {
                        design,
                        opts: detail_opts(&cfg, spec.accesses, mix),
                        profiles: detail_profiles(&input, mix),
                        cores: cores.clone(),
                        vms: vms.clone(),
                        alloc: alloc.clone(),
                    });
                }
            }
            details
        }
        _ => Vec::new(),
    };
    Ok(FigurePlan {
        kind: spec.kind,
        cells,
        details,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_figures_enumerate_groups_loads_and_seeds() {
        let spec = ExperimentSpec::new(FigureKind::Fig13).mixes(3);
        let plan = of(&spec).expect("plannable");
        // 6 groups × 2 loads × 3 seeds.
        assert_eq!(plan.cells.len(), 36);
        // Static baseline + the four main designs per cell.
        assert!(plan.cells.iter().all(|c| c.designs.len() == 5));
        assert_eq!(plan.runs(), 180);
        // Fig. 15 runs high load only, and its design list already
        // includes Static — no double-count.
        let spec15 = ExperimentSpec::new(FigureKind::Fig15).mixes(3);
        let plan15 = of(&spec15).expect("plannable");
        assert_eq!(plan15.cells.len(), 18);
        assert!(plan15.cells.iter().all(|c| c.designs.len() == 5));
    }

    #[test]
    fn fig13_and_fig14_plans_name_identical_cells() {
        // The two figures run the same matrix and differ only in
        // rendering — the whole point of cross-figure dedup.
        let a = of(&ExperimentSpec::new(FigureKind::Fig13).mixes(2)).expect("plannable");
        let b = of(&ExperimentSpec::new(FigureKind::Fig14).mixes(2)).expect("plannable");
        let keys = |p: &FigurePlan| -> Vec<u128> {
            p.cells.iter().map(CellPlan::experiment_key).collect()
        };
        assert_eq!(keys(&a), keys(&b));
    }

    #[test]
    fn seed_changes_cell_identity() {
        let a = of(&ExperimentSpec::new(FigureKind::Fig05)).expect("plannable");
        let b = of(&ExperimentSpec::new(FigureKind::Fig05).seed(9)).expect("plannable");
        assert_ne!(
            a.cells[0].experiment_key(),
            b.cells[0].experiment_key(),
            "the spec seed flows into the mix and options"
        );
    }

    #[test]
    fn fig09_dedups_to_seven_unique_option_sets() {
        // Nine grid rows, but the three "(default)" rows share the base
        // parameters — the plan names them identically so the graph
        // schedules each underlying cell once.
        let plan = of(&ExperimentSpec::new(FigureKind::Fig09).mixes(1)).expect("plannable");
        assert_eq!(plan.cells.len(), 9);
        let mut keys: Vec<u128> = plan.cells.iter().map(CellPlan::experiment_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn unplannable_figures_return_empty_plans() {
        for kind in [
            FigureKind::Fig08,
            FigureKind::Fig11,
            FigureKind::Fig12,
            FigureKind::Table2,
            FigureKind::Table3,
        ] {
            let plan = of(&ExperimentSpec::new(kind)).expect("plan never fails here");
            assert!(plan.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn detailed_figures_plan_detailed_cells() {
        // Fig. 2: one detailed cell per requested design, in render
        // order, each with a distinct allocation identity.
        let spec = ExperimentSpec::new(FigureKind::Fig02).accesses(4_000);
        let plan = of(&spec).expect("plannable");
        assert!(plan.cells.is_empty());
        assert_eq!(plan.details.len(), spec.designs.len());
        let mut keys: Vec<u128> = plan.details.iter().map(DetailPlan::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), spec.designs.len(), "allocs differ per design");

        // Validate: designs × mixes cells, design-major like the render.
        let vspec = ExperimentSpec::new(FigureKind::Validate)
            .mixes(3)
            .accesses(4_000);
        let vplan = of(&vspec).expect("plannable");
        assert_eq!(vplan.details.len(), 2 * 3);
        assert_eq!(vplan.details[0].design, DesignKind::Adaptive);
        assert_eq!(vplan.details[3].design, DesignKind::Jumanji);
        // Validate's mix-0 cell under a shared design dedups with
        // fig02's cell at equal --accesses: same profiles, same seed,
        // same allocation.
        let shared: Vec<u128> = plan
            .details
            .iter()
            .filter(|d| VALIDATE_DESIGNS.contains(&d.design))
            .map(DetailPlan::key)
            .collect();
        let vkeys: Vec<u128> = vplan.details.iter().map(DetailPlan::key).collect();
        for key in shared {
            assert!(vkeys.contains(&key), "fig02/validate mix-0 cells dedup");
        }
    }

    #[test]
    fn cost_priors_order_designs_sensibly() {
        let opts = SimOptions::default();
        assert!(run_cost(&opts, DesignKind::Jumanji) > run_cost(&opts, DesignKind::Jigsaw));
        assert!(run_cost(&opts, DesignKind::Jigsaw) > run_cost(&opts, DesignKind::Static));
        assert!(experiment_cost(&opts) < run_cost(&opts, DesignKind::Static));
        // Longer horizons cost proportionally more.
        let long = SimOptions {
            duration: Seconds(8.0),
            ..SimOptions::default()
        };
        assert!(run_cost(&long, DesignKind::Static) > run_cost(&opts, DesignKind::Static));
    }
}
