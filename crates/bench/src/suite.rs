//! The one path from plan to TSV: plan → union → schedule → gather →
//! render.
//!
//! [`run_suite`] turns a list of figure specs into TSVs, and every
//! figure takes this path — the standalone figure binaries too, through
//! [`run_spec_to`](crate::run_spec_to) on their one spec:
//!
//! 1. **Plan.** Each figure enumerates its experiment cells without
//!    computing them ([`figures::plan`]).
//! 2. **Union.** The plans merge into one deduplicated work graph: one
//!    node per unique experiment construction, one per unique
//!    `(experiment, design)` run, and one per unique detailed-simulator
//!    cell, keyed by the same content fingerprints the [`CellCache`]
//!    uses. A cell shared by fig13/fig14/fig15 becomes a single node, no
//!    matter how many figures want it — and at equal `--accesses`, a
//!    validate mix-0 detailed cell is fig02's cell for that design.
//! 3. **Schedule.** The graph executes on the work-stealing pool
//!    ([`exec::sched`]), long poles first, writing every result through
//!    the process-wide cache.
//! 4. **Gather.** The moment a figure's last node completes, its planned
//!    cells are read back through the cache exactly once each, in plan
//!    order, into [`CompletedCells`] — pure memory hits, read against a
//!    no-op sink.
//! 5. **Render.** [`figures::render`] turns the completed cells into the
//!    figure's TSV, and the figure streams out in requested order while
//!    the pool is still chewing on later figures' work.
//!
//! With the cache disabled (`--no-cache`), steps 2–3 are skipped: the
//! gather step computes every planned lookup itself, serially, with the
//! caller's sink and no memo or store, so a cell two lookups share
//! computes twice — the reference run that catches key collisions. Both
//! modes render from the same [`CompletedCells`], so output is
//! byte-identical in either mode at every thread count.
//!
//! With tracing on, the scheduler emits each unique cell's event stream
//! exactly once (the cache bypasses reads under tracing, so every run
//! node recomputes and writes through), and the gather reads the
//! results back silently.
//!
//! [`figures::plan`]: crate::figures::plan
//! [`figures::render`]: crate::figures::render
//! [`CompletedCells`]: crate::figures::CompletedCells
//! [`CellCache`]: crate::cell_cache::CellCache
//! [`exec::sched`]: crate::exec::sched

// Wall-clock here feeds the suite's *stats* section only (lint.toml
// [paths].timing_allow), and every map is Mix64Build-hashed — clippy
// cannot see hasher parameters, jumanji-lint checks them precisely.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use crate::cell_cache::{run_key, CellCache, ExperimentHandle, RunSource};
use crate::disk_cache::MeasuredCosts;
use crate::exec::sched::{self, Graph, GraphReport};
use crate::figures::{self, plan, CompletedCells};
use crate::spec::{ExperimentSpec, FigureKind};
use jumanji::prelude::*;
use jumanji::telemetry::NoopSink;
use jumanji::types::hash::Mix64Build;
use jumanji::types::Error;
use jumanji::workloads::WorkloadMix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// One rendered figure, handed to [`run_suite`]'s emit callback in
/// requested order, as soon as it is ready.
#[derive(Debug)]
pub struct SuiteFigure {
    /// Which figure this is.
    pub kind: FigureKind,
    /// The rendered TSV, byte-identical to the standalone binary.
    pub bytes: Vec<u8>,
    /// Wall-clock of the gather and render steps (under the scheduler
    /// this is cache-hit time; with the cache disabled it includes the
    /// compute).
    pub seconds: f64,
    /// Planned cells the gather step computed (always zero under the
    /// scheduler, which computed them first).
    pub computed: u64,
    /// Planned cells the gather step read warm, from memory or disk.
    pub reused: u64,
}

/// What the scheduler did for one [`run_suite`] call.
#[derive(Debug, Clone, Default)]
pub struct SchedReport {
    /// Design-run lookups the figures planned, before deduplication.
    pub planned_runs: usize,
    /// Unique work-graph nodes (experiment constructions + design runs).
    pub nodes: usize,
    /// Dependency edges in the graph.
    pub edges: usize,
    /// Detailed-cell lookups the figures planned, before deduplication.
    pub planned_details: usize,
    /// Run nodes served straight from the persistent disk store.
    pub disk_run_hits: u64,
    /// Run nodes the scheduler actually simulated this call.
    pub computed_runs: u64,
    /// Detailed-simulator nodes served from the persistent disk store.
    pub detail_disk_hits: u64,
    /// Detailed-simulator nodes the scheduler actually computed.
    pub detail_computed: u64,
    /// Experiment constructions skipped because every dependent run
    /// cell was already warm (in memory or on disk).
    pub warm_skipped_exps: u64,
    /// Prior-vs-measured cost drift, one row per design with measured
    /// data — what the long-pole priorities look like against the
    /// static guesses (empty when nothing was ever measured).
    pub drift: Vec<plan::CostDrift>,
    /// Pool execution measurements.
    pub graph: GraphReport,
}

/// The whole run's summary.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// Wall-clock of the whole call: plan + schedule + render + emit.
    pub total_seconds: f64,
    /// Scheduler measurements; `None` when the cache is disabled.
    pub sched: Option<SchedReport>,
}

/// A work-graph node: construct an experiment, run a design on one, or
/// run one detailed-simulator cell. The large variants are boxed so the
/// common `Run` variant stays a few bytes.
enum Node {
    Exp(Box<ExpCell>),
    Run { exp: u32, design: DesignKind },
    Detail(Box<plan::DetailPlan>),
}

/// An experiment node's inputs.
struct ExpCell {
    mix: WorkloadMix,
    load: LcLoad,
    opts: SimOptions,
}

/// The unioned work graph plus its figure bookkeeping.
struct Union {
    nodes: Vec<Node>,
    costs: Vec<f64>,
    deps: Vec<Vec<u32>>,
    /// Figure indices that need each node (for the streaming countdown).
    node_figures: Vec<Vec<u32>>,
    /// Per-figure node count (the countdown's starting value).
    figure_nodes: Vec<usize>,
    /// Per-node reconfiguration-interval count — the unit measured node
    /// durations are normalized by before they feed the cost store.
    intervals: Vec<u64>,
    /// For each `Exp` node: the run keys of its dependent `Run` nodes,
    /// so the scheduler can probe whether *every* consumer is already
    /// warm and skip the construction entirely. Empty for `Run` nodes.
    run_keys: Vec<Vec<u128>>,
    /// Total planned design runs before deduplication.
    planned_runs: usize,
    /// Total planned detailed cells before deduplication.
    planned_details: usize,
}

/// Unions figure plans into one deduplicated graph, costed by `model`
/// (static priors, or measured per-design durations on warm runs).
/// Nodes are keyed by the cell cache's content fingerprints, so two
/// figures (or two cells of one figure) wanting the same work share a
/// node; node ids grow in figure order, which the scheduler uses as its
/// priority tie-break so earlier-requested figures drain first.
fn union_plans(plans: &[plan::FigurePlan], model: &plan::CostModel) -> Union {
    let mut u = Union {
        nodes: Vec::new(),
        costs: Vec::new(),
        deps: Vec::new(),
        node_figures: Vec::new(),
        figure_nodes: vec![0; plans.len()],
        intervals: Vec::new(),
        run_keys: Vec::new(),
        planned_runs: 0,
        planned_details: 0,
    };
    let mut exp_ids: HashMap<u128, u32, Mix64Build> = HashMap::default();
    let mut run_ids: HashMap<u128, u32, Mix64Build> = HashMap::default();
    let mut detail_ids: HashMap<u128, u32, Mix64Build> = HashMap::default();
    for (f, plan) in plans.iter().enumerate() {
        let f32u = f as u32;
        for cell in &plan.cells {
            u.planned_runs += cell.designs.len();
            let intervals = plan::intervals_of(&cell.opts).round() as u64;
            let ekey = cell.experiment_key();
            let exp_id = *exp_ids.entry(ekey).or_insert_with(|| {
                let id = u.nodes.len() as u32;
                u.nodes.push(Node::Exp(Box::new(ExpCell {
                    mix: cell.mix.clone(),
                    load: cell.load,
                    opts: cell.opts.clone(),
                })));
                u.costs.push(model.experiment_cost(&cell.opts));
                u.deps.push(Vec::new());
                u.node_figures.push(Vec::new());
                u.intervals.push(intervals);
                u.run_keys.push(Vec::new());
                id
            });
            if u.node_figures[exp_id as usize].last() != Some(&f32u) {
                u.node_figures[exp_id as usize].push(f32u);
                u.figure_nodes[f] += 1;
            }
            for &design in &cell.designs {
                let rkey = run_key(ekey, design);
                let fresh = !run_ids.contains_key(&rkey);
                let run_id = *run_ids.entry(rkey).or_insert_with(|| {
                    let id = u.nodes.len() as u32;
                    u.nodes.push(Node::Run {
                        exp: exp_id,
                        design,
                    });
                    u.costs.push(model.run_cost(&cell.opts, design));
                    u.deps.push(vec![exp_id]);
                    u.node_figures.push(Vec::new());
                    u.intervals.push(intervals);
                    u.run_keys.push(Vec::new());
                    id
                });
                if fresh {
                    u.run_keys[exp_id as usize].push(rkey);
                }
                if u.node_figures[run_id as usize].last() != Some(&f32u) {
                    u.node_figures[run_id as usize].push(f32u);
                    u.figure_nodes[f] += 1;
                }
            }
        }
        // Detailed cells are root nodes: the allocation they simulate is
        // embedded in the plan, so they depend on no experiment node.
        for detail in &plan.details {
            u.planned_details += 1;
            let units = plan::detail_units(&detail.opts, detail.profiles.len());
            let detail_id = *detail_ids.entry(detail.key()).or_insert_with(|| {
                let id = u.nodes.len() as u32;
                u.costs
                    .push(model.detail_cost(&detail.opts, detail.profiles.len()));
                u.nodes.push(Node::Detail(Box::new(detail.clone())));
                u.deps.push(Vec::new());
                u.node_figures.push(Vec::new());
                u.intervals.push((units.round() as u64).max(1));
                u.run_keys.push(Vec::new());
                id
            });
            if u.node_figures[detail_id as usize].last() != Some(&f32u) {
                u.node_figures[detail_id as usize].push(f32u);
                u.figure_nodes[f] += 1;
            }
        }
    }
    u
}

/// The streaming countdown the scheduler decrements and the renderer
/// waits on.
struct Progress {
    state: Mutex<ProgressState>,
    ready: Condvar,
}

struct ProgressState {
    /// Unfinished nodes per figure.
    remaining: Vec<usize>,
    /// Set when the scheduler thread exits (normally or by panic), so
    /// waiters never hang.
    finished: bool,
}

impl Progress {
    fn wait_for(&self, figure: usize) {
        let mut st = self.state.lock().expect("progress lock");
        while st.remaining[figure] > 0 && !st.finished {
            st = self.ready.wait(st).expect("progress lock");
        }
    }
}

/// Sets `finished` and wakes every waiter when dropped — including
/// during a panic unwind of the scheduler thread.
struct FinishGuard<'a>(&'a Progress);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.0.state.lock().expect("progress lock").finished = true;
        self.0.ready.notify_all();
    }
}

/// Reads every planned cell of `plan` through `cache`, once each and in
/// plan order. Also returns how many of those reads computed their cell
/// and how many were served warm (from memory or disk).
fn gather(
    plan: plan::FigurePlan,
    cache: &CellCache,
    tel: &dyn Telemetry,
) -> (CompletedCells, u64, u64) {
    let (mut computed, mut reused) = (0u64, 0u64);
    let mut count = |source: RunSource| match source {
        RunSource::Computed => computed += 1,
        RunSource::Memory | RunSource::Disk => reused += 1,
    };
    let runs = plan
        .cells
        .iter()
        .map(|cell| {
            let handle = cache.experiment(cell.mix.clone(), cell.load, cell.opts.clone());
            cell.designs
                .iter()
                .map(|&design| {
                    let (result, source) = cache.run_sourced(&handle, design, tel);
                    count(source);
                    result
                })
                .collect()
        })
        .collect();
    let details = plan
        .details
        .iter()
        .map(|d| {
            let (report, source) =
                cache.run_detail_sourced(&d.opts, &d.profiles, &d.cores, &d.vms, &d.alloc, tel);
            count(source);
            report
        })
        .collect();
    let cells = CompletedCells {
        plan,
        runs,
        details,
    };
    (cells, computed, reused)
}

/// Gathers `plan`'s cells with `tel` and renders `spec` from them into a
/// buffer.
fn render_figure(
    spec: &ExperimentSpec,
    plan: plan::FigurePlan,
    cache: &CellCache,
    tel: &dyn Telemetry,
) -> Result<SuiteFigure, Error> {
    let start = Instant::now();
    let (cells, computed, reused) = gather(plan, cache, tel);
    let mut bytes = Vec::new();
    figures::render(spec, &cells, &mut bytes)?;
    Ok(SuiteFigure {
        kind: spec.kind,
        bytes,
        seconds: start.elapsed().as_secs_f64(),
        computed,
        reused,
    })
}

/// Runs the suite over `specs`, calling `emit` once per figure in
/// `specs` order, each as soon as it is ready.
///
/// With the cache enabled, the cross-figure work graph executes on
/// `threads` workers and figures stream as their cells complete. With it
/// disabled, the gather step computes every planned lookup fresh,
/// serially, one figure at a time — the uncached reference. Telemetry
/// goes to `tel` in both modes; the specs' own `trace`/`telemetry`/
/// `threads` fields are ignored.
///
/// Output bytes are identical in both modes at every thread count: the
/// renderers read the same completed cells, and the [`CellCache`] is
/// value-transparent.
///
/// # Errors
///
/// Propagates plan errors (unknown workloads), figure render errors, and
/// `emit` errors.
pub fn run_suite(
    specs: &[ExperimentSpec],
    threads: usize,
    tel: &dyn Telemetry,
    emit: &mut dyn FnMut(SuiteFigure) -> Result<(), Error>,
) -> Result<SuiteReport, Error> {
    let cache = CellCache::global();
    let start = Instant::now();
    let plans: Vec<plan::FigurePlan> = specs.iter().map(plan::of).collect::<Result<_, _>>()?;
    if !cache.enabled() {
        for (spec, plan) in specs.iter().zip(plans) {
            emit(render_figure(spec, plan, cache, tel)?)?;
        }
        return Ok(SuiteReport {
            total_seconds: start.elapsed().as_secs_f64(),
            sched: None,
        });
    }

    // Cost the graph with measured durations from the persistent store
    // when it has seen real runs; the static priors otherwise.
    let loaded_costs = cache.disk().map(|d| d.load_costs()).unwrap_or_default();
    let model = if loaded_costs.is_empty() {
        plan::CostModel::priors()
    } else {
        plan::CostModel::from_measured(loaded_costs)
    };
    let union = union_plans(&plans, &model);
    let graph = Graph::new(&union.costs, union.deps.clone());
    let progress = Progress {
        state: Mutex::new(ProgressState {
            remaining: union.figure_nodes.clone(),
            finished: false,
        }),
        ready: Condvar::new(),
    };
    // Experiment handles flow from Exp nodes to their Run dependents.
    let slots: Vec<OnceLock<ExperimentHandle>> =
        (0..union.nodes.len()).map(|_| OnceLock::new()).collect();
    // What each node actually did, written by the workers and read
    // after the pool drains: only COMPUTED nodes feed their measured
    // duration back into the persistent cost table (warm nodes finish
    // in microseconds and would poison the priors).
    const WARM: u8 = 0;
    const COMPUTED: u8 = 1;
    const FROM_DISK: u8 = 2;
    let node_state: Vec<AtomicU8> = (0..union.nodes.len())
        .map(|_| AtomicU8::new(WARM))
        .collect();

    let run_node = |i: usize| {
        match &union.nodes[i] {
            Node::Exp(cell) => {
                let handle = cache.experiment(cell.mix.clone(), cell.load, cell.opts.clone());
                // Warm start: when every dependent run cell is already
                // resident (in memory or on disk), the construction is
                // pure waste — leave the handle lazy and let the run
                // nodes serve from cache. Tracing bypasses cache reads,
                // so a traced suite always constructs.
                let cold =
                    tel.enabled() || union.run_keys[i].iter().any(|&rk| !cache.probe_run(rk));
                if cold {
                    cache.force_experiment(&handle);
                    node_state[i].store(COMPUTED, Ordering::Relaxed);
                }
                slots[i].set(handle).expect("each node runs once");
            }
            Node::Run { exp, design } => {
                let handle = slots[*exp as usize]
                    .get()
                    .expect("dependency completed first");
                let (_, source) = cache.run_sourced(handle, *design, tel);
                let state = match source {
                    RunSource::Computed => COMPUTED,
                    RunSource::Disk => FROM_DISK,
                    RunSource::Memory => WARM,
                };
                node_state[i].store(state, Ordering::Relaxed);
            }
            Node::Detail(d) => {
                let (_, source) =
                    cache.run_detail_sourced(&d.opts, &d.profiles, &d.cores, &d.vms, &d.alloc, tel);
                let state = match source {
                    RunSource::Computed => COMPUTED,
                    RunSource::Disk => FROM_DISK,
                    RunSource::Memory => WARM,
                };
                node_state[i].store(state, Ordering::Relaxed);
            }
        }
        let mut st = progress.state.lock().expect("progress lock");
        let mut completed_a_figure = false;
        for &f in &union.node_figures[i] {
            st.remaining[f as usize] -= 1;
            completed_a_figure |= st.remaining[f as usize] == 0;
        }
        drop(st);
        if completed_a_figure {
            progress.ready.notify_all();
        }
    };

    let mut report = SuiteReport::default();
    let mut emit_err: Option<Error> = None;
    let graph_report: Mutex<GraphReport> = Mutex::new(GraphReport::default());
    std::thread::scope(|scope| {
        let (progress, run_node, graph, graph_report) =
            (&progress, &run_node, &graph, &graph_report);
        scope.spawn(move || {
            let _finish = FinishGuard(progress);
            let r = sched::run_graph(graph, threads, tel, run_node);
            *graph_report.lock().expect("report lock") = r;
        });
        for (f, (spec, plan)) in specs.iter().zip(plans).enumerate() {
            progress.wait_for(f);
            // Every planned cell is resident now; the scheduler already
            // emitted their event streams, so the gather reads silently.
            let result = render_figure(spec, plan, cache, &NoopSink).and_then(&mut *emit);
            if let Err(e) = result {
                emit_err = Some(e);
                break;
            }
        }
    });
    if let Some(e) = emit_err {
        return Err(e);
    }
    let graph_report = graph_report.into_inner().expect("report lock");

    // Feed the durations of genuinely computed nodes back into the
    // persistent cost table, so the *next* run's long-pole priorities
    // come from measurement instead of the static guesses.
    let mut measured = MeasuredCosts::default();
    let mut disk_run_hits = 0u64;
    let mut computed_runs = 0u64;
    let mut warm_skipped_exps = 0u64;
    let mut detail_disk_hits = 0u64;
    let mut detail_computed = 0u64;
    if graph_report.node_us.len() == union.nodes.len() {
        for (i, node) in union.nodes.iter().enumerate() {
            let state = node_state[i].load(Ordering::Relaxed);
            match node {
                Node::Exp(_) => {
                    if state == COMPUTED {
                        measured.record_exp(union.intervals[i], graph_report.node_us[i]);
                    } else {
                        warm_skipped_exps += 1;
                    }
                }
                Node::Run { design, .. } => match state {
                    COMPUTED => {
                        computed_runs += 1;
                        measured.record_run(*design, union.intervals[i], graph_report.node_us[i]);
                    }
                    FROM_DISK => disk_run_hits += 1,
                    _ => {}
                },
                Node::Detail(_) => match state {
                    COMPUTED => {
                        detail_computed += 1;
                        measured.record_detail(union.intervals[i] as f64, graph_report.node_us[i]);
                    }
                    FROM_DISK => detail_disk_hits += 1,
                    _ => {}
                },
            }
        }
    }
    let mut combined = loaded_costs;
    combined.merge(&measured);
    if let Some(disk) = cache.disk() {
        if !measured.is_empty() {
            disk.merge_costs(&measured);
        }
    }

    report.total_seconds = start.elapsed().as_secs_f64();
    report.sched = Some(SchedReport {
        planned_runs: union.planned_runs,
        planned_details: union.planned_details,
        nodes: graph.len(),
        edges: graph.edges(),
        disk_run_hits,
        computed_runs,
        detail_disk_hits,
        detail_computed,
        warm_skipped_exps,
        drift: plan::CostModel::from_measured(combined).drift(),
        graph: graph_report,
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs_of(kinds: &[FigureKind], mixes: usize) -> Vec<ExperimentSpec> {
        kinds
            .iter()
            .map(|&k| ExperimentSpec::new(k).mixes(mixes).threads(2))
            .collect()
    }

    #[test]
    fn union_dedups_shared_cells_across_figures() {
        // fig13 and fig14 plan identical matrices; the union must cost
        // exactly one figure's worth of unique nodes.
        let specs = specs_of(&[FigureKind::Fig13, FigureKind::Fig14], 2);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let both = union_plans(&plans, &plan::CostModel::priors());
        let alone = union_plans(&plans[..1], &plan::CostModel::priors());
        assert_eq!(both.nodes.len(), alone.nodes.len());
        assert_eq!(both.planned_runs, 2 * alone.planned_runs);
        // Every node is needed by both figures.
        assert!(both.node_figures.iter().all(|fs| fs == &[0, 1]));
        assert_eq!(both.figure_nodes, vec![both.nodes.len(); 2]);
    }

    #[test]
    fn union_runs_depend_on_their_experiment() {
        let specs = specs_of(&[FigureKind::Fig05], 1);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans, &plan::CostModel::priors());
        // One experiment node + five design runs on it.
        assert_eq!(u.nodes.len(), 6);
        for (i, node) in u.nodes.iter().enumerate() {
            match node {
                Node::Exp(_) => assert!(u.deps[i].is_empty()),
                Node::Run { exp, .. } => assert_eq!(u.deps[i], vec![*exp]),
                Node::Detail(_) => unreachable!("fig05 plans no detailed cells"),
            }
        }
        // The graph orders the long poles: every run's priority is below
        // its experiment's (the experiment unlocks the whole cell).
        let g = Graph::new(&u.costs, u.deps.clone());
        assert!(g.priority(0) > g.priority(1));
    }

    #[test]
    fn union_dedups_detailed_cells_across_fig02_and_validate() {
        // At equal --accesses, validate's mix-0 cells for its two
        // designs are byte-for-byte fig02's cells: same profiles, same
        // seed, same allocation. The union must schedule each once.
        let specs: Vec<ExperimentSpec> = [FigureKind::Fig02, FigureKind::Validate]
            .iter()
            .map(|&k| ExperimentSpec::new(k).mixes(2).accesses(4_000).threads(2))
            .collect();
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans, &plan::CostModel::priors());
        let detail_nodes = u
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Detail(_)))
            .count();
        assert_eq!(
            u.planned_details,
            plans[0].details.len() + plans[1].details.len()
        );
        // fig02 plans 4 designs, validate 2 designs × 2 mixes; the two
        // mix-0 validate cells fold into fig02's.
        assert_eq!(u.planned_details, 8);
        assert_eq!(detail_nodes, 6);
        // Detail nodes are roots: no dependencies, and nothing to
        // warm-skip through run_keys.
        for (i, node) in u.nodes.iter().enumerate() {
            if matches!(node, Node::Detail(_)) {
                assert!(u.deps[i].is_empty());
                assert!(u.run_keys[i].is_empty());
            }
        }
    }

    #[test]
    fn traced_suite_emits_each_unique_cell_once() {
        // fig13 and fig14 plan the same cells, so the figures make twice
        // as many planned lookups as there are unique runs. Under
        // tracing the scheduler computes each unique run once and emits
        // its stream once; the gather steps read silently.
        use jumanji::telemetry::{Event, RecordingSink};
        let specs: Vec<ExperimentSpec> = [FigureKind::Fig13, FigureKind::Fig14]
            .iter()
            .map(|&k| {
                ExperimentSpec::new(k)
                    .mixes(1)
                    .designs(&[DesignKind::Jumanji])
                    .threads(2)
            })
            .collect();
        let sink = RecordingSink::new();
        let report = run_suite(&specs, 2, &sink, &mut |_| Ok(())).expect("suite runs");
        let sched = report.sched.expect("scheduled path");
        let summaries = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::RunSummary { .. }))
            .count();
        // 12 (group, load) cells × {Static, Jumanji}, once each.
        assert_eq!(sched.computed_runs, 24);
        assert_eq!(sched.planned_runs, 48);
        assert_eq!(summaries as u64, sched.computed_runs);
    }

    #[test]
    fn union_ids_grow_in_figure_order() {
        // fig05's single cell plans before fig18's cells, so its node
        // ids come first — the scheduler's tie-break then favors
        // earlier-requested figures for streaming.
        let specs = specs_of(&[FigureKind::Fig05, FigureKind::Fig18], 1);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans, &plan::CostModel::priors());
        let first_fig18 = u
            .node_figures
            .iter()
            .position(|fs| fs.contains(&1))
            .expect("fig18 has nodes");
        assert!(u.node_figures[..first_fig18].iter().all(|fs| fs == &[0]));
    }
}
