//! Per-layer replay for the repository benchmark (`perfbench/run.py`).
//!
//! Replays a figure set's planned cells through each layer's public
//! functions, one call at a time, with a timer around every call:
//! `figures::plan::of`, `Experiment::new` and `Experiment::run` (split into
//! decide/act and observe by a timestamping sink), `DesignKind::allocate`,
//! `perf::evaluate`, `run_detailed` (summing its `DetailBank` counters),
//! `run_port_attack`, `leakage_experiment`, and, with `--store`, the disk
//! store's writes and reads of every computed cell.
//!
//! The cells are shared out to `--threads` workers, as the suite's work
//! graph shares them. Run it in a fresh process: the simulator's
//! process-wide memos (ratio hulls, deadlines) then start empty exactly as
//! they do in a `suite` pass. It prints one JSON object of named numbers
//! on stdout.
//!
//! ```text
//! perfbench-tracer --figures a,b --mixes N --seed N --threads N [--store DIR]
//! ```

// Timing layer calls is what this binary is for; the repository's
// clippy.toml reserves wall-clock reads for sanctioned timing code.
#![allow(clippy::disallowed_methods)]

use jumanji::attacks::leakage::{leakage_experiment, LeakageConfig};
use jumanji::attacks::port::{run_port_attack, PortAttackConfig};
use jumanji::prelude::*;
use jumanji::sim::detail::run_detailed;
use jumanji::sim::exact_ratio_hull;
use jumanji::sim::perf::{evaluate, Profile};
use jumanji_bench::cell_cache::run_key;
use jumanji_bench::figures::plan::{self, DetailPlan};
use jumanji_bench::{DiskCache, ExperimentSpec, FigureKind};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Named numbers, printed as one JSON object.
type Metrics = BTreeMap<String, f64>;

/// The metric-name slug of each design.
fn slug(design: DesignKind) -> &'static str {
    match design {
        DesignKind::Static => "static",
        DesignKind::Adaptive => "adaptive",
        DesignKind::VmPart => "vm-part",
        DesignKind::Jigsaw => "jigsaw",
        DesignKind::Jumanji => "jumanji",
        DesignKind::JumanjiInsecure => "jumanji-insecure",
        DesignKind::JumanjiIdealBatch => "jumanji-ideal-batch",
    }
}

/// Parsed command line: `--flag value` pairs.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        for pair in raw.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    values.insert(flag[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected `--flag value`, got `{}`", pair.join(" "))),
            }
        }
        Ok(Args(values))
    }

    fn text(&self, flag: &str) -> Result<&str, String> {
        self.0
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{flag}"))
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.text(flag)?
            .parse()
            .map_err(|_| format!("--{flag}: not a number"))
    }

    /// The figure specs the flags name, built exactly as the `suite`
    /// binary builds them from the same flags.
    fn specs(&self, threads: usize) -> Result<Vec<ExperimentSpec>, String> {
        let seed: u64 = self.number("seed")?;
        let mixes: usize = self.number("mixes")?;
        self.text("figures")?
            .split(',')
            .map(|name| {
                let kind = FigureKind::from_name(name)
                    .ok_or_else(|| format!("unknown figure `{name}`"))?;
                Ok(ExperimentSpec::new(kind)
                    .mixes(mixes)
                    .seed(seed)
                    .threads(threads))
            })
            .collect()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile `q` (0..=1) of `values`; 0 when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Splits one `Experiment::run` call by timestamping its events.
///
/// Per interval the runner emits one `Allocation` after allocate,
/// evaluate, descriptor install, coherence and vulnerability, then one
/// `Controller` per LC app as its queue and controller advance. The span
/// from the previous event (or the call's start) to `Allocation` is the
/// decide/act part; the span from `Allocation` to the interval's last
/// `Controller` is the observe part.
struct IntervalSink {
    state: Mutex<IntervalState>,
}

struct IntervalState {
    last: Instant,
    decide_act: Duration,
    observe: Duration,
    intervals: u64,
    memo_hits: u64,
}

impl IntervalSink {
    fn start() -> IntervalSink {
        IntervalSink {
            state: Mutex::new(IntervalState {
                last: Instant::now(),
                decide_act: Duration::ZERO,
                observe: Duration::ZERO,
                intervals: 0,
                memo_hits: 0,
            }),
        }
    }
}

impl Telemetry for IntervalSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &Event) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("sink lock");
        match event {
            Event::Allocation { .. } => {
                let span = now - st.last;
                st.decide_act += span;
                st.last = now;
            }
            Event::Controller { .. } => {
                let span = now - st.last;
                st.observe += span;
                st.last = now;
            }
            Event::RunSummary {
                intervals,
                memo_hits,
                ..
            } => {
                st.intervals += intervals;
                st.memo_hits += memo_hits;
            }
            _ => {}
        }
    }
}

/// Sums the detailed simulator's per-bank contention counters.
#[derive(Default)]
struct BankSink {
    misses: AtomicU64,
    port_conflicts: AtomicU64,
    port_wait_cycles: AtomicU64,
}

impl Telemetry for BankSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &Event) {
        if let Event::DetailBank {
            misses,
            port_conflicts,
            port_wait_cycles,
            ..
        } = event
        {
            self.misses.fetch_add(*misses, Ordering::Relaxed);
            self.port_conflicts
                .fetch_add(*port_conflicts, Ordering::Relaxed);
            self.port_wait_cycles
                .fetch_add(*port_wait_cycles, Ordering::Relaxed);
        }
    }
}

/// One unique experiment of the plan and its unique design runs.
struct PlannedExperiment {
    mix: WorkloadMix,
    load: LcLoad,
    opts: SimOptions,
    runs: Vec<(DesignKind, u128)>,
}

/// The plan's unique experiments and detailed cells, deduplicated by
/// the same content keys the suite's work graph uses, in plan order,
/// and the milliseconds spent in `plan::of`.
fn unique_cells(
    specs: &[ExperimentSpec],
) -> Result<(Vec<PlannedExperiment>, Vec<DetailPlan>, f64), String> {
    let mut exps: Vec<PlannedExperiment> = Vec::new();
    let mut exp_ids: BTreeMap<u128, usize> = BTreeMap::new();
    let mut runs: BTreeSet<u128> = BTreeSet::new();
    let mut details = Vec::new();
    let mut detail_keys: BTreeSet<u128> = BTreeSet::new();
    let mut plan_ms = 0.0;
    for spec in specs {
        let start = Instant::now();
        let p = plan::of(spec).map_err(|e| e.to_string())?;
        plan_ms += ms(start.elapsed());
        for cell in p.cells {
            let ekey = cell.experiment_key();
            let id = *exp_ids.entry(ekey).or_insert_with(|| {
                exps.push(PlannedExperiment {
                    mix: cell.mix.clone(),
                    load: cell.load,
                    opts: cell.opts.clone(),
                    runs: Vec::new(),
                });
                exps.len() - 1
            });
            for &design in &cell.designs {
                let rkey = run_key(ekey, design);
                if runs.insert(rkey) {
                    exps[id].runs.push((design, rkey));
                }
            }
        }
        for d in p.details {
            if detail_keys.insert(d.key()) {
                details.push(d);
            }
        }
    }
    Ok((exps, details, plan_ms))
}

/// The placement input the runner builds for an experiment's first
/// interval: exact ratio hulls scaled by the profile-based access rates,
/// and each LC app at its controller's initial size. Returns the input
/// and those rates.
fn first_interval_input(exp: &Experiment, opts: &SimOptions) -> (PlacementInput, Vec<f64>) {
    let cfg = &opts.cfg;
    let unit = cfg.llc.way_bytes();
    let units = cfg.llc.total_ways() as usize;
    let params = opts
        .controller
        .unwrap_or_else(|| ControllerParams::micro2020(cfg.llc.total_bytes() as f64));
    let mut deadlines = exp.deadlines_cycles().iter();
    let mut apps = Vec::new();
    let mut lc_sizes = Vec::new();
    let mut rates = Vec::new();
    for a in exp.apps() {
        let (rate, size) = match &a.profile {
            Profile::Batch(b) => (1.5e9 * b.llc_apki / 1000.0, 0.0),
            Profile::Lc(l, load) => {
                let deadline = *deadlines.next().expect("one deadline per LC app");
                let ctrl = FeedbackController::new(params, deadline, params.panic_bytes);
                (l.qps(*load) * l.accesses_per_req, ctrl.size_bytes())
            }
        };
        apps.push(AppModel {
            id: a.id,
            vm: a.vm,
            core: a.core,
            kind: a.profile.kind(),
            curve: exact_ratio_hull(&a.profile, unit, units).scaled(rate.max(1.0)),
            access_rate: rate,
        });
        lc_sizes.push(size);
        rates.push(rate);
    }
    let input = PlacementInput {
        cfg: Arc::new(cfg.clone()),
        apps,
        lc_sizes,
    };
    (input, rates)
}

/// Per-call timings and summed counts gathered by one replay worker.
#[derive(Default)]
struct Tally {
    new: Vec<f64>,
    run: BTreeMap<&'static str, Vec<f64>>,
    allocate: BTreeMap<&'static str, Vec<f64>>,
    evaluate: Vec<f64>,
    store: Vec<f64>,
    load: Vec<f64>,
    detail: Vec<f64>,
    counts: Metrics,
}

impl Tally {
    fn count(&mut self, k: &str, v: f64) {
        *self.counts.entry(k.to_string()).or_insert(0.0) += v;
    }

    fn merge(&mut self, other: Tally) {
        self.new.extend(other.new);
        for (k, v) in other.run {
            self.run.entry(k).or_default().extend(v);
        }
        for (k, v) in other.allocate {
            self.allocate.entry(k).or_default().extend(v);
        }
        self.evaluate.extend(other.evaluate);
        self.store.extend(other.store);
        self.load.extend(other.load);
        self.detail.extend(other.detail);
        for (k, v) in other.counts {
            self.count(&k, v);
        }
    }

    /// Times one `allocate` of `design` on `input`.
    fn allocate(&mut self, design: DesignKind, input: &PlacementInput) -> Allocation {
        let start = Instant::now();
        let alloc = design.allocate(input);
        self.allocate
            .entry(slug(design))
            .or_default()
            .push(us(start.elapsed()));
        alloc
    }

    /// Times one `perf::evaluate` of `alloc`.
    fn evaluate(
        &mut self,
        cfg: &SystemConfig,
        profiles: &[Profile],
        cores: &[CoreId],
        alloc: &Allocation,
        rates: &[f64],
    ) {
        let start = Instant::now();
        black_box(evaluate(cfg, profiles, cores, alloc, rates));
        self.evaluate.push(us(start.elapsed()));
    }

    /// Times one store write and the read that brings the entry back.
    fn store_and_load<T>(&mut self, write: impl FnOnce(), read: impl FnOnce() -> Option<T>) {
        let start = Instant::now();
        write();
        self.store.push(us(start.elapsed()));
        let start = Instant::now();
        let hit = black_box(read()).is_some();
        self.load.push(us(start.elapsed()));
        self.count("disk.load_missing", if hit { 0.0 } else { 1.0 });
    }
}

/// One unit of replay work.
enum Job<'a> {
    PortAttack,
    Leakage,
    Detail(&'a DetailPlan),
    Experiment(&'a PlannedExperiment),
}

impl Job<'_> {
    fn replay(&self, t: &mut Tally, store: Option<&DiskCache>) {
        match self {
            Job::PortAttack => {
                let start = Instant::now();
                black_box(run_port_attack(PortAttackConfig::default()));
                t.count("attacks.port_ms", ms(start.elapsed()));
            }
            Job::Leakage => {
                let start = Instant::now();
                black_box(leakage_experiment(LeakageConfig::default()));
                t.count("attacks.leakage_ms", ms(start.elapsed()));
            }
            Job::Detail(d) => replay_detail(t, d, store),
            Job::Experiment(e) => replay_experiment(t, e, store),
        }
    }
}

/// Constructs an experiment and runs each of its planned designs.
fn replay_experiment(t: &mut Tally, e: &PlannedExperiment, store: Option<&DiskCache>) {
    let (mix, opts) = (e.mix.clone(), e.opts.clone());
    let start = Instant::now();
    let exp = Experiment::new(mix, e.load, opts);
    t.new.push(ms(start.elapsed()));
    let (input, rates) = first_interval_input(&exp, &e.opts);
    let profiles: Vec<Profile> = exp.apps().iter().map(|a| a.profile.clone()).collect();
    let cores: Vec<CoreId> = exp.apps().iter().map(|a| a.core).collect();
    for &(design, key) in &e.runs {
        let sink = IntervalSink::start();
        let start = Instant::now();
        let result = exp.run(design, &sink);
        t.run
            .entry(slug(design))
            .or_default()
            .push(ms(start.elapsed()));
        let st = sink.state.into_inner().expect("sink lock");
        t.count("runner.decide_act_ms", ms(st.decide_act));
        t.count("runner.observe_ms", ms(st.observe));
        t.count("runner.intervals", st.intervals as f64);
        t.count("runner.memo_hits", st.memo_hits as f64);
        if let Some(store) = store {
            t.store_and_load(|| store.store_run(key, &result), || store.load_run(key));
        }
        let alloc = t.allocate(design, &input);
        t.evaluate(&input.cfg, &profiles, &cores, &alloc, &rates);
    }
}

/// Runs one detailed cell, after evaluating its allocation analytically.
fn replay_detail(t: &mut Tally, d: &DetailPlan, store: Option<&DiskCache>) {
    let input = PlacementInput::example(&d.opts.cfg);
    let rates: Vec<f64> = input.apps.iter().map(|a| a.access_rate).collect();
    t.evaluate(&input.cfg, &d.profiles, &d.cores, &d.alloc, &rates);

    let sink = BankSink::default();
    let start = Instant::now();
    let report = run_detailed(&d.opts, &d.profiles, &d.cores, &d.vms, &d.alloc, &sink);
    let elapsed = start.elapsed();
    t.detail.push(ms(elapsed));
    let accesses: u64 = report.apps.iter().map(|a| a.accesses).sum();
    t.count("detail.accesses", accesses as f64);
    t.count("detail.ns", elapsed.as_nanos() as f64);
    t.count("detail.bank_misses", sink.misses.into_inner() as f64);
    t.count(
        "detail.port_conflicts",
        sink.port_conflicts.into_inner() as f64,
    );
    t.count(
        "detail.port_wait_cycles",
        sink.port_wait_cycles.into_inner() as f64,
    );
    if let Some(store) = store {
        let key = d.key();
        t.store_and_load(
            || store.store_detail(key, &report),
            || store.load_detail(key),
        );
    }
}

/// Replays the plan's cells through the layers, one timed call at a time.
fn replay(args: &Args) -> Result<Metrics, String> {
    let threads: usize = args.number("threads")?;
    let specs = args.specs(threads)?;
    let store = match args.text("store") {
        Ok(dir) => Some(DiskCache::open(dir).map_err(|e| e.to_string())?),
        Err(_) => None,
    };
    let (exps, details, plan_ms) = unique_cells(&specs)?;
    let mut t = Tally::default();

    // The detailed figures' allocator calls: one per design on the
    // example input their plans allocate from.
    let mut allocated: Vec<DesignKind> = Vec::new();
    for d in &details {
        if !allocated.contains(&d.design) {
            allocated.push(d.design);
            black_box(t.allocate(d.design, &PlacementInput::example(&d.opts.cfg)));
        }
    }

    // Longest jobs first, so the attacks overlap the detailed cells.
    let kinds: Vec<FigureKind> = specs.iter().map(|s| s.kind).collect();
    let mut jobs = Vec::new();
    if kinds.contains(&FigureKind::Fig11) {
        jobs.push(Job::PortAttack);
    }
    if kinds.contains(&FigureKind::Fig12) {
        jobs.push(Job::Leakage);
    }
    jobs.extend(details.iter().map(Job::Detail));
    jobs.extend(exps.iter().map(Job::Experiment));
    let next = AtomicUsize::new(0);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tally::default();
                    while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        job.replay(&mut t, store.as_ref());
                    }
                    t
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay worker panicked"))
            .collect()
    });
    for w in tallies {
        t.merge(w);
    }

    let mut m = std::mem::take(&mut t.counts);
    m.insert("plan.ms".into(), plan_ms);
    m.insert("runner.new_ms".into(), t.new.iter().sum());
    let mut runs = 0;
    for (design, v) in &t.run {
        m.insert(format!("runner.run_ms.{design}"), v.iter().sum());
        m.insert(format!("runner.run_ms.{design}.p50"), percentile(v, 0.5));
        runs += v.len();
    }
    m.insert("runner.runs".into(), runs as f64);
    let intervals = m.get("runner.intervals").copied().unwrap_or(0.0);
    if intervals > 0.0 {
        m.insert(
            "runner.memo_hit_ratio".into(),
            m.get("runner.memo_hits").copied().unwrap_or(0.0) / intervals,
        );
    }
    for (design, v) in &t.allocate {
        m.insert(format!("core.allocate_us.{design}"), percentile(v, 0.5));
    }
    m.insert("perf.evaluate_us".into(), percentile(&t.evaluate, 0.5));
    m.insert("disk.store_us.p50".into(), percentile(&t.store, 0.5));
    m.insert("disk.store_us.p99".into(), percentile(&t.store, 0.99));
    m.insert("disk.load_us.p50".into(), percentile(&t.load, 0.5));
    m.insert("disk.load_us.p99".into(), percentile(&t.load, 0.99));
    m.insert("detail.cells".into(), details.len() as f64);
    m.insert("detail.cell_ms".into(), percentile(&t.detail, 0.5));
    let accesses = m.get("detail.accesses").copied().unwrap_or(0.0);
    if accesses > 0.0 {
        m.insert(
            "detail.ns_per_access".into(),
            m.get("detail.ns").copied().unwrap_or(0.0) / accesses,
        );
    }
    Ok(m)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&raw).and_then(|args| replay(&args)) {
        Ok(m) => {
            let body: Vec<String> = m
                .iter()
                // `+ 0.0` turns the -0 of an empty float sum into 0.
                .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { v + 0.0 } else { 0.0 }))
                .collect();
            println!("{{{}}}", body.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::from(1)
        }
    }
}
