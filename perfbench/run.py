#!/usr/bin/env python3
"""The repository benchmark: the release `suite` pipeline, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (each a fixed figure set, run at 2 workers, one fresh `suite`
process per pass):

- analytic-cold: the nine heavy analytic figures at --mixes 12, each pass
  with a fresh, empty --cache-dir.
- detail-cold: fig02, validate, fig11 and fig12 at --mixes 4, without a
  store.

With --trace 0 the script builds the workspace (`cargo build --release`),
sets the workload up, then runs measured passes of the release `suite`
binary until --seconds have elapsed, and reports wall, CPU and peak-memory
figures. With --trace 1 it instead runs rounds of an untraced pass plus the
per-layer replay in `perfbench/tracer`, then one traced pass, and reports
the per-layer figures.

Every TSV a pass produces is compared byte for byte: against `results/` at
seed 1, and against the same run's first output at any other seed. Every
pass must also meet its cold/warm check. A figure whose bytes are wrong,
whose process failed, or whose pass broke its check counts as failed, and
so does every replay check that does not hold.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the run environment. Exit status is non-zero,
with no result line, when the checkout is incomplete or the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer"
WORK = ROOT / ".perfbench_work"
WORKERS = 2
# Set-ups per end-to-end run; setup_s is their median.
SETUPS = 2
# Replay rounds per traced run, at least, so its counts can be compared.
MIN_ROUNDS = 2
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 880

ANALYTIC = ["fig05", "fig09", "fig13", "fig14", "fig15", "fig16", "fig17", "sensitivity", "ablation"]
DETAIL = ["fig02", "validate", "fig11", "fig12"]

# Per workload: the figures and --mixes of one pass, and whether each pass
# gets a fresh, empty store.
WORKLOADS = {
    "analytic-cold": {"figures": ANALYTIC, "mixes": 12, "store": True},
    "detail-cold": {"figures": DETAIL, "mixes": 4, "store": False},
}

# Per-layer counts that are deterministic: they must repeat exactly between
# the rounds of one traced run.
EXACT_COUNTS = [
    "sched.nodes", "cells.computed", "cells.reused", "hulls.computed", "hulls.reused",
    "disk.hits", "disk.misses", "disk.writes", "disk.corrupt_dropped", "warm.disk_hits",
    "detail.bank_misses", "detail.port_conflicts", "detail.port_wait_cycles",
    "detail.accesses", "runner.intervals", "runner.memo_hits", "runner.runs",
]


class BenchError(Exception):
    """A failure of the benchmark's own machinery (not of the program's outputs)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env():
    # The JUMANJI_* knobs would override the benchmark's flags.
    return {k: v for k, v in os.environ.items() if not k.startswith("JUMANJI_")}


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", "target")


def release_bin(name):
    return str(target_dir() / "release" / name)


class Proc:
    """One finished child process: wall seconds, CPU seconds, peak RSS in MB, exit code."""

    def __init__(self, wall, cpu, rss_mb, code, stdout):
        self.wall, self.cpu, self.rss_mb, self.code, self.stdout = wall, cpu, rss_mb, code, stdout


def run_proc(cmd, log_path, timeout=PROCESS_TIMEOUT_S):
    """Runs `cmd` from the checkout root, waiting for it to end; kills it on timeout."""
    out_path = log_path.with_suffix(".out")
    with open(out_path, "wb") as out, open(log_path, "ab") as err:
        start = time.perf_counter()
        try:
            p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        except OSError as e:
            raise BenchError(f"cannot start {cmd[0]}: {e}") from e
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # Tell Popen the child is reaped, so it never waits on it again.
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                p.returncode, out_path.read_text())


def build():
    """Builds the workspace exactly as tier-1 does, then the replay tracer beside it."""
    log_path = WORK / "build.log"
    for cmd in (["cargo", "build", "--release", "--offline"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(TRACER / "Cargo.toml"), "--target-dir", str(target_dir())]):
        r = run_proc(cmd, log_path, timeout=BUILD_TIMEOUT_S)
        if r.code != 0:
            tail = log_path.read_text(errors="replace")[-3000:]
            raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")


def build_profile():
    """The release profile the binaries are built under. The tracer's must be the workspace's."""
    def profile(path):
        return tomllib.loads(path.read_text()).get("profile", {}).get("release", {})

    ours = profile(ROOT / "Cargo.toml")
    if profile(TRACER / "Cargo.toml") != ours:
        raise BenchError("perfbench/tracer/Cargo.toml [profile.release] differs from the workspace's")
    flags = []
    config = ROOT / ".cargo" / "config.toml"
    if config.exists():
        for table in tomllib.loads(config.read_text()).get("target", {}).values():
            flags += table.get("rustflags", [])
    return {"profile": "release", "lto": ours.get("lto", False),
            "codegen_units": ours.get("codegen-units"), "rustflags": flags}


def source_commit():
    """The git commit, when the checkout is a repository, and a digest of the sources either way."""
    commit = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.suffix in (".rs", ".toml"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def dir_mb(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total / 2**20


class Pass:
    """One `suite` process: its costs, its figures' bytes, its --stats report and its problems."""

    def __init__(self, proc, figures, stats, problems):
        self.wall, self.cpu, self.rss_mb = proc.wall, proc.cpu, proc.rss_mb
        self.figures = figures  # name -> bytes, or None when the process failed
        self.stats = stats
        self.problems = problems


def run_pass(workload, seed, tag, store=None, trace=None):
    """Runs one pass of `workload` in a fresh `suite` process, against `store` if given."""
    w = WORKLOADS[workload]
    out, stats_path = WORK / f"{tag}-out", WORK / f"{tag}.json"
    cmd = [release_bin("suite"), "--figures", ",".join(w["figures"]), "--mixes", str(w["mixes"]),
           "--threads", str(WORKERS), "--seed", str(seed), "--out", str(out),
           "--stats", str(stats_path)]
    if store is not None:
        cmd += ["--cache-dir", str(store)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    r = run_proc(cmd, WORK / f"{tag}.log")
    ok = r.code == 0
    figures = {}
    for fig in w["figures"]:
        path = out / f"{fig}.tsv"
        figures[fig] = path.read_bytes() if ok and path.exists() else None
    shutil.rmtree(out, ignore_errors=True)
    stats = json.loads(stats_path.read_text()) if ok else None
    return Pass(r, figures, stats, [] if ok else [f"{tag}: exit {r.code}"])


def counters(stats):
    """The cold/warm-check counters of a --stats report."""
    sched, disk = stats["sched"], stats.get("disk_cache", {})
    return {"hulls": stats["hulls"]["misses"], "runs": sched["computed_runs"],
            "details": sched["detail_computed"],
            "disk_hits": sched["disk_run_hits"] + sched["detail_disk_hits"],
            "corrupt": disk.get("corrupt_dropped", 0)}


def check_cold(p, workload):
    """A cold pass computes: hulls and runs where it runs analytic cells, detailed
    cells where it runs only those, and reads no cell from a store."""
    if p.problems:
        return
    c = counters(p.stats)
    if workload == "analytic-cold" and not (c["hulls"] > 0 and c["runs"] > 0):
        p.problems.append(f"cold: hulls computed {c['hulls']}, runs computed {c['runs']}")
    if workload == "detail-cold" and c["details"] == 0:
        p.problems.append("cold: no detailed cell computed")
    if c["disk_hits"] != 0:
        p.problems.append(f"cold: {c['disk_hits']} store hits")


def check_warm(p):
    """A warm pass computes no cell, reads its cells from the store and drops no corrupt entry."""
    if p.problems:
        return
    c = counters(p.stats)
    if c["runs"] or c["details"] or c["corrupt"] or not c["disk_hits"]:
        p.problems.append(f"warm: {c}")


class Ledger:
    """Counts checks attempted and failed: one per figure of a pass, one per replay check."""

    def __init__(self, seed, figures):
        self.reference = {}
        if seed == 1:
            for fig in figures:
                self.reference[fig] = (ROOT / "results" / f"{fig}.tsv").read_bytes()
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, p, tag):
        """Checks each figure of pass `p`: its bytes, and its pass's cold/warm verdict."""
        for fig, got in p.figures.items():
            if got is None:
                why = "no output"
            elif fig not in self.reference:
                # No reference at this seed: the first output becomes it.
                self.reference[fig] = got
                why = None
            elif got != self.reference[fig]:
                why = "bytes differ"
            else:
                why = "; ".join(p.problems) or None
            self.check(why is None, f"{tag} {fig}: {why}")

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def cold_pass(workload, seed, tag, trace=None, keep_store=False):
    """One cold pass, checked; with a fresh, empty store if the workload uses one.

    Returns the pass and its store directory (deleted unless `keep_store`).
    """
    store = None
    if WORKLOADS[workload]["store"]:
        store = WORK / f"{tag}-store"
        shutil.rmtree(store, ignore_errors=True)
    p = run_pass(workload, seed, tag, store, trace)
    check_cold(p, workload)
    if store is not None and not keep_store:
        shutil.rmtree(store, ignore_errors=True)
    return p, store


def end_to_end(workload, seed, seconds, ledger):
    # Set-up: unmeasured cold passes. They warm the page cache, and at
    # seeds without a reference in `results/` the first one provides it.
    setups = []
    for i in range(SETUPS):
        start = time.perf_counter()
        p, _ = cold_pass(workload, seed, f"setup{i}")
        setups.append(time.perf_counter() - start)
        ledger.record(p, f"setup{i}")

    passes = []
    start = time.perf_counter()
    while True:
        p, _ = cold_pass(workload, seed, f"pass{len(passes)}")
        ledger.record(p, f"pass{len(passes)}")
        passes.append(p)
        walls = [p.wall for p in passes]
        # Stop before a pass that would end past the measuring time.
        if len(passes) >= 3 and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    log(f"{workload}: {len(passes)} passes, wall {min(walls):.3f}..{max(walls):.3f} s")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": statistics.median(setups),
    }, len(passes)


def suite_metrics(stats):
    """The suite, scheduler, cell-cache and store figures of one --stats report."""
    sched, disk = stats["sched"], stats.get("disk_cache", {})
    return {
        "render.ms": 1e3 * sum(f["seconds"] for f in stats["figures"]),
        "sched.elapsed_ms": sched["elapsed_us"] / 1e3,
        "sched.critical_path_ms": sched["critical_path_us"] / 1e3,
        "sched.steals": sched["steals"],
        "sched.nodes": sched["nodes"],
        "sched.computed_runs": sched["computed_runs"],
        "sched.detail_computed": sched["detail_computed"],
        "cells.computed": stats["cells_computed"],
        "cells.reused": stats["cells_reused"],
        "cells.reuse_ratio": stats["cell_reuse_rate"],
        "hulls.computed": stats["hulls"]["misses"],
        "hulls.reused": stats["hulls"]["hits"],
        "disk.hits": disk.get("hits", 0),
        "disk.misses": disk.get("misses", 0),
        "disk.writes": disk.get("writes", 0),
        "disk.corrupt_dropped": disk.get("corrupt_dropped", 0),
    }


def replay(workload, seed, tag):
    """The tracer's layer replay over the workload's cells, in a fresh process."""
    w = WORKLOADS[workload]
    store = WORK / f"{tag}-store"
    shutil.rmtree(store, ignore_errors=True)
    cmd = [release_bin("perfbench-tracer"), "--figures", ",".join(w["figures"]),
           "--mixes", str(w["mixes"]), "--seed", str(seed), "--threads", str(WORKERS),
           "--store", str(store)]
    r = run_proc(cmd, WORK / f"{tag}.log")
    shutil.rmtree(store, ignore_errors=True)
    if r.code != 0:
        raise BenchError(f"replay failed (exit {r.code}): {cmd}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def layer_round(workload, seed, n, ledger):
    """One round: an untraced cold pass, a warm pass against the store it
    filled (when the workload has one), then the layer replay.

    Returns the round's metrics and the cold pass's wall seconds.
    """
    p, store = cold_pass(workload, seed, f"round{n}", keep_store=True)
    ledger.record(p, f"round{n}")
    if p.stats is None:
        raise BenchError(f"round {n}: {p.problems}; see round{n}.log")
    m = suite_metrics(p.stats)
    if store is not None:
        m["disk.store_mb"] = dir_mb(store)
        warm = run_pass(workload, seed, f"round{n}-warm", store)
        check_warm(warm)
        ledger.record(warm, f"round{n}-warm")
        shutil.rmtree(store, ignore_errors=True)
        if warm.stats is None:
            raise BenchError(f"round {n}: {warm.problems}; see round{n}-warm.log")
        m["warm.wall_ms"] = warm.wall * 1e3
        m["warm.disk_hits"] = counters(warm.stats)["disk_hits"]
    m.update(replay(workload, seed, f"replay{n}"))
    # The replay must replay exactly the cells the pass computed, and read
    # back every cell it stored.
    ledger.check((m.get("runner.runs", 0), m.get("detail.cells", 0))
                 == (m["sched.computed_runs"], m["sched.detail_computed"]),
                 f"replay{n}: replayed cells differ from the cells the pass computed")
    ledger.check(m.get("disk.load_missing", 0) == 0,
                 f"replay{n}: {m.get('disk.load_missing')} stored cells missing on reload")
    return m, p.wall


def sched_busy_ratio(trace_path):
    """Sum of the workers' busy_us over the sum of their span_us, from the
    `sched_worker` events of a JSONL trace."""
    busy = span = 0
    with open(trace_path, "rb") as f:
        for line in f:
            if b'"sched_worker"' in line:
                e = json.loads(line)
                busy += e["busy_us"]
                span += e["span_us"]
    if not span:
        raise BenchError("the traced pass emitted no sched_worker event")
    return busy / span


def per_layer(workload, seed, seconds, ledger, names):
    rounds, untraced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        m, wall = layer_round(workload, seed, len(rounds), ledger)
        rounds.append(m)
        untraced.append(wall)
        # Leave the traced pass, which costs about a cold pass, inside --seconds.
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - start + (now - round_start) + wall > seconds:
            break
    for k in EXACT_COUNTS:
        values = sorted({r.get(k, 0) for r in rounds})
        ledger.check(len(values) == 1, f"count {k} differs between rounds: {values}")

    trace = WORK / "trace.jsonl"
    traced, _ = cold_pass(workload, seed, "traced", trace=trace)
    ledger.record(traced, "traced")
    if traced.stats is None:
        raise BenchError(f"traced pass: {traced.problems}; see traced.log")
    busy_ratio = sched_busy_ratio(trace)
    trace.unlink(missing_ok=True)

    m = {k: statistics.median(r.get(k, 0.0) for r in rounds) for k in names}
    wall = statistics.median(untraced)
    m["sched.busy_ratio"] = busy_ratio
    m["trace.overhead_ratio"] = traced.wall / wall
    # Simulated work is a count, equal in every round.
    m["analytic_intervals_per_s"] = rounds[0].get("runner.intervals", 0.0) / wall
    m["detail_accesses_per_s"] = rounds[0].get("detail.accesses", 0.0) / wall
    log(f"{workload}: {len(rounds)} rounds; traced {traced.wall:.3f} s, untraced {wall:.3f} s")
    return m, len(rounds)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (ROOT / "Cargo.toml", ROOT / "crates", ROOT / "results", spec_path, TRACER / "Cargo.toml"):
        if not needed.exists():
            log(f"not a complete checkout: {needed.relative_to(ROOT)} is missing")
            return 2
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        profile = build_profile()
        build()
        commit, digest = source_commit()
        ledger = Ledger(args.seed, WORKLOADS[args.workload]["figures"])
        if args.trace:
            values, samples = per_layer(args.workload, args.seed, args.seconds, ledger, list(units))
        else:
            values, samples = end_to_end(args.workload, args.seed, args.seconds, ledger)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [k for k in units if k not in values]
    if missing:
        log(f"metrics not measured: {missing}")
        return 1
    for note in ledger.notes[:20]:
        log(f"FAILED {note}")
    print(json.dumps({"env": {"nproc": os.cpu_count(), "workers": WORKERS, "commit": commit,
                              "source_digest": digest, "build": profile,
                              "workload": args.workload, "seed": args.seed, "samples": samples}}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
