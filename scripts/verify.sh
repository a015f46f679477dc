#!/usr/bin/env sh
# Repo verification: formatting, lints, the full test suite, and a quick
# end-to-end pass of the experiment engine (including the parallel-vs-
# serial byte-identity guarantee). Run from the repo root:
#
#   sh scripts/verify.sh
#
# Builds are offline (--offline): the workspace vendors shims for its few
# external dev-dependencies, so no network access is required.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== jumanji-lint self-test (seeded fixture corpus, exact diagnostics)"
cargo run --offline --release -p jumanji-lint -- --self-test

echo "== jumanji-lint workspace scan (determinism / cache-key / unsafe / env gates)"
cargo run --offline --release -p jumanji-lint

echo "== cargo build --release"
cargo build --offline --release

echo "== cargo test --release"
cargo test --offline --release --workspace

echo "== golden-trace regression (flat kernels vs pre-refactor fixtures)"
cargo test --offline --release -p jumanji --test golden_trace

echo "== golden-analytic regression (epoch engine vs pre-refactor fixtures)"
cargo test --offline --release -p jumanji --test golden_analytic

echo "== suite golden regression (full fig13/fig14 matrix, gated tests on)"
JUMANJI_SUITE_GOLDEN=1 cargo test --offline --release -p jumanji-bench --test suite_golden

echo "== plan coverage (every plannable figure, full-matrix figures on)"
JUMANJI_SUITE_GOLDEN=1 cargo test --offline --release -p jumanji-bench --test plan_coverage

echo "== cargo bench smoke (one iteration per benchmark, no statistics)"
JUMANJI_BENCH_SMOKE=1 cargo bench --offline

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== parallel output is byte-identical to serial"
./target/release/fig13 --mixes 2 --threads 1 >"$tmp/t1.tsv"
./target/release/fig13 --mixes 2 --threads 4 >"$tmp/t4.tsv"
cmp "$tmp/t1.tsv" "$tmp/t4.tsv"
./target/release/validate --threads 1 >"$tmp/v1.tsv"
./target/release/validate --threads 4 >"$tmp/v4.tsv"
cmp "$tmp/v1.tsv" "$tmp/v4.tsv"
./target/release/fig02 --threads 1 >"$tmp/f1.tsv"
./target/release/fig02 --threads 4 >"$tmp/f4.tsv"
cmp "$tmp/f1.tsv" "$tmp/f4.tsv"

echo "== suite output is byte-identical to the standalone binaries"
./target/release/fig13 --mixes 2 --threads 1 >"$tmp/s13.tsv"
./target/release/fig14 --mixes 2 --threads 1 >"$tmp/s14.tsv"
./target/release/suite --figures fig13,fig14 --mixes 2 --threads 1 \
    --out "$tmp/suite_t1" 2>"$tmp/suite_t1.log"
cmp "$tmp/suite_t1/fig13.tsv" "$tmp/s13.tsv"
cmp "$tmp/suite_t1/fig14.tsv" "$tmp/s14.tsv"
./target/release/suite --figures fig13,fig14 --mixes 2 --threads 4 \
    --out "$tmp/suite_t4" 2>/dev/null
cmp "$tmp/suite_t4/fig13.tsv" "$tmp/s13.tsv"
cmp "$tmp/suite_t4/fig14.tsv" "$tmp/s14.tsv"

echo "== suite dedups cells across figures (fig14 reuses fig13's runs)"
grep -Eq 'cells: [0-9]+ computed, [1-9][0-9]* reused' "$tmp/suite_t1.log"

echo "== scheduled suite is thread-count-invariant and matches the uncached reference"
sched_figs=fig05,fig13,fig14,fig15,fig16,fig17,sensitivity,ablation
./target/release/suite --figures "$sched_figs" --mixes 2 --threads 1 \
    --out "$tmp/sched_t1" 2>/dev/null
./target/release/suite --figures "$sched_figs" --mixes 2 --threads 4 \
    --out "$tmp/sched_t4" 2>"$tmp/sched_t4.log"
./target/release/suite --figures "$sched_figs" --mixes 2 --threads 4 \
    --no-cache --out "$tmp/sched_nc" 2>/dev/null
for f in fig05 fig13 fig14 fig15 fig16 fig17 sensitivity ablation; do
    cmp "$tmp/sched_t1/$f.tsv" "$tmp/sched_t4/$f.tsv"
    cmp "$tmp/sched_t1/$f.tsv" "$tmp/sched_nc/$f.tsv"
done
grep -q '\[suite\] sched:' "$tmp/sched_t4.log"

echo "== --no-cache output is byte-identical to the cached suite"
./target/release/suite --figures fig13,fig14 --mixes 2 --threads 1 \
    --no-cache --out "$tmp/suite_nc" 2>/dev/null
cmp "$tmp/suite_nc/fig13.tsv" "$tmp/s13.tsv"
cmp "$tmp/suite_nc/fig14.tsv" "$tmp/s14.tsv"

echo "== warm disk cache is byte-identical to cold (nine analytic figures)"
disk_figs=fig05,fig09,fig13,fig14,fig15,fig16,fig17,sensitivity,ablation
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 4 \
    --cache-dir "$tmp/store" --out "$tmp/disk_cold" 2>"$tmp/disk_cold.log"
# Segments, not one file per cell: the cold store holds at most 8
# regular files (sidecars included) and no temp-file leftovers.
[ "$(find "$tmp/store" -type f | wc -l)" -le 8 ]
[ -z "$(find "$tmp/store" -name '*.tmp*')" ]
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 4 \
    --cache-dir "$tmp/store" --out "$tmp/disk_warm" 2>"$tmp/disk_warm.log"
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 4 \
    --no-cache --out "$tmp/disk_nc" 2>/dev/null
for f in fig05 fig09 fig13 fig14 fig15 fig16 fig17 sensitivity ablation; do
    cmp "$tmp/disk_cold/$f.tsv" "$tmp/disk_warm/$f.tsv"
    cmp "$tmp/disk_cold/$f.tsv" "$tmp/disk_nc/$f.tsv"
done

echo "== warm suite run reports disk hits and zero computed runs"
grep -Eq '\[suite\] disk cache: [1-9][0-9]* hits' "$tmp/disk_warm.log"
grep -Eq '\[suite\] sched: 0 runs computed, [1-9][0-9]* served from disk' \
    "$tmp/disk_warm.log"
grep -Eq '\[suite\] disk cache: 0 hits' "$tmp/disk_cold.log"

echo "== detailed cells: cold/warm/--no-cache suite runs are byte-identical"
# Equal --accesses across both figures so validate's mix-0 cells dedup
# against fig02's in the work graph.
detail_figs=fig02,validate
detail_acc=60000
./target/release/suite --figures "$detail_figs" --mixes 2 --accesses "$detail_acc" \
    --threads 4 --cache-dir "$tmp/dstore" --out "$tmp/detail_cold" \
    2>"$tmp/detail_cold.log"
./target/release/suite --figures "$detail_figs" --mixes 2 --accesses "$detail_acc" \
    --threads 4 --cache-dir "$tmp/dstore" --out "$tmp/detail_warm" \
    2>"$tmp/detail_warm.log"
./target/release/suite --figures "$detail_figs" --mixes 2 --accesses "$detail_acc" \
    --threads 4 --no-cache --out "$tmp/detail_nc" 2>/dev/null
for f in fig02 validate; do
    cmp "$tmp/detail_cold/$f.tsv" "$tmp/detail_warm/$f.tsv"
    cmp "$tmp/detail_cold/$f.tsv" "$tmp/detail_nc/$f.tsv"
done

echo "== suite detailed figures match the standalone binaries"
./target/release/fig02 --accesses "$detail_acc" >"$tmp/s02.tsv"
./target/release/validate --mixes 2 --accesses "$detail_acc" >"$tmp/sval.tsv"
cmp "$tmp/detail_cold/fig02.tsv" "$tmp/s02.tsv"
cmp "$tmp/detail_cold/validate.tsv" "$tmp/sval.tsv"

echo "== warm run serves every detail cell from disk, cold computes them"
grep -Eq '\[suite\] sched: [1-9][0-9]* detail cells computed, 0 served from disk' \
    "$tmp/detail_cold.log"
grep -Eq '\[suite\] sched: 0 detail cells computed, [1-9][0-9]* served from disk' \
    "$tmp/detail_warm.log"

echo "== every figure binary runs at --mixes 1 (spec-wrapper smoke test)"
for fig in fig02 fig04 fig05 fig08 fig09 fig11 fig12 fig13 fig14 fig15 \
           fig16 fig17 fig18 table2 table3 ablation sensitivity validate; do
    printf '   %s\n' "$fig"
    ./target/release/"$fig" --mixes 1 --accesses 2000 >"$tmp/smoke_$fig.tsv"
    head -c 1 "$tmp/smoke_$fig.tsv" | grep -q '#'
done

echo "== telemetry off is byte-identical to the pinned golden TSVs"
./target/release/fig13 --mixes 12 >"$tmp/fig13.tsv"
cmp "$tmp/fig13.tsv" results/fig13.tsv
./target/release/fig14 --mixes 12 >"$tmp/fig14.tsv"
cmp "$tmp/fig14.tsv" results/fig14.tsv

echo "== --trace emits controller events as JSONL"
./target/release/fig05 --trace "$tmp/trace.jsonl" >/dev/null
grep -q '"event":"controller"' "$tmp/trace.jsonl"
grep -q '"event":"run_summary"' "$tmp/trace.jsonl"

echo "== a traced suite emits each unique cell's event stream exactly once"
./target/release/suite --figures fig13,fig14 --mixes 1 --threads 2 \
    --trace "$tmp/suite_trace.jsonl" --stats "$tmp/suite_trace.json" \
    >/dev/null 2>&1
summaries="$(grep -c '"event":"run_summary"' "$tmp/suite_trace.jsonl")"
computed="$(sed -n 's/.*"computed_runs": *\([0-9][0-9]*\).*/\1/p' "$tmp/suite_trace.json")"
[ "$summaries" -eq "$computed" ]

echo "verify: OK"
