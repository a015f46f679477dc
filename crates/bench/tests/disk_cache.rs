//! Integration tests for the disk-backed cell store, driven through the
//! [`CellCache`] exactly as the figure binaries drive it.
//!
//! The contract under test: whatever happens to the segment files —
//! truncation, bit flips, a different format version, a damaged record
//! header, two processes racing to write the same cell, eviction racing
//! with writes — a reader either gets the cached result byte-identical
//! to a fresh computation, or silently recomputes it. Never a panic,
//! never a wrong answer.

use jumanji::core::{AppKind, DesignKind, PlacementInput};
use jumanji::prelude::*;
use jumanji::sim::detail::{DetailAppStats, DetailOptions, DetailReport};
use jumanji::sim::perf::Profile;
use jumanji::sim::SimOptions;
use jumanji::telemetry::NoopSink;
use jumanji::types::codec::MAGIC;
use jumanji::types::{AppId, CoreId, Seconds, VmId};
use jumanji::workloads::case_study_mix;
use jumanji_bench::cell_cache::{experiment_key, run_key, CellCache, RunSource};
use jumanji_bench::figures::plan;
use jumanji_bench::{run_spec_to, DiskCache, ExperimentSpec, FigureKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn quick_opts() -> SimOptions {
    SimOptions {
        duration: Seconds(0.4),
        ..SimOptions::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jumanji-disk-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh in-memory cache backed by the store at `dir` — the moral
/// equivalent of a new process pointed at `--cache-dir dir`.
fn cache_with(dir: &Path) -> CellCache {
    let cache = CellCache::new();
    cache.attach_disk(Arc::new(DiskCache::open(dir).expect("open store")));
    cache
}

/// Runs the one cell every test here uses and reports where the result
/// came from.
fn run_cell(cache: &CellCache) -> (String, RunSource) {
    let handle = cache.experiment(case_study_mix(7), LcLoad::High, quick_opts());
    let (result, source) = cache.run_sourced(&handle, DesignKind::Jumanji, &NoopSink);
    (format!("{result:?}"), source)
}

/// The store's sealed segment files.
fn segments(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir.join("segments"))
        .expect("segment directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect()
}

/// The bytes of the store's one sealed segment — a cold run of one cell
/// writes exactly one record.
fn only_segment(dir: &Path) -> Vec<u8> {
    let [path] = segments(dir)
        .try_into()
        .expect("exactly one sealed segment");
    std::fs::read(path).expect("read segment")
}

/// Replaces every segment of the store with one holding `bytes`.
fn replace_segments(dir: &Path, bytes: &[u8]) {
    for path in segments(dir) {
        std::fs::remove_file(path).expect("remove segment");
    }
    std::fs::write(dir.join("segments").join("damaged-1.seg"), bytes).expect("write segment");
}

/// Where the record's envelope starts (its magic number).
fn envelope_start(record: &[u8]) -> usize {
    record
        .windows(4)
        .position(|w| w == MAGIC.to_le_bytes())
        .expect("envelope magic")
}

/// Asserts that a reader over the damaged store recomputes the cell
/// with output identical to `reference`, drops the corrupt record, and
/// leaves the store warm again for the next reader.
fn assert_recovers(dir: &Path, reference: &str, what: &str) {
    let cache = cache_with(dir);
    let (out, source) = run_cell(&cache);
    assert_eq!(source, RunSource::Computed, "{what}: must fall back");
    assert_eq!(out, reference, "{what}: recomputed output must match");
    let disk = cache.stats().disk.expect("disk attached");
    assert_eq!(disk.corrupt_dropped, 1, "{what}: corrupt entry dropped");
    assert!(disk.writes >= 1, "{what}: recomputed cell rewritten");
    // Dropping the reader seals its rewrite.
    drop(cache);

    // The rewrite healed the store: the next reader is warm.
    let (out, source) = run_cell(&cache_with(dir));
    assert_eq!(source, RunSource::Disk, "{what}: store must heal");
    assert_eq!(out, reference);
}

#[test]
fn corrupt_entries_recompute_identically() {
    let dir = temp_dir("corrupt");
    let (reference, source) = run_cell(&cache_with(&dir));
    assert_eq!(source, RunSource::Computed);
    let pristine = only_segment(&dir);

    // Truncated record (a segment cut short in place).
    replace_segments(&dir, &pristine[..pristine.len() / 2]);
    assert_recovers(&dir, &reference, "truncated");

    // Bit flip in the payload: the envelope checksum catches it.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    replace_segments(&dir, &flipped);
    assert_recovers(&dir, &reference, "bad checksum");

    // A record from a different format version (bytes 4..6 of the
    // envelope hold the little-endian version).
    let mut other_version = pristine.clone();
    other_version[envelope_start(&pristine) + 4] ^= 0xFF;
    replace_segments(&dir, &other_version);
    assert_recovers(&dir, &reference, "wrong version");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The one detailed cell the detail-recovery test uses: the paper's
/// example placement under Jumanji, shortened to a few thousand
/// accesses.
fn detail_inputs() -> (
    DetailOptions,
    Vec<Profile>,
    Vec<CoreId>,
    Vec<VmId>,
    Allocation,
) {
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let lc = tailbench();
    let batch = spec2006();
    let profiles: Vec<Profile> = input
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| match a.kind {
            AppKind::LatencyCritical => Profile::Lc(lc[i % lc.len()].clone(), LcLoad::High),
            AppKind::Batch => Profile::Batch(batch[i % batch.len()].clone()),
        })
        .collect();
    let cores: Vec<CoreId> = input.apps.iter().map(|a| a.core).collect();
    let vms: Vec<VmId> = input.apps.iter().map(|a| a.vm).collect();
    let alloc = DesignKind::Jumanji.allocate(&input);
    let opts = DetailOptions {
        cfg,
        accesses_per_app: 2_000,
        ..DetailOptions::default()
    };
    (opts, profiles, cores, vms, alloc)
}

/// Runs that detailed cell through the cache and reports where the
/// report came from. Debug formatting prints floats shortest-roundtrip,
/// so equal strings imply bit-equal reports.
fn run_detail_cell(cache: &CellCache) -> (String, RunSource) {
    let (opts, profiles, cores, vms, alloc) = detail_inputs();
    let (report, source) =
        cache.run_detail_sourced(&opts, &profiles, &cores, &vms, &alloc, &NoopSink);
    (format!("{report:?}"), source)
}

/// [`assert_recovers`], for the detailed-simulator namespace.
fn assert_detail_recovers(dir: &Path, reference: &str, what: &str) {
    let cache = cache_with(dir);
    let (out, source) = run_detail_cell(&cache);
    assert_eq!(source, RunSource::Computed, "{what}: must fall back");
    assert_eq!(out, reference, "{what}: recomputed report must match");
    let disk = cache.stats().disk.expect("disk attached");
    assert_eq!(disk.corrupt_dropped, 1, "{what}: corrupt entry dropped");
    assert!(disk.writes >= 1, "{what}: recomputed cell rewritten");
    drop(cache);

    let (out, source) = run_detail_cell(&cache_with(dir));
    assert_eq!(source, RunSource::Disk, "{what}: store must heal");
    assert_eq!(out, reference);
}

#[test]
fn corrupt_detail_entries_recompute_identically() {
    let dir = temp_dir("detail-corrupt");
    let (reference, source) = run_detail_cell(&cache_with(&dir));
    assert_eq!(source, RunSource::Computed);
    let pristine = only_segment(&dir);

    // Truncated record (a segment cut short in place).
    replace_segments(&dir, &pristine[..pristine.len() / 2]);
    assert_detail_recovers(&dir, &reference, "truncated");

    // Bit flip in the payload: the envelope checksum catches it.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    replace_segments(&dir, &flipped);
    assert_detail_recovers(&dir, &reference, "bad checksum");

    // A record from a different format version (bytes 4..6 of the
    // envelope hold the little-endian version).
    let mut other_version = pristine.clone();
    other_version[envelope_start(&pristine) + 4] ^= 0xFF;
    replace_segments(&dir, &other_version);
    assert_detail_recovers(&dir, &reference, "wrong version");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Strategy for one app's counters: wide-range u64s, finite
/// non-negative float sums (the decoder rejects non-finite totals by
/// design).
fn app_stats() -> impl Strategy<Value = DetailAppStats> {
    (
        (0u64..u64::MAX, 0u64..u64::MAX, 0.0f64..1e18, 0.0f64..1e18),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(
            |(
                (accesses, misses, total_latency, total_hops),
                (port_wait, tlb_misses, writebacks),
            )| {
                DetailAppStats {
                    accesses,
                    misses,
                    total_latency,
                    total_hops,
                    port_wait,
                    tlb_misses,
                    writebacks,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any well-formed report — any counter values, any occupant sets
    /// over the report's own apps — survives the store bit-exactly.
    #[test]
    fn detail_reports_round_trip_bit_exactly(
        apps in proptest::collection::vec(app_stats(), 1..6),
        bank_seed in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 0..4), 0..8),
        key_hi in 0u64..u64::MAX,
        key_lo in 0u64..u64::MAX,
    ) {
        let key = ((key_hi as u128) << 64) | key_lo as u128;
        let napps = apps.len();
        let report = DetailReport {
            bank_occupants: bank_seed
                .iter()
                .map(|occ| occ.iter().map(|&a| AppId(a % napps)).collect())
                .collect(),
            apps,
        };
        let dir = temp_dir("detail-prop");
        let disk = DiskCache::open(&dir).expect("open store");
        disk.store_detail(key, &report);
        let loaded = disk.load_detail(key).expect("entry readable");
        prop_assert_eq!(format!("{:?}", loaded), format!("{:?}", report));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_writers_never_leave_torn_cells() {
    let dir = temp_dir("race");
    // Two independent caches (own memory, own store handle — the moral
    // equivalent of two processes) compute and persist the same cell
    // concurrently.
    let results: Vec<String> = std::thread::scope(|scope| {
        let dir = &dir;
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let (out, _) = run_cell(&cache_with(dir));
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .collect()
    });
    assert_eq!(results[0], results[1], "racing writers must agree");

    // Whoever won the rename, the surviving entry is valid and
    // byte-identical to both computations.
    let cache = cache_with(&dir);
    let (out, source) = run_cell(&cache);
    assert_eq!(source, RunSource::Disk, "store must be warm after the race");
    assert_eq!(out, results[0]);
    assert_eq!(
        cache.stats().disk.expect("disk attached").corrupt_dropped,
        0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_header_key_is_a_clean_miss() {
    let dir = temp_dir("keyflip");
    let (reference, _) = run_cell(&cache_with(&dir));
    // Byte 2 of a record is the lowest byte of its header's key.
    let mut flipped = only_segment(&dir);
    flipped[2] ^= 0x01;
    replace_segments(&dir, &flipped);

    let cache = cache_with(&dir);
    let (out, source) = run_cell(&cache);
    assert_eq!(source, RunSource::Computed, "the true key must miss");
    assert_eq!(out, reference, "recomputed output must match");
    let disk = cache.stats().disk.expect("disk attached");
    assert_eq!(disk.corrupt_dropped, 0, "a clean miss, not corruption");

    // The key the header now names never yields this cell: the envelope
    // checksum covers the true key.
    let key = run_key(
        experiment_key(&case_study_mix(7), LcLoad::High, &quick_opts()),
        DesignKind::Jumanji,
    );
    let store = DiskCache::open(&dir).expect("open store");
    assert!(store.load_run(key ^ 1).is_none());
    assert_eq!(store.stats().hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small detailed report that names its own key, so a load that
/// returned another cell's record would show.
fn keyed_report(key: u128) -> DetailReport {
    DetailReport {
        apps: vec![DetailAppStats {
            accesses: key as u64,
            misses: (key >> 64) as u64,
            ..DetailAppStats::default()
        }],
        bank_occupants: vec![vec![AppId(0)]],
    }
}

#[test]
fn eviction_racing_with_writers_reads_as_clean_misses() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let dir = temp_dir("capped-race");
    std::fs::create_dir_all(&dir).expect("create store");
    // About three of the writers' 20-record segments.
    const CAP: u64 = 8 * 1024;
    const PER_WRITER: u128 = 300;
    let keys: Vec<u128> = (0..2u128)
        .flat_map(|w| (0..PER_WRITER).map(move |i| (w << 64) | i))
        .collect();
    let check = |disk: &DiskCache, keys: &[u128]| {
        for &key in keys {
            if let Some(report) = disk.load_detail(key) {
                assert_eq!(format!("{report:?}"), format!("{:?}", keyed_report(key)));
            }
        }
    };
    // `halfway`: both writers have sealed their first half. `evicted`:
    // the capped handle has evicted segments the writers' indexes name.
    let (halfway, evicted) = (Barrier::new(3), Barrier::new(3));
    let writing = [AtomicBool::new(true), AtomicBool::new(true)];
    let stats = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u128)
            .map(|w| {
                let (dir, check) = (&dir, &check);
                let (halfway, evicted, writing) = (&halfway, &evicted, &writing);
                scope.spawn(move || {
                    // Each handle stands in for a run of processes that
                    // each write 20 cells and seal on exit.
                    let disk = DiskCache::open(dir).expect("open store");
                    let mine: Vec<u128> = (0..PER_WRITER).map(|i| (w << 64) | i).collect();
                    for (i, &key) in mine.iter().enumerate() {
                        if i == mine.len() / 2 {
                            halfway.wait();
                            evicted.wait();
                            // Own records in evicted segments: misses.
                            check(&disk, &mine[..i]);
                        }
                        disk.store_detail(key, &keyed_report(key));
                        if i % 20 == 19 {
                            disk.seal();
                        }
                    }
                    let stats = disk.stats();
                    drop(disk);
                    writing[w as usize].store(false, Ordering::Release);
                    stats
                })
            })
            .collect();
        let capped = DiskCache::open(&dir).expect("open store");
        capped.set_cap_bytes(CAP);
        halfway.wait();
        assert!(
            capped.enforce_cap() > 0,
            "the writers' sealed halves exceed the cap"
        );
        evicted.wait();
        // Keep evicting and reading while the writers finish, through
        // the long-lived handle and through a fresh handle per round
        // whose index the evictions leave stale.
        while writing.iter().any(|w| w.load(Ordering::Acquire)) {
            let fresh = DiskCache::open(&dir).expect("open store");
            capped.enforce_cap();
            check(&capped, &keys);
            check(&fresh, &keys);
            assert_eq!(fresh.stats().corrupt_dropped, 0);
        }
        let mut stats: Vec<_> = writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .collect();
        stats.push(capped.stats());
        stats
    });
    for s in &stats {
        assert_eq!(
            s.corrupt_dropped, 0,
            "eviction must never read as corruption"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a binary with no `JUMANJI_*` knobs leaking in from outside.
fn command(bin: &str, args: &[&str]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for knob in [
        "JUMANJI_TRACE",
        "JUMANJI_MIXES",
        "JUMANJI_THREADS",
        "JUMANJI_ACCESSES",
        "JUMANJI_NO_CACHE",
        "JUMANJI_CACHE_DIR",
        "JUMANJI_CACHE_CAP",
    ] {
        cmd.env_remove(knob);
    }
    cmd
}

/// A run that fails after computing cells still seals its store: the
/// next process finds those cells, and the model memos, warm.
#[test]
fn failed_runs_still_persist_their_cells() {
    let dir = temp_dir("failed-exit");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 path");
    let out_arg = dir.join("out");
    let out_arg = out_arg.to_str().expect("utf-8 path");
    let suite = |extra: &[&str]| {
        let mut args = vec![
            "--figures",
            "fig05",
            "--mixes",
            "1",
            "--threads",
            "1",
            "--cache-dir",
            store_arg,
            "--out",
            out_arg,
        ];
        args.extend_from_slice(extra);
        command(env!("CARGO_BIN_EXE_suite"), &args)
            .output()
            .expect("spawn suite")
    };

    // `suite` fails writing --stats into a missing directory, after
    // every figure has run.
    let missing = dir.join("missing").join("stats.json");
    let failed = suite(&["--stats", missing.to_str().expect("utf-8 path")]);
    assert_eq!(failed.status.code(), Some(1), "the run must fail");
    assert!(
        !segments(&store).is_empty(),
        "cells sealed on the error path"
    );
    assert!(store.join("model.bin").exists(), "model memos persisted");
    let warm = suite(&[]);
    assert!(warm.status.success());
    let log = String::from_utf8_lossy(&warm.stderr);
    assert!(
        log.contains("[suite] sched: 0 runs computed"),
        "the next run must be warm: {log}"
    );

    // A figure binary fails writing its TSV to a full device.
    let fig_store = dir.join("fig-store");
    let full = std::fs::File::create("/dev/full").expect("open /dev/full");
    let failed = command(
        env!("CARGO_BIN_EXE_fig05"),
        &[
            "--mixes",
            "1",
            "--threads",
            "1",
            "--cache-dir",
            fig_store.to_str().expect("utf-8 path"),
        ],
    )
    .stdout(full)
    .output()
    .expect("spawn fig05");
    assert_eq!(failed.status.code(), Some(1), "the figure must fail");
    assert!(
        !segments(&fig_store).is_empty(),
        "cells sealed on the error path"
    );
    assert!(
        fig_store.join("model.bin").exists(),
        "model memos persisted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The library path keeps its cells too: `run_spec_to` with a
/// `.cache_dir` seals the store before it returns, so a fresh handle —
/// the next process — finds every planned run.
#[test]
fn library_runs_persist_their_cells() {
    let dir = temp_dir("library");
    let mut spec = ExperimentSpec::new(FigureKind::Fig05).cache_dir(&dir);
    spec.mixes = 1;
    spec.threads = 1;
    let mut tsv = Vec::new();
    run_spec_to(&spec, &mut tsv).expect("figure renders");
    assert!(!tsv.is_empty());

    let fresh = DiskCache::open(&dir).expect("open store");
    let plan = plan::of(&spec).expect("plan");
    assert!(plan.runs() > 0);
    for cell in &plan.cells {
        for &design in &cell.designs {
            let key = run_key(cell.experiment_key(), design);
            assert!(fresh.has_run(key), "{design:?} run sealed on return");
        }
    }
    assert!(dir.join("model.bin").exists(), "model memos persisted");
    let _ = std::fs::remove_dir_all(&dir);
}
