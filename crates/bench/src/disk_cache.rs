//! The disk-backed persistent half of the experiment-cell cache.
//!
//! [`CellCache`](crate::cell_cache::CellCache) deduplicates cells inside
//! one process; this module makes the dedup survive the process. A
//! [`DiskCache`] roots a directory (`--cache-dir` /
//! `JUMANJI_CACHE_DIR`) holding completed cells keyed by their 128-bit
//! content fingerprint — the *same* keys the in-memory maps use, so a
//! cell computed by any process is warm for every later one:
//!
//! - `segments/<name>-<records>.seg` — append-only segment files of
//!   cell records. Three namespaces share them: completed
//!   [`ExperimentResult`]s (runs), completed detailed-simulator
//!   [`DetailReport`]s (the heaviest cells in the repo: fig02 and
//!   validate), and one-shot [`Allocation`]s;
//! - `model.bin` — the simulator's expensive construction memos (ratio
//!   hulls and deadline isolation runs), so even a *cold* run cell
//!   constructs its experiment from warm models;
//! - `costs.bin` — measured per-design node durations, fed back into
//!   the suite scheduler's cost priors
//!   ([`plan::CostModel`](crate::figures::plan::CostModel)).
//!
//! A record is a 22-byte header (namespace kind, key, envelope length)
//! followed by the versioned, checksummed envelope of
//! [`nuca_types::codec`], whose payload starts with the key again — so
//! the checksum covers the key as well as the cell. The two sidecars
//! are whole-file envelopes written via temp file + atomic rename.
//!
//! **Writing.** Each handle appends its records to one pending segment
//! (a temp file in `segments/`) and seals it by atomic rename when it
//! reaches about 1 MiB, on [`DiskCache::seal`], and on drop. A
//! sealed segment is named by a fingerprint of its records, so equal
//! names hold equal bytes and a rename never replaces different data.
//! A run creates a handful of files, not one per cell. A process killed
//! before it seals loses its pending records (they recompute next
//! time); [`DiskCache::open`] deletes temp files whose process is gone.
//!
//! **Visibility.** [`DiskCache::open`] indexes the record headers of
//! every sealed segment (key → segment, offset, length); a load is one
//! positioned read. Other processes see only sealed segments, so never
//! a partial record. A handle sees its own records at once, and another
//! handle's records only if that handle sealed them before this one
//! opened.
//!
//! **Corruption.** A record that fails validation (truncated,
//! bit-flipped, stale format version, or naming another key) is a
//! counted miss — the caller recomputes — and its segment is rewritten
//! without it, so the store heals; a corrupt cache can cost time but
//! never correctness. Floats are stored by bit pattern, so results
//! served from disk format to byte-identical TSVs. Stores in the older
//! one-file-per-cell layout read as cold.
//!
//! **Cap.** The store is bounded on request: [`DiskCache::set_cap_bytes`]
//! (`--cache-cap-bytes` / `JUMANJI_CACHE_CAP` on the binaries) caps the
//! total size of the sealed segments, and [`DiskCache::enforce_cap`]
//! evicts whole segments, oldest mtime first, until the store fits. A
//! handle whose index still names an evicted segment reads its records
//! as plain misses. `model.bin` and `costs.bin` are small shared memos
//! and are never evicted for space. The `writes` and `evictions`
//! counters of [`DiskCacheStats`] count records, not files.
//!
//! The codec is hand-rolled (no serde — the workspace builds offline):
//! each domain type gets an explicit field-order encode/decode pair
//! below, and any layout change must bump
//! [`codec::FORMAT_VERSION`](jumanji::types::codec::FORMAT_VERSION).

// Every map in this module is Mix64Build-hashed (or iterated only after
// sorting); clippy's type ban cannot see hasher parameters.
#![allow(clippy::disallowed_types)]

use jumanji::cache::MissCurve;
use jumanji::core::{Allocation, AppAlloc, DesignKind, Pool};
use jumanji::sim::detail::{DetailAppStats, DetailReport};
use jumanji::sim::energy::EnergyBreakdown;
use jumanji::sim::{export_ratio_hulls, seed_ratio_hull, ExperimentResult, IntervalRecord};
use jumanji::types::codec::{decode_entry, encode_entry, ByteReader, ByteWriter, CodecError};
use jumanji::types::hash::{fingerprint128, Mix64Build};
use jumanji::types::{AppId, BankId};
use jumanji::workloads::{spec2006, tailbench};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};
use std::{fs, io};

/// Envelope kind tag for run-cell records.
const KIND_RUN: u16 = 1;
/// Envelope kind tag for allocation records.
const KIND_ALLOC: u16 = 2;
/// Envelope kind tag for the model-memo file (hulls + deadlines).
const KIND_MODEL: u16 = 3;
/// Envelope kind tag for the measured-cost table.
const KIND_COSTS: u16 = 4;
/// Envelope kind tag for detailed-simulator report records.
const KIND_DETAIL: u16 = 5;

/// Subdirectory of the store root holding the segment files.
const SEGMENTS: &str = "segments";

/// A handle seals its pending segment once it holds this many bytes.
const SEGMENT_BYTES: u64 = 1 << 20;

/// Record header size: kind (2) + key (16) + envelope length (4).
const RECORD_HEADER_BYTES: usize = 22;

/// Number of [`DesignKind`] variants (size of the per-design cost rows).
pub const NUM_DESIGNS: usize = 7;

/// Counter snapshot of one [`DiskCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) entry on disk.
    pub misses: u64,
    /// Records appended, plus sidecar (`model.bin`, `costs.bin`)
    /// rewrites.
    pub writes: u64,
    /// Records removed — corruption drops plus the records of segments
    /// evicted for size (see [`DiskCache::enforce_cap`]) — plus corrupt
    /// sidecars deleted.
    pub evictions: u64,
    /// Entries dropped because they failed envelope or payload
    /// validation (truncated, bad checksum, wrong format version, …).
    pub corrupt_dropped: u64,
}

/// Measured per-design run costs accumulated across suite runs:
/// `(samples, total µs-per-interval)` rows, plus one row for experiment
/// constructions. Stored in `costs.bin` and folded into the scheduler's
/// cost priors on warm runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeasuredCosts {
    /// Per-design `(samples, total µs-per-interval)`, indexed by
    /// [`design_tag`].
    pub runs: [(u64, f64); NUM_DESIGNS],
    /// Experiment constructions: `(samples, total µs-per-interval)`.
    pub exps: (u64, f64),
    /// Detailed-simulator cells: `(samples, total µs-per-work-unit)`,
    /// where one work unit is [`plan::DETAIL_UNIT_ACCESSES`] total
    /// accesses (see [`plan::detail_units`]).
    ///
    /// [`plan::DETAIL_UNIT_ACCESSES`]: crate::figures::plan::DETAIL_UNIT_ACCESSES
    /// [`plan::detail_units`]: crate::figures::plan::detail_units
    pub details: (u64, f64),
}

impl MeasuredCosts {
    /// True when no sample has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.exps.0 == 0 && self.details.0 == 0 && self.runs.iter().all(|(n, _)| *n == 0)
    }

    /// Folds another cost table into this one.
    pub fn merge(&mut self, other: &MeasuredCosts) {
        for (a, b) in self.runs.iter_mut().zip(other.runs.iter()) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.exps.0 += other.exps.0;
        self.exps.1 += other.exps.1;
        self.details.0 += other.details.0;
        self.details.1 += other.details.1;
    }

    /// Records one measured run: `us` micro-seconds for a node covering
    /// `intervals` reconfiguration intervals.
    pub fn record_run(&mut self, design: DesignKind, intervals: u64, us: u64) {
        let row = &mut self.runs[design_tag(design) as usize];
        row.0 += 1;
        row.1 += us as f64 / intervals.max(1) as f64;
    }

    /// Records one measured experiment construction.
    pub fn record_exp(&mut self, intervals: u64, us: u64) {
        self.exps.0 += 1;
        self.exps.1 += us as f64 / intervals.max(1) as f64;
    }

    /// Mean measured µs-per-interval for `design`, if any sample exists.
    pub fn mean_run_us(&self, design: DesignKind) -> Option<f64> {
        let (n, total) = self.runs[design_tag(design) as usize];
        (n > 0).then(|| total / n as f64)
    }

    /// Mean measured µs-per-interval for experiment construction.
    pub fn mean_exp_us(&self) -> Option<f64> {
        let (n, total) = self.exps;
        (n > 0).then(|| total / n as f64)
    }

    /// Records one measured detailed-simulator cell: `us` micro-seconds
    /// for a node covering `units` work units (fractions of a unit are
    /// rounded up by the caller's unit computation, never zero).
    pub fn record_detail(&mut self, units: f64, us: u64) {
        self.details.0 += 1;
        self.details.1 += us as f64 / units.max(1.0);
    }

    /// Mean measured µs-per-work-unit for detailed cells, if any sample
    /// exists.
    pub fn mean_detail_us(&self) -> Option<f64> {
        let (n, total) = self.details;
        (n > 0).then(|| total / n as f64)
    }
}

/// The stable on-disk tag of a design (array index into
/// [`MeasuredCosts::runs`]). Never renumber these: entries written by
/// older processes key on them.
pub fn design_tag(design: DesignKind) -> u8 {
    match design {
        DesignKind::Static => 0,
        DesignKind::Adaptive => 1,
        DesignKind::VmPart => 2,
        DesignKind::Jigsaw => 3,
        DesignKind::Jumanji => 4,
        DesignKind::JumanjiInsecure => 5,
        DesignKind::JumanjiIdealBatch => 6,
    }
}

fn design_from_tag(tag: u8) -> Result<DesignKind, CodecError> {
    Ok(match tag {
        0 => DesignKind::Static,
        1 => DesignKind::Adaptive,
        2 => DesignKind::VmPart,
        3 => DesignKind::Jigsaw,
        4 => DesignKind::Jumanji,
        5 => DesignKind::JumanjiInsecure,
        6 => DesignKind::JumanjiIdealBatch,
        _ => return Err(CodecError::Malformed("unknown design tag")),
    })
}

/// Resolves a decoded app name to the `&'static str` the rest of the
/// stack expects. Names from the workload catalogs resolve to the
/// catalog's own static string; anything else (a name from a future
/// catalog) is interned once into a process-lifetime string, so the
/// leak is bounded by the number of *distinct* names ever decoded.
fn intern(name: &str) -> &'static str {
    static INTERNED: LazyLock<Mutex<HashMap<String, &'static str, Mix64Build>>> =
        LazyLock::new(|| {
            let mut m: HashMap<String, &'static str, Mix64Build> = HashMap::default();
            for p in tailbench() {
                m.insert(p.name.to_string(), p.name);
            }
            for p in spec2006() {
                m.insert(p.name.to_string(), p.name);
            }
            Mutex::new(m)
        });
    let mut m = INTERNED.lock().expect("intern table lock");
    if let Some(&s) = m.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    m.insert(name.to_string(), leaked);
    leaked
}

fn encode_names(w: &mut ByteWriter, names: &[&'static str]) {
    w.u32(names.len() as u32);
    for n in names {
        w.str(n);
    }
}

fn decode_names(r: &mut ByteReader<'_>) -> Result<Vec<&'static str>, CodecError> {
    let n = r.count(4)?;
    (0..n).map(|_| Ok(intern(r.str()?))).collect()
}

fn encode_energy(w: &mut ByteWriter, e: &EnergyBreakdown) {
    w.f64(e.l1);
    w.f64(e.l2);
    w.f64(e.llc);
    w.f64(e.noc);
    w.f64(e.mem);
}

fn decode_energy(r: &mut ByteReader<'_>) -> Result<EnergyBreakdown, CodecError> {
    Ok(EnergyBreakdown {
        l1: r.f64()?,
        l2: r.f64()?,
        llc: r.f64()?,
        noc: r.f64()?,
        mem: r.f64()?,
    })
}

fn encode_interval(w: &mut ByteWriter, iv: &IntervalRecord) {
    w.f64(iv.t_ms);
    w.u32(iv.lc_mean_latency_ms.len() as u32);
    for m in &iv.lc_mean_latency_ms {
        match m {
            Some(v) => {
                w.u8(1);
                w.f64(*v);
            }
            None => w.u8(0),
        }
    }
    w.f64s(&iv.lc_alloc_bytes);
    w.f64(iv.vulnerability);
}

fn decode_interval(r: &mut ByteReader<'_>) -> Result<IntervalRecord, CodecError> {
    let t_ms = r.f64()?;
    let n = r.count(1)?;
    let mut lc_mean_latency_ms = Vec::with_capacity(n);
    for _ in 0..n {
        lc_mean_latency_ms.push(match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            _ => return Err(CodecError::Malformed("bad option tag")),
        });
    }
    Ok(IntervalRecord {
        t_ms,
        lc_mean_latency_ms,
        lc_alloc_bytes: r.f64s()?,
        vulnerability: r.f64()?,
    })
}

fn encode_result(w: &mut ByteWriter, result: &ExperimentResult) {
    w.u8(design_tag(result.design));
    encode_names(w, &result.lc_names);
    w.f64s(&result.lc_tail_latency_ms);
    w.f64s(&result.lc_deadline_ms);
    encode_names(w, &result.batch_names);
    w.f64s(&result.batch_work);
    w.f64(result.vulnerability);
    encode_energy(w, &result.energy);
    w.f64(result.total_instructions);
    w.f64(result.coherence_refetches);
    w.u32(result.timeline.len() as u32);
    for iv in &result.timeline {
        encode_interval(w, iv);
    }
}

fn decode_result(payload: &[u8]) -> Result<ExperimentResult, CodecError> {
    let mut r = ByteReader::new(payload);
    let design = design_from_tag(r.u8()?)?;
    let lc_names = decode_names(&mut r)?;
    let lc_tail_latency_ms = r.f64s()?;
    let lc_deadline_ms = r.f64s()?;
    let batch_names = decode_names(&mut r)?;
    let batch_work = r.f64s()?;
    let vulnerability = r.f64()?;
    let energy = decode_energy(&mut r)?;
    let total_instructions = r.f64()?;
    let coherence_refetches = r.f64()?;
    let n = r.count(1)?;
    let mut timeline = Vec::with_capacity(n);
    for _ in 0..n {
        timeline.push(decode_interval(&mut r)?);
    }
    r.finish()?;
    Ok(ExperimentResult {
        design,
        lc_names,
        lc_tail_latency_ms,
        lc_deadline_ms,
        batch_names,
        batch_work,
        vulnerability,
        energy,
        total_instructions,
        coherence_refetches,
        timeline,
    })
}

fn encode_placement(w: &mut ByteWriter, placement: &[(BankId, f64)]) {
    w.u32(placement.len() as u32);
    for (bank, bytes) in placement {
        w.usize(bank.0);
        w.f64(*bytes);
    }
}

fn decode_placement(r: &mut ByteReader<'_>) -> Result<Vec<(BankId, f64)>, CodecError> {
    let n = r.count(16)?;
    (0..n).map(|_| Ok((BankId(r.usize()?), r.f64()?))).collect()
}

fn encode_alloc(w: &mut ByteWriter, alloc: &Allocation) {
    w.u8(alloc.ideal_batch as u8);
    w.u32(alloc.apps.len() as u32);
    for a in &alloc.apps {
        w.usize(a.app.0);
        encode_placement(w, &a.placement);
        match a.pool {
            Some(p) => {
                w.u8(1);
                w.usize(p);
            }
            None => w.u8(0),
        }
        w.u8(a.copy);
    }
    w.u32(alloc.pools.len() as u32);
    for p in &alloc.pools {
        w.u32(p.members.len() as u32);
        for m in &p.members {
            w.usize(m.0);
        }
        encode_placement(w, &p.placement);
    }
}

fn decode_alloc(payload: &[u8]) -> Result<Allocation, CodecError> {
    let mut r = ByteReader::new(payload);
    let ideal_batch = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Malformed("bad bool tag")),
    };
    let napps = r.count(1)?;
    let mut apps = Vec::with_capacity(napps);
    for _ in 0..napps {
        let app = AppId(r.usize()?);
        let placement = decode_placement(&mut r)?;
        let pool = match r.u8()? {
            0 => None,
            1 => Some(r.usize()?),
            _ => return Err(CodecError::Malformed("bad option tag")),
        };
        let copy = r.u8()?;
        apps.push(AppAlloc {
            app,
            placement,
            pool,
            copy,
        });
    }
    let npools = r.count(1)?;
    let mut pools = Vec::with_capacity(npools);
    for _ in 0..npools {
        let nm = r.count(8)?;
        let members = (0..nm)
            .map(|_| Ok(AppId(r.usize()?)))
            .collect::<Result<Vec<_>, CodecError>>()?;
        let placement = decode_placement(&mut r)?;
        pools.push(Pool { members, placement });
    }
    r.finish()?;
    for a in &apps {
        if let Some(p) = a.pool {
            if p >= pools.len() {
                return Err(CodecError::Malformed("pool index out of range"));
            }
        }
    }
    Ok(Allocation {
        apps,
        pools,
        ideal_batch,
    })
}

fn encode_detail(w: &mut ByteWriter, report: &DetailReport) {
    w.u32(report.apps.len() as u32);
    for a in &report.apps {
        w.u64(a.accesses);
        w.u64(a.misses);
        w.f64(a.total_latency);
        w.f64(a.total_hops);
        w.u64(a.port_wait);
        w.u64(a.tlb_misses);
        w.u64(a.writebacks);
    }
    w.u32(report.bank_occupants.len() as u32);
    for occ in &report.bank_occupants {
        w.u32(occ.len() as u32);
        for app in occ {
            w.usize(app.0);
        }
    }
}

fn decode_detail(payload: &[u8]) -> Result<DetailReport, CodecError> {
    let mut r = ByteReader::new(payload);
    let napps = r.count(56)?;
    let mut apps = Vec::with_capacity(napps);
    for _ in 0..napps {
        let accesses = r.u64()?;
        let misses = r.u64()?;
        let total_latency = r.f64()?;
        let total_hops = r.f64()?;
        if !total_latency.is_finite() || !total_hops.is_finite() {
            return Err(CodecError::Malformed("non-finite detail total"));
        }
        apps.push(DetailAppStats {
            accesses,
            misses,
            total_latency,
            total_hops,
            port_wait: r.u64()?,
            tlb_misses: r.u64()?,
            writebacks: r.u64()?,
        });
    }
    let nbanks = r.count(4)?;
    let mut bank_occupants = Vec::with_capacity(nbanks);
    for _ in 0..nbanks {
        let n = r.count(8)?;
        let occ = (0..n)
            .map(|_| {
                let app = r.usize()?;
                if app >= apps.len() {
                    return Err(CodecError::Malformed("occupant app out of range"));
                }
                Ok(AppId(app))
            })
            .collect::<Result<Vec<_>, CodecError>>()?;
        bank_occupants.push(occ);
    }
    r.finish()?;
    Ok(DetailReport {
        apps,
        bank_occupants,
    })
}

fn encode_curve(w: &mut ByteWriter, curve: &MissCurve) {
    w.u64(curve.unit_bytes());
    w.f64s(curve.points());
}

/// Decodes a miss curve, validating everything [`MissCurve::new`] would
/// panic on — a checksummed-but-malformed payload must surface as a
/// codec error, never a panic.
fn decode_curve(r: &mut ByteReader<'_>) -> Result<MissCurve, CodecError> {
    let unit = r.u64()?;
    let points = r.f64s()?;
    if unit == 0 {
        return Err(CodecError::Malformed("zero curve unit"));
    }
    if points.is_empty() {
        return Err(CodecError::Malformed("empty curve"));
    }
    if points.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(CodecError::Malformed("non-finite curve point"));
    }
    Ok(MissCurve::new(unit, points))
}

fn encode_model(hulls: &[(u128, Arc<MissCurve>)], deadlines: &[(u128, f64)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(hulls.len() as u32);
    for (key, hull) in hulls {
        w.u128(*key);
        encode_curve(&mut w, hull);
    }
    w.u32(deadlines.len() as u32);
    for (key, cycles) in deadlines {
        w.u128(*key);
        w.f64(*cycles);
    }
    encode_entry(KIND_MODEL, w.into_bytes())
}

type ModelEntries = (Vec<(u128, Arc<MissCurve>)>, Vec<(u128, f64)>);

fn decode_model(bytes: &[u8]) -> Result<ModelEntries, CodecError> {
    let payload = decode_entry(KIND_MODEL, bytes)?;
    let mut r = ByteReader::new(payload);
    let nh = r.count(16)?;
    let mut hulls = Vec::with_capacity(nh);
    for _ in 0..nh {
        let key = r.u128()?;
        hulls.push((key, Arc::new(decode_curve(&mut r)?)));
    }
    let nd = r.count(24)?;
    let mut deadlines = Vec::with_capacity(nd);
    for _ in 0..nd {
        let key = r.u128()?;
        let cycles = r.f64()?;
        if !cycles.is_finite() || cycles <= 0.0 {
            return Err(CodecError::Malformed("bad deadline"));
        }
        deadlines.push((key, cycles));
    }
    r.finish()?;
    Ok((hulls, deadlines))
}

fn encode_costs(costs: &MeasuredCosts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for (n, total) in &costs.runs {
        w.u64(*n);
        w.f64(*total);
    }
    w.u64(costs.exps.0);
    w.f64(costs.exps.1);
    w.u64(costs.details.0);
    w.f64(costs.details.1);
    encode_entry(KIND_COSTS, w.into_bytes())
}

fn decode_costs(bytes: &[u8]) -> Result<MeasuredCosts, CodecError> {
    let payload = decode_entry(KIND_COSTS, bytes)?;
    let mut r = ByteReader::new(payload);
    let mut costs = MeasuredCosts::default();
    for row in &mut costs.runs {
        row.0 = r.u64()?;
        row.1 = r.f64()?;
        if !row.1.is_finite() || row.1 < 0.0 {
            return Err(CodecError::Malformed("bad cost total"));
        }
    }
    costs.exps.0 = r.u64()?;
    costs.exps.1 = r.f64()?;
    if !costs.exps.1.is_finite() || costs.exps.1 < 0.0 {
        return Err(CodecError::Malformed("bad cost total"));
    }
    costs.details.0 = r.u64()?;
    costs.details.1 = r.f64()?;
    if !costs.details.1.is_finite() || costs.details.1 < 0.0 {
        return Err(CodecError::Malformed("bad cost total"));
    }
    r.finish()?;
    Ok(costs)
}

/// Frames one cell record: the header, then the envelope of the key and
/// whatever `body` encodes.
fn encode_record(kind: u16, key: u128, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u128(key);
    body(&mut w);
    let envelope = encode_entry(kind, w.into_bytes());
    let mut header = ByteWriter::new();
    header.u16(kind);
    header.u128(key);
    header.u32(envelope.len() as u32);
    let mut record = header.into_bytes();
    record.extend_from_slice(&envelope);
    record
}

/// Reads a record header: `(kind, key, envelope length)`.
fn decode_header(header: &[u8]) -> Result<(u16, u128, u32), CodecError> {
    let mut r = ByteReader::new(header);
    Ok((r.u16()?, r.u128()?, r.u32()?))
}

/// Validates a record read back for `(kind, key)` and returns its cell
/// payload: the header must name that cell, the envelope must check
/// out, and the key under the envelope checksum must match too.
fn decode_record(kind: u16, key: u128, record: &[u8]) -> Result<&[u8], CodecError> {
    let header = record
        .get(..RECORD_HEADER_BYTES)
        .ok_or(CodecError::Truncated)?;
    let (header_kind, header_key, len) = decode_header(header)?;
    if header_kind != kind || header_key != key {
        return Err(CodecError::Malformed("record header names another cell"));
    }
    let envelope = &record[RECORD_HEADER_BYTES..];
    if envelope.len() != len as usize {
        return Err(CodecError::Truncated);
    }
    let payload = decode_entry(kind, envelope)?;
    if ByteReader::new(payload).u128()? != key {
        return Err(CodecError::Malformed("record key mismatch"));
    }
    Ok(&payload[16..])
}

/// Splits a segment into records by their headers alone, as `(key,
/// location)` pairs with [`Loc::seg`] left 0 for the caller to set.
/// Also returns whether the bytes end exactly on a record boundary —
/// `false` means an unframable tail (a truncated record or a damaged
/// header), after which nothing can be trusted.
fn frame(bytes: &[u8]) -> (Vec<(u128, Loc)>, bool) {
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < bytes.len() {
        let Some(Ok((kind, key, len))) = bytes
            .get(offset..offset + RECORD_HEADER_BYTES)
            .map(decode_header)
        else {
            return (frames, false);
        };
        let end = offset + RECORD_HEADER_BYTES + len as usize;
        let kind_ok = matches!(kind, KIND_RUN | KIND_ALLOC | KIND_DETAIL);
        // Offsets are indexed as u32: a larger segment is not ours.
        if !kind_ok || end > bytes.len().min(u32::MAX as usize) {
            return (frames, false);
        }
        let loc = Loc {
            kind,
            seg: 0,
            offset: offset as u32,
            len: (end - offset) as u32,
        };
        frames.push((key, loc));
        offset = end;
    }
    (frames, true)
}

/// Folds one more record into a segment's content name.
fn chain(name: u128, record: &[u8]) -> u128 {
    let mut buf = [0u8; 32];
    buf[..16].copy_from_slice(&name.to_le_bytes());
    buf[16..].copy_from_slice(&fingerprint128(record).to_le_bytes());
    fingerprint128(&buf)
}

/// The record count a sealed segment's file name carries.
fn records_in(path: &Path) -> u64 {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.rsplit_once('-'))
        .and_then(|(_, n)| n.parse().ok())
        .unwrap_or(0)
}

fn is_segment(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "seg")
}

/// Where a segment's bytes live, as this handle knows it.
#[derive(Debug, Clone)]
enum Segment {
    /// This handle's unsealed segment, read through its write handle.
    Pending(Arc<File>),
    /// A sealed segment file.
    Sealed(PathBuf),
    /// Evicted, healed away, or lost: its records read as misses.
    Gone,
}

impl Segment {
    /// Reads `len` bytes at `offset`. A vanished file is `NotFound`; a
    /// file shorter than its index says is `UnexpectedEof`.
    fn read(&self, offset: u32, len: u32) -> io::Result<Vec<u8>> {
        let mut buf = vec![0; len as usize];
        let offset = u64::from(offset);
        match self {
            Segment::Pending(file) => file.read_exact_at(&mut buf, offset)?,
            Segment::Sealed(path) => File::open(path)?.read_exact_at(&mut buf, offset)?,
            Segment::Gone => return Err(io::ErrorKind::NotFound.into()),
        }
        Ok(buf)
    }
}

/// A record's namespace and place: an index into [`Index::segments`]
/// and its span. Kept to 16 bytes: the index holds one per cell.
#[derive(Debug, Clone, Copy)]
struct Loc {
    kind: u16,
    seg: u32,
    offset: u32,
    len: u32,
}

/// The segment this handle is appending to.
#[derive(Debug)]
struct Pending {
    seg: usize,
    file: Arc<File>,
    tmp: PathBuf,
    len: u64,
    records: u64,
    name: u128,
}

/// A handle's in-memory view of the store: record locations only,
/// never segment bytes.
#[derive(Debug, Default)]
struct Index {
    segments: Vec<Segment>,
    /// Keyed by fingerprint alone: [`Loc::kind`] tells the namespaces
    /// apart. A B-tree grows without a hash table's doubling and rehash
    /// peaks, which showed in peak memory.
    cells: BTreeMap<u128, Loc>,
    pending: Option<Pending>,
}

impl Index {
    fn add_sealed(&mut self, path: PathBuf, frames: Vec<(u128, Loc)>) -> usize {
        let seg = self.segments.len();
        self.segments.push(Segment::Sealed(path));
        for (key, loc) in frames {
            let seg = seg as u32;
            self.cells.insert(key, Loc { seg, ..loc });
        }
        seg
    }

    /// Where the cell `(kind, key)` lives, if this handle knows it.
    fn find(&self, kind: u16, key: u128) -> Option<Loc> {
        self.cells.get(&key).filter(|loc| loc.kind == kind).copied()
    }

    fn forget(&mut self, seg: usize) {
        self.segments[seg] = Segment::Gone;
        self.cells.retain(|_, loc| loc.seg as usize != seg);
    }
}

/// A disk-backed, fingerprint-keyed store of completed cells (see the
/// module docs). All methods are `&self` and thread-safe; multiple
/// processes may share one directory.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    index: Mutex<Index>,
    /// Total sealed-segment bytes allowed (0 = unbounded).
    cap_bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    corrupt_dropped: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) a store rooted at `dir` and indexes
    /// the record headers of its sealed segments. A segment with an
    /// unframable tail is healed here.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory tree cannot be created or
    /// listed.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root: PathBuf = dir.into();
        fs::create_dir_all(root.join(SEGMENTS))?;
        let mut paths: Vec<PathBuf> = fs::read_dir(root.join(SEGMENTS))?
            .flatten()
            .map(|e| e.path())
            .collect();
        // A temp file whose process is gone was never sealed (a crash or
        // kill lost its records): delete it, or it would sit outside
        // the cap for good. Liveness comes from /proc; without it,
        // nothing is swept.
        let proc_fs = Path::new("/proc/self").exists();
        paths.retain(|p| {
            let orphan = proc_fs
                && temp_owner(p).is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
            if orphan {
                let _ = fs::remove_file(p);
            }
            is_segment(p)
        });
        let cache = DiskCache {
            root,
            index: Mutex::new(Index::default()),
            cap_bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
        };
        {
            let mut index = cache.lock();
            for path in paths {
                // A segment evicted since the listing is simply absent.
                let Ok(bytes) = fs::read(&path) else {
                    continue;
                };
                let (frames, clean) = frame(&bytes);
                let seg = index.add_sealed(path, frames);
                if !clean {
                    cache.heal(&mut index, seg, None);
                }
            }
        }
        Ok(cache)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_dropped: self.corrupt_dropped.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Index> {
        // The index stays consistent across a panicking holder: every
        // mutation is a single insert, retain, or slot swap.
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn segment_path(&self, name: u128, records: u64) -> PathBuf {
        self.root
            .join(SEGMENTS)
            .join(format!("{name:032x}-{records}.seg"))
    }

    /// Writes `bytes` to `path` via a uniquely named temp file in the
    /// same directory plus an atomic rename, so a concurrent reader (or
    /// a crash) can never observe a partial file. Last writer wins;
    /// both writers hold identical bytes by construction (sealed
    /// segments are content-named, and sidecars are merged memos).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = temp_path(path);
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Loads, validates, and decodes the cell `(kind, key)`. An absent
    /// record — never written, or in a segment evicted since — is a
    /// plain miss; an invalid one is dropped from its segment and then
    /// counted as a miss.
    fn load<T>(
        &self,
        kind: u16,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let found = {
            let index = self.lock();
            index
                .find(kind, key)
                .map(|loc| (loc, index.segments[loc.seg as usize].clone()))
        };
        let value = found.and_then(|(loc, segment)| {
            let decoded = match segment.read(loc.offset, loc.len) {
                Ok(record) => decode_record(kind, key, &record).and_then(decode),
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(CodecError::Truncated),
                Err(_) => return None,
            };
            decoded.inspect_err(|_| self.drop_corrupt(key, loc)).ok()
        });
        self.counted(value)
    }

    /// Counts a lookup's outcome as a hit or a miss.
    fn counted<T>(&self, value: Option<T>) -> Option<T> {
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    fn drop_corrupt(&self, key: u128, loc: Loc) {
        let mut index = self.lock();
        let seg = loc.seg as usize;
        match index.segments[seg] {
            Segment::Sealed(_) => self.heal(&mut index, seg, Some(loc.offset)),
            Segment::Pending(_) => {
                index.cells.remove(&key);
                self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
            }
            // Healed or evicted by another thread since the read.
            Segment::Gone => {}
        }
    }

    /// Rewrites sealed segment `seg` without the record at `bad` (and
    /// without any unframable tail), counting one corrupt record. The
    /// healed copy gets a new content name and this handle's index
    /// moves to it; other handles' indexes name the old file, which is
    /// gone, so they read its records as misses, never as corruption.
    fn heal(&self, index: &mut Index, seg: usize, bad: Option<u32>) {
        let Segment::Sealed(path) = &index.segments[seg] else {
            return;
        };
        let path = path.clone();
        index.forget(seg);
        self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let Ok(bytes) = fs::read(&path) else {
            return;
        };
        let mut healed = Vec::with_capacity(bytes.len());
        let mut frames = Vec::new();
        let mut name = 0;
        for (key, loc) in frame(&bytes).0 {
            if Some(loc.offset) == bad {
                continue;
            }
            let record = &bytes[loc.offset as usize..(loc.offset + loc.len) as usize];
            let offset = healed.len() as u32;
            frames.push((key, Loc { offset, ..loc }));
            healed.extend_from_slice(record);
            name = chain(name, record);
        }
        if !frames.is_empty() {
            let healed_path = self.segment_path(name, frames.len() as u64);
            if healed_path == path || self.write_atomic(&healed_path, &healed).is_err() {
                return;
            }
            index.add_sealed(healed_path, frames);
        }
        let _ = fs::remove_file(&path);
    }

    /// Appends one record to the pending segment (best effort: a full
    /// disk or permission error costs the warm start, never the
    /// result), sealing the segment once it is full.
    fn store(&self, kind: u16, key: u128, body: impl FnOnce(&mut ByteWriter)) {
        let record = encode_record(kind, key, body);
        let Ok(len) = u32::try_from(record.len()) else {
            return;
        };
        let mut index = self.lock();
        if index.pending.is_none() {
            match self.start_segment(&mut index) {
                Ok(pending) => index.pending = Some(pending),
                Err(_) => return,
            }
        }
        let Some(p) = index.pending.as_mut() else {
            return;
        };
        if p.file.write_all_at(&record, p.len).is_err() {
            // Cut any partial write so the next record lands cleanly.
            let _ = p.file.set_len(p.len);
            return;
        }
        let loc = Loc {
            kind,
            seg: p.seg as u32,
            // Below SEGMENT_BYTES: a fuller segment was sealed.
            offset: p.len as u32,
            len,
        };
        p.len += u64::from(len);
        p.records += 1;
        p.name = chain(p.name, &record);
        let full = p.len >= SEGMENT_BYTES;
        index.cells.insert(key, loc);
        self.writes.fetch_add(1, Ordering::Relaxed);
        if full {
            self.seal_locked(&mut index);
        }
    }

    fn start_segment(&self, index: &mut Index) -> io::Result<Pending> {
        let tmp = temp_path(&self.root.join(SEGMENTS).join("pending"));
        let file = Arc::new(
            File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?,
        );
        index.segments.push(Segment::Pending(Arc::clone(&file)));
        Ok(Pending {
            seg: index.segments.len() - 1,
            file,
            tmp,
            len: 0,
            records: 0,
            name: 0,
        })
    }

    /// Seals this handle's pending segment, if any: renames it into
    /// place, so other processes — and handles opened from now on — see
    /// its records. [`persist_global_disk`] calls this, and so does
    /// dropping the handle.
    ///
    /// [`persist_global_disk`]: crate::cell_cache::persist_global_disk
    pub fn seal(&self) {
        self.seal_locked(&mut self.lock());
    }

    fn seal_locked(&self, index: &mut Index) {
        let Some(p) = index.pending.take() else {
            return;
        };
        let path = self.segment_path(p.name, p.records);
        if fs::rename(&p.tmp, &path).is_ok() {
            index.segments[p.seg] = Segment::Sealed(path);
        } else {
            let _ = fs::remove_file(&p.tmp);
            index.forget(p.seg);
        }
    }

    /// The persisted result for a run-cell key, if a valid record exists.
    pub fn load_run(&self, key: u128) -> Option<ExperimentResult> {
        self.load(KIND_RUN, key, decode_result)
    }

    /// Persists a completed run cell.
    pub fn store_run(&self, key: u128, result: &ExperimentResult) {
        self.store(KIND_RUN, key, |w| encode_result(w, result));
    }

    /// Cheap existence probe for a run-cell record (an index lookup: no
    /// I/O, no validation, no hit/miss accounting): used by the
    /// scheduler to decide whether an experiment construction can be
    /// skipped entirely. A record that later fails validation, or whose
    /// segment another handle evicts, just falls back to lazy
    /// construction.
    pub fn has_run(&self, key: u128) -> bool {
        self.lock().find(KIND_RUN, key).is_some()
    }

    /// The persisted detailed-simulator report for a key, if a valid
    /// record exists.
    pub fn load_detail(&self, key: u128) -> Option<DetailReport> {
        self.load(KIND_DETAIL, key, decode_detail)
    }

    /// Persists a completed detailed-simulator cell.
    pub fn store_detail(&self, key: u128, report: &DetailReport) {
        self.store(KIND_DETAIL, key, |w| encode_detail(w, report));
    }

    /// Cheap existence probe for a detailed-cell record (see
    /// [`DiskCache::has_run`]).
    pub fn has_detail(&self, key: u128) -> bool {
        self.lock().find(KIND_DETAIL, key).is_some()
    }

    /// The persisted allocation for a key, if a valid record exists.
    pub fn load_alloc(&self, key: u128) -> Option<Allocation> {
        self.load(KIND_ALLOC, key, decode_alloc)
    }

    /// Persists a one-shot allocation.
    pub fn store_alloc(&self, key: u128, alloc: &Allocation) {
        self.store(KIND_ALLOC, key, |w| encode_alloc(w, alloc));
    }

    /// Loads and decodes a sidecar file. A missing file is a plain
    /// miss; an invalid one is deleted and then counted as a miss.
    fn load_sidecar<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let value = fs::read(path).ok().and_then(|bytes| {
            decode(&bytes)
                .inspect_err(|_| self.drop_corrupt_sidecar(path))
                .ok()
        });
        self.counted(value)
    }

    fn drop_corrupt_sidecar(&self, path: &Path) {
        self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        if fs::remove_file(path).is_ok() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn store_sidecar(&self, path: &Path, bytes: &[u8]) {
        // Best-effort, like records.
        if self.write_atomic(path, bytes).is_ok() {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Warm-starts the simulator's construction memos (ratio hulls,
    /// deadline isolation runs) from `model.bin`. Returns the number of
    /// entries seeded; a corrupt file is dropped and seeds nothing.
    pub fn seed_model(&self) -> usize {
        let path = self.root.join("model.bin");
        let Some((hulls, deadlines)) = self.load_sidecar(&path, decode_model) else {
            return 0;
        };
        let n = hulls.len() + deadlines.len();
        for (key, hull) in hulls {
            seed_ratio_hull(key, hull);
        }
        for (key, cycles) in deadlines {
            jumanji::sim::deadline::seed_deadline(key, cycles);
        }
        n
    }

    /// Persists the simulator's construction memos, merged with
    /// whatever `model.bin` already holds (entries are pure functions
    /// of their keys, so union order is irrelevant). Returns the entry
    /// count written. Concurrent writers can lose each other's *new*
    /// entries (read-merge-write is not transactional); the loser's
    /// entries are simply recomputed and re-persisted next run.
    pub fn persist_model(&self) -> usize {
        let path = self.root.join("model.bin");
        let mut hulls: HashMap<u128, Arc<MissCurve>, Mix64Build> =
            export_ratio_hulls().into_iter().collect();
        let mut deadlines: HashMap<u128, f64, Mix64Build> =
            jumanji::sim::deadline::export_deadlines()
                .into_iter()
                .collect();
        if let Ok(bytes) = fs::read(&path) {
            match decode_model(&bytes) {
                Ok((old_hulls, old_deadlines)) => {
                    for (k, v) in old_hulls {
                        hulls.entry(k).or_insert(v);
                    }
                    for (k, v) in old_deadlines {
                        deadlines.entry(k).or_insert(v);
                    }
                }
                Err(_) => self.drop_corrupt_sidecar(&path),
            }
        }
        if hulls.is_empty() && deadlines.is_empty() {
            return 0;
        }
        let mut hulls: Vec<_> = hulls.into_iter().collect();
        hulls.sort_unstable_by_key(|(k, _)| *k);
        let mut deadlines: Vec<_> = deadlines.into_iter().collect();
        deadlines.sort_unstable_by_key(|(k, _)| *k);
        let n = hulls.len() + deadlines.len();
        self.store_sidecar(&path, &encode_model(&hulls, &deadlines));
        n
    }

    /// The measured-cost table, or the empty default when absent or
    /// invalid (a corrupt file is dropped).
    pub fn load_costs(&self) -> MeasuredCosts {
        let path = self.root.join("costs.bin");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return MeasuredCosts::default(),
        };
        match decode_costs(&bytes) {
            Ok(c) => c,
            Err(_) => {
                self.drop_corrupt_sidecar(&path);
                MeasuredCosts::default()
            }
        }
    }

    /// Folds freshly measured costs into `costs.bin` (read-merge-write;
    /// a concurrent writer's update may be lost, costing only sample
    /// count).
    pub fn merge_costs(&self, fresh: &MeasuredCosts) {
        if fresh.is_empty() {
            return;
        }
        let mut merged = self.load_costs();
        merged.merge(fresh);
        self.store_sidecar(&self.root.join("costs.bin"), &encode_costs(&merged));
    }

    /// Caps the total size of the store's sealed segments (pending
    /// segments and the `model.bin`/`costs.bin` sidecars do not count).
    /// `0` means unbounded (the default). The cap takes effect at the
    /// next [`DiskCache::enforce_cap`] call — the binaries enforce it at
    /// attach time and again at exit, after sealing.
    pub fn set_cap_bytes(&self, cap: u64) {
        self.cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// The configured size cap in bytes (`0` = unbounded).
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes.load(Ordering::Relaxed)
    }

    /// Evicts whole sealed segments, least recently written (oldest
    /// mtime) first, until the segments fit under the configured cap —
    /// this handle's and every other process's alike. Returns the
    /// number of records evicted (also folded into the `evictions`
    /// counter). A no-op when no cap is set or the store already fits;
    /// unreadable metadata is treated leniently (skip the file rather
    /// than fail the run). `model.bin`/`costs.bin` are never touched.
    pub fn enforce_cap(&self) -> u64 {
        let cap = self.cap_bytes();
        if cap == 0 {
            return 0;
        }
        let Ok(dir) = fs::read_dir(self.root.join(SEGMENTS)) else {
            return 0;
        };
        let mut segments: Vec<(std::time::SystemTime, PathBuf, u64)> = dir
            .flatten()
            .filter(|e| is_segment(&e.path()))
            .filter_map(|e| {
                let meta = e.metadata().ok().filter(|m| m.is_file())?;
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        let mut total: u64 = segments.iter().map(|s| s.2).sum();
        if total <= cap {
            return 0;
        }
        // Oldest first; ties broken by path so concurrent enforcers
        // walk the same order.
        segments.sort();
        let mut index = self.lock();
        let mut evicted = 0;
        for (_, path, len) in segments {
            if total <= cap {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += records_in(&path);
                let known = index
                    .segments
                    .iter()
                    .position(|s| matches!(s, Segment::Sealed(p) if *p == path));
                if let Some(seg) = known {
                    index.forget(seg);
                }
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }
}

impl Drop for DiskCache {
    fn drop(&mut self) {
        self.seal();
    }
}

/// The pid in a [`temp_path`] name, `<name>.tmp.<pid>.<seq>`.
fn temp_owner(path: &Path) -> Option<u32> {
    let (_, owner) = path.file_name()?.to_str()?.rsplit_once(".tmp.")?;
    owner.split('.').next()?.parse().ok()
}

/// A unique temp-file name beside `path`.
fn temp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}.{}", std::process::id(), seq));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "jumanji-disk-cache-unit-{}-{tag}",
            std::process::id()
        ))
    }

    /// A handle on an emptied scratch store.
    fn temp_store(tag: &str) -> DiskCache {
        let _ = fs::remove_dir_all(store_dir(tag));
        temp_store_at(tag)
    }

    /// Another handle on [`temp_store`]'s directory, left as it is.
    fn temp_store_at(tag: &str) -> DiskCache {
        DiskCache::open(store_dir(tag)).expect("open store")
    }

    fn sample_result() -> ExperimentResult {
        ExperimentResult {
            design: DesignKind::Jumanji,
            lc_names: vec![intern("xapian"), intern("made-up-server")],
            lc_tail_latency_ms: vec![1.25, 0.5],
            lc_deadline_ms: vec![1.3, 0.6],
            batch_names: vec![intern("mcf")],
            batch_work: vec![1e9],
            vulnerability: 0.25,
            energy: EnergyBreakdown {
                l1: 1.0,
                l2: 2.0,
                llc: 3.0,
                noc: 4.0,
                mem: 5.0,
            },
            total_instructions: 2e9,
            coherence_refetches: 1234.5,
            timeline: vec![
                IntervalRecord {
                    t_ms: 100.0,
                    lc_mean_latency_ms: vec![Some(1.0), None],
                    lc_alloc_bytes: vec![1048576.0, 0.0],
                    vulnerability: 0.5,
                },
                IntervalRecord {
                    t_ms: 200.0,
                    lc_mean_latency_ms: vec![None, Some(-0.0)],
                    lc_alloc_bytes: vec![],
                    vulnerability: 0.0,
                },
            ],
        }
    }

    fn sample_alloc() -> Allocation {
        Allocation {
            apps: vec![
                AppAlloc {
                    app: AppId(0),
                    placement: vec![(BankId(0), 65536.0), (BankId(3), 0.5)],
                    pool: None,
                    copy: 0,
                },
                AppAlloc {
                    app: AppId(1),
                    placement: vec![],
                    pool: Some(0),
                    copy: 1,
                },
            ],
            pools: vec![Pool {
                members: vec![AppId(1)],
                placement: vec![(BankId(7), 123.0)],
            }],
            ideal_batch: true,
        }
    }

    /// Frames `body` as a record for key 7 and decodes it back.
    fn round_trip<T>(
        kind: u16,
        body: impl FnOnce(&mut ByteWriter),
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        decode_record(kind, 7, &encode_record(kind, 7, body)).and_then(decode)
    }

    /// The sealed segment files of the store at `root`.
    fn segments(root: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = fs::read_dir(root.join(SEGMENTS))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| is_segment(p))
            .collect();
        paths.sort();
        paths
    }

    #[test]
    fn result_codec_round_trips_bit_exactly() {
        let original = sample_result();
        let decoded = round_trip(KIND_RUN, |w| encode_result(w, &original), decode_result)
            .expect("valid entry");
        // Debug formatting covers every field, and floats round-trip by
        // bits — so the debug forms (and any TSV formatted from the
        // decoded result) are byte-identical.
        assert_eq!(format!("{original:?}"), format!("{decoded:?}"));
        // Catalog names resolve to the catalog's own static string.
        assert_eq!(
            original.lc_names[0].as_ptr(),
            decoded.lc_names[0].as_ptr(),
            "catalog names must be interned to the same static"
        );
        assert_eq!(
            decoded.timeline[1].lc_mean_latency_ms[1].unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn alloc_codec_round_trips() {
        let original = sample_alloc();
        let decoded = round_trip(KIND_ALLOC, |w| encode_alloc(w, &original), decode_alloc)
            .expect("valid entry");
        assert_eq!(original, decoded);
    }

    #[test]
    fn alloc_decoder_rejects_dangling_pool_index() {
        let mut alloc = sample_alloc();
        alloc.pools.clear();
        let err = round_trip(KIND_ALLOC, |w| encode_alloc(w, &alloc), decode_alloc)
            .expect_err("dangling pool");
        assert_eq!(err, CodecError::Malformed("pool index out of range"));
    }

    #[test]
    fn store_round_trips_runs_and_allocs() {
        let store = temp_store("roundtrip");
        let result = sample_result();
        assert!(store.load_run(7).is_none());
        assert!(!store.has_run(7));
        store.store_run(7, &result);
        assert!(store.has_run(7));
        let loaded = store.load_run(7).expect("stored entry");
        assert_eq!(format!("{result:?}"), format!("{loaded:?}"));

        let alloc = sample_alloc();
        store.store_alloc(9, &alloc);
        assert_eq!(store.load_alloc(9), Some(alloc));

        let s = store.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.corrupt_dropped, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_entries_are_dropped_and_recomputable() {
        let writer = temp_store("corrupt");
        writer.store_run(1, &sample_result());
        drop(writer);
        let [path] = segments(&store_dir("corrupt"))
            .try_into()
            .expect("one sealed segment");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let store = temp_store_at("corrupt");
        assert!(store.load_run(1).is_none(), "corrupt entry must miss");
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert!(
            segments(store.root()).is_empty(),
            "nothing else was in its segment"
        );
        let s = store.stats();
        assert_eq!(s.corrupt_dropped, 1);
        assert_eq!(s.evictions, 1);
        // The slot is clean again: a recompute can repopulate it.
        store.store_run(1, &sample_result());
        assert!(store.load_run(1).is_some());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corruption_heals_only_the_bad_record() {
        let writer = temp_store("heal");
        writer.store_run(1, &sample_result());
        writer.store_run(2, &sample_result());
        writer.store_alloc(3, &sample_alloc());
        drop(writer);
        let [path] = segments(&store_dir("heal"))
            .try_into()
            .expect("one sealed segment");
        // Flip the last byte of the first record's envelope.
        let mut bytes = fs::read(&path).unwrap();
        let (frames, clean) = frame(&bytes);
        assert!(clean && frames.len() == 3);
        let first = frames[0].1;
        bytes[(first.offset + first.len - 1) as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let store = temp_store_at("heal");
        let other = temp_store_at("heal");
        assert!(store.load_run(1).is_none());
        assert_eq!(store.stats().corrupt_dropped, 1);
        // The healed copy holds the two good records under a new name.
        let [healed] = segments(store.root())
            .try_into()
            .expect("one healed segment");
        assert_ne!(healed, path);
        assert_eq!(records_in(&healed), 2);
        assert!(store.load_run(2).is_some());
        assert_eq!(store.load_alloc(3), Some(sample_alloc()));
        // A handle indexed before the heal names the old file: its
        // records read as misses, not as corruption.
        assert!(other.load_run(2).is_none());
        assert_eq!(other.stats().corrupt_dropped, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_handle_reads_its_own_writes_at_once() {
        let store = temp_store("own");
        let result = sample_result();
        let mut key = 0u128;
        // Write until the pending segment seals, reading each record
        // back immediately, as the replay tracer does.
        while segments(store.root()).is_empty() {
            store.store_run(key, &result);
            assert!(store.has_run(key));
            let loaded = store.load_run(key).expect("own pending write");
            assert_eq!(format!("{loaded:?}"), format!("{result:?}"));
            key += 1;
        }
        assert!(fs::metadata(&segments(store.root())[0]).unwrap().len() >= SEGMENT_BYTES);
        // Records that moved into the sealed segment still read back.
        for k in 0..key {
            assert!(store.load_run(k).is_some(), "sealed record {k}");
        }
        assert_eq!(store.stats().misses, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn pending_records_are_visible_after_seal_or_drop() {
        let writer = temp_store("visible");
        writer.store_run(1, &sample_result());
        let early = temp_store_at("visible");
        assert!(!early.has_run(1), "pending records are private");
        writer.seal();
        assert!(temp_store_at("visible").load_run(1).is_some());
        writer.store_run(2, &sample_result());
        drop(writer);
        let late = temp_store_at("visible");
        assert!(late.load_run(2).is_some());
        // A handle's index is a snapshot taken at open.
        assert!(!early.has_run(1));
        let _ = fs::remove_dir_all(late.root());
    }

    #[test]
    fn a_cold_store_of_200_cells_makes_few_files() {
        let store = temp_store("files");
        let result = sample_result();
        for key in 0..200u128 {
            store.store_run(key, &result);
        }
        store.persist_model();
        let root = store.root().to_path_buf();
        drop(store);
        let files = count_files(&root);
        assert!(files < 10, "{files} files for 200 cells");
        let reopened = DiskCache::open(&root).expect("reopen");
        assert!((0..200u128).all(|k| reopened.has_run(k)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_sweeps_temp_files_of_dead_processes() {
        let root = store_dir("orphans");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join(SEGMENTS)).unwrap();
        let pending = |pid: u64| root.join(SEGMENTS).join(format!("pending.tmp.{pid}.0"));
        // No process has this pid (it is above any kernel's pid_max).
        let dead = pending(4_000_000_000);
        let live = pending(u64::from(std::process::id()));
        fs::write(&dead, b"lost records").unwrap();
        fs::write(&live, b"still being written").unwrap();
        let store = DiskCache::open(&root).expect("open");
        assert!(!dead.exists(), "a dead process's pending segment is swept");
        assert!(live.exists(), "a live process's pending segment stays");
        assert!(segments(store.root()).is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    fn count_files(dir: &Path) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| if p.is_dir() { count_files(&p) } else { 1 })
            .sum()
    }

    fn sample_detail() -> DetailReport {
        DetailReport {
            apps: vec![
                DetailAppStats {
                    accesses: 50_000,
                    misses: 1_234,
                    total_latency: 1.5e6,
                    total_hops: 2.25e5,
                    port_wait: 777,
                    tlb_misses: 42,
                    writebacks: 310,
                },
                DetailAppStats::default(),
            ],
            bank_occupants: vec![vec![AppId(0), AppId(1)], vec![], vec![AppId(1)]],
        }
    }

    #[test]
    fn detail_codec_round_trips_bit_exactly() {
        let original = sample_detail();
        let decoded = round_trip(KIND_DETAIL, |w| encode_detail(w, &original), decode_detail)
            .expect("valid entry");
        assert_eq!(format!("{original:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn detail_decoder_rejects_dangling_occupant() {
        let mut report = sample_detail();
        report.bank_occupants[0].push(AppId(9));
        let err = round_trip(KIND_DETAIL, |w| encode_detail(w, &report), decode_detail)
            .expect_err("dangling occupant");
        assert_eq!(err, CodecError::Malformed("occupant app out of range"));
    }

    #[test]
    fn store_round_trips_details() {
        let store = temp_store("detail-roundtrip");
        let report = sample_detail();
        assert!(store.load_detail(11).is_none());
        assert!(!store.has_detail(11));
        store.store_detail(11, &report);
        assert!(store.has_detail(11));
        let loaded = store.load_detail(11).expect("stored entry");
        assert_eq!(format!("{report:?}"), format!("{loaded:?}"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // test fabricates mtimes from a wall-clock base
    fn size_cap_evicts_oldest_entries_first() {
        // Three writers, three sealed segments: runs 0–1, runs 2–3, and
        // the detail cell. Spread their mtimes so the write order is
        // unambiguous regardless of filesystem timestamp granularity.
        let root = store_dir("cap");
        let _ = fs::remove_dir_all(&root);
        let result = sample_result();
        let batches: [&dyn Fn(&DiskCache); 3] = [
            &|w| (0..2).for_each(|k| w.store_run(k, &result)),
            &|w| (2..4).for_each(|k| w.store_run(k, &result)),
            &|w| w.store_detail(9, &sample_detail()),
        ];
        let base = std::time::SystemTime::now() - std::time::Duration::from_secs(100);
        let mut aged: Vec<PathBuf> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            batch(&DiskCache::open(&root).expect("open writer"));
            let newest = segments(&root)
                .into_iter()
                .find(|p| !aged.contains(p))
                .expect("a newly sealed segment");
            let f = fs::File::options().write(true).open(&newest).unwrap();
            f.set_modified(base + std::time::Duration::from_secs(10 * i as u64))
                .unwrap();
            aged.push(newest);
        }
        let store = DiskCache::open(&root).expect("open store");
        let run_len = encode_record(KIND_RUN, 0, |w| encode_result(w, &result)).len() as u64;
        let detail_len = encode_record(KIND_DETAIL, 9, |w| encode_detail(w, &sample_detail()));
        let detail_len = detail_len.len() as u64;

        // Unbounded: nothing happens.
        assert_eq!(store.enforce_cap(), 0);

        // Cap to two run records plus the detail: the oldest segment goes
        // whole, newest survive.
        store.set_cap_bytes(run_len * 2 + detail_len);
        let evicted = store.enforce_cap();
        assert_eq!(evicted, 2, "one two-record segment evicted");
        assert!(!store.has_run(0), "oldest entry must be evicted first");
        assert!(!store.has_run(1), "its whole segment goes with it");
        assert!(store.has_run(2));
        assert!(store.has_detail(9), "newest entry must survive");
        assert_eq!(store.stats().evictions, evicted);

        // Within cap now: a second enforcement is a no-op, and evicted
        // cells are plain recomputable misses.
        assert_eq!(store.enforce_cap(), 0);
        assert!(store.load_run(0).is_none());
        assert_eq!(store.stats().corrupt_dropped, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn costs_table_accumulates_across_merges() {
        let store = temp_store("costs");
        assert!(store.load_costs().is_empty());
        let mut fresh = MeasuredCosts::default();
        fresh.record_run(DesignKind::Jumanji, 10, 1000);
        fresh.record_run(DesignKind::Jumanji, 10, 3000);
        fresh.record_exp(10, 500);
        fresh.record_detail(32.0, 6400);
        store.merge_costs(&fresh);
        store.merge_costs(&fresh);
        let loaded = store.load_costs();
        assert_eq!(loaded.runs[design_tag(DesignKind::Jumanji) as usize].0, 4);
        assert_eq!(loaded.mean_run_us(DesignKind::Jumanji), Some(200.0));
        assert_eq!(loaded.mean_exp_us(), Some(50.0));
        assert_eq!(loaded.mean_detail_us(), Some(200.0));
        assert_eq!(loaded.mean_run_us(DesignKind::Static), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn model_file_round_trips_and_merges() {
        let store = temp_store("model");
        // Nothing persisted yet: seeding is a no-op (possibly after
        // other tests populated the process-wide memos, persist first).
        let curve = Arc::new(MissCurve::new(1024, vec![3.0, 2.0, 1.0]));
        let encoded = encode_model(&[(42u128, Arc::clone(&curve))], &[(7u128, 1000.0)]);
        let (hulls, deadlines) = decode_model(&encoded).expect("valid model");
        assert_eq!(hulls.len(), 1);
        assert_eq!(hulls[0].0, 42);
        assert_eq!(hulls[0].1.points(), curve.points());
        assert_eq!(deadlines, vec![(7, 1000.0)]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn model_decoder_rejects_malformed_values() {
        let bad_curve = {
            let mut w = ByteWriter::new();
            w.u32(1);
            w.u128(1);
            w.u64(0); // zero unit
            w.f64s(&[1.0]);
            w.u32(0);
            encode_entry(KIND_MODEL, w.into_bytes())
        };
        assert_eq!(
            decode_model(&bad_curve),
            Err(CodecError::Malformed("zero curve unit"))
        );
        let bad_deadline = encode_model(&[], &[(1, f64::NAN)]);
        assert!(decode_model(&bad_deadline).is_err());
    }

    #[test]
    fn concurrent_writers_never_leave_a_torn_entry() {
        // Two independent stores on the same directory (stand-ins for
        // two processes) hammer the same key while a reader validates:
        // every read must be a full valid entry or a clean miss — never
        // a decode of interleaved bytes that passes, and never a panic.
        let store_a = temp_store("race");
        let store_b = DiskCache::open(store_a.root()).expect("open second store");
        let result = sample_result();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..200 {
                    store_a.store_run(5, &result);
                }
            });
            s.spawn(|| {
                for _ in 0..200 {
                    store_b.store_run(5, &result);
                }
            });
            for _ in 0..200 {
                if let Some(loaded) = store_a.load_run(5) {
                    assert_eq!(format!("{loaded:?}"), format!("{result:?}"));
                }
            }
        });
        assert_eq!(store_a.stats().corrupt_dropped, 0, "no torn entries");
        let loaded = store_b.load_run(5).expect("final entry valid");
        assert_eq!(format!("{loaded:?}"), format!("{result:?}"));
        let root = store_a.root().to_path_buf();
        drop((store_a, store_b));
        let fresh = DiskCache::open(&root).expect("reopen");
        let loaded = fresh.load_run(5).expect("sealed entry valid");
        assert_eq!(format!("{loaded:?}"), format!("{result:?}"));
        assert_eq!(fresh.stats().corrupt_dropped, 0);
        let _ = fs::remove_dir_all(&root);
    }
}
