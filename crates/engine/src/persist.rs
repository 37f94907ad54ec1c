//! The persistent cache tier: a versioned binary codec, a disk-backed entry store
//! ([`DiskTier`]), and the [`TieredCache`] that fronts it with the in-memory
//! [`ShardedLru`].
//!
//! The engine's result cache keys on
//! [`request_fingerprint`](crate::fingerprint::request_fingerprint), a *content*
//! fingerprint that is stable across processes and shard counts. This module turns
//! that property into durability: answers survive process restarts, and one cache
//! directory can back every shard of a [`Router`](crate::Router) (or several
//! cooperating processes) at once, so an answer computed anywhere is served
//! everywhere.
//!
//! Only whole [`ExploreResult`]s are persisted. View statistics stay in the
//! engine's memory-only [`StatsCache`](linx_dataframe::StatsCache): rebuilding one
//! costs less than writing it as a file of its own, and a directory holding one
//! file per statistic took far longer to scrub at start-up than to recompute.
//!
//! # On-disk format
//!
//! One file per entry, named by its cache key, all integers little-endian:
//!
//! ```text
//! file name   res-<fp:016x>.lnx
//!
//! bytes 0..4  magic  b"LNXP"
//! bytes 4..6  format version (u16; readers serve only their own, see below)
//! byte  6     payload kind   (1 result; 2–5 are reserved, see below)
//! bytes 7..N  payload        (strings are u64-length-prefixed UTF-8, floats are
//!                             IEEE-754 bit patterns, enums travel as their
//!                             canonical tokens)
//! bytes N..+8 FNV-1a checksum over bytes 0..N
//! ```
//!
//! Writes are atomic: entries are written to a dot-prefixed temp file in the cache
//! directory and `rename(2)`d into place, so a reader (or a concurrent process
//! sharing the directory) only ever observes complete files. In *durable* mode
//! ([`PersistConfig::with_durable`]) the temp file is additionally `fsync`ed before
//! the rename and the directory is synced (best-effort) after it, so a renamed
//! entry survives a power cut — without it, a crash can leave a renamed file whose
//! data blocks never reached the platter (a "torn" entry). The directory is
//! size-capped; exceeding the cap evicts least-recently-used entries by file mtime
//! (ties broken by file name, so eviction order is deterministic on
//! coarse-timestamp filesystems; hits re-touch mtime best-effort via
//! [`std::fs::File::set_times`]).
//!
//! # Startup scrub
//!
//! [`DiskTier::open`] walks the tier and reads every entry under one rule:
//!
//! * **intact** means magic, length and checksum hold;
//! * an intact entry of this build's [`FORMAT_VERSION`] and the result kind that
//!   also decodes in full is **live**: it stays and is counted;
//! * an intact entry of another format version or payload kind is **stale**, not
//!   damage: it is deleted and counted in [`ScrubReport::retired`];
//! * anything else, unreadable files included, is **damaged**: it is moved —
//!   never deleted — into a `quarantine/` subdirectory for forensics.
//!
//! The byte/entry counters are rebuilt from the live entries, so a tier that was
//! SIGKILLed mid-write comes back with exact accounting and zero corrupt entries
//! addressable. The result is surfaced as a [`ScrubReport`] (and the
//! `linx_scrub_*` metrics families). Quarantined files sit outside the eviction
//! walk (it is not recursive) and are overwritten by name if the same entry is
//! quarantined twice.
//!
//! Kinds 2–5 stay reserved so no future kind reuses them: earlier builds
//! persisted view statistics (histograms, groupings, group sizes, summaries)
//! under them, and the scrub deletes such entries as stale.
//!
//! # Invalidation story
//!
//! There is none, by construction — and that is the point. Keys embed the dataset
//! *content* fingerprint plus every result-shaping config knob, so changed data or
//! config is a changed file name and the old entries are simply never addressed
//! again (the size cap eventually reclaims them). The remaining failure modes all
//! degrade to a clean miss:
//!
//! * **corruption** (truncation, bit flips, zero-length files) — the checksum or a
//!   bounds check fails; at open the scrub quarantines the file, at runtime the
//!   entry decodes as a miss and the file is deleted;
//! * **format evolution** — [`FORMAT_VERSION`] is bumped whenever the payload
//!   layout changes; old files are stale, never misread: the scrub deletes them
//!   at open, and at runtime one decodes as a miss and is deleted;
//! * **foreign files** in the cache directory — only `*.lnx` files are counted or
//!   evicted, and anything failing the magic check is treated like corruption.
//!
//! A decoded entry can therefore be wrong only if an FNV-1a collision aligns with a
//! valid checksum — the same (accepted) risk the in-memory fingerprint caches
//! already carry.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use linx_dataframe::filter::CompareOp;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::Value;
use linx_explore::notebook::NotebookCell;
use linx_explore::{Narrative, Notebook, QueryOp};

use linx_metrics::{Clock, LatencyHistogram};

use crate::api::ExploreResult;
use crate::cache::{CacheStats, ShardedLru};
use crate::faults::{self, FaultKind};
use crate::telemetry::TierLatency;

/// Magic bytes opening every persisted entry.
const MAGIC: [u8; 4] = *b"LNXP";

/// The on-disk format version. Bump on any payload layout change; readers treat
/// every other version as stale (a miss, and the file deleted), never as data.
pub const FORMAT_VERSION: u16 = 1;

/// File extension of persisted entries; only such files are counted and evicted.
const ENTRY_EXT: &str = "lnx";

/// Subdirectory (inside the cache dir) that the startup scrub moves corrupt
/// entries into. Invisible to the (non-recursive) eviction walk.
const QUARANTINE_DIR: &str = "quarantine";

/// Payload kind tag (byte 6 of the frame) of an [`ExploreResult`]. Kinds 2–5 are
/// reserved: earlier builds persisted view statistics under them.
const KIND_RESULT: u8 = 1;

/// Why a persisted entry failed to decode. Carried for diagnostics; every variant
/// is handled identically (treat as miss, delete the file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError(&'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "persisted entry rejected: {}", self.0)
    }
}

fn err<T>(msg: &'static str) -> Result<T, CodecError> {
    Err(CodecError(msg))
}

// --- primitive encoding -----------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

fn put_f64(out: &mut Vec<u8>, f: f64) {
    put_u64(out, f.to_bits());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            put_bool(out, *b);
        }
    }
}

/// A bounds-checked cursor over a payload; every read can fail, no read can panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err("payload truncated");
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// A `u64` that must also fit `usize` and be plausible as an in-payload count
    /// (each counted item costs at least one byte, so a count beyond the remaining
    /// bytes is corruption — this also keeps preallocations honest).
    fn take_count(&mut self) -> Result<usize, CodecError> {
        let v = self.take_u64()?;
        if v > self.remaining() as u64 {
            return err("count exceeds payload");
        }
        Ok(v as usize)
    }

    fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => err("invalid bool tag"),
        }
    }

    fn take_str(&mut self) -> Result<String, CodecError> {
        let len = self.take_count()?;
        match std::str::from_utf8(self.take(len)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => err("invalid UTF-8 string"),
        }
    }

    fn take_value(&mut self) -> Result<Value, CodecError> {
        match self.take_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.take_u64()? as i64)),
            // `Value::float` normalizes a (hand-corrupted) NaN bit pattern to Null
            // instead of smuggling NaN past the constructor invariant.
            2 => Ok(Value::float(self.take_f64()?)),
            // Interned construction: decoded strings share the process pool, so a
            // warm disk tier repopulates the same `Arc`s live computation uses.
            3 => Ok(Value::str(self.take_str()?)),
            4 => Ok(Value::Bool(self.take_bool()?)),
            _ => err("unknown value tag"),
        }
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return err("trailing bytes after payload");
        }
        Ok(())
    }
}

// --- framing ----------------------------------------------------------------------

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = linx_dataframe::fingerprint::Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Wrap a payload in the magic/version/kind header and trailing checksum.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 15);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Verify magic, length and checksum; return the format version, payload kind
/// and payload bytes.
fn unframe(bytes: &[u8]) -> Result<(u16, u8, &[u8]), CodecError> {
    if bytes.len() < 15 {
        return err("file shorter than header + checksum");
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    if body[0..4] != MAGIC {
        return err("bad magic");
    }
    let sum = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte slice"));
    if checksum(body) != sum {
        return err("checksum mismatch");
    }
    Ok((u16::from_le_bytes([body[4], body[5]]), body[6], &body[7..]))
}

// --- persisted types --------------------------------------------------------------

fn put_query_op(out: &mut Vec<u8>, op: &QueryOp) {
    match op {
        QueryOp::Filter { attr, op, term } => {
            out.push(0);
            put_str(out, attr);
            put_str(out, op.token());
            put_value(out, term);
        }
        QueryOp::GroupBy {
            g_attr,
            agg,
            agg_attr,
        } => {
            out.push(1);
            put_str(out, g_attr);
            put_str(out, agg.token());
            put_str(out, agg_attr);
        }
    }
}

fn take_query_op(r: &mut Reader<'_>) -> Result<QueryOp, CodecError> {
    match r.take_u8()? {
        0 => {
            let attr = r.take_str()?;
            let Some(op) = CompareOp::parse(&r.take_str()?) else {
                return err("unknown comparison operator token");
            };
            let term = r.take_value()?;
            Ok(QueryOp::Filter { attr, op, term })
        }
        1 => {
            let g_attr = r.take_str()?;
            let Some(agg) = AggFunc::parse(&r.take_str()?) else {
                return err("unknown aggregation function token");
            };
            let agg_attr = r.take_str()?;
            Ok(QueryOp::GroupBy {
                g_attr,
                agg,
                agg_attr,
            })
        }
        _ => err("unknown query-op tag"),
    }
}

/// Encode a complete [`ExploreResult`] (notebook, narrative, scores) as one framed,
/// checksummed entry.
pub fn encode_result(result: &ExploreResult) -> Vec<u8> {
    let mut p = Vec::new();
    put_str(&mut p, &result.ldx_canonical);
    put_str(&mut p, &result.notebook.title);
    put_u64(&mut p, result.notebook.cells.len() as u64);
    for cell in &result.notebook.cells {
        put_u64(&mut p, cell.node as u64);
        put_u64(&mut p, cell.depth as u64);
        put_query_op(&mut p, &cell.op);
        put_str(&mut p, &cell.code);
        put_str(&mut p, &cell.result_preview);
        put_u64(&mut p, cell.result_rows as u64);
        put_str(&mut p, &cell.caption);
    }
    put_str(&mut p, &result.narrative.headline);
    put_u64(&mut p, result.narrative.bullets.len() as u64);
    for bullet in &result.narrative.bullets {
        put_str(&mut p, bullet);
    }
    put_bool(&mut p, result.best_structural);
    put_f64(&mut p, result.best_score);
    frame(KIND_RESULT, &p)
}

/// One entry's bytes, read under the rule of the module docs ("Startup scrub").
enum Entry {
    /// A result of this build's format, decoded in full.
    Live(ExploreResult),
    /// Intact, but of a format version or payload kind this build does not serve.
    Stale,
}

/// Read one entry: checksummed once, then decoded in full if this build serves
/// it. An error means damage: framing, bounds or token violations.
fn read_entry(bytes: &[u8]) -> Result<Entry, CodecError> {
    let (version, kind, payload) = unframe(bytes)?;
    if version != FORMAT_VERSION || kind != KIND_RESULT {
        return Ok(Entry::Stale);
    }
    decode_payload(payload).map(Entry::Live)
}

/// Decode an [`ExploreResult`] entry; a stale entry or any framing, bounds,
/// token, or checksum violation is an error (callers treat it as a miss).
pub fn decode_result(bytes: &[u8]) -> Result<ExploreResult, CodecError> {
    match read_entry(bytes)? {
        Entry::Live(result) => Ok(result),
        Entry::Stale => err("another format version or payload kind"),
    }
}

fn decode_payload(payload: &[u8]) -> Result<ExploreResult, CodecError> {
    let mut r = Reader::new(payload);
    let ldx_canonical = r.take_str()?;
    let title = r.take_str()?;
    let n_cells = r.take_count()?;
    let mut cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        cells.push(NotebookCell {
            node: r.take_u64()? as usize,
            depth: r.take_u64()? as usize,
            op: take_query_op(&mut r)?,
            code: r.take_str()?,
            result_preview: r.take_str()?,
            result_rows: r.take_u64()? as usize,
            caption: r.take_str()?,
        });
    }
    let headline = r.take_str()?;
    let n_bullets = r.take_count()?;
    let mut bullets = Vec::with_capacity(n_bullets);
    for _ in 0..n_bullets {
        bullets.push(r.take_str()?);
    }
    let best_structural = r.take_bool()?;
    let best_score = r.take_f64()?;
    r.finish()?;
    Ok(ExploreResult {
        ldx_canonical,
        notebook: Notebook { title, cells },
        narrative: Narrative { headline, bullets },
        best_structural,
        best_score,
    })
}

// --- the disk tier ----------------------------------------------------------------

/// Where and how large a [`DiskTier`] may be; carried on
/// [`EngineConfig`](crate::EngineConfig) so [`Engine`](crate::Engine) and
/// [`Router`](crate::Router) mount the tier themselves.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The cache directory (created if absent). Safe to share across processes and
    /// across routers with different shard counts: keys are content fingerprints.
    pub dir: PathBuf,
    /// Total size cap in bytes; exceeding it evicts least-recently-used entries by
    /// file mtime. The tier floors it at 4 KiB, about one entry's worth.
    pub max_bytes: u64,
    /// Durable writes: `fsync` the temp file before rename and sync the
    /// directory (best-effort) after it, so a renamed entry survives a power
    /// cut. Off by default — the atomic rename alone already guarantees
    /// *consistency* (no torn entry is ever addressable after the scrub), and
    /// the fsyncs cost latency on the store path.
    pub durable: bool,
}

impl PersistConfig {
    /// Default size cap: 256 MiB.
    pub const DEFAULT_MAX_BYTES: u64 = 256 * 1024 * 1024;

    /// A config for `dir` with the default size cap and non-durable writes.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            max_bytes: Self::DEFAULT_MAX_BYTES,
            durable: false,
        }
    }

    /// Set the size cap in bytes.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Enable (or disable) durable writes: fsync before rename + best-effort
    /// directory sync after it.
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }
}

/// Circuit-breaker states, as surfaced in [`TierStats::breaker_state`] and the
/// `linx_breaker_state` gauge.
pub const BREAKER_CLOSED: u8 = 0;
/// The breaker tripped; reads and writes short-circuit until the cooldown ends.
pub const BREAKER_OPEN: u8 = 1;
/// Cooldown elapsed; one probe operation is in flight to test recovery.
pub const BREAKER_HALF_OPEN: u8 = 2;

/// A consecutive-failure circuit breaker guarding the disk tier.
///
/// State machine: `Closed` →([`DiskTier::BREAKER_THRESHOLD`] consecutive
/// failures)→ `Open` →([`DiskTier::BREAKER_COOLDOWN_MICROS`] elapse; first
/// caller becomes the probe)→ `HalfOpen` →(probe succeeds)→ `Closed`, or
/// →(probe fails)→ `Open` again (re-stamping the cooldown and counting another
/// trip). While `Open` or `HalfOpen`, every non-probe operation short-circuits:
/// loads report clean misses and stores are dropped — the tier is a cache, so
/// memory-only operation stays correct.
///
/// The all-zero default is `Closed` with no failures and no trips.
#[derive(Debug, Default)]
struct Breaker {
    state: AtomicU8,
    consecutive: AtomicU32,
    opened_at_micros: AtomicU64,
    trips: AtomicU64,
}

impl Breaker {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Whether the caller may touch the disk. From `Open`, the first caller
    /// after the cooldown wins a CAS into `HalfOpen` and becomes the probe;
    /// everyone else keeps short-circuiting until the probe reports.
    fn allow(&self, now_micros: u64) -> bool {
        match self.state.load(Ordering::Acquire) {
            BREAKER_OPEN => {
                let opened = self.opened_at_micros.load(Ordering::Relaxed);
                now_micros.saturating_sub(opened) >= DiskTier::BREAKER_COOLDOWN_MICROS
                    && self
                        .state
                        .compare_exchange(
                            BREAKER_OPEN,
                            BREAKER_HALF_OPEN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
            }
            BREAKER_HALF_OPEN => false,
            _ => true,
        }
    }

    fn record_success(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        // A successful half-open probe closes the breaker; a success while
        // closed is a no-op CAS.
        let _ = self.state.compare_exchange(
            BREAKER_HALF_OPEN,
            BREAKER_CLOSED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    fn record_failure(&self, now_micros: u64) {
        let consecutive = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        let state = self.state.load(Ordering::Acquire);
        let should_trip = match state {
            BREAKER_HALF_OPEN => true, // the probe failed: reopen
            BREAKER_CLOSED => consecutive >= DiskTier::BREAKER_THRESHOLD,
            _ => false,
        };
        if should_trip
            && self
                .state
                .compare_exchange(state, BREAKER_OPEN, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.opened_at_micros.store(now_micros, Ordering::Relaxed);
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Point-in-time effectiveness counters of a [`DiskTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Entries loaded and decoded successfully.
    pub hits: u64,
    /// Lookups that found no file.
    pub misses: u64,
    /// Files that existed but failed to decode (and were deleted).
    pub load_errors: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries deleted by the size cap.
    pub evictions: u64,
    /// Resident entry files (approximate under concurrent external writers).
    pub entries: u64,
    /// Resident bytes (approximate under concurrent external writers).
    pub bytes: u64,
    /// Current circuit-breaker state ([`BREAKER_CLOSED`] / [`BREAKER_OPEN`] /
    /// [`BREAKER_HALF_OPEN`]).
    pub breaker_state: u8,
    /// Times the breaker tripped open (including a failed half-open probe
    /// re-opening it).
    pub breaker_trips: u64,
    /// `remove_file` failures in the eviction and corruption-unlink paths
    /// (`NotFound` — someone else already removed the file — is not a failure).
    pub unlink_errors: u64,
    /// Store attempts retried after a transient write failure.
    pub retries: u64,
    /// Entry files examined by the startup scrub.
    pub scrub_scanned: u64,
    /// Entry files the startup scrub moved into `quarantine/`.
    pub scrub_quarantined: u64,
    /// Orphaned temp files reclaimed at open (crashed writers' leftovers).
    pub orphans_reclaimed: u64,
}

/// What the startup scrub found when this tier was opened; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Entry files examined.
    pub scanned: u64,
    /// Files that failed verification and were moved into `quarantine/`.
    pub quarantined: u64,
    /// Verified entries resident after the scrub.
    pub entries: u64,
    /// Verified bytes resident after the scrub.
    pub bytes: u64,
    /// Orphaned temp files reclaimed.
    pub orphans_reclaimed: u64,
    /// Intact entries of another format version or payload kind, deleted as
    /// stale; see the module docs.
    pub retired: u64,
}

/// A disk-backed, size-capped entry store: one file per fingerprint-keyed entry.
///
/// All operations are best-effort and non-panicking: I/O errors surface as misses
/// (loads) or dropped writes (stores), corrupt files are deleted on first contact,
/// and the size cap is enforced by evicting the oldest-mtime entries after a store
/// overflows it. See the module docs for the on-disk format.
///
/// The tier is safe to share: across threads (all state is atomic or behind the
/// eviction lock), across the shards of one [`Router`](crate::Router) (they are
/// handed one `Arc`), and across processes pointing at the same directory (writes
/// are atomic renames; the byte/entry counters then drift toward approximate, which
/// only affects telemetry and eviction timing, never correctness).
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    max_bytes: u64,
    bytes: AtomicU64,
    entries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    load_errors: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    unlink_errors: AtomicU64,
    retries: AtomicU64,
    breaker: Breaker,
    durable: bool,
    /// What the startup scrub found; immutable after open.
    scrub: ScrubReport,
    /// Clock time of the last eviction scan that could not delete anything
    /// (every unlink failed); `u64::MAX` when the last scan made progress.
    /// While set, further scans are suppressed for a cooldown so a failing
    /// unlink cannot turn every store into a full directory walk.
    futile_evict_at: AtomicU64,
    /// Serializes eviction scans (stores themselves stay lock-free).
    evict_lock: Mutex<()>,
    clock: Clock,
    read_micros: LatencyHistogram,
    write_micros: LatencyHistogram,
    evict_micros: LatencyHistogram,
    sync_micros: LatencyHistogram,
}

impl DiskTier {
    /// Consecutive read/write failures that open the circuit breaker.
    pub const BREAKER_THRESHOLD: u32 = 4;

    /// How long an open breaker short-circuits before it admits a half-open
    /// probe, in clock microseconds: 250 ms.
    pub const BREAKER_COOLDOWN_MICROS: u64 = 250_000;

    /// Extra store attempts after a failed write.
    pub const WRITE_RETRIES: u32 = 2;

    /// Backoff before the first write retry, in clock microseconds; it doubles
    /// per retry. Sleeps go through [`Clock::sleep_micros`], so a manual clock
    /// makes the schedule deterministic and instant.
    pub const RETRY_BACKOFF_MICROS: u64 = 500;

    /// Minimum age, in seconds, of an orphaned `.tmp-*` file (a crashed
    /// writer's leftovers) before open reclaims it. A live writer holds a temp
    /// file only for the instants between write and rename, and another
    /// process may share the directory, so only older files are reclaimed.
    pub const ORPHAN_SWEEP_SECS: u64 = 60;

    /// Open (creating if needed) a cache directory with the given size cap,
    /// scrubbing it first: every entry is verified, corrupt files are moved into
    /// `quarantine/`, stale ones are deleted, counters are rebuilt exactly, and
    /// orphaned temp files left by crashed writers are reclaimed (they are
    /// invisible to eviction, so nothing else would ever do it). See
    /// [`DiskTier::scrub_report`].
    pub fn open(config: &PersistConfig) -> io::Result<Arc<DiskTier>> {
        DiskTier::open_with_clock(config, Clock::real())
    }

    /// [`DiskTier::open`] with an explicit clock for the latency histograms, the
    /// breaker cooldown and the retry backoff. Tests pass a manual clock; `open`
    /// uses the real one.
    pub fn open_with_clock(config: &PersistConfig, clock: Clock) -> io::Result<Arc<DiskTier>> {
        std::fs::create_dir_all(&config.dir)?;
        let mut scrub = ScrubReport::default();
        let mut unlink_errors = 0u64;
        let quarantine = config.dir.join(QUARANTINE_DIR);
        for entry in std::fs::read_dir(&config.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if entry.metadata().map(|m| m.is_dir()).unwrap_or(false) {
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT) {
                scrub.scanned += 1;
                let (read, len) = match std::fs::read(&path) {
                    Ok(bytes) => (read_entry(&bytes), bytes.len() as u64),
                    // Unreadable counts as corrupt: the file exists but cannot
                    // serve a hit, so it goes to quarantine with the rest.
                    Err(_) => (err("unreadable file"), 0),
                };
                match read {
                    Ok(Entry::Live(_)) => {
                        scrub.bytes += len;
                        scrub.entries += 1;
                    }
                    Ok(Entry::Stale) => {
                        // Nothing reads these any more, and they hold no
                        // evidence of damage: delete, don't quarantine.
                        if std::fs::remove_file(&path).is_ok() {
                            scrub.retired += 1;
                        } else {
                            unlink_errors += 1;
                        }
                    }
                    Err(_) => {
                        // Never unlink — keep the bytes for forensics. A failed
                        // quarantine leaves the file in place; the load path
                        // will still reject (and then delete) it at runtime.
                        let _ = std::fs::create_dir_all(&quarantine);
                        let dest = quarantine.join(entry.file_name());
                        if std::fs::rename(&path, &dest).is_ok() {
                            scrub.quarantined += 1;
                        } else {
                            unlink_errors += 1;
                        }
                    }
                }
            } else if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(".tmp-"))
            {
                // A temp file older than the sweep window belongs to a process
                // that died mid-store and will never be renamed.
                let stale = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
                    .is_some_and(|age| age.as_secs() >= Self::ORPHAN_SWEEP_SECS);
                if stale && std::fs::remove_file(&path).is_ok() {
                    scrub.orphans_reclaimed += 1;
                }
            }
        }
        Ok(Arc::new(DiskTier {
            dir: config.dir.clone(),
            max_bytes: config.max_bytes.max(4 * 1024),
            bytes: AtomicU64::new(scrub.bytes),
            entries: AtomicU64::new(scrub.entries),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_errors: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            unlink_errors: AtomicU64::new(unlink_errors),
            retries: AtomicU64::new(0),
            breaker: Breaker::default(),
            durable: config.durable,
            scrub,
            futile_evict_at: AtomicU64::new(u64::MAX),
            evict_lock: Mutex::new(()),
            clock,
            read_micros: LatencyHistogram::new(),
            write_micros: LatencyHistogram::new(),
            evict_micros: LatencyHistogram::new(),
            sync_micros: LatencyHistogram::new(),
        }))
    }

    /// The cache directory this tier reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the startup scrub found when this tier was opened.
    pub fn scrub_report(&self) -> ScrubReport {
        self.scrub
    }

    /// The `quarantine/` subdirectory corrupt entries are moved into at open.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    fn entry_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("res-{fp:016x}.{ENTRY_EXT}"))
    }

    /// Load a persisted exploration result by request fingerprint. Missing file →
    /// miss; present-but-undecodable file → the file is deleted and the lookup is a
    /// miss (with `load_errors` bumped).
    pub fn load_result(&self, fp: u64) -> Option<ExploreResult> {
        let start = self.clock.now_micros();
        let out = self.load_result_inner(fp);
        self.read_micros
            .record(self.clock.now_micros().saturating_sub(start));
        out
    }

    fn load_result_inner(&self, fp: u64) -> Option<ExploreResult> {
        // Open breaker: the tier is cooling down, so the lookup short-circuits
        // to a clean miss without touching the failing disk at all.
        if !self.breaker.allow(self.clock.now_micros()) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // `disk.read` failpoint: an injected error is a read I/O failure (miss
        // + breaker failure); an injected delay models a slow device.
        if faults::io_failpoint("disk.read").is_err() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.breaker.record_failure(self.clock.now_micros());
            return None;
        }
        let path = self.entry_path(fp);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if e.kind() == io::ErrorKind::NotFound {
                    // A plain miss is a *successful* I/O operation: the
                    // directory answered, there was just nothing there.
                    self.breaker.record_success();
                } else {
                    self.breaker.record_failure(self.clock.now_micros());
                }
                return None;
            }
        };
        match decode_result(&bytes) {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.breaker.record_success();
                // Refresh recency for the mtime-LRU eviction order; best-effort (a
                // read-only directory still serves hits, it just decays to FIFO).
                if let Ok(file) = std::fs::File::options().append(true).open(&path) {
                    let now = std::fs::FileTimes::new().set_modified(std::time::SystemTime::now());
                    let _ = file.set_times(now);
                }
                Some(value)
            }
            Err(_) => {
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                self.breaker.record_failure(self.clock.now_micros());
                if self.unlink_entry(&path) {
                    // Saturating updates: the counters are approximate under
                    // cross-process sharing and must never wrap.
                    let _ = self
                        .entries
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |e| {
                            Some(e.saturating_sub(1))
                        });
                    let _ = self
                        .bytes
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                            Some(b.saturating_sub(bytes.len() as u64))
                        });
                }
                None
            }
        }
    }

    /// Remove one entry file, counting failures in `unlink_errors`. `NotFound`
    /// counts as removed (a sibling process got there first). The
    /// `disk.unlink` failpoint injects failures here.
    fn unlink_entry(&self, path: &Path) -> bool {
        let result = match faults::check("disk.unlink") {
            Some(FaultKind::Error) | Some(FaultKind::Panic) => {
                Err(io::Error::other("injected fault at disk.unlink"))
            }
            _ => std::fs::remove_file(path),
        };
        match result {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::NotFound => true,
            Err(_) => {
                self.unlink_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Persist one exploration result under its request fingerprint, atomically
    /// (temp file + rename), then enforce the size cap. A transiently failing
    /// write is retried with exponential backoff ([`DiskTier::WRITE_RETRIES`],
    /// [`DiskTier::RETRY_BACKOFF_MICROS`]); a write that keeps failing — or
    /// arrives while the breaker is open — is dropped: the tier is a cache, so a
    /// dropped write degrades to a later recompute.
    pub fn store_result(&self, fp: u64, result: &ExploreResult) {
        let encoded = encode_result(result);
        let start = self.clock.now_micros();
        let over_cap = self.store_entry_with_retry(fp, &encoded);
        // Eviction is timed separately (`linx_disk_evict_micros`): it is a
        // directory-wide scan whose cost says nothing about a single write.
        self.write_micros
            .record(self.clock.now_micros().saturating_sub(start));
        if over_cap {
            self.evict();
        }
    }

    /// Breaker gate + bounded retry loop around the raw write; returns whether
    /// the directory exceeded the size cap.
    fn store_entry_with_retry(&self, fp: u64, encoded: &[u8]) -> bool {
        if !self.breaker.allow(self.clock.now_micros()) {
            return false;
        }
        let mut attempt = 0u32;
        loop {
            match self.store_entry_inner(fp, encoded) {
                Ok(over_cap) => {
                    self.breaker.record_success();
                    return over_cap;
                }
                Err(()) => {
                    self.breaker.record_failure(self.clock.now_micros());
                    // Stop when retries are exhausted or the breaker tripped
                    // mid-loop (retrying into an open breaker is just load).
                    if attempt >= Self::WRITE_RETRIES || self.breaker.state() != BREAKER_CLOSED {
                        return false;
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.clock
                        .sleep_micros(Self::RETRY_BACKOFF_MICROS << attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// The write itself; `Ok(over_cap)` on success, `Err(())` on any I/O
    /// failure (including one injected at the `disk.write` or `disk.rename`
    /// failpoint).
    fn store_entry_inner(&self, fp: u64, encoded: &[u8]) -> Result<bool, ()> {
        // Process-global counter: two DiskTier instances over one directory (two
        // engines configured independently rather than through a Router) must not
        // collide on temp names, or concurrent stores truncate each other mid-write.
        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // `disk.write` failpoint: an injected error models ENOSPC/EIO on the
        // data write; an injected delay models a slow device.
        if faults::io_failpoint("disk.write").is_err() {
            return Err(());
        }
        let write = std::fs::File::create(&tmp).and_then(|mut file| {
            use std::io::Write as _;
            file.write_all(encoded)?;
            // `disk.write.torn` failpoint: truncate the temp file *and still
            // rename it* — the shape a power cut leaves behind when the rename
            // reached the journal but the data blocks never reached the
            // platter. `delay:<n>` truncates to exactly n bytes (tests pick the
            // offset); a plain error truncates mid-file.
            match faults::check("disk.write.torn") {
                Some(FaultKind::Delay(keep)) => file.set_len(keep.min(encoded.len() as u64))?,
                Some(FaultKind::Error) => file.set_len(encoded.len() as u64 / 2)?,
                Some(FaultKind::Panic) => panic!("injected panic at failpoint disk.write.torn"),
                None => {
                    if self.durable {
                        let start = self.clock.now_micros();
                        file.sync_all()?;
                        self.sync_micros
                            .record(self.clock.now_micros().saturating_sub(start));
                    }
                }
            }
            Ok(())
        });
        if write.is_err() {
            let _ = std::fs::remove_file(&tmp);
            return Err(());
        }
        // `disk.rename` failpoint: the rename itself fails (EXDEV, ENOSPC on
        // the directory, …) — the store is dropped and the temp file cleaned.
        if faults::io_failpoint("disk.rename").is_err() {
            let _ = std::fs::remove_file(&tmp);
            return Err(());
        }
        let path = self.entry_path(fp);
        // An overwrite replaces the previous file's bytes rather than adding an
        // entry; account for it so the approximate counters don't inflate (two
        // shards computing the same key both write through).
        let replaced = std::fs::metadata(&path).map(|m| m.len()).ok();
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return Err(());
        }
        if self.durable {
            // Directory sync, best-effort: makes the *rename* durable. A
            // failure here is not a failed store — the entry is readable, it
            // just might not survive a power cut.
            if let Ok(d) = std::fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        if replaced.is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        let delta = (encoded.len() as u64).saturating_sub(replaced.unwrap_or(0));
        let total = self.bytes.fetch_add(delta, Ordering::Relaxed) + delta;
        Ok(total > self.max_bytes)
    }

    /// Delete oldest-mtime entries until the directory is back under the low-water
    /// mark (90% of the cap — evicting to exactly the cap would re-trigger a full
    /// directory scan on every subsequent store). The scan also resynchronizes the
    /// approximate byte/entry counters with reality (they drift when several
    /// processes share the directory).
    fn evict(&self) {
        let start = self.clock.now_micros();
        self.evict_inner();
        self.evict_micros
            .record(self.clock.now_micros().saturating_sub(start));
    }

    /// Suppress eviction scans for this long after a scan where *every* unlink
    /// failed — without this, a directory whose files cannot be deleted (e.g.
    /// permissions lost at runtime) would turn every subsequent store into a
    /// full directory walk.
    const FUTILE_EVICT_COOLDOWN_MICROS: u64 = 250_000;

    fn evict_inner(&self) {
        let now = self.clock.now_micros();
        let futile_at = self.futile_evict_at.load(Ordering::Relaxed);
        if futile_at != u64::MAX
            && now.saturating_sub(futile_at) < Self::FUTILE_EVICT_COOLDOWN_MICROS
        {
            return;
        }
        let Ok(_guard) = self.evict_lock.lock() else {
            return;
        };
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                files.push((mtime, path, meta.len()));
            }
        }
        // Tie-break equal mtimes by file name: coarse-timestamp filesystems give
        // a tight write loop identical mtimes, and an unstable order there makes
        // eviction nondeterministic across runs.
        files.sort_by(|(ma, pa, _), (mb, pb, _)| {
            ma.cmp(mb).then_with(|| pa.file_name().cmp(&pb.file_name()))
        });
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        let mut entries = files.len() as u64;
        let low_water = self.max_bytes - self.max_bytes / 10;
        let mut removed_any = false;
        for (_, path, len) in files {
            if total <= low_water {
                break;
            }
            if self.unlink_entry(&path) {
                total -= len;
                entries -= 1;
                removed_any = true;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // A scan that deleted nothing while still over the low-water mark will
        // deterministically delete nothing next time too; back off instead of
        // rescanning on every store (the cooldown retries eventually).
        if total > low_water && !removed_any {
            self.futile_evict_at.store(now, Ordering::Relaxed);
        } else {
            self.futile_evict_at.store(u64::MAX, Ordering::Relaxed);
        }
        self.bytes.store(total, Ordering::Relaxed);
        self.entries.store(entries, Ordering::Relaxed);
    }

    /// Snapshot of the read/write/evict/sync latency distributions (entry
    /// loads, atomic entry writes, size-cap eviction scans, and durable-mode
    /// fsyncs, in microseconds).
    pub fn latency(&self) -> TierLatency {
        TierLatency {
            read: self.read_micros.snapshot(),
            write: self.write_micros.snapshot(),
            evict: self.evict_micros.snapshot(),
            sync: self.sync_micros.snapshot(),
        }
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            load_errors: self.load_errors.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            breaker_state: self.breaker.state(),
            breaker_trips: self.breaker.trips(),
            unlink_errors: self.unlink_errors.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            scrub_scanned: self.scrub.scanned,
            scrub_quarantined: self.scrub.quarantined,
            orphans_reclaimed: self.scrub.orphans_reclaimed,
        }
    }
}

// --- the tiered result cache ------------------------------------------------------

/// The engine's result cache: the in-memory [`ShardedLru`] fronting an optional
/// [`DiskTier`]. Lookup order is memory → disk → miss; a disk hit is promoted into
/// memory, and inserts write through to both tiers.
///
/// The memory level is **byte-budgeted**: each entry charges
/// [`ExploreResult::approx_bytes`] against `mem_bytes`, so a handful of huge
/// notebooks can no longer pin the same budget as hundreds of small ones.
#[derive(Debug)]
pub struct TieredCache {
    memory: ShardedLru<u64, ExploreResult>,
    disk: Option<Arc<DiskTier>>,
}

impl TieredCache {
    /// A memory-only cache with a budget of `mem_bytes` approximate payload bytes.
    pub fn new(mem_bytes: usize, shards: usize) -> Self {
        TieredCache {
            memory: ShardedLru::new(mem_bytes, shards),
            disk: None,
        }
    }

    /// A cache whose misses fall through to (and whose inserts write through to)
    /// a disk tier.
    pub fn with_disk(mem_bytes: usize, shards: usize, disk: Arc<DiskTier>) -> Self {
        TieredCache {
            memory: ShardedLru::new(mem_bytes, shards),
            disk: Some(disk),
        }
    }

    /// Look up a result by request fingerprint (memory first, then disk).
    pub fn get(&self, fp: &u64) -> Option<ExploreResult> {
        if let Some(hit) = self.memory.get(fp) {
            return Some(hit);
        }
        let loaded = self.disk.as_ref()?.load_result(*fp)?;
        self.memory
            .insert_weighted(*fp, loaded.clone(), loaded.approx_bytes());
        Some(loaded)
    }

    /// Insert a result under its request fingerprint (both tiers), charged by
    /// approximate payload bytes in memory.
    pub fn insert(&self, fp: u64, result: ExploreResult) {
        if let Some(disk) = &self.disk {
            disk.store_result(fp, &result);
        }
        let weight = result.approx_bytes();
        self.memory.insert_weighted(fp, result, weight);
    }

    /// The in-memory tier's counters.
    pub fn memory_stats(&self) -> CacheStats {
        self.memory.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("linx-persist-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn sample_result() -> ExploreResult {
        ExploreResult {
            ldx_canonical: "ROOT CHILDREN {A1}".to_string(),
            notebook: Notebook {
                title: "netflix — g".to_string(),
                cells: vec![NotebookCell {
                    node: 1,
                    depth: 1,
                    op: QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
                    code: "view_1 = df[df['country'] == 'India']".to_string(),
                    result_preview: "country  type\nIndia    Movie".to_string(),
                    result_rows: 2,
                    caption: "Focus on rows where country eq India".to_string(),
                }],
            },
            narrative: Narrative {
                headline: "Most titles are movies.".to_string(),
                bullets: vec!["In India, 93% of titles are movies.".to_string()],
            },
            best_structural: true,
            best_score: 0.731,
        }
    }

    #[test]
    fn result_round_trip_preserves_every_field() {
        let result = sample_result();
        let decoded = decode_result(&encode_result(&result)).unwrap();
        assert_eq!(decoded.ldx_canonical, result.ldx_canonical);
        assert_eq!(decoded.notebook.title, result.notebook.title);
        assert_eq!(decoded.notebook.cells.len(), 1);
        assert_eq!(decoded.notebook.cells[0].op, result.notebook.cells[0].op);
        assert_eq!(
            decoded.notebook.cells[0].code,
            result.notebook.cells[0].code
        );
        assert_eq!(decoded.narrative.headline, result.narrative.headline);
        assert_eq!(decoded.narrative.bullets, result.narrative.bullets);
        assert_eq!(decoded.best_structural, result.best_structural);
        assert_eq!(decoded.best_score, result.best_score);
    }

    #[test]
    fn disk_tier_round_trips_and_counts() {
        let dir = temp_dir("roundtrip");
        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        assert!(tier.load_result(42).is_none());
        tier.store_result(42, &sample_result());
        let loaded = tier.load_result(42).expect("stored entry loads");
        assert_eq!(loaded.ldx_canonical, sample_result().ldx_canonical);
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);

        // A second tier over the same directory (a "new process") sees the entry.
        let again = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        assert!(again.load_result(42).is_some());
        assert_eq!(again.stats().entries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_stat_entries_are_removed_as_stale() {
        // A directory warmed by a build that still persisted statistics: one
        // result beside intact entries of every reserved kind (2–5), in the same
        // format version (the histogram one laid out as those builds wrote it).
        let dir = temp_dir("retired");
        DiskTier::open(&PersistConfig::new(&dir))
            .unwrap()
            .store_result(5, &sample_result());
        let mut hist = Vec::new();
        put_u64(&mut hist, 1);
        put_value(&mut hist, &Value::str("India"));
        put_u64(&mut hist, 3);
        let stale: Vec<PathBuf> = ["h", "g", "z", "s"]
            .iter()
            .map(|k| dir.join(format!("st{k}-00000000000000aa-00000000000000bb.lnx")))
            .collect();
        std::fs::write(&stale[0], frame(2, &hist)).unwrap();
        for (path, kind) in stale[1..].iter().zip(3..=5) {
            std::fs::write(path, frame(kind, &[0; 8])).unwrap();
        }

        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        let scrub = tier.scrub_report();
        assert_eq!(scrub.quarantined, 0, "a retired kind is not damage");
        assert_eq!((scrub.scanned, scrub.retired, scrub.entries), (5, 4, 1));
        assert_eq!(
            scrub.bytes,
            std::fs::metadata(tier.entry_path(5)).unwrap().len(),
            "only the result counts"
        );
        assert!(
            stale.iter().all(|p| !p.exists()),
            "stale statistics deleted"
        );
        assert!(!tier.quarantine_dir().exists());
        assert_eq!(
            tier.load_result(5).unwrap().best_score,
            sample_result().best_score
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_cap_evicts_oldest_entries() {
        let dir = temp_dir("evict");
        // 4 KiB floor: each result entry here is a few hundred bytes, so ~a dozen fit.
        let tier = DiskTier::open(&PersistConfig::new(&dir).with_max_bytes(1)).unwrap();
        for fp in 0..40u64 {
            tier.store_result(fp, &sample_result());
        }
        let stats = tier.stats();
        assert!(stats.evictions > 0, "cap must evict: {stats:?}");
        assert!(stats.bytes <= 4 * 1024);
        // Some entries survive (eviction stops at the low-water mark) and some are
        // gone; which ones is mtime order — not asserted, because coarse-granularity
        // filesystems tie the mtimes of a tight write loop.
        let resident = (0..40u64)
            .filter(|&fp| tier.load_result(fp).is_some())
            .count();
        assert!(
            (1..40).contains(&resident),
            "expected partial eviction, {resident} of 40 resident"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrites_do_not_inflate_the_counters() {
        let dir = temp_dir("overwrite");
        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        for _ in 0..5 {
            tier.store_result(9, &sample_result());
        }
        let stats = tier.stats();
        assert_eq!(stats.stores, 5);
        assert_eq!(stats.entries, 1, "same key, one resident entry");
        let on_disk = std::fs::read(tier.dir().join("res-0000000000000009.lnx"))
            .unwrap()
            .len() as u64;
        assert_eq!(
            stats.bytes, on_disk,
            "bytes track the resident file, not the writes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_temp_files_are_swept_at_open() {
        let dir = temp_dir("tmp-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join(".tmp-999-0");
        let fresh = dir.join(".tmp-999-1");
        std::fs::write(&stale, b"half-written").unwrap();
        std::fs::write(&fresh, b"in-flight").unwrap();
        // Backdate only the stale one past the sweep threshold.
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(120);
        let f = std::fs::File::options().append(true).open(&stale).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
        drop(f);
        let _tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        assert!(!stale.exists(), "stale temp file swept at open");
        assert!(fresh.exists(), "recent temp file (a live writer's) kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiered_cache_promotes_disk_hits_into_memory() {
        let dir = temp_dir("tiered");
        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        let warm = TieredCache::with_disk(64 * 1024, 2, Arc::clone(&tier));
        warm.insert(7, sample_result());

        // A fresh memory cache over the same tier: first get hits disk, second memory.
        let cold = TieredCache::with_disk(64 * 1024, 2, Arc::clone(&tier));
        assert!(cold.get(&7).is_some());
        assert!(cold.get(&7).is_some());
        let mem = cold.memory_stats();
        assert_eq!(
            (mem.hits, mem.misses),
            (1, 1),
            "second get served by memory"
        );
        assert!(tier.stats().hits >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_only_cache_reports_zero_tier_stats() {
        let cache = TieredCache::new(64 * 1024, 1);
        cache.insert(1, sample_result());
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&2).is_none());
        // With no disk tier, the miss is the memory tier's alone.
        let mem = cache.memory_stats();
        assert_eq!((mem.hits, mem.misses), (1, 1));
    }
}
