//! End-to-end tracing and the flight recorder: cost attribution for
//! every query and every publish, `std`-only and always on.
//!
//! The paper's central claim is a *cost* argument — GRECA wins because
//! it does fewer sorted and random accesses — and this module makes
//! that accounting visible live, per request, instead of only in
//! offline bench bins. Three pieces:
//!
//! * **Spans** — one [`SpanRecord`] per traced operation (a query, an
//!   ingest, an epoch publish, a subscription-pump pass), carrying a
//!   64-bit trace id, per-[`Phase`] wall-clock nanoseconds
//!   (admit-wait, cache lookup, prepare/resolve, kernel sweeps,
//!   consensus resolution, serialize, and the publish pipeline's
//!   stages), and the paper's `AccessStats` SA/RA counts. A span is
//!   *thread-local while open*: the serving layer opens it
//!   ([`span`]), instrumented core code ([`phase`], [`note_access`])
//!   accumulates into whatever span is active on the current thread
//!   with no signature changes anywhere, and the guard's drop seals
//!   the record. Nested opens are no-ops — a `publish` inside a
//!   served `ingest` attributes its stages to the ingest span.
//! * **The flight recorder** — fixed-size per-thread ring buffers of
//!   the most recent sealed records, written lock-free through a
//!   per-slot seqlock so a reader can snapshot concurrently and
//!   *never observe a torn record* (unit-tested under contention).
//!   Always on; the `trace` serve verb dumps it with filters.
//! * **The slow-query log** — a small bounded log of full records
//!   whose total latency crossed a configurable threshold, so the one
//!   query that took 80 ms at 3 a.m. is still attributable at 9 a.m.
//!
//! Everything funnels through one process-wide [`FlightRecorder`]
//! ([`recorder`]). Overhead with tracing enabled is a handful of
//! `Instant::now` calls plus ~21 relaxed atomic stores per span —
//! gated ≤ 5% on warm-query p50 by the `obs_overhead` bench — and a
//! single atomic load per call site when disabled
//! ([`set_enabled`], or `GRECA_OBS=off` in the environment).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// The phase taxonomy: every nanosecond a span records is attributed
/// to exactly one of these. Query-side phases first, then the publish
/// pipeline's stages — one span uses whichever subset applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Time spent queued behind admission control before a worker
    /// picked the request up.
    Admit = 0,
    /// Result-cache bookkeeping: lookup, single-flight coalescing
    /// waits, and the post-compute install (never the compute itself).
    Cache = 1,
    /// Query preparation: itemset resolution, affinity assembly, and
    /// sorted-list selection/materialization (shared-arena resolution
    /// included).
    Prepare = 2,
    /// Kernel execution — the GRECA/TA/naive sweeps themselves.
    Kernel = 3,
    /// Final consensus resolution: scoring/ranking the buffered
    /// candidates into the returned top-k (the kernel's finish step).
    Consensus = 4,
    /// Response encoding onto the wire.
    Serialize = 5,
    /// WAL appends (batch records and publish commit markers),
    /// including fsync per the log's policy.
    WalAppend = 6,
    /// Publish staging: draining the store, deriving the post matrix,
    /// and computing the dirty set.
    Stage = 7,
    /// Substrate rebuild (incremental dirty segments or wholesale).
    Rebuild = 8,
    /// The epoch swap itself: installing the new state behind the
    /// current-epoch lock.
    Swap = 9,
    /// Cache-survival work in publish hooks: walking resident entries
    /// against the dirty set, keeping or dropping each.
    Survival = 10,
    /// Subscription-pump bookkeeping (delta coalescing, footprint
    /// checks, push writes) beyond the re-run kernels themselves.
    Pump = 11,
}

/// Number of phases a span distinguishes.
pub const NUM_PHASES: usize = 12;

impl Phase {
    /// All phases, index-ordered (for exposition loops).
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Admit,
        Phase::Cache,
        Phase::Prepare,
        Phase::Kernel,
        Phase::Consensus,
        Phase::Serialize,
        Phase::WalAppend,
        Phase::Stage,
        Phase::Rebuild,
        Phase::Swap,
        Phase::Survival,
        Phase::Pump,
    ];

    /// Stable snake_case label (wire + exposition form).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Admit => "admit",
            Phase::Cache => "cache",
            Phase::Prepare => "prepare",
            Phase::Kernel => "kernel",
            Phase::Consensus => "consensus",
            Phase::Serialize => "serialize",
            Phase::WalAppend => "wal_append",
            Phase::Stage => "stage",
            Phase::Rebuild => "rebuild",
            Phase::Swap => "swap",
            Phase::Survival => "survival",
            Phase::Pump => "pump",
        }
    }
}

/// What kind of operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One served `query` request.
    Query = 0,
    /// One served `subscribe` baseline run.
    Subscribe = 1,
    /// One served `ingest` request (its publish's stages fold in).
    Ingest = 2,
    /// A standalone epoch publish (no serving span active).
    Publish = 3,
    /// One subscription-pump pass over a coalesced publish delta.
    Pump = 4,
    /// One planned batch wave (`run_batch` on the calling thread).
    Batch = 5,
    /// Anything else.
    Other = 6,
}

/// Number of span kinds.
pub const NUM_KINDS: usize = 7;

impl SpanKind {
    /// Every kind, in index order (exposition iteration).
    pub const ALL: [SpanKind; NUM_KINDS] = [
        SpanKind::Query,
        SpanKind::Subscribe,
        SpanKind::Ingest,
        SpanKind::Publish,
        SpanKind::Pump,
        SpanKind::Batch,
        SpanKind::Other,
    ];

    /// Stable label (wire + exposition form).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Subscribe => "subscribe",
            SpanKind::Ingest => "ingest",
            SpanKind::Publish => "publish",
            SpanKind::Pump => "pump",
            SpanKind::Batch => "batch",
            SpanKind::Other => "other",
        }
    }

    /// Parse a [`SpanKind::label`] back (filter parsing).
    pub fn from_label(s: &str) -> Option<SpanKind> {
        Some(match s {
            "query" => SpanKind::Query,
            "subscribe" => SpanKind::Subscribe,
            "ingest" => SpanKind::Ingest,
            "publish" => SpanKind::Publish,
            "pump" => SpanKind::Pump,
            "batch" => SpanKind::Batch,
            "other" => SpanKind::Other,
            _ => return None,
        })
    }

    fn from_code(code: u8) -> SpanKind {
        match code {
            0 => SpanKind::Query,
            1 => SpanKind::Subscribe,
            2 => SpanKind::Ingest,
            3 => SpanKind::Publish,
            4 => SpanKind::Pump,
            5 => SpanKind::Batch,
            _ => SpanKind::Other,
        }
    }
}

/// The cache disposition a query span observed (mirrors the serving
/// layer's `hit`/`miss`/`coalesced`/`bypass` wire labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CacheNote {
    /// No cache involved (or not noted).
    None = 0,
    /// Served from a resident entry.
    Hit = 1,
    /// Computed and installed.
    Miss = 2,
    /// Waited on an identical in-flight computation.
    Coalesced = 3,
    /// Pinned behind the cache's epoch; computed without caching.
    Bypass = 4,
}

impl CacheNote {
    /// Stable label (`""` for [`CacheNote::None`]).
    pub fn label(self) -> &'static str {
        match self {
            CacheNote::None => "",
            CacheNote::Hit => "hit",
            CacheNote::Miss => "miss",
            CacheNote::Coalesced => "coalesced",
            CacheNote::Bypass => "bypass",
        }
    }

    fn from_code(code: u8) -> CacheNote {
        match code {
            1 => CacheNote::Hit,
            2 => CacheNote::Miss,
            3 => CacheNote::Coalesced,
            4 => CacheNote::Bypass,
            _ => CacheNote::None,
        }
    }
}

/// One sealed span: the full cost-attribution record of a traced
/// operation. Fixed-size and `Copy` so ring slots never allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// The 64-bit trace id (client-supplied or server-assigned);
    /// echoed on the wire so callers can retrieve this record.
    pub trace: u64,
    /// Process-unique span sequence number (total order of sealing).
    pub span: u64,
    /// What kind of operation this was.
    pub kind: SpanKind,
    /// Whether the operation completed successfully (`false` also for
    /// spans sealed by unwinding).
    pub ok: bool,
    /// The cache disposition, when a result cache was consulted.
    pub cache: CacheNote,
    /// The epoch the operation served from / published.
    pub epoch: u64,
    /// Sorted accesses charged to this span's kernel runs.
    pub sa: u64,
    /// Random accesses charged to this span's kernel runs.
    pub ra: u64,
    /// End-to-end wall clock, nanoseconds.
    pub total_ns: u64,
    /// Wall-clock seal time, milliseconds since the Unix epoch (for
    /// the slow-query log; spans order by `span`, not by this).
    pub unix_ms: u64,
    /// Per-phase attribution, nanoseconds, indexed by [`Phase`].
    pub phase_ns: [u64; NUM_PHASES],
}

/// Words per encoded record (the seqlock slot payload).
const WORDS: usize = 9 + NUM_PHASES;

impl SpanRecord {
    /// Nanoseconds attributed to `phase`.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    fn encode(&self) -> [u64; WORDS] {
        let mut w = [0u64; WORDS];
        w[0] = self.trace;
        w[1] = self.span;
        w[2] = u64::from(self.kind as u8)
            | (u64::from(self.cache as u8) << 8)
            | (u64::from(self.ok) << 16);
        w[3] = self.epoch;
        w[4] = self.sa;
        w[5] = self.ra;
        w[6] = self.total_ns;
        w[7] = self.unix_ms;
        w[8] = 0; // reserved
        w[9..].copy_from_slice(&self.phase_ns);
        w
    }

    fn decode(w: &[u64; WORDS]) -> SpanRecord {
        let mut phase_ns = [0u64; NUM_PHASES];
        phase_ns.copy_from_slice(&w[9..]);
        SpanRecord {
            trace: w[0],
            span: w[1],
            kind: SpanKind::from_code((w[2] & 0xff) as u8),
            cache: CacheNote::from_code(((w[2] >> 8) & 0xff) as u8),
            ok: (w[2] >> 16) & 1 == 1,
            epoch: w[3],
            sa: w[4],
            ra: w[5],
            total_ns: w[6],
            unix_ms: w[7],
            phase_ns,
        }
    }
}

/// Slots per per-thread ring. 256 records × 21 words ≈ 43 KiB per
/// thread that ever sealed a span (rings are pooled and reused across
/// short-lived connection threads).
const RING_SLOTS: usize = 256;

/// One per-thread ring of recent records. Single writer (the owning
/// thread), any number of concurrent snapshot readers; each slot is a
/// seqlock — sequence odd while the writer is mid-slot, bumped even
/// when the record is whole — so a reader either gets a consistent
/// record or skips the slot, never a torn one.
struct Ring {
    /// Records ever pushed (the write cursor; slot = head % RING_SLOTS).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

struct Slot {
    /// 0 = never written; odd = write in progress; even ≥ 2 = whole.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Ring {
    fn new() -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..RING_SLOTS)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Push one record. Must only be called by the ring's owning
    /// thread (enforced by the thread-local lease in [`seal`]).
    fn push(&self, record: &SpanRecord) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % RING_SLOTS as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        // Mark the slot mid-write (odd) before touching the payload…
        slot.seq.store(seq | 1, Ordering::Release);
        fence(Ordering::Release);
        for (dst, src) in slot.words.iter().zip(record.encode()) {
            dst.store(src, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        // …and whole (next even value) after.
        slot.seq.store((seq | 1) + 1, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Append every whole record to `out` (tears and never-written
    /// slots are skipped; a slot overwritten mid-read is retried a few
    /// times, then skipped).
    fn snapshot_into(&self, out: &mut Vec<SpanRecord>) {
        for slot in self.slots.iter() {
            for _attempt in 0..4 {
                let before = slot.seq.load(Ordering::Acquire);
                if before == 0 || before & 1 == 1 {
                    // Empty, or mid-write: try again (the writer bumps
                    // it even within nanoseconds) — give up after the
                    // attempts cap.
                    if before == 0 {
                        break;
                    }
                    continue;
                }
                let mut words = [0u64; WORDS];
                for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                    *dst = src.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                let after = slot.seq.load(Ordering::Acquire);
                if before == after {
                    out.push(SpanRecord::decode(&words));
                    break;
                }
            }
        }
    }
}

/// A filter for [`FlightRecorder::snapshot`]. Default: everything,
/// newest 128.
#[derive(Debug, Clone, Default)]
pub struct TraceFilter {
    /// Keep only records with this trace id.
    pub trace: Option<u64>,
    /// Keep only records of this kind.
    pub kind: Option<SpanKind>,
    /// Keep only records at least this slow (total, microseconds).
    pub min_total_us: Option<u64>,
    /// Newest records kept after filtering (0 = default 128).
    pub limit: usize,
}

impl TraceFilter {
    /// Whether `r` passes every set predicate (`limit` is applied by
    /// the caller — it is a keep-newest bound, not a per-record test).
    pub fn matches(&self, r: &SpanRecord) -> bool {
        self.trace.is_none_or(|t| r.trace == t)
            && self.kind.is_none_or(|k| r.kind == k)
            && self
                .min_total_us
                .is_none_or(|us| r.total_ns >= us.saturating_mul(1_000))
    }
}

/// Aggregate series derived from sealed spans (the span-side input to
/// the Prometheus exposition).
#[derive(Debug, Clone, Default)]
pub struct ObsTotals {
    /// Spans sealed, by [`SpanKind`] index.
    pub spans: [u64; NUM_KINDS],
    /// Nanoseconds attributed, by [`Phase`] index, across all spans.
    pub phase_ns: [u64; NUM_PHASES],
    /// Sorted accesses across all spans (the paper's SA counter, live).
    pub sa: u64,
    /// Random accesses across all spans.
    pub ra: u64,
    /// Spans that crossed the slow threshold.
    pub slow: u64,
}

/// Bounded slow-query log length.
const SLOW_LOG_CAP: usize = 256;

/// The process-wide recorder: per-thread rings, the slow-query log,
/// and aggregate totals. Obtain it with [`recorder`].
pub struct FlightRecorder {
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Indices of rings whose owning thread exited, available for
    /// reuse (their records stay snapshottable meanwhile).
    free: Mutex<Vec<usize>>,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    trace_seed: u64,
    enabled: AtomicBool,
    slow: Mutex<VecDeque<SpanRecord>>,
    /// Threshold in microseconds; `u64::MAX` disables the slow log.
    slow_threshold_us: AtomicU64,
    spans: [AtomicU64; NUM_KINDS],
    phase_ns: [AtomicU64; NUM_PHASES],
    sa: AtomicU64,
    ra: AtomicU64,
    slow_total: AtomicU64,
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        let enabled = !matches!(
            std::env::var("GRECA_OBS").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        );
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        FlightRecorder {
            rings: Mutex::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            trace_seed: seed,
            enabled: AtomicBool::new(enabled),
            slow: Mutex::new(VecDeque::new()),
            slow_threshold_us: AtomicU64::new(u64::MAX),
            spans: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            sa: AtomicU64::new(0),
            ra: AtomicU64::new(0),
            slow_total: AtomicU64::new(0),
        }
    }

    /// Whether span recording is on (the process-wide switch).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh server-assigned trace id (never 0, never colliding
    /// within a process).
    pub fn next_trace_id(&self) -> u64 {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.trace_seed ^ n).max(1)
    }

    /// Set the slow-query threshold; spans slower than this are copied
    /// into the bounded slow log. [`Duration::MAX`] disables it.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        let us = threshold.as_micros().min(u128::from(u64::MAX)) as u64;
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current slow-query threshold in microseconds
    /// (`u64::MAX` = disabled).
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Snapshot the rings under `filter`: whole records only, merged
    /// across threads, oldest → newest by seal order, trimmed to the
    /// filter's `limit` newest.
    pub fn snapshot(&self, filter: &TraceFilter) -> Vec<SpanRecord> {
        let rings: Vec<Arc<Ring>> = lock_ok(&self.rings).iter().cloned().collect();
        let mut records = Vec::new();
        for ring in rings {
            ring.snapshot_into(&mut records);
        }
        records.retain(|r| filter.matches(r));
        records.sort_unstable_by_key(|r| r.span);
        let limit = if filter.limit == 0 { 128 } else { filter.limit };
        if records.len() > limit {
            records.drain(..records.len() - limit);
        }
        records
    }

    /// The slow-query log, oldest → newest.
    pub fn slow_queries(&self) -> Vec<SpanRecord> {
        lock_ok(&self.slow).iter().copied().collect()
    }

    /// Aggregate totals across every span sealed so far.
    pub fn totals(&self) -> ObsTotals {
        ObsTotals {
            spans: std::array::from_fn(|i| self.spans[i].load(Ordering::Relaxed)),
            phase_ns: std::array::from_fn(|i| self.phase_ns[i].load(Ordering::Relaxed)),
            sa: self.sa.load(Ordering::Relaxed),
            ra: self.ra.load(Ordering::Relaxed),
            slow: self.slow_total.load(Ordering::Relaxed),
        }
    }

    /// Acquire a ring for the current thread: reuse a released one or
    /// register a new one.
    fn acquire_ring(&self) -> (Arc<Ring>, usize) {
        if let Some(index) = lock_ok(&self.free).pop() {
            let ring = Arc::clone(&lock_ok(&self.rings)[index]);
            return (ring, index);
        }
        let ring = Arc::new(Ring::new());
        let mut rings = lock_ok(&self.rings);
        rings.push(Arc::clone(&ring));
        (ring, rings.len() - 1)
    }

    fn release_ring(&self, index: usize) {
        lock_ok(&self.free).push(index);
    }

    fn seal(&self, record: &mut SpanRecord) {
        record.span = self.next_span.fetch_add(1, Ordering::Relaxed);
        record.unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        RING.with(|lease| {
            let mut lease = lease.borrow_mut();
            let lease = lease.get_or_insert_with(|| {
                let (ring, index) = self.acquire_ring();
                RingLease { ring, index }
            });
            lease.ring.push(record);
        });
        self.spans[record.kind as usize].fetch_add(1, Ordering::Relaxed);
        for (total, ns) in self.phase_ns.iter().zip(record.phase_ns) {
            if ns > 0 {
                total.fetch_add(ns, Ordering::Relaxed);
            }
        }
        if record.sa > 0 {
            self.sa.fetch_add(record.sa, Ordering::Relaxed);
        }
        if record.ra > 0 {
            self.ra.fetch_add(record.ra, Ordering::Relaxed);
        }
        let threshold_us = self.slow_threshold_us.load(Ordering::Relaxed);
        if threshold_us != u64::MAX && record.total_ns >= threshold_us.saturating_mul(1_000) {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            let mut slow = lock_ok(&self.slow);
            if slow.len() >= SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(*record);
        }
    }
}

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        m.clear_poison();
        poisoned.into_inner()
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(FlightRecorder::new)
}

/// Whether tracing is on. One relaxed atomic load — the only cost
/// every instrumented call site pays when tracing is off.
pub fn enabled() -> bool {
    recorder().is_enabled()
}

/// Turn span recording on or off process-wide (the programmatic form
/// of `GRECA_OBS=off`; the `obs_overhead` bench uses it to measure
/// its own overhead). Lineage accounting in `LiveEngine` is *not*
/// affected — that is part of `stats`, not of tracing.
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// A fresh server-assigned trace id.
pub fn next_trace_id() -> u64 {
    recorder().next_trace_id()
}

/// The span a thread is currently accumulating into.
struct ActiveSpan {
    trace: u64,
    kind: SpanKind,
    start: Instant,
    epoch: u64,
    sa: u64,
    ra: u64,
    cache: CacheNote,
    ok: bool,
    phase_ns: [u64; NUM_PHASES],
}

struct RingLease {
    ring: Arc<Ring>,
    index: usize,
}

impl Drop for RingLease {
    fn drop(&mut self) {
        // The thread is exiting: hand the ring back for reuse. Its
        // records stay registered (and snapshottable) meanwhile.
        if let Some(rec) = RECORDER.get() {
            rec.release_ring(self.index);
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveSpan>> = const { RefCell::new(None) };
    static RING: RefCell<Option<RingLease>> = const { RefCell::new(None) };
}

/// Open a span on the current thread. Returns a guard whose drop
/// seals the record into the flight recorder; call
/// [`SpanGuard::finish`] to seal explicitly and get the record back.
///
/// No-op (inactive guard) when tracing is disabled or the thread
/// already has an open span — nested operations attribute into the
/// enclosing span, which is exactly what a `publish` inside a served
/// `ingest` should do.
pub fn span(trace: u64, kind: SpanKind) -> SpanGuard {
    if !enabled() {
        return SpanGuard { owned: false };
    }
    let owned = ACTIVE.with(|active| {
        let mut active = active.borrow_mut();
        if active.is_some() {
            return false;
        }
        *active = Some(ActiveSpan {
            trace,
            kind,
            start: Instant::now(),
            epoch: 0,
            sa: 0,
            ra: 0,
            cache: CacheNote::None,
            ok: false,
            phase_ns: [0; NUM_PHASES],
        });
        true
    });
    SpanGuard { owned }
}

/// RAII handle for an open span — see [`span`].
#[must_use = "dropping immediately seals an empty span"]
pub struct SpanGuard {
    owned: bool,
}

impl SpanGuard {
    /// Whether this guard actually opened a span (false = tracing off
    /// or attributing into an enclosing span).
    pub fn active(&self) -> bool {
        self.owned
    }

    /// Seal the span now and return its record.
    pub fn finish(mut self) -> Option<SpanRecord> {
        if !self.owned {
            return None;
        }
        self.owned = false;
        seal_active()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.owned {
            // Sealed with whatever was noted; `ok` stays false unless
            // the owner noted success — an unwind thus records a
            // failed span rather than losing it.
            seal_active();
        }
    }
}

fn seal_active() -> Option<SpanRecord> {
    let span = ACTIVE.with(|active| active.borrow_mut().take())?;
    let mut record = SpanRecord {
        trace: span.trace,
        span: 0,
        kind: span.kind,
        ok: span.ok,
        cache: span.cache,
        epoch: span.epoch,
        sa: span.sa,
        ra: span.ra,
        total_ns: span.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        unix_ms: 0,
        phase_ns: span.phase_ns,
    };
    recorder().seal(&mut record);
    Some(record)
}

/// Time a phase of the current thread's span: the returned timer adds
/// its elapsed wall clock to `phase` when dropped. Free (no clock
/// read) when no span is open.
pub fn phase(phase: Phase) -> PhaseTimer {
    let start = ACTIVE
        .with(|active| active.borrow().is_some())
        .then(Instant::now);
    PhaseTimer { phase, start }
}

/// Attribute `elapsed` to `phase` on the current thread's span (the
/// explicit form of [`phase`], for durations measured elsewhere —
/// e.g. admission wait measured from submit time).
pub fn add_phase(phase: Phase, elapsed: Duration) {
    ACTIVE.with(|active| {
        if let Some(span) = active.borrow_mut().as_mut() {
            span.phase_ns[phase as usize] = span.phase_ns[phase as usize]
                .saturating_add(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    });
}

/// See [`phase`].
pub struct PhaseTimer {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            add_phase(self.phase, start.elapsed());
        }
    }
}

/// Note the serving/published epoch on the current span.
pub fn note_epoch(epoch: u64) {
    ACTIVE.with(|active| {
        if let Some(span) = active.borrow_mut().as_mut() {
            span.epoch = epoch;
        }
    });
}

/// Add kernel access counts (the paper's SA/RA) to the current span.
pub fn note_access(sa: u64, ra: u64) {
    ACTIVE.with(|active| {
        if let Some(span) = active.borrow_mut().as_mut() {
            span.sa = span.sa.saturating_add(sa);
            span.ra = span.ra.saturating_add(ra);
        }
    });
}

/// Note the cache disposition on the current span.
pub fn note_cache(note: CacheNote) {
    ACTIVE.with(|active| {
        if let Some(span) = active.borrow_mut().as_mut() {
            span.cache = note;
        }
    });
}

/// Mark the current span's outcome (spans default to `ok = false`, so
/// error paths and unwinds need no call).
pub fn note_ok(ok: bool) {
    ACTIVE.with(|active| {
        if let Some(span) = active.borrow_mut().as_mut() {
            span.ok = ok;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module share process-wide recorder state (the
    /// enable switch, the slow threshold); every test serializes on
    /// this lock so a toggling test can't drop a sibling's spans.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_ok(&LOCK)
    }

    /// Seal one synthetic span with distinctive fields.
    fn seal(trace: u64, kind: SpanKind, kernel_ns: u64, sa: u64) {
        let guard = span(trace, kind);
        assert!(guard.active());
        add_phase(Phase::Kernel, Duration::from_nanos(kernel_ns));
        note_access(sa, sa / 2);
        note_epoch(7);
        note_ok(true);
        let record = guard.finish().expect("owned span seals");
        assert_eq!(record.trace, trace);
        assert_eq!(record.phase(Phase::Kernel), kernel_ns);
    }

    #[test]
    fn span_lifecycle_records_phases_access_and_outcome() {
        let _exclusive = exclusive();
        let trace = next_trace_id();
        seal(trace, SpanKind::Query, 1234, 10);
        let records = recorder().snapshot(&TraceFilter {
            trace: Some(trace),
            ..TraceFilter::default()
        });
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(
            (r.kind, r.ok, r.epoch, r.sa, r.ra),
            (SpanKind::Query, true, 7, 10, 5)
        );
        assert_eq!(r.phase(Phase::Kernel), 1234);
        assert_eq!(r.phase(Phase::Admit), 0);
    }

    #[test]
    fn nested_spans_attribute_into_the_outer_one() {
        let _exclusive = exclusive();
        let trace = next_trace_id();
        let outer = span(trace, SpanKind::Ingest);
        assert!(outer.active());
        let inner = span(next_trace_id(), SpanKind::Publish);
        assert!(!inner.active(), "nested span must not open");
        add_phase(Phase::Rebuild, Duration::from_nanos(500));
        assert!(inner.finish().is_none());
        note_ok(true);
        let record = outer.finish().expect("outer owned");
        assert_eq!(record.phase(Phase::Rebuild), 500);
        assert_eq!(record.kind, SpanKind::Ingest);
    }

    #[test]
    fn dropped_guard_seals_a_failed_span() {
        let _exclusive = exclusive();
        let trace = next_trace_id();
        {
            let _guard = span(trace, SpanKind::Query);
            // No note_ok: simulate an error/unwind path.
        }
        let records = recorder().snapshot(&TraceFilter {
            trace: Some(trace),
            ..TraceFilter::default()
        });
        assert_eq!(records.len(), 1);
        assert!(!records[0].ok);
    }

    #[test]
    fn disabled_recording_is_a_no_op_and_reversible() {
        let _exclusive = exclusive();
        // Serialize against other tests that rely on the global switch:
        // this test owns the toggle for its duration.
        let trace = next_trace_id();
        set_enabled(false);
        let guard = span(trace, SpanKind::Query);
        assert!(!guard.active());
        drop(guard);
        set_enabled(true);
        let records = recorder().snapshot(&TraceFilter {
            trace: Some(trace),
            ..TraceFilter::default()
        });
        assert!(records.is_empty());
    }

    #[test]
    fn ring_wraparound_evicts_oldest_records_only() {
        let _exclusive = exclusive();
        // Overfill one thread's ring by 3×: only the newest RING_SLOTS
        // survive, in seal order, with nothing torn or duplicated.
        let trace = next_trace_id();
        let total = RING_SLOTS * 3;
        for i in 0..total {
            seal(trace, SpanKind::Batch, i as u64 + 1, 0);
        }
        let records = recorder().snapshot(&TraceFilter {
            trace: Some(trace),
            limit: total,
            ..TraceFilter::default()
        });
        assert_eq!(records.len(), RING_SLOTS);
        // Seal order is preserved and exactly the newest survive.
        let kernels: Vec<u64> = records.iter().map(|r| r.phase(Phase::Kernel)).collect();
        let expected: Vec<u64> = ((total - RING_SLOTS + 1)..=total)
            .map(|i| i as u64)
            .collect();
        assert_eq!(kernels, expected);
        for pair in records.windows(2) {
            assert!(pair[0].span < pair[1].span);
        }
    }

    #[test]
    fn concurrent_snapshots_never_observe_torn_records() {
        let _exclusive = exclusive();
        // One writer thread seals spans whose fields are all derived
        // from one counter; readers snapshot concurrently and verify
        // internal consistency of every record they see.
        let trace = next_trace_id();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i: u64 = 1;
                while !stop.load(Ordering::Relaxed) {
                    let guard = span(trace, SpanKind::Batch);
                    add_phase(Phase::Kernel, Duration::from_nanos(i));
                    add_phase(Phase::Prepare, Duration::from_nanos(2 * i));
                    note_access(3 * i, 4 * i);
                    note_epoch(5 * i);
                    note_ok(true);
                    drop(guard);
                    i += 1;
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    let filter = TraceFilter {
                        trace: Some(trace),
                        limit: usize::MAX / 2,
                        ..TraceFilter::default()
                    };
                    for _ in 0..200 {
                        for r in recorder().snapshot(&filter) {
                            let i = r.phase(Phase::Kernel);
                            assert!(i > 0, "kernel ns always set");
                            assert_eq!(r.phase(Phase::Prepare), 2 * i, "torn record: {r:?}");
                            assert_eq!(r.sa, 3 * i, "torn record: {r:?}");
                            assert_eq!(r.ra, 4 * i, "torn record: {r:?}");
                            assert_eq!(r.epoch, 5 * i, "torn record: {r:?}");
                        }
                    }
                });
            }
            // Give readers a moment against a live writer, then stop.
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn filters_select_by_kind_latency_and_limit() {
        let _exclusive = exclusive();
        let trace = next_trace_id();
        seal(trace, SpanKind::Query, 10, 0);
        seal(trace, SpanKind::Ingest, 10, 0);
        {
            // A genuinely slow span (total ≥ 1 ms of wall clock).
            let guard = span(trace, SpanKind::Query);
            std::thread::sleep(Duration::from_millis(2));
            note_ok(true);
            drop(guard);
        }
        let by_kind = recorder().snapshot(&TraceFilter {
            trace: Some(trace),
            kind: Some(SpanKind::Ingest),
            ..TraceFilter::default()
        });
        assert_eq!(by_kind.len(), 1);
        assert_eq!(by_kind[0].kind, SpanKind::Ingest);
        let slow_only = recorder().snapshot(&TraceFilter {
            trace: Some(trace),
            min_total_us: Some(1_000),
            ..TraceFilter::default()
        });
        assert_eq!(slow_only.len(), 1);
        assert!(slow_only[0].total_ns >= 1_000_000);
        let newest = recorder().snapshot(&TraceFilter {
            trace: Some(trace),
            limit: 2,
            ..TraceFilter::default()
        });
        assert_eq!(newest.len(), 2);
    }

    #[test]
    fn slow_log_captures_full_attribution_over_threshold() {
        let _exclusive = exclusive();
        let previous = recorder().slow_threshold_us();
        recorder().set_slow_threshold(Duration::from_micros(500));
        let trace = next_trace_id();
        {
            let guard = span(trace, SpanKind::Query);
            add_phase(Phase::Kernel, Duration::from_nanos(777));
            std::thread::sleep(Duration::from_millis(2));
            note_ok(true);
            drop(guard);
        }
        let slow = recorder().slow_queries();
        let ours: Vec<_> = slow.iter().filter(|r| r.trace == trace).collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].phase(Phase::Kernel), 777);
        assert!(ours[0].unix_ms > 0);
        recorder().set_slow_threshold(Duration::from_micros(previous.min(u64::MAX / 2)));
        if previous == u64::MAX {
            recorder().set_slow_threshold(Duration::MAX);
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        let _exclusive = exclusive();
        let record = SpanRecord {
            trace: 0xdead_beef,
            span: 42,
            kind: SpanKind::Pump,
            ok: true,
            cache: CacheNote::Coalesced,
            epoch: 9,
            sa: 123,
            ra: 456,
            total_ns: 789,
            unix_ms: 1_700_000_000_000,
            phase_ns: std::array::from_fn(|i| i as u64 * 11),
        };
        assert_eq!(SpanRecord::decode(&record.encode()), record);
    }

    #[test]
    fn kind_and_phase_labels_round_trip() {
        let _exclusive = exclusive();
        for kind in [
            SpanKind::Query,
            SpanKind::Subscribe,
            SpanKind::Ingest,
            SpanKind::Publish,
            SpanKind::Pump,
            SpanKind::Batch,
            SpanKind::Other,
        ] {
            assert_eq!(SpanKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SpanKind::from_label("frobnicate"), None);
        let mut seen = std::collections::HashSet::new();
        for phase in Phase::ALL {
            assert!(seen.insert(phase.label()), "duplicate phase label");
        }
    }
}
