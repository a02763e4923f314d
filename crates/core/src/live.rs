//! Live ingestion: epoch-swapped substrates over an evolving rating log.
//!
//! §2.4's ad-hoc-group scenario assumes preferences and affinities keep
//! evolving *between* queries, while the warm serving path
//! ([`crate::substrate`]) wants long-lived precomputed storage. Trust-
//! and reputation-serving systems resolve the same tension with
//! **versioned snapshots**, and that is the design here:
//!
//! * a [`LiveEngine`] owns the rating log and a `RatingStore` of staged
//!   deltas ([`LiveEngine::ingest`] / [`LiveEngine::retract`] /
//!   [`LiveEngine::stage`]);
//! * publishing a batch computes its *dirty set* (`greca-cf`'s
//!   `DeltaBatch::dirty_set`), rebuilds only the invalidated preference
//!   segments via [`Substrate::rebuild_dirty`] — structurally sharing
//!   every clean segment and the universe layout — and swaps the result
//!   in as a new **epoch** behind a mutex-guarded `Arc` handoff;
//! * readers [`pin`](LiveEngine::pin) an epoch: a [`PinnedEpoch`] holds
//!   `Arc`s to that epoch's matrix and substrate for as long as the
//!   caller keeps it, so a query runs to completion against one
//!   consistent snapshot no matter how many swaps happen mid-flight,
//!   and its results are bit-identical to a cold rebuild at that epoch
//!   (the contract proven by `live_properties.rs`);
//! * each epoch gets a **fresh member arena**: a swap retires every
//!   resolved preference column together with the substrate it was
//!   computed beside, so a stale epoch's columns are never served after
//!   a swap, while queries still pinned to it keep its arena.
//!
//! The item universe and the population-affinity index stay fixed for
//! the engine's lifetime — ratings stream, the catalog and the social
//! index version at engine granularity (the paper's affinity index is
//! itself append-only; see `PopulationAffinity::append_period`).
//!
//! ```
//! use greca_core::live::{LiveEngine, LiveModel};
//! use greca_core::QueryError;
//! use greca_affinity::{PopulationAffinity, TableAffinitySource};
//! use greca_dataset::{Granularity, Group, ItemId, Rating, RatingMatrixBuilder, Timeline, UserId};
//!
//! # fn main() -> Result<(), QueryError> {
//! // A tiny world: three users, four items, two periods of affinity.
//! let mut b = RatingMatrixBuilder::new(3, 4);
//! b.rate(UserId(0), ItemId(0), 5.0, 0).rate(UserId(1), ItemId(1), 4.0, 0);
//! let mut src = TableAffinitySource::new();
//! src.set_static(UserId(0), UserId(1), 1.0)
//!    .set_static(UserId(1), UserId(2), 0.4);
//! let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
//! let users = vec![UserId(0), UserId(1), UserId(2)];
//! let population = PopulationAffinity::build(&src, &users, &tl);
//! let items: Vec<ItemId> = (0..4).map(ItemId).collect();
//!
//! let live = LiveEngine::new(&population, LiveModel::Raw, &b.build(), &items)?;
//! let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
//!
//! // Serve from a pinned epoch…
//! let before = live.pin();
//! let r0 = before.engine().query(&group).items(&items).top(2).run()?;
//!
//! // …ingest a batch (publishes epoch 1)…
//! let report = live.ingest(&[Rating { user: UserId(1), item: ItemId(2), value: 5.0, ts: 7 }])?;
//! assert_eq!(report.epoch, 1);
//! assert_eq!(report.rebuilt_segments, 1, "only u1's segment re-sorted");
//!
//! // …and the old pin still serves its epoch, bit-identically.
//! assert_eq!(before.engine().query(&group).items(&items).top(2).run()?, r0);
//! let after = live.pin();
//! assert_eq!(after.epoch(), 1);
//! assert!(after.engine().query(&group).items(&items).top(2).run().is_ok());
//! # Ok(()) }
//! ```

use crate::plan::SharedMemberState;
use crate::query::{lock_unpoisoned, GrecaEngine, QueryError};
use crate::substrate::{BuildOptions, Substrate};
use crate::wal::{RecoverySummary, Wal, WalOptions, WalRecord};
use greca_affinity::PopulationAffinity;
use greca_cf::{
    candidate_items, CfConfig, DirtySet, InvalidationScope, NonFiniteScore, PreferenceProvider,
    RatingStore, RawRatings, UserCfModel,
};
use greca_dataset::{Group, ItemId, Rating, RatingMatrix, UserId};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Saturating nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Wall clock, milliseconds since the Unix epoch (0 on a pre-1970
/// clock).
fn unix_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Which preference model a [`LiveEngine`] re-derives dirty segments
/// from at each epoch.
///
/// The model choice fixes the invalidation scope a delta batch implies
/// (see `greca-cf`'s `InvalidationScope`): raw ratings dirty only the
/// batch users' lists; user-based CF propagates through co-raters and
/// the global-mean fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveModel {
    /// Observed ratings served verbatim (0 when unrated) — the
    /// `RawRatings` provider.
    Raw,
    /// User-based collaborative filtering refit over dirty users at
    /// each epoch — the paper's §4 `apref` source.
    UserCf(CfConfig),
}

impl LiveModel {
    /// The invalidation scope rating deltas have under this model.
    pub fn scope(&self) -> InvalidationScope {
        match self {
            LiveModel::Raw => InvalidationScope::RowOnly,
            LiveModel::UserCf(_) => InvalidationScope::Neighborhood,
        }
    }
}

/// A [`PreferenceProvider`] over one epoch's rating matrix, owned by
/// `Arc` so a pinned epoch is self-contained (no borrows into the
/// engine).
///
/// Resident segments never call it; it serves lazy slots and cold
/// columns (a group member without a segment, an itemset the substrate
/// does not cover): raw ratings through their sparse rating row, user
/// CF by fitting a per-user neighbourhood on demand. `candidate_items`
/// reads the matrix directly. Batch work (substrate construction and
/// rebuilds) uses a properly batch-fitted model instead.
#[derive(Debug, Clone)]
pub struct EpochProvider {
    matrix: Arc<RatingMatrix>,
    model: LiveModel,
}

impl PreferenceProvider for EpochProvider {
    fn apref(&self, u: UserId, i: ItemId) -> f64 {
        match self.model {
            LiveModel::Raw => RawRatings(&self.matrix).apref(u, i),
            LiveModel::UserCf(cfg) => UserCfModel::fit_for(&self.matrix, cfg, &[u]).predict(u, i),
        }
    }

    /// Fits `u`'s neighbourhood once for the whole itemset (per-item
    /// [`apref`](PreferenceProvider::apref) would refit it per item) and
    /// takes the model's batched fill; list builds come through here too.
    fn fill_aprefs(&self, u: UserId, items: &[ItemId], out: &mut [f64]) {
        match self.model {
            LiveModel::Raw => RawRatings(&self.matrix).fill_aprefs(u, items, out),
            LiveModel::UserCf(cfg) => {
                UserCfModel::fit_for(&self.matrix, cfg, &[u]).fill_aprefs(u, items, out)
            }
        }
    }

    /// Raw ratings enumerate their rating row; user-CF predictions have
    /// no sparse structure.
    fn sparse_aprefs(&self, u: UserId, items: &[ItemId], out: &mut Vec<(u32, f64)>) -> bool {
        match self.model {
            LiveModel::Raw => RawRatings(&self.matrix).sparse_aprefs(u, items, out),
            LiveModel::UserCf(_) => false,
        }
    }

    fn candidate_items(&self, group: &Group) -> Option<Vec<ItemId>> {
        Some(candidate_items(&self.matrix, group))
    }
}

/// One published epoch: the rating matrix after every batch up to (and
/// including) this epoch, the substrate rebuilt from it, and the
/// epoch-scoped member arena, which a swap retires with it.
#[derive(Debug)]
struct EpochState {
    epoch: u64,
    matrix: Arc<RatingMatrix>,
    substrate: Arc<Substrate>,
    members: SharedMemberState,
}

impl EpochState {
    fn new(epoch: u64, matrix: Arc<RatingMatrix>, substrate: Substrate) -> Arc<EpochState> {
        Arc::new(EpochState {
            epoch,
            matrix,
            substrate: Arc::new(substrate),
            members: SharedMemberState::new(),
        })
    }
}

/// What one [`LiveEngine::publish`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// The epoch the batch was published as (unchanged for an empty
    /// batch).
    pub epoch: u64,
    /// Rating upserts applied.
    pub upserts: usize,
    /// Rating retractions applied.
    pub retractions: usize,
    /// Users whose preference lists the batch invalidated (across the
    /// whole population, covered by a segment or not). A **lower
    /// bound** when [`IngestReport::full_rebuild`] is set: the dirty
    /// computation stops as soon as the wholesale rebuild is
    /// inevitable.
    pub dirty_users: usize,
    /// Pair-affinity entries the batch invalidated (relevant only to
    /// rating-derived affinity sources; the paper's social-derived index
    /// never goes stale from ratings). Lower-bounded like
    /// [`IngestReport::dirty_users`] under a full rebuild.
    pub dirty_pairs: usize,
    /// Preference segments recomputed for the new epoch.
    pub rebuilt_segments: usize,
    /// Preference segments structurally shared with the previous epoch.
    pub shared_segments: usize,
    /// Whether the dirty set covered enough of the population that the
    /// engine rebuilt the substrate wholesale instead of per segment
    /// (see [`DEFAULT_FULL_REBUILD_FRACTION`]).
    pub full_rebuild: bool,
}

/// A hook invoked after every epoch swap with the full publish delta —
/// see [`LiveEngine::on_publish_delta`].
type DeltaHook = Arc<dyn Fn(&PublishDelta) + Send + Sync>;

/// Everything a publish invalidated, handed to
/// [`LiveEngine::on_publish_delta`] subscribers so they can invalidate
/// *selectively* instead of wholesale.
#[derive(Debug, Clone)]
pub struct PublishDelta {
    /// The epoch just published.
    pub epoch: u64,
    /// Users and affinity pairs the batch invalidated, across the whole
    /// population (`Arc`-shared so hooks can retain it cheaply). A
    /// **lower bound** when [`PublishDelta::full_rebuild`] is set — see
    /// [`IngestReport::dirty_users`]; subscribers must then treat
    /// everything as dirty.
    pub dirty: Arc<DirtySet>,
    /// Whether the publish fell back to a wholesale substrate rebuild,
    /// making [`PublishDelta::dirty`] a lower bound. Subscribers that
    /// keep state keyed by footprint disjointness must drop everything
    /// when this is set.
    pub full_rebuild: bool,
}

impl PublishDelta {
    /// Whether a query with footprint `fp` may observe a different
    /// result at this delta's epoch: always true under a full rebuild
    /// (the dirty set is a lower bound), otherwise footprint
    /// intersection against the dirty set.
    pub fn affects(&self, fp: &crate::query::QueryFootprint) -> bool {
        self.full_rebuild || fp.intersects(&self.dirty)
    }
}

/// Outcome of staging one (optionally client-keyed) batch — see
/// [`LiveEngine::stage_keyed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedBatch {
    /// The engine-assigned monotonic batch id (for a duplicate, the id
    /// the key was originally staged under).
    pub batch_id: u64,
    /// Whether the client key had already been staged — nothing was
    /// staged or logged again (idempotent retry).
    pub duplicate: bool,
}

/// Durability and freshness snapshot — see [`LiveEngine::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveHealth {
    /// The currently-published epoch.
    pub epoch: u64,
    /// Whether a write-ahead log is attached.
    pub wal_attached: bool,
    /// Whether the most recent WAL append or commit failed. While
    /// stalled, mutations fail (nothing can be made durable) but reads
    /// keep serving the last published epoch — the serving layer's
    /// *degraded mode*. Cleared by the next successful publish.
    pub wal_stalled: bool,
    /// Time since the last successful publish (or engine creation/
    /// recovery): the staleness bound of the epoch reads serve.
    pub staleness: Duration,
    /// Staged-but-unpublished delta keys.
    pub staged: usize,
    /// Highest batch id staged so far (0 if none).
    pub last_batch: u64,
}

/// What [`LiveEngine::recover`] replayed from the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch the recovered engine resumed at (the last committed
    /// publish in the log).
    pub epoch: u64,
    /// Batch records staged during replay.
    pub batches_replayed: usize,
    /// Publish records re-applied during replay.
    pub publishes_replayed: usize,
    /// Records skipped as idempotent duplicates (a batch id at or
    /// below the watermark, or a publish at or below the current
    /// epoch) — the crash-retry debris the log design expects.
    pub duplicates_skipped: usize,
    /// Staged delta keys left in the store after replay: batches that
    /// were logged (and acknowledged as *staged*) but never committed
    /// by a publish. They ride into the next publish.
    pub staged_tail: usize,
    /// What the segment scan found (torn tail, truncated bytes, …).
    pub wal: RecoverySummary,
}

/// One epoch's lineage: what a publish folded in, what it invalidated,
/// how it rebuilt, and where its wall clock went — the pipeline
/// provenance record behind the serve layer's `stats` lineage block.
/// The engine retains the most recent [`LINEAGE_CAP`] of these
/// ([`LiveEngine::lineage_recent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochLineage {
    /// The epoch this publish produced.
    pub epoch: u64,
    /// Wall-clock publish time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Rating upserts folded into this epoch.
    pub upserts: usize,
    /// Rating retractions folded into this epoch.
    pub retractions: usize,
    /// Users the batch invalidated (lower bound under a full rebuild —
    /// see [`IngestReport::dirty_users`]).
    pub dirty_users: usize,
    /// Pair-affinity entries invalidated (same caveat).
    pub dirty_pairs: usize,
    /// Preference segments recomputed.
    pub rebuilt_segments: usize,
    /// Preference segments structurally shared with the prior epoch.
    pub shared_segments: usize,
    /// Whether the publish rebuilt the substrate wholesale.
    pub full_rebuild: bool,
    /// Staging wall clock: applying deltas + computing the dirty set.
    pub stage_ns: u64,
    /// Substrate rebuild wall clock (incremental or wholesale).
    pub rebuild_ns: u64,
    /// WAL commit-marker wall clock (0 with no WAL attached).
    pub wal_ns: u64,
    /// Epoch-swap wall clock (installing the new state).
    pub swap_ns: u64,
    /// End-to-end publish wall clock (from drain to swap, hooks
    /// excluded).
    pub total_ns: u64,
}

/// Publish-pipeline aggregates since engine creation/recovery — the
/// summary half of the `stats` lineage block
/// ([`LiveEngine::lineage_summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageSummary {
    /// The currently-published epoch.
    pub epoch: u64,
    /// Successful publishes since engine creation/recovery (an empty
    /// drain is not a publish).
    pub publishes: u64,
    /// Publishes that fell back to a wholesale rebuild.
    pub full_rebuilds: u64,
    /// Wall-clock time of the last successful publish, milliseconds
    /// since the Unix epoch (0 until the first one).
    pub last_publish_unix_ms: u64,
    /// WAL-stall windows entered since engine creation (each window is
    /// one contiguous degraded span: first failed append/commit to the
    /// next successful publish).
    pub degraded_windows: u64,
    /// Total milliseconds spent degraded, including the current window
    /// while one is open.
    pub degraded_ms_total: u64,
}

/// How many [`EpochLineage`] records the engine retains, oldest
/// evicted first.
pub const LINEAGE_CAP: usize = 64;

/// Bounded client-key → batch-id memory backing idempotent ingest
/// retries. Oldest keys are evicted first once the bound is hit.
#[derive(Debug, Default)]
struct SeenKeys {
    map: HashMap<u64, u64>,
    order: VecDeque<u64>,
}

/// How many client idempotency keys the engine remembers, oldest
/// evicted first. Eviction bounds memory but narrows the dedup window:
/// a retry whose key has aged out is restaged as a brand-new batch
/// with a fresh id — the WAL's batch-id watermark only dedupes replay
/// of already-logged batches, not fresh retries — and keep-latest
/// staging can then overwrite a newer rating for the same
/// `(user, item)` with the stale payload. Live clients retry within
/// seconds, so thousands of keys of headroom confines that hazard to
/// pathologically late retries.
const SEEN_KEYS_CAP: usize = 4096;

impl SeenKeys {
    fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    fn insert(&mut self, key: u64, batch_id: u64) {
        if self.map.insert(key, batch_id).is_none() {
            self.order.push_back(key);
            if self.order.len() > SEEN_KEYS_CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
    }
}

/// A serving engine over an evolving rating log: ingestion on one side,
/// epoch-pinned warm queries on the other. See the module docs.
///
/// All methods take `&self`; the engine is `Sync` and meant to be
/// shared across writer and reader threads (`std::thread::scope`, an
/// `Arc`, …). Writers serialize on the staging store; readers only ever
/// take a brief lock to clone the current epoch's `Arc`s.
pub struct LiveEngine<'a> {
    population: &'a PopulationAffinity,
    model: LiveModel,
    store: Mutex<RatingStore>,
    current: Mutex<Arc<EpochState>>,
    /// Optional write-ahead log; when attached, every staged batch and
    /// every publish marker is appended (and, per the fsync policy,
    /// made durable) *before* it is applied in memory. Locked after
    /// `store`, never the other way around.
    wal: Option<Mutex<Wal>>,
    /// Client idempotency keys already staged (see
    /// [`LiveEngine::stage_keyed`]).
    seen_keys: Mutex<SeenKeys>,
    /// Latched when a WAL append/commit fails; cleared by the next
    /// successful publish (see [`LiveHealth::wal_stalled`]).
    wal_stalled: AtomicBool,
    /// Engine creation instant — the base the atomic publish timestamp
    /// below is measured against.
    created: Instant,
    /// Milliseconds since `created` of the last successful publish (0
    /// until the first one). Atomic so read paths can compute the
    /// staleness bound without taking any lock — in particular without
    /// queueing behind a publish holding the staging store.
    last_publish_ms: AtomicU64,
    /// Recent per-epoch lineage records, newest last (cap
    /// [`LINEAGE_CAP`]).
    lineage: Mutex<VecDeque<EpochLineage>>,
    /// Successful publishes since creation/recovery.
    publishes: AtomicU64,
    /// Publishes that fell back to a wholesale rebuild.
    full_rebuilds: AtomicU64,
    /// Wall clock of the last successful publish (Unix ms; 0 = never).
    last_publish_unix_ms: AtomicU64,
    /// Degraded (WAL-stall) windows entered since creation.
    degraded_windows: AtomicU64,
    /// Total milliseconds spent in *closed* degraded windows.
    degraded_ms_total: AtomicU64,
    /// Engine-relative ms when the open degraded window began (0 =
    /// none open).
    stall_began_ms: AtomicU64,
    /// Epoch-swap observers that want the full publish delta (see
    /// [`LiveEngine::on_publish_delta`]).
    delta_hooks: Mutex<Vec<DeltaHook>>,
    /// Substrate construction options, applied to epoch 0 and to every
    /// full rebuild.
    build_options: BuildOptions,
}

/// Dirty-coverage fraction at or above which [`LiveEngine::publish`]
/// rebuilds the substrate wholesale. Per-segment rebuilding beats a
/// full rebuild only while a meaningful share of segments stays clean;
/// once a batch invalidates (nearly) everything — the honest degenerate
/// case of exact user-CF over a dense cohort — the incremental path
/// pays the dirty bookkeeping *and* rebuilds everything anyway, turning
/// the "incremental" publish into a net regression. 0.95 keeps every
/// genuinely sparse batch incremental.
pub const DEFAULT_FULL_REBUILD_FRACTION: f64 = 0.95;

impl std::fmt::Debug for LiveEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine")
            .field("universe", &self.population.universe().len())
            .field("model", &self.model)
            .field("epoch", &self.epoch())
            .field("staged", &self.staged())
            .finish()
    }
}

impl<'a> LiveEngine<'a> {
    /// Build epoch 0: pad `initial` so the population universe and
    /// `items` index safely, fit the model, and precompute the first
    /// substrate over every universe user.
    ///
    /// The population index and the item universe stay fixed for the
    /// engine's lifetime; ratings are what streams.
    pub fn new(
        population: &'a PopulationAffinity,
        model: LiveModel,
        initial: &RatingMatrix,
        items: &[ItemId],
    ) -> Result<Self, QueryError> {
        Self::new_with_options(population, model, initial, items, BuildOptions::default())
    }

    /// Like [`LiveEngine::new`], but with explicit substrate
    /// construction options — the sharded build's thread count (see
    /// [`BuildOptions`]). The options persist: every wholesale rebuild
    /// this engine performs (epoch 0, and any publish past the
    /// full-rebuild threshold) uses them.
    pub fn new_with_options(
        population: &'a PopulationAffinity,
        model: LiveModel,
        initial: &RatingMatrix,
        items: &[ItemId],
        build_options: BuildOptions,
    ) -> Result<Self, QueryError> {
        let min_users = population.universe().last().map_or(0, |u| u.idx() + 1);
        let min_items = items.iter().map(|i| i.idx() + 1).max().unwrap_or(0);
        let matrix = Arc::new(initial.padded_to(min_users, min_items));
        let universe = population.universe();
        let substrate = match model {
            LiveModel::Raw => Substrate::build_with(
                &RawRatings(&matrix),
                population,
                items,
                universe,
                &[],
                build_options,
            )?,
            LiveModel::UserCf(cfg) => {
                let cf = UserCfModel::fit_for(&matrix, cfg, universe);
                Substrate::build_with(&cf, population, items, universe, &[], build_options)?
            }
        };
        Ok(LiveEngine {
            population,
            model,
            store: Mutex::new(RatingStore::new()),
            current: Mutex::new(EpochState::new(0, matrix, substrate)),
            wal: None,
            seen_keys: Mutex::new(SeenKeys::default()),
            wal_stalled: AtomicBool::new(false),
            created: Instant::now(),
            last_publish_ms: AtomicU64::new(0),
            lineage: Mutex::new(VecDeque::new()),
            publishes: AtomicU64::new(0),
            full_rebuilds: AtomicU64::new(0),
            last_publish_unix_ms: AtomicU64::new(0),
            degraded_windows: AtomicU64::new(0),
            degraded_ms_total: AtomicU64::new(0),
            stall_began_ms: AtomicU64::new(0),
            delta_hooks: Mutex::new(Vec::new()),
            build_options,
        })
    }

    /// Attach a write-ahead log: from here on every staged batch and
    /// every publish marker is appended to `wal` *before* it is
    /// applied in memory, and a publish returns only after its commit
    /// frame is durable (per the log's [`crate::wal::FsyncPolicy`]).
    /// Attach before the first mutation — a fresh log via
    /// [`Wal::create`], or use [`LiveEngine::recover`] to reopen an
    /// existing one.
    pub fn with_wal(mut self, wal: Wal) -> Self {
        self.wal = Some(Mutex::new(wal));
        self
    }

    /// Rebuild an engine from its write-ahead log after a crash.
    ///
    /// Scans the segments in `dir` (truncating a torn final frame —
    /// see [`Wal::recover`]), builds epoch 0 from `initial` exactly
    /// like [`LiveEngine::new_with_options`], then replays the valid
    /// record prefix through the ordinary staging and publish paths:
    /// batch records restage under their original ids (duplicates are
    /// no-ops), publish records re-publish, and client idempotency
    /// keys are re-learned. The result is an engine whose last
    /// committed epoch is bit-identical to the pre-crash engine's —
    /// the invariant `crash_recovery.rs` proves — with any logged-but-
    /// uncommitted batches left staged for the next publish, and the
    /// log reattached ready to append.
    ///
    /// `initial` must be the same epoch-0 rating matrix the crashed
    /// engine was built from (the WAL logs deltas, not the base).
    pub fn recover(
        population: &'a PopulationAffinity,
        model: LiveModel,
        initial: &RatingMatrix,
        items: &[ItemId],
        build_options: BuildOptions,
        dir: impl AsRef<Path>,
        wal_options: WalOptions,
    ) -> Result<(Self, RecoveryReport), QueryError> {
        let (wal, records, summary) =
            Wal::recover(dir, wal_options).map_err(|e| QueryError::Wal {
                detail: format!("recovery scan failed: {e}"),
            })?;
        let engine = Self::new_with_options(population, model, initial, items, build_options)?;
        let mut batches = 0usize;
        let mut publishes = 0usize;
        let mut duplicates = 0usize;
        for record in records {
            match record {
                WalRecord::Batch {
                    batch_id,
                    client_key,
                    upserts,
                    retractions,
                } => {
                    let mut store = lock_unpoisoned(&engine.store);
                    if store.stage_batch(batch_id, &upserts, &retractions)? {
                        batches += 1;
                        if let Some(key) = client_key {
                            lock_unpoisoned(&engine.seen_keys).insert(key, batch_id);
                        }
                    } else {
                        duplicates += 1;
                    }
                }
                WalRecord::Publish { epoch, .. } => {
                    if engine.epoch() >= epoch {
                        duplicates += 1;
                        continue;
                    }
                    let report = engine.publish()?;
                    if report.epoch != epoch {
                        return Err(QueryError::Wal {
                            detail: format!(
                                "replay diverged: log commits epoch {epoch}, replay produced {}",
                                report.epoch
                            ),
                        });
                    }
                    publishes += 1;
                }
            }
        }
        let report = RecoveryReport {
            epoch: engine.epoch(),
            batches_replayed: batches,
            publishes_replayed: publishes,
            duplicates_skipped: duplicates,
            staged_tail: engine.staged(),
            wal: summary,
        };
        Ok((engine.with_wal(wal), report))
    }

    /// The substrate construction options this engine builds with.
    pub fn build_options(&self) -> BuildOptions {
        self.build_options
    }

    /// Register a hook invoked after every successful epoch swap with
    /// the full [`PublishDelta`] — epoch, dirty set and the full-rebuild
    /// flag.
    ///
    /// This is the invalidation signal serving layers build on: a result
    /// cache keyed beside epoch `e` drops only the entries whose
    /// [`QueryFootprint`](crate::query::QueryFootprint) intersects the
    /// dirty set the moment `e + 1` goes live, and keeps everything else
    /// (see [`PublishDelta::affects`]). Hooks run on the *publishing*
    /// thread, after the new epoch is pinnable and after the staging
    /// store is released — any pin taken from here on observes the
    /// published epoch. Keep hooks cheap (they sit on the ingestion
    /// path); empty publishes (no staged deltas) notify nobody.
    pub fn on_publish_delta(&self, hook: impl Fn(&PublishDelta) + Send + Sync + 'static) {
        lock_unpoisoned(&self.delta_hooks).push(Arc::new(hook));
    }

    /// Run every registered publish hook for the published delta. The
    /// hook list is snapshotted out of its lock first, so a hook that
    /// stages and publishes (or registers another hook) re-enters the
    /// engine without deadlocking on the non-reentrant hooks mutex.
    fn notify_epoch(&self, delta: &PublishDelta) {
        let hooks: Vec<DeltaHook> = lock_unpoisoned(&self.delta_hooks).clone();
        for hook in &hooks {
            hook(delta);
        }
    }

    /// The dirty-coverage fraction at which [`LiveEngine::publish`]
    /// abandons per-segment rebuilding for one wholesale substrate
    /// rebuild: [`DEFAULT_FULL_REBUILD_FRACTION`]. Either way results
    /// are bit-identical — only the rebuild strategy changes.
    pub fn full_rebuild_fraction(&self) -> f64 {
        DEFAULT_FULL_REBUILD_FRACTION
    }

    /// The population-affinity index this engine serves from.
    pub fn population(&self) -> &'a PopulationAffinity {
        self.population
    }

    /// The configured preference model.
    pub fn model(&self) -> LiveModel {
        self.model
    }

    /// The currently-published epoch number.
    pub fn epoch(&self) -> u64 {
        lock_unpoisoned(&self.current).epoch
    }

    /// Number of staged-but-unpublished delta keys.
    pub fn staged(&self) -> usize {
        lock_unpoisoned(&self.store).len()
    }

    /// The staging core every mutation path funnels through: duplicate
    /// check, atomic validation, WAL append (when attached), then the
    /// in-memory stage — in that order, so a batch that reaches the
    /// log always stages cleanly and a batch that fails validation
    /// never reaches the log. Caller holds the store lock, which
    /// serializes writers and keeps the log in staging order.
    fn stage_wal_batch(
        &self,
        store: &mut RatingStore,
        client_key: Option<u64>,
        upserts: &[Rating],
        retractions: &[(UserId, ItemId)],
    ) -> Result<StagedBatch, QueryError> {
        if let Some(key) = client_key {
            if let Some(batch_id) = lock_unpoisoned(&self.seen_keys).get(key) {
                return Ok(StagedBatch {
                    batch_id,
                    duplicate: true,
                });
            }
        }
        if upserts.is_empty() && retractions.is_empty() {
            return Ok(StagedBatch {
                batch_id: store.last_batch(),
                duplicate: false,
            });
        }
        for r in upserts {
            if !r.value.is_finite() {
                return Err(NonFiniteScore {
                    user: r.user,
                    item: r.item,
                    value: r.value as f64,
                }
                .into());
            }
        }
        let batch_id = store.allocate_batch_id();
        if let Some(wal) = &self.wal {
            let record = WalRecord::Batch {
                batch_id,
                client_key,
                upserts: upserts.to_vec(),
                retractions: retractions.to_vec(),
            };
            if let Err(e) = lock_unpoisoned(wal).append(&record) {
                self.enter_stall();
                return Err(QueryError::Wal {
                    detail: format!("append of batch {batch_id} failed: {e}"),
                });
            }
        }
        let staged = store
            .stage_batch(batch_id, upserts, retractions)
            .expect("validated finite above");
        debug_assert!(staged, "freshly allocated id cannot be a duplicate");
        if let Some(key) = client_key {
            lock_unpoisoned(&self.seen_keys).insert(key, batch_id);
        }
        Ok(StagedBatch {
            batch_id,
            duplicate: false,
        })
    }

    /// Stage rating upserts without publishing (keep-latest per
    /// `(user, item)` key). Non-finite values are rejected here, and
    /// with a WAL attached the batch is logged before it is staged.
    pub fn stage(&self, ratings: &[Rating]) -> Result<(), QueryError> {
        let mut store = lock_unpoisoned(&self.store);
        self.stage_wal_batch(&mut store, None, ratings, &[])?;
        Ok(())
    }

    /// Stage rating retractions without publishing (logged like
    /// [`LiveEngine::stage`] when a WAL is attached — which is why
    /// this can fail).
    pub fn stage_retractions(&self, pairs: &[(UserId, ItemId)]) -> Result<(), QueryError> {
        let mut store = lock_unpoisoned(&self.store);
        self.stage_wal_batch(&mut store, None, &[], pairs)?;
        Ok(())
    }

    /// Stage one batch of upserts and retractions under an optional
    /// client idempotency key.
    ///
    /// A key that was already staged makes the whole call a no-op
    /// returning [`StagedBatch::duplicate`] — the safety net that lets
    /// clients retry an ingest whose acknowledgement was lost without
    /// double-applying it. Keys are remembered across a bounded window
    /// (`SEEN_KEYS_CAP` keys) and survive crash recovery (they ride
    /// in the WAL batch records).
    pub fn stage_keyed(
        &self,
        client_key: Option<u64>,
        upserts: &[Rating],
        retractions: &[(UserId, ItemId)],
    ) -> Result<StagedBatch, QueryError> {
        let mut store = lock_unpoisoned(&self.store);
        self.stage_wal_batch(&mut store, client_key, upserts, retractions)
    }

    /// Stage `ratings` and publish everything staged as one epoch.
    pub fn ingest(&self, ratings: &[Rating]) -> Result<IngestReport, QueryError> {
        self.stage(ratings)?;
        self.publish()
    }

    /// Stage retractions and publish everything staged as one epoch.
    pub fn retract(&self, pairs: &[(UserId, ItemId)]) -> Result<IngestReport, QueryError> {
        self.stage_retractions(pairs)?;
        self.publish()
    }

    /// Durability and freshness snapshot: current epoch, WAL
    /// attachment and stall state, and how stale the published epoch
    /// is. The serving layer turns `wal_stalled` into *degraded mode*:
    /// reads keep being answered from the last healthy epoch (with
    /// this snapshot's staleness attached) while mutations fail fast.
    pub fn health(&self) -> LiveHealth {
        let (staged, last_batch) = {
            let store = lock_unpoisoned(&self.store);
            (store.len(), store.last_batch())
        };
        LiveHealth {
            epoch: self.epoch(),
            wal_attached: self.wal.is_some(),
            wal_stalled: self.wal_stalled.load(Ordering::Acquire),
            staleness: self.staleness(),
            staged,
            last_batch,
        }
    }

    /// Time since the last successful publish (or engine creation/
    /// recovery), computed from the atomic publish timestamp.
    fn staleness(&self) -> Duration {
        let last = Duration::from_millis(self.last_publish_ms.load(Ordering::Acquire));
        self.created.elapsed().saturating_sub(last)
    }

    /// Lock-free degraded probe for read paths: `Some(staleness of the
    /// serving epoch)` while an attached WAL is stalled, `None` when
    /// healthy (or no WAL is attached).
    ///
    /// Unlike [`LiveEngine::health`], which snapshots the staging
    /// store, this takes no lock at all — a query response can
    /// annotate itself without queueing behind an in-flight publish
    /// that holds the store for the whole epoch rebuild, preserving
    /// the invariant that readers are never blocked beyond the `Arc`
    /// handoff.
    pub fn degraded_staleness(&self) -> Option<Duration> {
        (self.wal.is_some() && self.wal_stalled.load(Ordering::Acquire)).then(|| self.staleness())
    }

    /// Milliseconds since engine creation (the base of the degraded
    /// window accounting).
    fn engine_ms(&self) -> u64 {
        self.created.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Latch the WAL stall and, if this opens a new degraded window,
    /// start its clock.
    fn enter_stall(&self) {
        self.wal_stalled.store(true, Ordering::Release);
        let now = self.engine_ms().max(1);
        if self
            .stall_began_ms
            .compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            self.degraded_windows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Clear the WAL stall; if a degraded window was open, close it
    /// and fold its duration into the total.
    fn clear_stall(&self) {
        self.wal_stalled.store(false, Ordering::Release);
        let began = self.stall_began_ms.swap(0, Ordering::AcqRel);
        if began != 0 {
            let ms = self.engine_ms().saturating_sub(began);
            self.degraded_ms_total.fetch_add(ms, Ordering::Relaxed);
        }
    }

    /// The most recent per-epoch lineage records, oldest → newest, at
    /// most `limit` (the engine retains [`LINEAGE_CAP`]).
    pub fn lineage_recent(&self, limit: usize) -> Vec<EpochLineage> {
        let lineage = lock_unpoisoned(&self.lineage);
        let skip = lineage.len().saturating_sub(limit);
        lineage.iter().skip(skip).copied().collect()
    }

    /// Publish-pipeline aggregates since engine creation/recovery.
    pub fn lineage_summary(&self) -> LineageSummary {
        let mut degraded_ms = self.degraded_ms_total.load(Ordering::Relaxed);
        let began = self.stall_began_ms.load(Ordering::Acquire);
        if began != 0 {
            degraded_ms += self.engine_ms().saturating_sub(began);
        }
        LineageSummary {
            epoch: self.epoch(),
            publishes: self.publishes.load(Ordering::Relaxed),
            full_rebuilds: self.full_rebuilds.load(Ordering::Relaxed),
            last_publish_unix_ms: self.last_publish_unix_ms.load(Ordering::Relaxed),
            degraded_windows: self.degraded_windows.load(Ordering::Relaxed),
            degraded_ms_total: degraded_ms,
        }
    }

    /// Drain the staged deltas, rebuild the dirty preference segments,
    /// and atomically swap the result in as the next epoch (with a
    /// fresh, epoch-scoped member arena).
    ///
    /// Publishers serialize on the staging store; pinned readers are
    /// never blocked beyond the brief `Arc` handoff, and epochs they
    /// already pinned stay fully readable. An empty staging store
    /// publishes nothing and reports the current epoch.
    pub fn publish(&self) -> Result<IngestReport, QueryError> {
        // Hold the store lock for the whole publish: it serializes
        // writers, so `current` cannot move between the read and the
        // swap below.
        let mut store = lock_unpoisoned(&self.store);
        let batch = store.drain();
        let prev = Arc::clone(&lock_unpoisoned(&self.current));
        if batch.is_empty() {
            return Ok(IngestReport {
                epoch: prev.epoch,
                upserts: 0,
                retractions: 0,
                dirty_users: 0,
                dirty_pairs: 0,
                rebuilt_segments: 0,
                shared_segments: prev.substrate.users().len(),
                full_rebuild: false,
            });
        }
        // Standalone publishes get their own trace; a publish inside a
        // served ingest attributes its stages to the ingest span (the
        // nested guard is a no-op).
        let obs_span = crate::obs::span(crate::obs::next_trace_id(), crate::obs::SpanKind::Publish);
        let publish_start = Instant::now();
        let stage_start = Instant::now();
        let post = Arc::new(prev.matrix.apply_deltas(&batch.upserts, &batch.retractions));
        let total_segments = prev.substrate.users().len();
        // When the dirty set covers (nearly) every segment, per-segment
        // rebuilding is pure overhead: rebuild the substrate wholesale
        // instead (bit-identical — a clean user's recomputed segment
        // equals its shared one by the dirty-set contract). The dirty
        // computation itself is bounded by the same threshold: once the
        // fallback is inevitable, finishing the (expensive) co-rater
        // closure would only refine counts we no longer act on, so the
        // reported dirty figures are lower bounds when `full_rebuild`
        // is set.
        let cap = ((DEFAULT_FULL_REBUILD_FRACTION * total_segments as f64).ceil() as usize).max(1);
        let (dirty, full_rebuild) =
            batch.dirty_set_bounded(&prev.matrix, &post, self.model.scope(), cap, |u| {
                prev.substrate.user_index(u).is_some()
            });
        let covered: Vec<UserId> = dirty
            .users
            .iter()
            .copied()
            .filter(|&u| prev.substrate.user_index(u).is_some())
            .collect();
        let stage_ns = elapsed_ns(stage_start);
        crate::obs::add_phase(crate::obs::Phase::Stage, stage_start.elapsed());
        let rebuild_start = Instant::now();
        let substrate = if full_rebuild {
            let users = prev.substrate.users();
            let items = prev.substrate.items();
            match self.model {
                LiveModel::Raw => Substrate::build_with(
                    &RawRatings(&post),
                    self.population,
                    items,
                    users,
                    &[],
                    self.build_options,
                )?,
                LiveModel::UserCf(cfg) => {
                    let cf = UserCfModel::fit_for(&post, cfg, users);
                    Substrate::build_with(
                        &cf,
                        self.population,
                        items,
                        users,
                        &[],
                        self.build_options,
                    )?
                }
            }
        } else {
            match self.model {
                LiveModel::Raw => prev.substrate.rebuild_dirty(&RawRatings(&post), &covered)?,
                LiveModel::UserCf(cfg) => {
                    let cf = UserCfModel::fit_for(&post, cfg, &covered);
                    prev.substrate.rebuild_dirty(&cf, &covered)?
                }
            }
        };
        let rebuild_ns = elapsed_ns(rebuild_start);
        crate::obs::add_phase(crate::obs::Phase::Rebuild, rebuild_start.elapsed());
        let epoch = prev.epoch + 1;
        let wal_start = Instant::now();
        // Commit point: the publish marker must be durable *before*
        // the swap makes the epoch observable (and before any caller
        // can acknowledge it). On failure nothing is applied — the
        // drained batch goes back into the staging store (its keys are
        // disjoint between upserts and retractions, so re-staging
        // reconstructs it exactly) and the engine reports itself
        // stalled; reads keep serving the previous epoch.
        if let Some(wal) = &self.wal {
            let commit = WalRecord::Publish {
                epoch,
                through_batch: store.last_batch(),
            };
            if let Err(e) = lock_unpoisoned(wal).append(&commit) {
                self.enter_stall();
                store
                    .stage_all(&batch.upserts)
                    .expect("re-staging values already staged once");
                for &(u, i) in &batch.retractions {
                    store.stage_retraction(u, i);
                }
                return Err(QueryError::Wal {
                    detail: format!("commit of epoch {epoch} failed: {e}"),
                });
            }
        }
        let wal_ns = if self.wal.is_some() {
            elapsed_ns(wal_start)
        } else {
            0
        };
        let swap_start = Instant::now();
        let state = EpochState::new(epoch, post, substrate);
        *lock_unpoisoned(&self.current) = state;
        let swap_ns = elapsed_ns(swap_start);
        crate::obs::add_phase(crate::obs::Phase::Swap, swap_start.elapsed());
        self.clear_stall();
        self.last_publish_ms.store(
            self.created.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            Ordering::Release,
        );
        let unix_ms = unix_now_ms();
        self.last_publish_unix_ms.store(unix_ms, Ordering::Relaxed);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        if full_rebuild {
            self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        // Release the staging store before notifying, so hooks may pin
        // or stage (a later publish sees their staging) without
        // deadlocking on the lock this publish still holds.
        drop(store);
        let dirty_users = dirty.num_users();
        let dirty_pairs = dirty.num_pairs();
        let rebuilt_segments = if full_rebuild {
            total_segments
        } else {
            covered.len()
        };
        {
            let mut lineage = lock_unpoisoned(&self.lineage);
            if lineage.len() >= LINEAGE_CAP {
                lineage.pop_front();
            }
            lineage.push_back(EpochLineage {
                epoch,
                unix_ms,
                upserts: batch.upserts.len(),
                retractions: batch.retractions.len(),
                dirty_users,
                dirty_pairs,
                rebuilt_segments,
                shared_segments: total_segments - rebuilt_segments,
                full_rebuild,
                stage_ns,
                rebuild_ns,
                wal_ns,
                swap_ns,
                total_ns: elapsed_ns(publish_start),
            });
        }
        self.notify_epoch(&PublishDelta {
            epoch,
            dirty: Arc::new(dirty),
            full_rebuild,
        });
        // Seal after the hooks so their survival/pump work accrues to
        // a standalone publish's span too.
        crate::obs::note_epoch(epoch);
        crate::obs::note_ok(true);
        drop(obs_span);
        Ok(IngestReport {
            epoch,
            upserts: batch.upserts.len(),
            retractions: batch.retractions.len(),
            dirty_users,
            dirty_pairs,
            rebuilt_segments,
            shared_segments: total_segments - rebuilt_segments,
            full_rebuild,
        })
    }

    /// Pin the current epoch: the returned handle keeps that epoch's
    /// matrix and substrate alive (and its member arena reachable) for
    /// as long as the caller holds it, independent of any further
    /// ingestion. Pinning is one brief lock and two `Arc` clones.
    pub fn pin(&self) -> PinnedEpoch<'a> {
        let state = Arc::clone(&lock_unpoisoned(&self.current));
        let provider = EpochProvider {
            matrix: Arc::clone(&state.matrix),
            model: self.model,
        };
        PinnedEpoch {
            population: self.population,
            state,
            provider,
        }
    }
}

/// One pinned epoch of a [`LiveEngine`]: a self-contained, immutable
/// snapshot to serve queries from.
///
/// The pin holds an `Arc` to the epoch's matrix, substrate, affinity
/// cache and member arena, so every query made through
/// [`PinnedEpoch::engine`] reads one consistent state end-to-end —
/// concurrent publishes swap the *engine's* current epoch but can never
/// mutate a pinned one. Results are bit-identical to a cold engine
/// built from this epoch's ratings.
#[derive(Debug, Clone)]
pub struct PinnedEpoch<'a> {
    population: &'a PopulationAffinity,
    state: Arc<EpochState>,
    provider: EpochProvider,
}

impl PinnedEpoch<'_> {
    /// The pinned epoch number.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The pinned epoch's rating matrix.
    pub fn matrix(&self) -> &RatingMatrix {
        &self.state.matrix
    }

    /// The pinned epoch's substrate.
    pub fn substrate(&self) -> &Arc<Substrate> {
        &self.state.substrate
    }

    /// A warm [`GrecaEngine`] over this epoch's substrate and provider.
    /// Engines are cheap views — build one per scope that needs to
    /// issue queries.
    pub fn engine(&self) -> GrecaEngine<'_> {
        GrecaEngine::with_substrate(
            &self.provider,
            self.population,
            Arc::clone(&self.state.substrate),
        )
    }

    /// The epoch's member arena, shared by every pin of this epoch and
    /// dropped with it — what served queries pass to
    /// [`GroupQuery::run_shared`](crate::query::GroupQuery::run_shared).
    pub fn members(&self) -> &SharedMemberState {
        &self.state.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_affinity::TableAffinitySource;
    use greca_dataset::{Granularity, RatingMatrixBuilder, Timeline};

    fn rating(u: u32, i: u32, value: f32, ts: i64) -> Rating {
        Rating {
            user: UserId(u),
            item: ItemId(i),
            value,
            ts,
        }
    }

    fn world() -> (RatingMatrix, PopulationAffinity, Vec<ItemId>) {
        let mut b = RatingMatrixBuilder::new(4, 5);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(0), ItemId(2), 3.0, 0)
            .rate(UserId(1), ItemId(0), 4.0, 0)
            .rate(UserId(2), ItemId(3), 2.0, 0)
            .rate(UserId(3), ItemId(4), 4.0, 0);
        let matrix = b.build();
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 1.0)
            .set_static(UserId(0), UserId(2), 0.2)
            .set_static(UserId(1), UserId(2), 0.7)
            .set_static(UserId(2), UserId(3), 0.5);
        let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
        let (p1, p2) = (tl.periods()[0], tl.periods()[1]);
        src.set_periodic(UserId(0), UserId(1), p1.start, 0.8)
            .set_periodic(UserId(1), UserId(2), p1.start, 0.9)
            .set_periodic(UserId(0), UserId(1), p2.start, 0.7);
        let users: Vec<UserId> = (0..4).map(UserId).collect();
        let pop = PopulationAffinity::build(&src, &users, &tl);
        let items: Vec<ItemId> = (0..5).map(ItemId).collect();
        (matrix, pop, items)
    }

    #[test]
    fn epochs_increment_and_empty_publish_is_a_noop() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        assert_eq!(live.epoch(), 0);
        let noop = live.publish().unwrap();
        assert_eq!(noop.epoch, 0);
        assert_eq!(noop.rebuilt_segments, 0);
        assert_eq!(noop.shared_segments, 4);
        let r = live.ingest(&[rating(2, 1, 5.0, 10)]).unwrap();
        assert_eq!(r.epoch, 1);
        assert_eq!(live.epoch(), 1);
        assert_eq!((r.upserts, r.retractions), (1, 0));
        assert_eq!(r.rebuilt_segments, 1, "raw model dirties only u2");
        assert_eq!(r.shared_segments, 3);
        let r = live.retract(&[(UserId(2), ItemId(1))]).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!((r.upserts, r.retractions), (0, 1));
    }

    #[test]
    fn each_epoch_owns_its_member_arena() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let pin0 = live.pin();
        live.ingest(&[rating(1, 3, 5.0, 10)]).unwrap();
        let pin1 = live.pin();
        assert!(std::ptr::eq(pin1.members(), live.pin().members()));
        assert!(!std::ptr::eq(pin0.members(), pin1.members()));
        // A subset itemset resolves two universe handles and two
        // filtered columns into the arena.
        let served = |pin: &PinnedEpoch<'_>| {
            let engine = pin.engine();
            let query = engine.query(&group).items(&items[..4]).top(3);
            let shared = query.run_shared(pin.members()).unwrap();
            assert_eq!(shared, query.run().unwrap(), "epoch {}", pin.epoch());
            shared
        };
        let at1 = served(&pin1);
        assert_eq!(pin1.members().resolved_members(), 4);
        // A query pinned to the older epoch fills that epoch's arena
        // and leaves the current one alone.
        assert_ne!(served(&pin0), at1, "the new rating is visible");
        assert_eq!(pin0.members().resolved_members(), 4);
        assert_eq!(pin1.members().entries(), 4);
        assert_eq!(served(&pin1), at1);
        assert_eq!(pin1.members().resolved_members(), 4);
        assert_eq!(pin1.members().reused_members(), 4);
    }

    #[test]
    fn pinned_epoch_is_immune_to_later_ingestion() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let pin0 = live.pin();
        let before = pin0
            .engine()
            .query(&group)
            .items(&items)
            .top(3)
            .run()
            .unwrap();
        // A rating that reorders u1's list.
        live.ingest(&[rating(1, 4, 5.0, 10)]).unwrap();
        let again = pin0
            .engine()
            .query(&group)
            .items(&items)
            .top(3)
            .run()
            .unwrap();
        assert_eq!(before, again, "pinned epoch must stay bit-identical");
        assert_eq!(pin0.epoch(), 0);
        assert_eq!(pin0.matrix().get(UserId(1), ItemId(4)), None);
        // A fresh pin sees the new epoch.
        let pin1 = live.pin();
        assert_eq!(pin1.epoch(), 1);
        assert_eq!(pin1.matrix().get(UserId(1), ItemId(4)), Some(5.0));
        let after = pin1
            .engine()
            .query(&group)
            .items(&items)
            .top(3)
            .run()
            .unwrap();
        assert_ne!(before, after, "the new rating must be visible");
        // Structural sharing across the swap: u0 was clean.
        assert!(pin0
            .substrate()
            .shares_segment_with(pin1.substrate(), UserId(0)));
        assert!(!pin0
            .substrate()
            .shares_segment_with(pin1.substrate(), UserId(1)));
    }

    #[test]
    fn lineage_records_every_publish_with_timings() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        assert_eq!(live.lineage_summary().publishes, 0);
        assert!(live.lineage_recent(10).is_empty());
        live.ingest(&[rating(2, 4, 4.0, 10)]).unwrap();
        live.retract(&[(UserId(2), ItemId(4))]).unwrap();
        // An empty drain publishes nothing and must leave no lineage.
        live.publish().unwrap();
        let summary = live.lineage_summary();
        assert_eq!((summary.epoch, summary.publishes), (2, 2));
        assert_eq!(summary.full_rebuilds, 0);
        assert!(summary.last_publish_unix_ms > 0);
        assert_eq!(summary.degraded_windows, 0);
        let recent = live.lineage_recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].epoch, 1);
        assert_eq!((recent[0].upserts, recent[0].retractions), (1, 0));
        assert_eq!((recent[1].upserts, recent[1].retractions), (0, 1));
        assert_eq!(recent[1].epoch, 2);
        for l in &recent {
            assert!(l.total_ns >= l.rebuild_ns);
            assert!(l.rebuild_ns > 0, "a rebuild takes nonzero time");
            assert_eq!(l.wal_ns, 0, "no WAL attached");
            assert_eq!(l.rebuilt_segments, 1);
            assert_eq!(l.shared_segments, 3);
        }
        // `limit` trims from the oldest side.
        let newest = live.lineage_recent(1);
        assert_eq!(newest.len(), 1);
        assert_eq!(newest[0].epoch, 2);
    }

    #[test]
    fn usercf_model_propagates_to_coraters() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(
            &pop,
            LiveModel::UserCf(CfConfig::default()),
            &matrix,
            &items,
        )
        .unwrap();
        // u0 co-rates i0 with u1; u3 has no co-raters and no empty row.
        let r = live.ingest(&[rating(0, 4, 4.5, 10)]).unwrap();
        assert!(r.dirty_users >= 3, "u0, co-rater u1, new co-rater u3");
        assert!(r.rebuilt_segments >= 3);
        assert!(r.dirty_pairs >= 1, "(u0,u3) now co-rate i4");
    }

    /// The degenerate-coverage fallback: when a batch dirties (nearly)
    /// every segment, publish rebuilds wholesale — reported honestly,
    /// with results bit-identical to a cold refit. (That the wholesale
    /// and per-segment strategies build identical substrates is
    /// `substrate.rs`'s `rebuild_dirty_over_every_user_equals_build_with`.)
    #[test]
    fn full_rebuild_fallback_triggers_and_stays_identical() {
        let (matrix, pop, items) = world();
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let cfg = CfConfig::default();
        let live = LiveEngine::new(&pop, LiveModel::UserCf(cfg), &matrix, &items).unwrap();
        // Every user rates: 4/4 coverage trips the default threshold.
        let r = live
            .ingest(&[
                rating(0, 4, 4.5, 10),
                rating(1, 3, 2.0, 10),
                rating(2, 0, 1.5, 10),
                rating(3, 2, 3.0, 10),
            ])
            .unwrap();
        assert!(r.full_rebuild, "4/4 coverage rebuilds wholesale");
        assert_eq!((r.rebuilt_segments, r.shared_segments), (4, 0));
        assert_eq!(r.dirty_users, 4);
        let served = live
            .pin()
            .engine()
            .query(&group)
            .items(&items)
            .top(3)
            .run()
            .unwrap();
        // …and identical to a cold engine refit from the final ratings.
        let final_matrix = live.pin().matrix().clone();
        let cold_model = UserCfModel::fit(&final_matrix, cfg);
        let cold = crate::query::GrecaEngine::new(&cold_model, &pop);
        assert_eq!(
            served,
            cold.query(&group).items(&items).top(3).run().unwrap()
        );
    }

    /// Sparse batches must keep the incremental path at the default
    /// threshold — the fallback exists for degenerate coverage only.
    #[test]
    fn default_threshold_keeps_sparse_batches_incremental() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        assert_eq!(live.full_rebuild_fraction(), DEFAULT_FULL_REBUILD_FRACTION);
        let r = live.ingest(&[rating(2, 1, 5.0, 10)]).unwrap();
        assert!(!r.full_rebuild, "1/4 coverage stays incremental");
        assert_eq!(r.rebuilt_segments, 1);
        // A batch touching every user's row under the raw model covers
        // 4/4 → wholesale.
        let r = live
            .ingest(&[
                rating(0, 1, 1.0, 11),
                rating(1, 1, 2.0, 11),
                rating(2, 2, 3.0, 11),
                rating(3, 1, 4.0, 11),
            ])
            .unwrap();
        assert!(r.full_rebuild, "full coverage rebuilds wholesale");
        assert_eq!((r.rebuilt_segments, r.shared_segments), (4, 0));
    }

    #[test]
    fn publish_hooks_observe_epoch_swaps() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        live.on_publish_delta(move |d| sink.lock().unwrap().push(d.epoch));
        // Empty publishes swap nothing and notify nobody.
        live.publish().unwrap();
        assert!(seen.lock().unwrap().is_empty());
        live.ingest(&[rating(2, 1, 5.0, 10)]).unwrap();
        live.ingest(&[rating(1, 1, 4.0, 11)]).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![1, 2]);
        // Multiple hooks all fire.
        let also = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&also);
        live.on_publish_delta(move |d| sink.lock().unwrap().push(d.epoch));
        live.ingest(&[rating(0, 1, 2.0, 12)]).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(*also.lock().unwrap(), vec![3]);
    }

    #[test]
    fn staging_defers_publication() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        live.stage(&[rating(0, 1, 2.0, 5), rating(0, 1, 3.5, 6)])
            .unwrap();
        live.stage_retractions(&[(UserId(2), ItemId(3))]).unwrap();
        assert_eq!(live.staged(), 2, "keep-latest per key");
        assert_eq!(live.epoch(), 0);
        let r = live.publish().unwrap();
        assert_eq!(live.staged(), 0);
        assert_eq!(r.epoch, 1);
        assert_eq!((r.upserts, r.retractions), (1, 1));
        let pin = live.pin();
        assert_eq!(pin.matrix().get(UserId(0), ItemId(1)), Some(3.5));
        assert_eq!(pin.matrix().get(UserId(2), ItemId(3)), None);
    }

    #[test]
    fn non_finite_ingest_rejected_before_staging_state_changes() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        // A valid rating ahead of the poisoned one must not be staged
        // either — a rejected batch is all-or-nothing, so it cannot
        // leak into a later unrelated publish.
        let err = live
            .ingest(&[rating(2, 0, 4.0, 4), rating(0, 1, f32::NAN, 5)])
            .unwrap_err();
        assert!(matches!(err, QueryError::NonFiniteScore { .. }));
        assert_eq!(live.epoch(), 0, "nothing published");
        assert_eq!(live.staged(), 0, "nothing staged");
        let noop = live.publish().unwrap();
        assert_eq!(noop.epoch, 0, "no stale prefix to publish");
    }

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "greca-live-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn wal_replay_recovers_a_bit_identical_engine() {
        use crate::wal::{Wal, WalOptions};
        let (matrix, pop, items) = world();
        let dir = wal_dir("replay");
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let reference = {
            let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items)
                .unwrap()
                .with_wal(Wal::create(&dir, WalOptions::default()).unwrap());
            live.ingest(&[rating(2, 1, 5.0, 10)]).unwrap();
            live.stage_keyed(
                Some(77),
                &[rating(1, 4, 4.0, 11)],
                &[(UserId(2), ItemId(1))],
            )
            .unwrap();
            live.publish().unwrap();
            // A staged-but-unpublished tail batch.
            live.stage(&[rating(0, 3, 2.5, 12)]).unwrap();
            assert_eq!(live.epoch(), 2);
            let h = live.health();
            assert!(h.wal_attached && !h.wal_stalled);
            assert_eq!(h.staged, 1);
            live.pin()
                .engine()
                .query(&group)
                .items(&items)
                .top(3)
                .run()
                .unwrap()
        };

        let (recovered, report) = LiveEngine::recover(
            &pop,
            LiveModel::Raw,
            &matrix,
            &items,
            BuildOptions::default(),
            &dir,
            WalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.publishes_replayed, 2);
        assert_eq!(report.batches_replayed, 3);
        assert_eq!(report.duplicates_skipped, 0);
        assert_eq!(report.staged_tail, 1, "uncommitted tail restaged");
        assert!(!report.wal.torn_tail);
        let replayed = recovered
            .pin()
            .engine()
            .query(&group)
            .items(&items)
            .top(3)
            .run()
            .unwrap();
        assert_eq!(replayed, reference, "recovered epoch is bit-identical");
        // The recovered engine remembers the client key (idempotent
        // retry) and keeps appending to the same log.
        let retry = recovered
            .stage_keyed(Some(77), &[rating(1, 4, 4.0, 11)], &[])
            .unwrap();
        assert!(retry.duplicate);
        assert_eq!(recovered.staged(), 1, "duplicate staged nothing");
        recovered.publish().unwrap();
        assert_eq!(recovered.epoch(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_commit_restores_staging_and_reports_stalled() {
        use crate::fault::{FaultCtx, FaultPlan, IoFault};
        use crate::wal::{Wal, WalOptions};
        let (matrix, pop, items) = world();
        let dir = wal_dir("stall");
        // The commit fsync of the first publish fails; everything
        // after succeeds.
        let plan = Arc::new(FaultPlan::new(1).schedule(FaultCtx::WalSync, 0, IoFault::Fail));
        let options = WalOptions {
            fault: Some(plan),
            ..WalOptions::default()
        };
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items)
            .unwrap()
            .with_wal(Wal::create(&dir, options).unwrap());
        live.stage(&[rating(2, 1, 5.0, 10)]).unwrap();
        let err = live.publish().unwrap_err();
        assert!(matches!(err, QueryError::Wal { .. }), "{err:?}");
        // Nothing applied, nothing lost: the epoch is unchanged, the
        // batch is back in staging, and the engine reports degraded.
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.staged(), 1);
        assert!(live.health().wal_stalled);
        // The lock-free probe read paths use agrees with health().
        assert!(live.degraded_staleness().is_some());
        // Lineage accounting sees the open degraded window.
        assert_eq!(live.lineage_summary().degraded_windows, 1);
        // The retry commits and clears the stall.
        let report = live.publish().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.upserts, 1);
        assert!(!live.health().wal_stalled);
        assert_eq!(live.degraded_staleness(), None);
        // The window closed: its count survives and the publish both
        // landed in lineage (with a real WAL commit timing).
        let summary = live.lineage_summary();
        assert_eq!(summary.degraded_windows, 1);
        assert_eq!(summary.publishes, 1);
        let recent = live.lineage_recent(10);
        assert_eq!(recent.len(), 1);
        assert!(recent[0].wal_ns > 0, "WAL commit takes nonzero time");
        assert_eq!(
            live.pin().matrix().get(UserId(2), ItemId(1)),
            Some(5.0),
            "the restored batch published intact"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ratings_for_unknown_users_and_items_are_absorbed() {
        let (matrix, pop, items) = world();
        let live = LiveEngine::new(&pop, LiveModel::Raw, &matrix, &items).unwrap();
        // User 9 is outside the population universe; item 9 outside the
        // substrate's universe. Both land in the matrix (future-proof)
        // without disturbing any published segment.
        let r = live.ingest(&[rating(9, 9, 5.0, 10)]).unwrap();
        assert_eq!(r.epoch, 1);
        assert_eq!(r.rebuilt_segments, 0);
        assert_eq!(r.dirty_users, 1);
        let pin = live.pin();
        assert_eq!(pin.matrix().get(UserId(9), ItemId(9)), Some(5.0));
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        assert!(pin
            .engine()
            .query(&group)
            .items(&items)
            .top(2)
            .run()
            .is_ok());
    }

    #[test]
    fn epoch_provider_batched_paths_equal_per_item_apref() {
        let (matrix, _, _) = world();
        let orders: [Vec<ItemId>; 2] = [
            (0..7).map(ItemId).collect(),
            [4, 0, 2, 2, 6].into_iter().map(ItemId).collect(),
        ];
        for model in [LiveModel::Raw, LiveModel::UserCf(CfConfig::default())] {
            let provider = EpochProvider {
                matrix: Arc::new(matrix.clone()),
                model,
            };
            for u in matrix.users() {
                for items in &orders {
                    let want: Vec<u64> = items
                        .iter()
                        .map(|&i| provider.apref(u, i).to_bits())
                        .collect();
                    let mut out = vec![f64::NAN; items.len()];
                    provider.fill_aprefs(u, items, &mut out);
                    let got: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(got, want, "{model:?} {u} {items:?}");
                    let list = provider.preference_list(u, items).unwrap();
                    let entries: Vec<(ItemId, f64)> =
                        items.iter().map(|&i| (i, provider.apref(u, i))).collect();
                    assert_eq!(
                        list,
                        greca_cf::PreferenceList::from_entries(u, entries).unwrap()
                    );
                }
            }
        }
    }
}
