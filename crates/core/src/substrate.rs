//! The shared, immutable query substrate: per-user sorted preference
//! segments behind `Arc`, sliced into per-query views.
//!
//! §2.4's ad-hoc-group scenario assumes the CF model and the affinity
//! index are *long-lived* while groups arrive at query time — yet a cold
//! `prepare()` pays one provider pass and one sort per member per query
//! to re-derive every member's preference list. The TA lineage this
//! paper builds on gets its speed precisely from reading **pre-sorted,
//! shared** inverted lists; this module is that storage layer. For
//! every serving user it holds the score-descending preference list
//! over the item universe, computed once from any [`PreferenceProvider`]
//! and stored as one columnar `(ids, scores)` segment per user, each
//! behind its own `Arc`.
//! A query whose itemset *is* the universe borrows its members'
//! segments as [`ListView`]s — no sorts, no provider calls. A
//! strict-subset itemset is filtered in one order-preserving pass
//! (still no sort, no provider calls).
//!
//! The substrate stores no affinity. §4.1.2's per-group affinity lists
//! hold at most `n−1` pairs each, and static values are renormalized per
//! group, so every preparation sorts them from the group's
//! `GroupAffinity` view — the path the cold engine and
//! [`MaterializedInputs`](crate::lists::MaterializedInputs) take too.
//! [`Substrate::build_with`] only checks the population's affinity
//! values for finiteness.
//!
//! # Scale-tier storage
//!
//! Three mechanisms let one substrate span user populations far beyond
//! the paper's 77-user study world:
//!
//! * **Sharded construction** — eager segments are built by
//!   `std::thread`s over contiguous user shards
//!   ([`BuildOptions::threads`]) and merged in user order, so the
//!   result is bit-identical to a sequential build regardless of
//!   thread count. Each shard reuses one scratch buffer and exploits the
//!   provider contract (`apref ≥ 0`): only positive-score entries are
//!   sorted, the zero tail is emitted in id order without comparisons —
//!   the order a full sort would produce anyway.
//! * **Quantized scores** — a resident segment stores `u16` codes plus
//!   a per-list dictionary of the original `f64` bit patterns whenever
//!   that is smaller than one `f64` per item, so dequantized views are
//!   **bit-identical** to the scores the provider produced. The choice
//!   is made per column from its data: a column with more than
//!   [`QUANT_LEVELS`] distinct values, or too few entries per distinct
//!   value for the codes to pay for the dictionary, stays dense.
//! * **Lazy slots** — users listed as *lazy* in
//!   [`Substrate::build_with`] get no segment at build time; each access
//!   derives their column from the provider. A 1M-user universe is
//!   therefore addressable without materializing 1M preference lists up
//!   front.
//!
//! All three compose: queries go through [`Substrate::segment_handle`],
//! which yields a [`SegmentHandle`] owning whatever its views borrow — the
//! shared segment, plus the dequantized or derived column it made. The
//! substrate keeps no cache of those columns: the caller's
//! [`SharedMemberState`](crate::plan::SharedMemberState) (one per batch
//! wave, or per live epoch) is the one place a handle is reused.
//!
//! Every preference column a query reads is a [`SegmentHandle`], and one
//! builder derives every column from a provider: eager and rebuilt
//! segments, lazy slots, and the cold columns of itemsets the substrate
//! does not serve (see [`SegmentHandle`]).
//!
//! Each substrate value is immutable and shared via `Arc<Substrate>`:
//! [`crate::plan::run_batch`] worker threads, cached
//! [`PreparedQuery`](crate::query::PreparedQuery)s and the engine all
//! alias the same buffers.
//!
//! Evolving *ratings* are handled by versioning, not mutation: the
//! `Arc`-per-segment split makes [`Substrate::rebuild_dirty`] cheap — a
//! delta batch's invalidated users get fresh segments, every clean
//! segment (and the universe layout) is aliased — and the live layer
//! ([`crate::live::LiveEngine`]) publishes each rebuilt substrate as a
//! new *epoch* that in-flight queries, pinned to the previous epoch's
//! `Arc`s, never observe mid-read.

use crate::lists::{ListKind, ListView, NonFiniteEntry};
use crate::query::QueryError;
use greca_affinity::PopulationAffinity;
use greca_cf::{NonFiniteScore, PreferenceProvider};
use greca_dataset::{Group, ItemId, UserId};
use std::sync::Arc;

/// Number of representable quantization levels (`u16` codes).
pub const QUANT_LEVELS: usize = 1 << 16;

/// Construction options for [`Substrate::build_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildOptions {
    /// Worker threads for eager segment construction; `0` means
    /// `std::thread::available_parallelism()`. The result is
    /// bit-identical for every thread count.
    pub threads: usize,
}

impl BuildOptions {
    /// The thread count `threads == 0` resolves to on this host.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The worker count a build over `users` eager users actually runs
    /// with: [`BuildOptions::resolved_threads`] clamped to the user
    /// count (every shard needs at least one user). This is the figure
    /// benchmarks should report next to a sharded-build timing —
    /// `resolved_threads()` alone over-reports on small worlds.
    pub fn workers_for(&self, users: usize) -> usize {
        self.resolved_threads().clamp(1, users.max(1))
    }
}

/// Resident data bytes of one substrate, reported per storage layer —
/// see [`Substrate::memory_footprint`].
///
/// Counts element bytes (`len × size_of`) of every backing array;
/// allocator slack, `Arc` headers and the struct shells themselves are
/// excluded, so the figures are the *data* a capacity planner should
/// budget for, stable across allocators. Segments structurally shared
/// with another epoch are counted here in full (each substrate reports
/// what it keeps alive on its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// The universe layout: user and item id maps (users, dense user
    /// positions, items, dense item positions).
    pub universe_bytes: usize,
    /// Per-user **resident** preference segments: `ids (u32)` plus
    /// either `scores (f64)` or `codes (u16) + score dictionary` — the
    /// stored form. Lazy slots contribute nothing.
    pub pref_bytes: usize,
}

impl MemoryFootprint {
    /// Sum over all layers.
    pub fn total(&self) -> usize {
        self.universe_bytes + self.pref_bytes
    }
}

/// How a query's itemset relates to the substrate's item universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemCoverage {
    /// The itemset is exactly the universe: preference views are
    /// slices of the shared buffers.
    Full,
    /// A strict subset (mask indexed by the substrate's *dense* item
    /// position, not raw item id): preference lists are produced by one
    /// order-preserving filter pass per member.
    Subset(Vec<bool>),
}

/// Sentinel for "item id not in the universe" in the dense-index map.
const NOT_AN_ITEM: u32 = u32::MAX;

/// Score column of one segment: dense floats, or `u16` codes into an
/// exact dictionary of the column's distinct values (by bit pattern, in
/// list order), so dequantization reproduces the original `f64` bits.
#[derive(Debug)]
enum ScoreStore {
    Dense(Vec<f64>),
    Quantized { codes: Vec<u16>, dict: Vec<f64> },
}

impl ScoreStore {
    fn data_bytes(&self) -> usize {
        match self {
            ScoreStore::Dense(s) => std::mem::size_of_val(s.as_slice()),
            ScoreStore::Quantized { codes, dict } => {
                std::mem::size_of_val(codes.as_slice()) + std::mem::size_of_val(dict.as_slice())
            }
        }
    }
}

/// Store a score-descending column in its smaller exact form: `u16`
/// codes + a dictionary of distinct values, or the dense floats.
/// Distinct values are runs of equal *bit patterns* (`±0.0` are distinct
/// runs, so dequantization preserves the sign of zero). The coded form costs
/// 2 B per entry + 8 B per distinct value against 8 B per entry, so a
/// column is quantized iff it has at most [`QUANT_LEVELS`] distinct
/// values and `4 · distinct < 3 · len`; otherwise it stays dense.
fn quantize(scores: Vec<f64>) -> ScoreStore {
    let changes = scores
        .windows(2)
        .filter(|w| w[0].to_bits() != w[1].to_bits())
        .count();
    let distinct = changes + usize::from(!scores.is_empty());
    if distinct > QUANT_LEVELS || 4 * distinct >= 3 * scores.len() {
        return ScoreStore::Dense(scores);
    }
    // Branch-free coding (the column is non-empty here): the code
    // advances at every bit change.
    let mut dict = vec![0.0; distinct];
    let mut codes = Vec::with_capacity(scores.len());
    let (mut k, mut prev) = (0usize, scores[0].to_bits());
    for &s in &scores {
        k += usize::from(s.to_bits() != prev);
        prev = s.to_bits();
        dict[k] = s;
        codes.push(k as u16);
    }
    ScoreStore::Quantized { codes, dict }
}

/// One user's precomputed preference columns: the score-descending
/// `(ids, scores)` list over the substrate's item universe.
///
/// Segments are the unit of structural sharing for
/// [`Substrate::rebuild_dirty`]: each lives behind its own `Arc`, so an
/// incremental rebuild re-sorts only invalidated users and *aliases*
/// every clean segment (a pointer copy, not a column copy).
#[derive(Debug)]
struct PrefSegment {
    /// Item ids, sorted by score descending (ties by item id).
    ids: Vec<u32>,
    /// Scores aligned with `ids` (dense or quantized).
    store: ScoreStore,
}

impl PrefSegment {
    /// A resident segment over sorted `(ids, scores)` columns, its
    /// scores stored by [`quantize`].
    fn resident((ids, scores): (Vec<u32>, Vec<f64>)) -> Arc<Self> {
        Arc::new(PrefSegment {
            ids,
            store: quantize(scores),
        })
    }

    fn data_bytes(&self) -> usize {
        std::mem::size_of_val(self.ids.as_slice()) + self.store.data_bytes()
    }
}

/// One slot of the substrate's per-user segment table.
#[derive(Debug, Clone)]
enum SegmentSlot {
    /// Built at construction (or by [`Substrate::rebuild_dirty`]).
    Resident(Arc<PrefSegment>),
    /// Derived from the provider on every access.
    Lazy,
}

/// An owned reference to one user's preference columns — the one type
/// of every preference column a prepared query reads.
///
/// A handle aliases a resident dense segment, owns the dequantized
/// column of a coded one, or owns a column derived for it: a lazy slot's
/// or a cold itemset's (by the segment builder, bit-identical to sorting
/// `PreferenceProvider::preference_list`), a subset filter's, or a
/// hand-built list's. It keeps whatever [`SegmentHandle::view`]'s slices
/// borrow alive for its lifetime; clones share those buffers.
#[derive(Debug, Clone)]
pub struct SegmentHandle {
    seg: Arc<PrefSegment>,
    /// `Some` iff the segment is quantized: the dense `f64` buffer the
    /// views borrow from.
    dequant: Option<Arc<Vec<f64>>>,
    /// Whether `seg` was derived for this handle rather than aliased
    /// from the substrate.
    derived: bool,
}

impl SegmentHandle {
    /// `u`'s column over `items`, derived by the segment builder — the
    /// one routine behind a lazy slot and a cold itemset. The builder
    /// writes the zero tail in itemset order, which must be id order, so
    /// a non-ascending itemset is sorted first, keeping duplicates.
    pub(crate) fn derive(
        provider: &(dyn PreferenceProvider + Sync + '_),
        u: UserId,
        items: &[ItemId],
    ) -> Result<SegmentHandle, QueryError> {
        let mut scratch = SegmentScratch::default();
        let columns = if strictly_ascending(items) {
            build_one_segment(provider, u, items, true, &mut scratch)?
        } else {
            let mut sorted = items.to_vec();
            sorted.sort_unstable();
            let sparse = strictly_ascending(&sorted);
            build_one_segment(provider, u, &sorted, sparse, &mut scratch)?
        };
        Ok(SegmentHandle::derived(columns))
    }

    /// A handle owning score-descending (ties by id) columns that no
    /// substrate stores. They are kept dense: coded, the handle would
    /// hold the codes *and* their dequantized copy.
    pub(crate) fn derived((ids, scores): (Vec<u32>, Vec<f64>)) -> SegmentHandle {
        SegmentHandle {
            seg: Arc::new(PrefSegment {
                ids,
                store: ScoreStore::Dense(scores),
            }),
            dequant: None,
            derived: true,
        }
    }

    /// Item ids, score-descending (ties by id).
    pub fn ids(&self) -> &[u32] {
        &self.seg.ids
    }

    /// Scores aligned with [`SegmentHandle::ids`].
    pub fn scores(&self) -> &[f64] {
        match (&self.dequant, &self.seg.store) {
            (Some(d), _) => d,
            (None, ScoreStore::Dense(s)) => s,
            (None, ScoreStore::Quantized { .. }) => {
                unreachable!("quantized handles always carry a dequant buffer")
            }
        }
    }

    /// The columns as a preference [`ListView`] labeled as group member
    /// `member`.
    pub fn view(&self, member: u32) -> ListView<'_> {
        ListView::new(ListKind::Preference { member }, self.ids(), self.scores())
    }

    /// Bytes this handle holds beyond the substrate's stored segments:
    /// the dequantized score column, or the whole derived column (0 for
    /// a dense resident segment).
    pub fn owned_bytes(&self) -> usize {
        let dequant = self
            .dequant
            .as_ref()
            .map_or(0, |d| std::mem::size_of_val(d.as_slice()));
        dequant
            + if self.derived {
                self.seg.data_bytes()
            } else {
                0
            }
    }
}

/// The id-space layout of a substrate: which users own segments, what
/// the item universe is, and the dense maps over both. Immutable across
/// incremental rebuilds (the universe is fixed at engine construction),
/// hence shared behind one `Arc`.
#[derive(Debug)]
struct UniverseLayout {
    /// Users with (resident or lazy) preference segments (sorted by id).
    users: Vec<UserId>,
    /// `users` position by user id.
    user_pos: Vec<Option<u32>>,
    /// The item universe (sorted, deduplicated).
    items: Vec<ItemId>,
    /// Dense position in `items` by item id ([`NOT_AN_ITEM`] if absent),
    /// so per-query coverage masks are `O(m)`, not `O(max item id)`.
    item_dense: Vec<u32>,
    /// Entries per preference segment (= `items.len()`).
    m: usize,
}

/// Precomputed sorted-list storage for one `(provider, item universe)`
/// pair. See the module docs.
///
/// Storage is split into `Arc`-shared pieces along invalidation
/// boundaries — per-user preference segments and the fixed universe
/// layout — so that [`Substrate::rebuild_dirty`] can publish a new
/// epoch's substrate by recomputing only what a delta batch
/// invalidated. Cloning a `Substrate` is always cheap (pointer copies).
#[derive(Debug, Clone)]
pub struct Substrate {
    layout: Arc<UniverseLayout>,
    /// One slot per `layout.users` entry.
    segments: Vec<SegmentSlot>,
}

impl Substrate {
    /// Precompute the substrate for every user of the population
    /// universe over `items`.
    ///
    /// Cost: one preference-column derivation per universe user (the
    /// work a cold query pays per *member*, paid once per engine
    /// instead), plus one linear finiteness scan of the population's
    /// affinity values. Rejects non-finite preference or affinity values
    /// with [`QueryError::NonFiniteScore`] — the same ingestion contract
    /// the cold path enforces per query.
    pub fn build(
        provider: &(dyn PreferenceProvider + Sync + '_),
        population: &PopulationAffinity,
        items: &[ItemId],
    ) -> Result<Self, QueryError> {
        Self::build_for(provider, population, items, population.universe())
    }

    /// Precompute preference segments only for `users` (filtered to the
    /// population universe) — the right call when only a known user
    /// cohort forms groups. Queries touching other users fall back to
    /// cold materialization.
    pub fn build_for(
        provider: &(dyn PreferenceProvider + Sync + '_),
        population: &PopulationAffinity,
        items: &[ItemId],
        users: &[UserId],
    ) -> Result<Self, QueryError> {
        let users: Vec<UserId> = users
            .iter()
            .copied()
            .filter(|&u| population.contains_user(u))
            .collect();
        Self::build_with(
            provider,
            population,
            items,
            &users,
            &[],
            BuildOptions::default(),
        )
    }

    /// Precompute the substrate with explicit residency and build
    /// options — the scale-tier entry point.
    ///
    /// `eager_users` get resident segments built now (sharded over
    /// [`BuildOptions::threads`] workers, bit-identical to a sequential
    /// build); `lazy_users` get lazy slots whose columns are derived from
    /// the provider on each [`Substrate::segment_handle`] call. Unlike
    /// [`Substrate::build_for`], users need **not** belong to the
    /// population universe: a scale-tier world serves preference
    /// columns for its whole user population while only a bounded
    /// cohort (the population universe, whose pair space is quadratic)
    /// forms groups. A user listed in both sets is built eagerly.
    /// `population` is only scanned for non-finite affinity values;
    /// nothing of it is stored.
    pub fn build_with(
        provider: &(dyn PreferenceProvider + Sync + '_),
        population: &PopulationAffinity,
        items: &[ItemId],
        eager_users: &[UserId],
        lazy_users: &[UserId],
        opts: BuildOptions,
    ) -> Result<Self, QueryError> {
        reject_non_finite_affinity(population)?;
        let mut users: Vec<UserId> = eager_users
            .iter()
            .chain(lazy_users.iter())
            .copied()
            .collect();
        users.sort_unstable();
        users.dedup();
        let mut items: Vec<ItemId> = items.to_vec();
        items.sort_unstable();
        items.dedup();
        let m = items.len();

        let max_user = users.last().map_or(0, |u| u.idx());
        let mut user_pos = vec![None; max_user + 1];
        for (pos, &u) in users.iter().enumerate() {
            user_pos[u.idx()] = Some(pos as u32);
        }
        let max_item = items.last().map_or(0, |i| i.0 as usize);
        let mut item_dense = vec![NOT_AN_ITEM; max_item + 1];
        for (dense, &i) in items.iter().enumerate() {
            item_dense[i.0 as usize] = dense as u32;
        }

        // Which layout slots are eager (eager wins when listed twice).
        let mut eager = vec![false; users.len()];
        for &u in eager_users {
            if let Some(pos) = user_pos.get(u.idx()).copied().flatten() {
                eager[pos as usize] = true;
            }
        }
        let eager_list: Vec<UserId> = users
            .iter()
            .zip(&eager)
            .filter_map(|(&u, &e)| e.then_some(u))
            .collect();
        let built = build_segments_sharded(
            provider,
            &items,
            &eager_list,
            opts.workers_for(eager_list.len()),
        )?;
        let mut built = built.into_iter();
        let segments: Vec<SegmentSlot> = eager
            .iter()
            .map(|&e| {
                if e {
                    SegmentSlot::Resident(built.next().expect("one segment per eager user"))
                } else {
                    SegmentSlot::Lazy
                }
            })
            .collect();

        Ok(Substrate {
            layout: Arc::new(UniverseLayout {
                users,
                user_pos,
                items,
                item_dense,
                m,
            }),
            segments,
        })
    }

    /// A new substrate with only `dirty_users`' preference segments
    /// recomputed from `provider`, structurally sharing everything else
    /// with `self`: clean segments alias the same `Arc`s (pointer
    /// copies), as does the universe layout.
    ///
    /// This is the incremental-epoch step of the live-ingestion path:
    /// cost is `O(|dirty ∩ users| · m log m)` provider calls and sorts
    /// plus `O(|users|)` pointer copies, versus the full
    /// [`Substrate::build`]'s `O(|universe| · m log m)`. Dirty users
    /// without a segment here (outside the precomputed cohort) are
    /// skipped — their queries fall back to cold materialization either
    /// way. Dirty users with a *lazy* slot need no rebuild: every access
    /// derives their column from the provider the reader passes, so the
    /// new epoch's readers see the post-batch column. The caller
    /// supplies the dirty set (see `greca-cf`'s `DeltaBatch::dirty_set`)
    /// and a provider already fitted on the *post-batch* ratings.
    ///
    /// The result is a distinct value: in-flight queries keep reading
    /// the old epoch's segments untouched (they hold their own `Arc`s),
    /// which is what makes the epoch swap safe without locks on the
    /// read path.
    pub fn rebuild_dirty(
        &self,
        provider: &(dyn PreferenceProvider + Sync + '_),
        dirty_users: &[UserId],
    ) -> Result<Self, QueryError> {
        let mut segments = self.segments.clone();
        let mut scratch = SegmentScratch::default();
        for &u in dirty_users {
            if let Some(idx) = self.user_index(u) {
                if matches!(self.segments[idx], SegmentSlot::Resident(_)) {
                    segments[idx] = SegmentSlot::Resident(PrefSegment::resident(
                        build_one_segment(provider, u, &self.layout.items, true, &mut scratch)?,
                    ));
                }
            }
        }
        Ok(Substrate {
            layout: Arc::clone(&self.layout),
            segments,
        })
    }

    /// Whether `u`'s preference segment is the *same allocation* in both
    /// substrates (structural sharing across an incremental rebuild).
    /// `false` when either side lacks a resident segment for `u`.
    pub fn shares_segment_with(&self, other: &Substrate, u: UserId) -> bool {
        match (self.user_index(u), other.user_index(u)) {
            (Some(a), Some(b)) => match (&self.segments[a], &other.segments[b]) {
                (SegmentSlot::Resident(x), SegmentSlot::Resident(y)) => Arc::ptr_eq(x, y),
                _ => false,
            },
            _ => false,
        }
    }

    /// Users with (resident or lazy) preference segments.
    pub fn users(&self) -> &[UserId] {
        &self.layout.users
    }

    /// The item universe (sorted, deduplicated).
    pub fn items(&self) -> &[ItemId] {
        &self.layout.items
    }

    /// Number of items per preference segment.
    pub fn num_items(&self) -> usize {
        self.layout.m
    }

    /// Resident size of the preference buffers, in bytes (counts each
    /// shared segment once per substrate that references it; lazy slots
    /// count nothing).
    pub fn pref_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                SegmentSlot::Resident(seg) => seg.data_bytes(),
                SegmentSlot::Lazy => 0,
            })
            .sum()
    }

    /// Resident data bytes per storage layer — the capacity-planning
    /// view of this substrate (see [`MemoryFootprint`] for the counting
    /// rules). Surfaced by `engine_baseline`'s and `world_scale`'s JSON
    /// artifacts and the serving layer's `stats` verb.
    ///
    /// Layer by layer:
    ///
    /// * `universe_bytes` — the id maps of the universe layout (user
    ///   list, user-position map, item list, dense item map). Fixed at
    ///   build time; shared across every epoch of a live engine.
    /// * `pref_bytes` — the **resident** preference segments in their
    ///   stored representation: `u32` id + `f64` score columns for a
    ///   dense segment (12 B/item), `u32` id + `u16` code columns plus
    ///   the per-list score dictionary for a quantized one (6 B/item +
    ///   table, always less than 12 B/item). Lazy slots contribute 0.
    ///
    /// Columns a [`SegmentHandle`] dequantizes or derives belong to the
    /// handle, not the substrate (see [`SegmentHandle::owned_bytes`]).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let layout = &self.layout;
        let universe_bytes = layout.users.len() * size_of::<UserId>()
            + layout.user_pos.len() * size_of::<Option<u32>>()
            + layout.items.len() * size_of::<ItemId>()
            + layout.item_dense.len() * size_of::<u32>();
        MemoryFootprint {
            universe_bytes,
            pref_bytes: self.pref_bytes(),
        }
    }

    /// Position of `u` among the substrate's users, if covered
    /// (resident or lazy).
    pub fn user_index(&self, u: UserId) -> Option<usize> {
        self.layout
            .user_pos
            .get(u.idx())
            .copied()
            .flatten()
            .map(|p| p as usize)
    }

    /// Whether every member of `group` has a (resident or lazy)
    /// preference segment.
    pub fn covers_group(&self, group: &Group) -> bool {
        group
            .members()
            .iter()
            .all(|&u| self.user_index(u).is_some())
    }

    /// How `items` relates to the universe, or `None` when the substrate
    /// cannot serve it (an item outside the universe, or a duplicate —
    /// the cold path handles those verbatim). `O(m)` per call: the mask
    /// is over dense item positions, not raw item ids.
    pub fn item_coverage(&self, items: &[ItemId]) -> Option<ItemCoverage> {
        let mut mask = vec![false; self.layout.m];
        for &i in items {
            let dense = self.dense_of(i)?;
            if mask[dense] {
                return None;
            }
            mask[dense] = true;
        }
        if items.len() == self.layout.m {
            Some(ItemCoverage::Full)
        } else {
            Some(ItemCoverage::Subset(mask))
        }
    }

    /// Dense position of an item in the universe.
    #[inline]
    fn dense_of(&self, i: ItemId) -> Option<usize> {
        match self.layout.item_dense.get(i.0 as usize).copied() {
            Some(d) if d != NOT_AN_ITEM => Some(d as usize),
            _ => None,
        }
    }

    /// An owned handle to the user's preference columns: a resident
    /// dense segment is handed out directly (zero copies), a resident
    /// quantized segment is dequantized into the handle, and a lazy
    /// slot's column is derived from `provider` into the handle. Nothing
    /// is cached here; callers that read a user more than once reuse the
    /// handle (see [`SharedMemberState`](crate::plan::SharedMemberState)).
    pub fn segment_handle(
        &self,
        provider: &(dyn PreferenceProvider + Sync + '_),
        user_idx: usize,
    ) -> Result<SegmentHandle, QueryError> {
        match &self.segments[user_idx] {
            SegmentSlot::Resident(seg) => Ok(SegmentHandle {
                seg: Arc::clone(seg),
                dequant: match &seg.store {
                    ScoreStore::Dense(_) => None,
                    ScoreStore::Quantized { codes, dict } => {
                        Some(Arc::new(codes.iter().map(|&c| dict[c as usize]).collect()))
                    }
                },
                derived: false,
            }),
            SegmentSlot::Lazy => {
                SegmentHandle::derive(provider, self.layout.users[user_idx], &self.layout.items)
            }
        }
    }

    /// The handle's columns filtered to a subset itemset (`mask` by
    /// dense item position, `len` items), preserving the sorted order —
    /// one linear pass, no sort, no provider calls. The result depends
    /// only on the segment and the mask, so one filtered handle serves
    /// every group the user is in.
    pub(crate) fn filtered_handle(
        &self,
        handle: &SegmentHandle,
        mask: &[bool],
        len: usize,
    ) -> SegmentHandle {
        let mut ids = Vec::with_capacity(len);
        let mut scores = Vec::with_capacity(len);
        for (&id, &score) in handle.ids().iter().zip(handle.scores()) {
            // Segment ids always belong to the universe; the dense
            // lookup cannot miss.
            if mask[self.layout.item_dense[id as usize] as usize] {
                ids.push(id);
                scores.push(score);
            }
        }
        SegmentHandle::derived((ids, scores))
    }
}

/// Reject a non-finite normalized affinity value of the population —
/// static, then each period — with one linear pass per column. This is
/// the build-time counterpart of the per-query `SortedList::new`
/// validation, so an engine over a broken index fails at construction
/// rather than at its first query (debug builds catch this earlier via
/// the affinity sources' `debug_assert`s; this is the release-build
/// guarantee).
fn reject_non_finite_affinity(population: &PopulationAffinity) -> Result<(), QueryError> {
    let check = |kind: ListKind, value_of: &dyn Fn(usize) -> f64| {
        (0..population.num_pairs()).try_for_each(|pair| {
            let value = value_of(pair);
            if value.is_finite() {
                Ok(())
            } else {
                Err(QueryError::from(NonFiniteEntry {
                    kind,
                    id: pair as u32,
                    value,
                }))
            }
        })
    };
    check(ListKind::StaticAffinity, &|pair| {
        population.static_norm(pair)
    })?;
    for (p, period) in population.periods().iter().enumerate() {
        check(ListKind::PeriodicAffinity { period: p as u32 }, &|pair| {
            period.normalized(pair)
        })?;
    }
    Ok(())
}

/// Reusable per-worker scratch for segment construction: one provider
/// score per dense item position (sized by the first dense build), the
/// index buffer the sort runs over and the sparse head — no per-user
/// allocations.
#[derive(Default)]
struct SegmentScratch {
    scores: Vec<f64>,
    idx: Vec<u32>,
    head: Vec<(u32, f64)>,
}

/// Whether `items` ascend strictly by id.
fn strictly_ascending(items: &[ItemId]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

/// Build one user's sorted columns: fill scores from the provider,
/// order entries by (score descending, item id ascending). `items` must
/// ascend by id; `sparse` (the provider's sparse path) only when they
/// ascend strictly, as [`PreferenceProvider::sparse_aprefs`] requires.
///
/// Ordering is bit-identical to
/// `provider.preference_list(u, items)?.into_sorted_columns()` at a
/// fraction of the cost: since the provider contract demands
/// `apref ≥ 0`, only positive entries need comparisons; the `±0.0` tail
/// is emitted in id order (exactly where a full sort would put it, in
/// the order its ties resolve). A contract-violating negative score
/// falls back to the full sort so the equivalence holds for *any*
/// finite input.
fn build_one_segment(
    provider: &(dyn PreferenceProvider + Sync + '_),
    u: UserId,
    items: &[ItemId],
    sparse: bool,
    scratch: &mut SegmentScratch,
) -> Result<(Vec<u32>, Vec<f64>), QueryError> {
    let m = items.len();
    // Sparse fast path: a provider that can enumerate its nonzero
    // entries lets us skip the dense column entirely — no `O(m)` zero
    // fill, no `O(m)` validation scan, no `O(m)` index buffer. Only a
    // head of `r ≪ m` entries is touched; the tail is synthesized in id
    // order. A `-0.0` or negative entry (which the sparse tail cannot
    // represent bit-exactly) falls back to the dense path below.
    scratch.head.clear();
    if sparse && provider.sparse_aprefs(u, items, &mut scratch.head) {
        let mut dense_fallback = false;
        for &(d, s) in &scratch.head {
            if !s.is_finite() {
                return Err(QueryError::from(NonFiniteScore {
                    user: u,
                    item: items[d as usize],
                    value: s,
                }));
            }
            dense_fallback |= !(s > 0.0 || s.to_bits() == 0);
        }
        if !dense_fallback {
            return Ok(build_from_sparse_head(items, scratch));
        }
    }
    // One batched (virtual) provider call per user, then validate the
    // filled column — sparse providers fill it in `O(r + m)`.
    scratch.scores.resize(m, 0.0);
    provider.fill_aprefs(u, items, &mut scratch.scores);
    let mut any_negative = false;
    for (d, &s) in scratch.scores.iter().enumerate() {
        if !s.is_finite() {
            return Err(QueryError::from(NonFiniteScore {
                user: u,
                item: items[d],
                value: s,
            }));
        }
        any_negative |= s < 0.0;
    }
    let scores = &scratch.scores;
    scratch.idx.clear();
    if any_negative {
        scratch.idx.extend(0..m as u32);
        scratch.idx.sort_unstable_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .expect("validated finite above")
                .then_with(|| a.cmp(&b))
        });
    } else {
        // Positive head, sorted; ±0.0 tail in id order (items are id-
        // ascending, so dense order *is* id order).
        scratch
            .idx
            .extend((0..m as u32).filter(|&d| scores[d as usize] > 0.0));
        scratch.idx.sort_unstable_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .expect("validated finite above")
                .then_with(|| a.cmp(&b))
        });
        scratch
            .idx
            .extend((0..m as u32).filter(|&d| scores[d as usize] <= 0.0));
    }
    let ids: Vec<u32> = scratch.idx.iter().map(|&d| items[d as usize].0).collect();
    let ordered: Vec<f64> = scratch.idx.iter().map(|&d| scores[d as usize]).collect();
    Ok((ids, ordered))
}

/// Assemble a segment from a validated sparse head (`scratch.head`,
/// ascending dense index, all entries `> 0.0` or exactly `+0.0`):
/// strictly positive entries sort by (score descending, id ascending);
/// every other position — explicit `+0.0` entries and the implicit
/// unrated remainder alike — is the tail, emitted in id order. This is
/// bit-identical to the dense path over the equivalent column: the head
/// uses the same comparator, and the tail positions are exactly those
/// the dense path's `!(s > 0.0)` filter would keep, in the same order.
fn build_from_sparse_head(items: &[ItemId], scratch: &mut SegmentScratch) -> (Vec<u32>, Vec<f64>) {
    let m = items.len();
    scratch.head.retain(|&(_, s)| s > 0.0);
    // Ascending head indices double as the tail's skip list; save them
    // before the score sort destroys the order.
    scratch.idx.clear();
    scratch.idx.extend(scratch.head.iter().map(|&(d, _)| d));
    scratch.head.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("validated finite by caller")
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut ids: Vec<u32> = Vec::with_capacity(m);
    ids.extend(scratch.head.iter().map(|&(d, _)| items[d as usize].0));
    let mut skip = scratch.idx.iter().copied().peekable();
    for d in 0..m as u32 {
        if skip.peek() == Some(&d) {
            skip.next();
            continue;
        }
        ids.push(items[d as usize].0);
    }
    let mut ordered: Vec<f64> = Vec::with_capacity(m);
    ordered.extend(scratch.head.iter().map(|&(_, s)| s));
    ordered.resize(m, 0.0);
    (ids, ordered)
}

/// Build resident segments for `users` over `threads` contiguous user
/// shards, merged back in user order — bit-identical to a sequential
/// build (each segment depends only on its user and the provider).
fn build_segments_sharded(
    provider: &(dyn PreferenceProvider + Sync + '_),
    items: &[ItemId],
    users: &[UserId],
    threads: usize,
) -> Result<Vec<Arc<PrefSegment>>, QueryError> {
    let threads = threads.max(1).min(users.len().max(1));
    if threads == 1 {
        let mut scratch = SegmentScratch::default();
        return users
            .iter()
            .map(|&u| {
                build_one_segment(provider, u, items, true, &mut scratch).map(PrefSegment::resident)
            })
            .collect();
    }
    let chunk = users.len().div_ceil(threads);
    let shards: Vec<&[UserId]> = users.chunks(chunk).collect();
    let results: Vec<Result<Vec<Arc<PrefSegment>>, QueryError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                scope.spawn(move || {
                    let mut scratch = SegmentScratch::default();
                    shard
                        .iter()
                        .map(|&u| {
                            build_one_segment(provider, u, items, true, &mut scratch)
                                .map(PrefSegment::resident)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("segment shard worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(users.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::SortedList;
    use greca_affinity::TableAffinitySource;
    use greca_cf::RawRatings;
    use greca_dataset::{Granularity, RatingMatrixBuilder, Timeline};

    fn world() -> (greca_dataset::RatingMatrix, PopulationAffinity, Timeline) {
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(0), ItemId(2), 3.0, 0)
            .rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(2), ItemId(3), 2.0, 0)
            .rate(UserId(2), ItemId(0), 1.0, 0);
        let matrix = b.build();
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 1.0)
            .set_static(UserId(0), UserId(2), 0.2)
            .set_static(UserId(1), UserId(2), 0.7);
        let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
        let (p1, p2) = (tl.periods()[0], tl.periods()[1]);
        src.set_periodic(UserId(0), UserId(1), p1.start, 0.8)
            .set_periodic(UserId(1), UserId(2), p1.start, 0.9)
            .set_periodic(UserId(0), UserId(1), p2.start, 0.7);
        let users = vec![UserId(0), UserId(1), UserId(2)];
        let pop = PopulationAffinity::build(&src, &users, &tl);
        (matrix, pop, tl)
    }

    /// Bit patterns of a score column.
    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn segments_are_sorted() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build(&raw, &pop, &items).unwrap();
        assert_eq!(sub.users(), &[UserId(0), UserId(1), UserId(2)]);
        assert_eq!(sub.num_items(), 4);
        for u in 0..3 {
            let h = sub.segment_handle(&raw, u).unwrap();
            let v = h.view(u as u32);
            assert_eq!(v.len(), 4);
            for w in v.scores.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
        // User 0: rated items 0 (5.0) and 2 (3.0); 1, 3 unrated → 0.0,
        // tie-broken by id.
        let h0 = sub.segment_handle(&raw, 0).unwrap();
        assert_eq!(h0.ids(), &[0, 2, 1, 3]);
        assert_eq!(h0.scores(), &[5.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn sharded_build_matches_sequential_and_legacy() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let users: Vec<UserId> = pop.universe().to_vec();
        let build = |threads| {
            Substrate::build_with(&raw, &pop, &items, &users, &[], BuildOptions { threads })
                .unwrap()
        };
        let (seq, par) = (build(1), build(3));
        for u in 0..3 {
            // Bit-identical across thread counts and vs. the legacy
            // per-user preference_list path.
            let legacy = raw
                .preference_list(UserId(u as u32), &items)
                .unwrap()
                .into_sorted_columns();
            let (hs, hp) = (
                seq.segment_handle(&raw, u).unwrap(),
                par.segment_handle(&raw, u).unwrap(),
            );
            assert_eq!(hs.ids(), hp.ids());
            assert_eq!(bits(hs.scores()), bits(hp.scores()));
            assert_eq!(hs.ids(), &legacy.0[..]);
            assert_eq!(bits(hs.scores()), bits(&legacy.1));
        }
    }

    /// Scores `(i + 1) / 1000` for every user: one distinct value per
    /// item, the worst case for a coded column.
    struct DistinctScores;

    impl PreferenceProvider for DistinctScores {
        fn apref(&self, _: UserId, i: ItemId) -> f64 {
            f64::from(i.0 + 1) * 0.001
        }
    }

    /// Build eager segments for `users` over `items` and check every one
    /// against `SortedList::new` over the provider's scores, bit for
    /// bit; resident storage never exceeds the dense 12 B per entry.
    fn assert_segments_match_sorted_lists(
        provider: &(dyn PreferenceProvider + Sync),
        items: &[ItemId],
        users: &[UserId],
    ) -> Substrate {
        let (_, pop, _tl) = world();
        let sub = Substrate::build_with(provider, &pop, items, users, &[], BuildOptions::default())
            .unwrap();
        for (idx, &u) in users.iter().enumerate() {
            let entries = items.iter().map(|&i| (i.0, provider.apref(u, i))).collect();
            let reference = SortedList::new(ListKind::Preference { member: 0 }, entries).unwrap();
            let reference = reference.as_view();
            let h = sub.segment_handle(provider, idx).unwrap();
            assert_eq!(h.ids(), reference.ids, "user {u:?}");
            assert_eq!(bits(h.scores()), bits(reference.scores), "user {u:?}");
        }
        assert!(sub.pref_bytes() <= 12 * users.len() * items.len());
        sub
    }

    #[test]
    fn every_segment_dequantizes_to_the_sorted_provider_list() {
        // Raw stars: a handful of distinct values per 40-entry column,
        // so every column is stored coded and smaller than dense.
        let mut b = RatingMatrixBuilder::new(6, 40);
        for u in 0..6u32 {
            for i in (u % 3..40).step_by(3) {
                b.rate(UserId(u), ItemId(i), (1 + (u + i) % 5) as f32, 0);
            }
        }
        let stars = b.build();
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let items: Vec<ItemId> = stars.items().collect();
        let sub = assert_segments_match_sorted_lists(&RawRatings(&stars), &items, &users);
        assert!(sub.pref_bytes() < 12 * users.len() * items.len());
        // A handle over a coded column owns its dequantized copy.
        let h = sub.segment_handle(&RawRatings(&stars), 0).unwrap();
        assert_eq!(h.owned_bytes(), 8 * items.len());

        // User-CF predictions over the same matrix.
        let cf = greca_cf::UserCfModel::fit(&stars, greca_cf::CfConfig::default());
        assert_segments_match_sorted_lists(&cf, &items, &users);

        // More distinct values than `u16` codes, and four all-distinct
        // entries whose dictionary would outweigh the codes: both stay
        // dense, at exactly 12 B per entry.
        for m in [QUANT_LEVELS as u32 + 10, 4] {
            let items: Vec<ItemId> = (0..m).map(ItemId).collect();
            let sub = assert_segments_match_sorted_lists(&DistinctScores, &items, &[UserId(0)]);
            assert_eq!(sub.pref_bytes(), 12 * m as usize);
        }
    }

    #[test]
    fn columns_quantize_only_when_the_codes_are_smaller() {
        // More distinct values than `u16` codes: no exact coding exists,
        // so the column is stored dense, bit for bit.
        let n = QUANT_LEVELS + 10;
        let scores: Vec<f64> = (0..n).map(|i| (n - i) as f64 * 0.001).collect();
        let ScoreStore::Dense(stored) = quantize(scores.clone()) else {
            panic!("expected a dense store");
        };
        assert_eq!(bits(&stored), bits(&scores));
        // Exactly QUANT_LEVELS distinct values, each twice, still
        // quantize.
        let at_cap: Vec<f64> = scores[..QUANT_LEVELS]
            .iter()
            .flat_map(|&s| [s, s])
            .collect();
        assert!(matches!(
            quantize(at_cap),
            ScoreStore::Quantized { ref dict, .. } if dict.len() == QUANT_LEVELS
        ));
        // 2 B/entry + 8 B/value must beat 8 B/entry: 3 values in 4
        // entries tie (32 B) and stay dense, 2 values quantize.
        assert!(matches!(
            quantize(vec![3.0, 2.0, 1.0, 1.0]),
            ScoreStore::Dense(_)
        ));
        assert!(matches!(
            quantize(vec![2.0, 1.0, 1.0, 1.0]),
            ScoreStore::Quantized { .. }
        ));
    }

    #[test]
    fn build_with_covers_users_outside_the_population() {
        // Scale-tier shape: the population cohort is users {0,1,2}, but
        // the substrate also serves preference columns for user 3.
        let mut b = RatingMatrixBuilder::new(4, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(3), ItemId(1), 4.0, 0)
            .rate(UserId(3), ItemId(2), 2.0, 0);
        let matrix = b.build();
        let raw = RawRatings(&matrix);
        let (_, pop, _tl) = world();
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build_with(
            &raw,
            &pop,
            &items,
            &[UserId(0), UserId(3)],
            &[],
            BuildOptions::default(),
        )
        .unwrap();
        assert_eq!(sub.users(), &[UserId(0), UserId(3)]);
        let h = sub.segment_handle(&raw, 1).unwrap();
        assert_eq!(h.view(0).ids, &[1, 2, 0, 3]);
    }

    #[test]
    fn item_coverage_classification() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build(&raw, &pop, &items).unwrap();
        assert_eq!(sub.item_coverage(&items), Some(ItemCoverage::Full));
        // Order does not matter for coverage.
        let shuffled = vec![ItemId(3), ItemId(0), ItemId(2), ItemId(1)];
        assert_eq!(sub.item_coverage(&shuffled), Some(ItemCoverage::Full));
        match sub.item_coverage(&[ItemId(1), ItemId(3)]) {
            Some(ItemCoverage::Subset(mask)) => {
                // Mask is over dense positions; this world's items are
                // 0..4, so dense position == item id.
                assert!(mask[1] && mask[3] && !mask[0] && !mask[2]);
            }
            other => panic!("expected subset, got {other:?}"),
        }
        // Foreign item and duplicates disqualify the substrate.
        assert_eq!(sub.item_coverage(&[ItemId(9)]), None);
        assert_eq!(sub.item_coverage(&[ItemId(1), ItemId(1)]), None);
    }

    #[test]
    fn filtered_segment_preserves_order() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build(&raw, &pop, &items).unwrap();
        let mut mask = vec![false; 4];
        mask[0] = true;
        mask[3] = true;
        let h = sub.segment_handle(&raw, 0).unwrap();
        let f = sub.filtered_handle(&h, &mask, 2);
        assert_eq!(f.ids(), &[0, 3]);
        assert_eq!(f.scores(), &[5.0, 0.0]);
        assert_eq!(f.owned_bytes(), 2 * 12);
    }

    #[test]
    fn memory_footprint_accounts_every_layer() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build(&raw, &pop, &items).unwrap();
        let fp = sub.memory_footprint();
        assert_eq!(fp.pref_bytes, sub.pref_bytes());
        // Users 0 and 2 hold three distinct scores in four entries, so
        // they stay dense: 4 × (u32 id + f64 score) each. User 1 holds
        // two and is coded: 4 ids + 4 `u16` codes + 2 `f64` values.
        assert_eq!(fp.pref_bytes, 48 + (16 + 8 + 16) + 48);
        // 3 user ids + 3 `Option<u32>` positions, 4 item ids + 4 dense
        // positions.
        assert_eq!(fp.universe_bytes, 3 * 4 + 3 * 8 + 4 * 4 + 4 * 4);
        assert_eq!(fp.total(), fp.universe_bytes + fp.pref_bytes);
        // Reading a coded segment leaves the substrate's footprint alone:
        // the dequantized column belongs to the handle.
        let h1 = sub.segment_handle(&raw, 1).unwrap();
        assert_eq!(h1.owned_bytes(), 4 * 8);
        assert_eq!(sub.memory_footprint(), fp);
    }

    #[test]
    fn the_population_pair_space_leaves_no_trace() {
        // The same users and items against the three-user, two-period
        // population and a wider static-only one: the substrate stores
        // no affinity, so its footprint and segments are identical.
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let users: Vec<UserId> = pop.universe().to_vec();
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(7), 0.5);
        let wider = PopulationAffinity::new_static_only(
            &src,
            &[UserId(0), UserId(1), UserId(2), UserId(7)],
        );
        assert_ne!(wider.num_pairs(), pop.num_pairs());
        let build = |population: &PopulationAffinity| {
            Substrate::build_with(
                &raw,
                population,
                &items,
                &users,
                &[],
                BuildOptions::default(),
            )
            .unwrap()
        };
        let (a, b) = (build(&pop), build(&wider));
        assert_eq!(a.memory_footprint(), b.memory_footprint());
        for u in 0..users.len() {
            let (ha, hb) = (
                a.segment_handle(&raw, u).unwrap(),
                b.segment_handle(&raw, u).unwrap(),
            );
            assert_eq!(ha.ids(), hb.ids());
            assert_eq!(bits(ha.scores()), bits(hb.scores()));
        }
    }

    #[test]
    fn rebuild_dirty_shares_clean_segments() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build(&raw, &pop, &items).unwrap();

        // User 1 rates item 3: only their segment is invalidated.
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(0), ItemId(2), 3.0, 0)
            .rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(1), ItemId(3), 5.0, 1)
            .rate(UserId(2), ItemId(3), 2.0, 0)
            .rate(UserId(2), ItemId(0), 1.0, 0);
        let next_matrix = b.build();
        let next_raw = RawRatings(&next_matrix);
        let next = sub.rebuild_dirty(&next_raw, &[UserId(1)]).unwrap();

        // Dirty user: fresh segment with the new ordering.
        assert!(!sub.shares_segment_with(&next, UserId(1)));
        let h1 = next.segment_handle(&next_raw, 1).unwrap();
        assert_eq!(h1.ids(), &[3, 1, 0, 2]);
        assert_eq!(h1.scores(), &[5.0, 4.0, 0.0, 0.0]);
        // Clean users: the same allocations, not copies.
        assert!(sub.shares_segment_with(&next, UserId(0)));
        assert!(sub.shares_segment_with(&next, UserId(2)));
        // The old epoch still serves its original view.
        assert_eq!(sub.segment_handle(&raw, 1).unwrap().ids(), &[1, 0, 2, 3]);
        // The rebuilt substrate equals a cold build from the new matrix.
        let cold = Substrate::build(&next_raw, &pop, &items).unwrap();
        for u in 0..3 {
            let (hn, hc) = (
                next.segment_handle(&next_raw, u).unwrap(),
                cold.segment_handle(&next_raw, u).unwrap(),
            );
            assert_eq!(hn.ids(), hc.ids());
            assert_eq!(bits(hn.scores()), bits(hc.scores()));
        }
    }

    /// The live layer's two publish strategies — per-segment
    /// `rebuild_dirty` and the wholesale `build_with` fallback — must
    /// build the same substrate when every user is dirty.
    #[test]
    fn rebuild_dirty_over_every_user_equals_build_with() {
        let (matrix, pop, _tl) = world();
        let items: Vec<ItemId> = matrix.items().collect();
        let users: Vec<UserId> = pop.universe().to_vec();
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(1), 2.0, 0)
            .rate(UserId(0), ItemId(2), 3.0, 0)
            .rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(1), ItemId(3), 5.0, 1)
            .rate(UserId(2), ItemId(0), 1.0, 0);
        let next_matrix = b.build();
        let (raw, next_raw) = (RawRatings(&matrix), RawRatings(&next_matrix));
        let cf = greca_cf::UserCfModel::fit(&matrix, greca_cf::CfConfig::default());
        let next_cf = greca_cf::UserCfModel::fit(&next_matrix, greca_cf::CfConfig::default());
        let providers: [(
            &(dyn PreferenceProvider + Sync),
            &(dyn PreferenceProvider + Sync),
        ); 2] = [(&raw, &next_raw), (&cf, &next_cf)];
        for (before, after) in providers {
            let sub = Substrate::build(before, &pop, &items).unwrap();
            let rebuilt = sub.rebuild_dirty(after, &users).unwrap();
            let built =
                Substrate::build_with(after, &pop, &items, &users, &[], BuildOptions::default())
                    .unwrap();
            assert_eq!(rebuilt.users(), built.users());
            assert_eq!(rebuilt.items(), built.items());
            assert_eq!(rebuilt.memory_footprint(), built.memory_footprint());
            for (idx, &u) in users.iter().enumerate() {
                assert!(!sub.shares_segment_with(&rebuilt, u), "{u:?} rebuilt");
                let (hr, hb) = (
                    rebuilt.segment_handle(after, idx).unwrap(),
                    built.segment_handle(after, idx).unwrap(),
                );
                assert_eq!(hr.ids(), hb.ids(), "{u:?}");
                assert_eq!(bits(hr.scores()), bits(hb.scores()), "{u:?}");
            }
        }
    }

    #[test]
    fn lazy_slots_derive_every_access_from_the_readers_provider() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let users: Vec<UserId> = pop.universe().to_vec();
        let eager = Substrate::build_with(&raw, &pop, &items, &users, &[], BuildOptions::default())
            .unwrap();
        let lazy = Substrate::build_with(&raw, &pop, &items, &[], &users, BuildOptions::default())
            .unwrap();
        assert_eq!(lazy.pref_bytes(), 0, "nothing resident up front");
        // Every access derives a column bit-identical to the eager
        // build's, owned by the handle.
        for _ in 0..2 {
            for u in 0..users.len() {
                let (he, hl) = (
                    eager.segment_handle(&raw, u).unwrap(),
                    lazy.segment_handle(&raw, u).unwrap(),
                );
                assert_eq!(hl.ids(), he.ids());
                assert_eq!(bits(hl.scores()), bits(he.scores()));
                assert_eq!(hl.owned_bytes(), 12 * items.len());
            }
        }
        assert_eq!(lazy.memory_footprint().pref_bytes, 0, "no cache");

        // User 1 rates item 3: the rebuilt substrate serves the
        // post-batch column, the old one still serves the old column.
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(1), ItemId(3), 5.0, 1);
        let next_matrix = b.build();
        let next_raw = RawRatings(&next_matrix);
        let next = lazy.rebuild_dirty(&next_raw, &[UserId(1)]).unwrap();
        assert_eq!(
            next.segment_handle(&next_raw, 1).unwrap().ids(),
            &[3, 1, 0, 2]
        );
        assert_eq!(lazy.segment_handle(&raw, 1).unwrap().ids(), &[1, 0, 2, 3]);
    }

    #[test]
    fn rebuild_dirty_skips_uncovered_users() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build_for(&raw, &pop, &items, &[UserId(0), UserId(2)]).unwrap();
        let next = sub.rebuild_dirty(&raw, &[UserId(1), UserId(9)]).unwrap();
        assert!(sub.shares_segment_with(&next, UserId(0)));
        assert!(sub.shares_segment_with(&next, UserId(2)));
        assert!(!sub.shares_segment_with(&next, UserId(1)), "no segment");
    }

    #[test]
    fn build_for_restricts_users() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build_for(&raw, &pop, &items, &[UserId(2), UserId(0)]).unwrap();
        assert_eq!(sub.users(), &[UserId(0), UserId(2)]);
        assert_eq!(sub.user_index(UserId(2)), Some(1));
        assert_eq!(sub.user_index(UserId(1)), None);
        let g = Group::new(vec![UserId(0), UserId(2)]).unwrap();
        assert!(sub.covers_group(&g));
        let g2 = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        assert!(!sub.covers_group(&g2));
    }
}
