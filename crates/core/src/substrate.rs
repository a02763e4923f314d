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
//! and stored as one segment per user, each behind its own `Arc`.
//!
//! A segment is **support-sparse**: it stores the provider's support
//! ([`PreferenceProvider::support`]) — the entries above and below the
//! provider's default, sorted, as columnar `(ids, scores)` — plus the
//! layout of an implicit *default run*: every other universe item, in
//! ascending id, at the default, placed where the default falls in the
//! order (support entries equal to it keep their own bits inside the
//! run, at their id). The universe's ids are stored once and shared by
//! every segment. So a column costs `O(support)`, not `O(universe)`:
//! under raw ratings a user's column is their rated items. A column
//! whose run would be shorter than the ids it skips stores every
//! entry explicitly instead, so no column is larger than its explicit
//! form.
//!
//! A query whose itemset *is* the universe borrows its members'
//! segments as [`ListView`]s — no sorts, no provider calls. A
//! strict-subset itemset is filtered in one order-preserving pass over
//! each support (still no sort, no provider calls).
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
//!   thread count. Each shard reuses one scratch buffer. Only the
//!   support entries are sorted and written; the default run is never
//!   written, as its id order is the order a full sort would produce.
//! * **Quantized scores** — a resident segment stores its support
//!   scores as `u16` codes plus a per-list dictionary of the original
//!   `f64` bit patterns whenever that is smaller than one `f64` per
//!   entry, so dequantized views are **bit-identical** to the scores
//!   the provider produced. The choice is made per column from its
//!   data: a column with more than
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
//! shared segment and universe, plus the dequantized support or derived
//! column it made. The
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

use crate::lists::{DefaultRun, ListKind, ListView, NonFiniteEntry};
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
    /// positions, items, dense item positions). The item ids are every
    /// resident segment's itemset, stored once.
    pub universe_bytes: usize,
    /// Per-user **resident** preference segments in their stored form:
    /// the support's `ids (u32)`, its `scores (f64)` or its `codes
    /// (u16)` with their score dictionary, and the `u32` ids the default
    /// run skips. The default run itself costs nothing. Lazy
    /// slots contribute nothing.
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

/// The item ids a preference column ranks, ascending, behind an `Arc`
/// that every column over them shares: the substrate's universe, one
/// query's itemset, or a group's default itemset — the catalog minus the
/// ids the members rated. A default run is enumerated from the ids, and
/// two columns rank the same itemset when they share it.
#[derive(Debug, Clone)]
pub(crate) struct Itemset {
    ids: Arc<Vec<ItemId>>,
    /// The ids of `ids` the set leaves out, ascending (none but for a
    /// default itemset); every column over the set skips them.
    excluded: Arc<Vec<u32>>,
    /// Whether no id repeats (the segment builder's precondition).
    distinct: bool,
}

impl Itemset {
    /// `ids` in ascending order: moved, not copied, and sorted only if
    /// they do not ascend already.
    pub(crate) fn new(mut ids: Vec<ItemId>) -> Itemset {
        let mut distinct = strictly_ascending(&ids);
        if !distinct {
            ids.sort_unstable();
            distinct = strictly_ascending(&ids);
        }
        Itemset {
            ids: Arc::new(ids),
            excluded: Arc::default(),
            distinct,
        }
    }

    /// The catalog `0..n` from this prefix of it: its ids copied, the
    /// new ones appended.
    pub(crate) fn grown(&self, n: usize) -> Itemset {
        let mut ids = Vec::with_capacity(n);
        ids.extend_from_slice(&self.ids);
        ids.extend((self.ids.len() as u32..n as u32).map(ItemId));
        debug_assert!(strictly_ascending(&ids) && self.excluded.is_empty());
        Itemset {
            ids: Arc::new(ids),
            excluded: Arc::default(),
            distinct: true,
        }
    }

    /// This catalog `0..n` minus `excluded` (ascending ids it holds),
    /// sharing its ids: nothing of them is copied.
    pub(crate) fn without(&self, excluded: Vec<u32>) -> Itemset {
        debug_assert!(self.excluded.is_empty());
        Itemset {
            ids: Arc::clone(&self.ids),
            excluded: Arc::new(excluded),
            distinct: self.distinct,
        }
    }

    /// The ids a default run is enumerated from, ascending: the set's
    /// items and the ids it excludes.
    pub(crate) fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// Number of items in the set.
    pub(crate) fn len(&self) -> usize {
        self.ids.len() - self.excluded.len()
    }

    /// The set's items, ascending.
    fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        let mut excluded = self.excluded.iter().peekable();
        self.ids
            .iter()
            .copied()
            .filter(move |i| excluded.next_if_eq(&&i.0).is_none())
    }

    /// Whether both hold the same items: `O(excluded)` when they share
    /// their ids, as the columns of one preparation do.
    pub(crate) fn same_as(&self, other: &Itemset) -> bool {
        if Arc::ptr_eq(&self.ids, &other.ids) {
            return self.excluded == other.excluded;
        }
        self.len() == other.len() && self.items().eq(other.items())
    }

    /// Bytes of the id columns.
    pub(crate) fn data_bytes(&self) -> usize {
        std::mem::size_of_val(self.ids.as_slice()) + std::mem::size_of_val(self.excluded.as_slice())
    }
}

/// The ascending union of two ascending id lists.
fn merged(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Where a column's default run sits among its support entries.
#[derive(Debug)]
struct RunLayout {
    /// `ids[..above]` score above the default.
    above: usize,
    /// `ids[above..below]` compare equal to it (ascending id, own bits);
    /// `ids[below..]` score below it.
    below: usize,
    /// Ascending ids of the entries above and below the default, which
    /// the run passes over.
    skip: Vec<u32>,
    /// The provider's default score.
    default: f64,
}

/// One preference column as the segment builder leaves it, before its
/// scores are stored: support entries in list order, and the run's
/// layout (`None` when every entry is explicit).
struct Column {
    ids: Vec<u32>,
    scores: Vec<f64>,
    run: Option<RunLayout>,
}

impl Column {
    /// The column as a list view over its itemset `items`.
    fn view<'a>(&'a self, items: &'a [ItemId]) -> ListView<'a> {
        let kind = ListKind::Preference { member: 0 };
        list_view(kind, (&self.ids, &self.scores), self.run.as_ref(), items)
    }

    /// The column in its smaller stored form. A run costs its skipped
    /// ids (4 B each) and saves one explicit entry per default item it
    /// enumerates from `items` (the run minus its support entries equal
    /// to the default), so a run with fewer of those than skipped ids is
    /// written out: the column then holds every entry explicitly, as a
    /// column without a run does. Either way a column never stores more
    /// than its explicit form.
    fn settled(self, items: &[ItemId]) -> Column {
        match &self.run {
            Some(run) if 2 * run.skip.len() + (run.below - run.above) > items.len() => {
                let (ids, scores) = self.view(items).iter().unzip();
                Column {
                    ids,
                    scores,
                    run: None,
                }
            }
            _ => self,
        }
    }
}

/// A preference view over support columns, a run layout and the
/// itemset the run is enumerated from.
fn list_view<'a>(
    kind: ListKind,
    columns: (&'a [u32], &'a [f64]),
    run: Option<&'a RunLayout>,
    items: &'a [ItemId],
) -> ListView<'a> {
    match run {
        None => ListView::new(kind, columns.0, columns.1),
        Some(run) => ListView::with_run(
            kind,
            columns,
            (run.above, run.below),
            DefaultRun {
                items,
                skip: &run.skip,
                default: run.default,
            },
        ),
    }
}

/// One user's stored preference column over an itemset: its support
/// entries in list order, scores dense or coded, and its default run's
/// layout.
///
/// Segments are the unit of structural sharing for
/// [`Substrate::rebuild_dirty`]: each lives behind its own `Arc`, so an
/// incremental rebuild re-sorts only invalidated users and *aliases*
/// every clean segment (a pointer copy, not a column copy).
#[derive(Debug)]
struct PrefSegment {
    /// Support item ids in list order.
    ids: Vec<u32>,
    /// Scores aligned with `ids` (dense or quantized).
    store: ScoreStore,
    /// `None` when `ids` holds every entry.
    run: Option<RunLayout>,
}

impl PrefSegment {
    /// A resident segment, its scores stored by [`quantize`].
    fn resident(column: Column) -> Arc<Self> {
        Arc::new(PrefSegment {
            ids: column.ids,
            store: quantize(column.scores),
            run: column.run,
        })
    }

    fn data_bytes(&self) -> usize {
        std::mem::size_of_val(self.ids.as_slice())
            + self.store.data_bytes()
            + self
                .run
                .as_ref()
                .map_or(0, |run| std::mem::size_of_val(run.skip.as_slice()))
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

/// An owned reference to one user's preference column — the one type
/// of every preference column a prepared query reads.
///
/// A column is its provider's *support* — the entries above and below
/// the provider's default, sorted — plus an implicit *default run*: the
/// handle's itemset minus the support positions, in ascending id, at the
/// default. The run sits where the default falls in the sorted order;
/// support entries that compare equal to the default keep their own
/// bits at their id inside it. So a column over a 100,000-item default
/// itemset costs its support, not its itemset: the itemset is shared
/// behind an `Arc` by every column over it. A column whose run would be
/// shorter than the list of ids it skips holds every entry explicitly
/// instead (see `Column::settled`).
///
/// A handle aliases a resident segment (owning the dequantized support
/// scores of a coded one), or owns a column derived for it: a lazy
/// slot's or a cold itemset's (by the segment builder, bit-identical to
/// sorting `greca_cf::preference_list`), a subset filter's, or a
/// hand-built list's. It keeps whatever [`SegmentHandle::view`]'s slices
/// borrow alive for its lifetime; clones share those buffers.
#[derive(Debug, Clone)]
pub struct SegmentHandle {
    itemset: Itemset,
    seg: Arc<PrefSegment>,
    /// `Some` iff the segment is quantized: the dense `f64` support
    /// scores the views borrow from.
    dequant: Option<Arc<Vec<f64>>>,
    /// Whether `seg` was derived for this handle rather than aliased
    /// from the substrate.
    derived: bool,
}

impl SegmentHandle {
    /// `u`'s column over `itemset`, derived by the segment builder — the
    /// one routine behind a lazy slot and a cold itemset. The builder
    /// needs distinct ids, so an itemset with repeats is built over its
    /// distinct ids and each repeated id is then written out in place,
    /// every entry explicit. Copies of one id carry one score, so they
    /// sit next to each other in the reference order too.
    pub(crate) fn derive(
        provider: &(dyn PreferenceProvider + Sync + '_),
        u: UserId,
        itemset: &Itemset,
    ) -> Result<SegmentHandle, QueryError> {
        let mut scratch = SegmentScratch::default();
        let sorted = itemset.ids();
        if itemset.distinct {
            let column = build_one_segment(provider, u, sorted, &mut scratch)?;
            return Ok(SegmentHandle::derived(itemset, column));
        }
        let mut distinct = sorted.to_vec();
        distinct.dedup();
        let column = build_one_segment(provider, u, &distinct, &mut scratch)?;
        let (mut ids, mut scores) = (
            Vec::with_capacity(sorted.len()),
            Vec::with_capacity(sorted.len()),
        );
        for (id, s) in column.view(&distinct).iter() {
            let copies =
                sorted.partition_point(|i| i.0 <= id) - sorted.partition_point(|i| i.0 < id);
            ids.extend(std::iter::repeat_n(id, copies));
            scores.extend(std::iter::repeat_n(s, copies));
        }
        Ok(SegmentHandle::listed(itemset, (ids, scores)))
    }

    /// A handle owning score-descending (ties by id) columns over
    /// `itemset`, every entry explicit, that no substrate stores.
    pub(crate) fn listed(itemset: &Itemset, (ids, scores): (Vec<u32>, Vec<f64>)) -> SegmentHandle {
        let column = Column {
            ids,
            scores,
            run: None,
        };
        SegmentHandle::derived(itemset, column)
    }

    /// A handle owning a column that no substrate stores. Its scores are
    /// kept dense: coded, the handle would hold the codes *and* their
    /// dequantized copy.
    fn derived(itemset: &Itemset, column: Column) -> SegmentHandle {
        SegmentHandle {
            itemset: itemset.clone(),
            seg: Arc::new(PrefSegment {
                ids: column.ids,
                store: ScoreStore::Dense(column.scores),
                run: column.run,
            }),
            dequant: None,
            derived: true,
        }
    }

    /// Support scores aligned with the segment's ids.
    fn scores(&self) -> &[f64] {
        match (&self.dequant, &self.seg.store) {
            (Some(d), _) => d,
            (None, ScoreStore::Dense(s)) => s,
            (None, ScoreStore::Quantized { .. }) => {
                unreachable!("quantized handles always carry a dequant buffer")
            }
        }
    }

    /// The column as a preference [`ListView`] labeled as group member
    /// `member`: score-descending, ties by id, over the handle's whole
    /// itemset.
    pub fn view(&self, member: u32) -> ListView<'_> {
        list_view(
            ListKind::Preference { member },
            (&self.seg.ids, self.scores()),
            self.seg.run.as_ref(),
            self.itemset.ids(),
        )
    }

    /// This column over `itemset`: the handle's own itemset with
    /// `itemset`'s excluded ids left out. Support entries at those ids
    /// are dropped and the ids join the run's skip list, so this costs
    /// the support plus the excluded ids, not the itemset (a column
    /// without a run drops them entry by entry). The column is then
    /// settled like any other.
    pub(crate) fn excluding(&self, itemset: &Itemset) -> SegmentHandle {
        debug_assert_eq!(self.itemset.ids.len(), itemset.ids.len());
        let excluded = &itemset.excluded;
        if excluded.is_empty() {
            return self.clone();
        }
        let column = self.kept_column(
            |id| excluded.binary_search(&id).is_err(),
            self.seg.ids.len(),
            |skip| merged(skip, excluded),
        );
        SegmentHandle::derived(itemset, column.settled(itemset.ids()))
    }

    /// The support entries `keep` admits, in list order, with room for
    /// `capacity`, around the run (if the column has one) whose skip
    /// list `skip` makes from the old one.
    fn kept_column(
        &self,
        keep: impl Fn(u32) -> bool,
        capacity: usize,
        skip: impl FnOnce(&[u32]) -> Vec<u32>,
    ) -> Column {
        let (ids, scores) = (&self.seg.ids, self.scores());
        let mut column = Column {
            ids: Vec::with_capacity(capacity),
            scores: Vec::with_capacity(capacity),
            run: None,
        };
        let mut filter = |range: std::ops::Range<usize>| {
            for k in range {
                if keep(ids[k]) {
                    column.ids.push(ids[k]);
                    column.scores.push(scores[k]);
                }
            }
            column.ids.len()
        };
        let Some(run) = &self.seg.run else {
            filter(0..ids.len());
            return column;
        };
        let above = filter(0..run.above);
        let below = filter(run.above..run.below);
        filter(run.below..ids.len());
        column.run = Some(RunLayout {
            above,
            below,
            skip: skip(&run.skip),
            default: run.default,
        });
        column
    }

    /// Whether both columns rank the same itemset — `O(1)` for the
    /// columns of one preparation, which share it.
    pub(crate) fn ranks_same_itemset(&self, other: &SegmentHandle) -> bool {
        self.itemset.same_as(&other.itemset)
    }

    /// Bytes this handle holds beyond the substrate's stored segments:
    /// the dequantized support scores of a coded segment, or the whole
    /// derived column — support ids, scores and the ids the run
    /// skips (0 for a dense resident segment). The itemset is shared
    /// and counted by its owner: the substrate's universe layout, or the
    /// [`SharedMemberState`](crate::plan::SharedMemberState) arena.
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
    /// The item universe (sorted, deduplicated): every resident
    /// column's itemset.
    items: Itemset,
    /// Dense position in `items` by item id ([`NOT_AN_ITEM`] if absent),
    /// so per-query coverage masks are `O(m)`, not `O(max item id)`.
    item_dense: Vec<u32>,
    /// Entries per preference column (= `items.len()`).
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
        let items = Itemset::new(items);
        let m = items.ids().len();

        let max_user = users.last().map_or(0, |u| u.idx());
        let mut user_pos = vec![None; max_user + 1];
        for (pos, &u) in users.iter().enumerate() {
            user_pos[u.idx()] = Some(pos as u32);
        }
        let max_item = items.ids().last().map_or(0, |i| i.0 as usize);
        let mut item_dense = vec![NOT_AN_ITEM; max_item + 1];
        for (dense, &i) in items.ids().iter().enumerate() {
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
            items.ids(),
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
                        build_one_segment(provider, u, self.layout.items.ids(), &mut scratch)?,
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
        self.layout.items.ids()
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
    ///   stored representation, per support entry: a `u32` id plus an
    ///   `f64` score (12 B) for a dense segment, or a `u32` id plus a
    ///   `u16` code (6 B) and the per-list score dictionary for a
    ///   quantized one; plus 4 B per id the default run skips (an entry
    ///   above or below the default). The default run costs
    ///   nothing. A segment that stores every entry explicitly has no
    ///   skipped ids, so no segment exceeds its explicit form.
    ///   Lazy slots contribute 0.
    ///
    /// Columns a [`SegmentHandle`] dequantizes or derives belong to the
    /// handle, not the substrate (see [`SegmentHandle::owned_bytes`]).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let layout = &self.layout;
        let universe_bytes = layout.users.len() * size_of::<UserId>()
            + layout.user_pos.len() * size_of::<Option<u32>>()
            + layout.items.data_bytes()
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

    /// Whether the item universe is the catalog `0..n`: `O(1)`, as the
    /// universe ascends without repeats.
    pub(crate) fn is_catalog(&self, n: usize) -> bool {
        self.layout.m == n && self.items().last().is_none_or(|i| i.0 as usize + 1 == n)
    }

    /// Dense position of an item in the universe.
    #[inline]
    fn dense_of(&self, i: ItemId) -> Option<usize> {
        match self.layout.item_dense.get(i.0 as usize).copied() {
            Some(d) if d != NOT_AN_ITEM => Some(d as usize),
            _ => None,
        }
    }

    /// An owned handle to the user's preference column over the
    /// universe: a resident segment is handed out directly (its coded
    /// support scores, if any, dequantized into the handle), and a lazy
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
                itemset: self.layout.items.clone(),
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

    /// The handle's column filtered to a subset `itemset` of the
    /// universe (`mask` by dense item position), preserving the sorted
    /// order: one pass over the support and its skipped ids — no sort,
    /// no provider calls. A column without a run is filtered entry by entry. The
    /// result depends only on the segment and the itemset, so one
    /// filtered handle serves every group the user is in.
    pub(crate) fn filtered_handle(
        &self,
        handle: &SegmentHandle,
        mask: &[bool],
        itemset: &Itemset,
    ) -> SegmentHandle {
        // Column ids always belong to the universe; the dense lookup
        // cannot miss.
        let keep = |id: u32| mask[self.layout.item_dense[id as usize] as usize];
        let capacity = handle.seg.ids.len().min(itemset.len());
        let column = handle.kept_column(keep, capacity, |skip| {
            skip.iter().copied().filter(|&id| keep(id)).collect()
        });
        SegmentHandle::derived(itemset, column.settled(itemset.ids()))
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

/// Reusable per-worker scratch for segment construction: the provider's
/// support entries and their positions in ascending order — no per-user
/// allocations beyond the output columns.
#[derive(Default)]
struct SegmentScratch {
    support: Vec<(u32, f64)>,
    positions: Vec<u32>,
}

/// Whether `items` ascend strictly by id.
fn strictly_ascending(items: &[ItemId]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

/// Build `u`'s column over `items` (strictly ascending by id) from one
/// [`PreferenceProvider::support`] call: entries ordered by (score
/// descending, item id ascending), bit-identical to sorting
/// `greca_cf::preference_list(provider, u, items)` — ties, `±0.0` and
/// negative scores included. Only the support is written; the default
/// run stays implicit.
///
/// 1. Validate the support entries and the default. Positions ascend,
///    so the first non-finite value found is the first bad item by id.
/// 2. Sort the support by (score descending, position ascending): the
///    entries above, equal to (`partial_cmp`, so `±0.0` tie) and below
///    the default end up contiguous, the equal ones in id order.
/// 3. The run skips the ids of the entries above and below; the
///    equal ones stay in it, at their own bits, merged by id.
/// 4. Settle the column in its smaller stored form.
fn build_one_segment(
    provider: &(dyn PreferenceProvider + Sync + '_),
    u: UserId,
    items: &[ItemId],
    scratch: &mut SegmentScratch,
) -> Result<Column, QueryError> {
    debug_assert!(strictly_ascending(items));
    let m = items.len();
    let support = &mut scratch.support;
    support.clear();
    let default = provider.support(u, items, support);

    let mut bad = support.iter().copied().find(|&(_, s)| !s.is_finite());
    if !default.is_finite() {
        // The default is read only if some position is not in the
        // support; the first such position is the first gap.
        let gap = (0..)
            .zip(support.iter())
            .position(|(k, &(d, _))| d != k)
            .unwrap_or(support.len());
        if gap < m && bad.is_none_or(|(d, _)| gap < d as usize) {
            bad = Some((gap as u32, default));
        }
    }
    if let Some((d, value)) = bad {
        return Err(QueryError::from(NonFiniteScore {
            user: u,
            item: items[d as usize],
            value,
        }));
    }

    scratch.positions.clear();
    scratch.positions.extend(support.iter().map(|&(d, _)| d));
    support.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("validated finite above")
            .then_with(|| a.0.cmp(&b.0))
    });
    let above = support.partition_point(|&(_, s)| s > default);
    let below = support.partition_point(|&(_, s)| s >= default);
    let mut equal = support[above..below].iter().map(|&(d, _)| d).peekable();
    let skip = scratch
        .positions
        .iter()
        .filter(|&&p| equal.next_if_eq(&p).is_none())
        .map(|&p| items[p as usize].0)
        .collect();
    let column = Column {
        ids: support.iter().map(|&(d, _)| items[d as usize].0).collect(),
        scores: support.iter().map(|&(_, s)| s).collect(),
        run: Some(RunLayout {
            above,
            below,
            skip,
            default,
        }),
    };
    Ok(column.settled(items))
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
                build_one_segment(provider, u, items, &mut scratch).map(PrefSegment::resident)
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
                            build_one_segment(provider, u, items, &mut scratch)
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

    /// A handle's ids in list order.
    fn ids(h: &SegmentHandle) -> Vec<u32> {
        h.view(0).iter().map(|(id, _)| id).collect()
    }

    /// A handle's scores in list order.
    fn scores(h: &SegmentHandle) -> Vec<f64> {
        h.view(0).iter().map(|(_, s)| s).collect()
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
            assert_eq!(h.view(u as u32).len(), 4);
            assert!(scores(&h).windows(2).all(|w| w[0] >= w[1]));
        }
        // User 0: rated items 0 (5.0) and 2 (3.0); 1, 3 unrated → 0.0,
        // tie-broken by id.
        let h0 = sub.segment_handle(&raw, 0).unwrap();
        assert_eq!(ids(&h0), &[0, 2, 1, 3]);
        assert_eq!(scores(&h0), &[5.0, 3.0, 0.0, 0.0]);
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
            // Bit-identical across thread counts and vs. the per-user
            // reference list.
            let legacy = greca_cf::preference_list(&raw, UserId(u as u32), &items)
                .unwrap()
                .into_sorted_columns();
            let (hs, hp) = (
                seq.segment_handle(&raw, u).unwrap(),
                par.segment_handle(&raw, u).unwrap(),
            );
            assert_eq!(ids(&hs), ids(&hp));
            assert_eq!(bits(&scores(&hs)), bits(&scores(&hp)));
            assert_eq!(ids(&hs), &legacy.0[..]);
            assert_eq!(bits(&scores(&hs)), bits(&legacy.1));
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
            let (want_ids, want_scores): (Vec<u32>, Vec<f64>) = reference.as_view().iter().unzip();
            let h = sub.segment_handle(provider, idx).unwrap();
            assert_eq!(ids(&h), want_ids, "user {u:?}");
            assert_eq!(bits(&scores(&h)), bits(&want_scores), "user {u:?}");
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
        // A handle over a coded column owns the dequantized copy of its
        // support — user 0's 14 rated entries — not of its default run.
        let h = sub.segment_handle(&RawRatings(&stars), 0).unwrap();
        assert_eq!(stars.user_ratings(UserId(0)).len(), 14);
        assert_eq!(h.owned_bytes(), 8 * 14);

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
        assert_eq!(ids(&h), &[1, 2, 0, 3]);
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
        let f = sub.filtered_handle(&h, &mask, &Itemset::new(vec![ItemId(0), ItemId(3)]));
        assert_eq!(ids(&f), &[0, 3]);
        assert_eq!(scores(&f), &[5.0, 0.0]);
        // Item 0 is the support (a `u32` id, an `f64` score and its
        // skipped id); item 3 is the default run.
        assert_eq!(f.owned_bytes(), 4 + 8 + 4);
    }

    #[test]
    fn memory_footprint_accounts_every_layer() {
        let (matrix, pop, _tl) = world();
        let raw = RawRatings(&matrix);
        let items: Vec<ItemId> = matrix.items().collect();
        let sub = Substrate::build(&raw, &pop, &items).unwrap();
        let fp = sub.memory_footprint();
        assert_eq!(fp.pref_bytes, sub.pref_bytes());
        // Each column stores its rated entries only — a `u32` id, an
        // `f64` score (too few entries to code) and the `u32` id the
        // default run skips — two for users 0 and 2, one for user 1.
        assert_eq!(fp.pref_bytes, 2 * 16 + 16 + 2 * 16);
        // 3 user ids + 3 `Option<u32>` positions, 4 item ids + 4 dense
        // positions.
        assert_eq!(fp.universe_bytes, 3 * 4 + 3 * 8 + 4 * 4 + 4 * 4);
        assert_eq!(fp.total(), fp.universe_bytes + fp.pref_bytes);
        // Reading a dense segment leaves the substrate's footprint alone
        // and owns nothing: the handle aliases it.
        let h1 = sub.segment_handle(&raw, 1).unwrap();
        assert_eq!(h1.owned_bytes(), 0);
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
            assert_eq!(ids(&ha), ids(&hb));
            assert_eq!(bits(&scores(&ha)), bits(&scores(&hb)));
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
        assert_eq!(ids(&h1), &[3, 1, 0, 2]);
        assert_eq!(scores(&h1), &[5.0, 4.0, 0.0, 0.0]);
        // Clean users: the same allocations, not copies.
        assert!(sub.shares_segment_with(&next, UserId(0)));
        assert!(sub.shares_segment_with(&next, UserId(2)));
        // The old epoch still serves its original view.
        assert_eq!(ids(&sub.segment_handle(&raw, 1).unwrap()), &[1, 0, 2, 3]);
        // The rebuilt substrate equals a cold build from the new matrix.
        let cold = Substrate::build(&next_raw, &pop, &items).unwrap();
        for u in 0..3 {
            let (hn, hc) = (
                next.segment_handle(&next_raw, u).unwrap(),
                cold.segment_handle(&next_raw, u).unwrap(),
            );
            assert_eq!(ids(&hn), ids(&hc));
            assert_eq!(bits(&scores(&hn)), bits(&scores(&hc)));
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
                assert_eq!(ids(&hr), ids(&hb), "{u:?}");
                assert_eq!(bits(&scores(&hr)), bits(&scores(&hb)), "{u:?}");
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
            for (u, &user) in users.iter().enumerate() {
                let (he, hl) = (
                    eager.segment_handle(&raw, u).unwrap(),
                    lazy.segment_handle(&raw, u).unwrap(),
                );
                assert_eq!(ids(&hl), ids(&he));
                assert_eq!(bits(&scores(&hl)), bits(&scores(&he)));
                // Per rated entry: a `u32` id, an `f64` score and the
                // `u32` id the default run skips.
                let rated = matrix.user_ratings(user).len();
                assert_eq!(hl.owned_bytes(), 16 * rated);
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
            ids(&next.segment_handle(&next_raw, 1).unwrap()),
            &[3, 1, 0, 2]
        );
        assert_eq!(ids(&lazy.segment_handle(&raw, 1).unwrap()), &[1, 0, 2, 3]);
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
