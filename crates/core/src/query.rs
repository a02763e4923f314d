//! The serving-style query API: [`GrecaEngine`] + fluent [`GroupQuery`].
//!
//! §2.4's ad-hoc-group scenario is a *serving* problem: the CF model and
//! the population-affinity index are long-lived substrates, while groups
//! arrive at query time. The engine owns references to both substrates
//! and hands out builders with the paper's defaults baked in (k = 10,
//! AP consensus, discrete affinity, decomposed lists, normalized
//! relative preference — §4.2 "Experiment Settings"), so the common
//! query is a few chained calls:
//!
//! ```text
//! let engine = GrecaEngine::warm(&cf, &population, &catalog)?;
//! let top = engine.query(&group).period(p).top(5).run()?;
//! ```
//!
//! ## Cold vs. warm preparation
//!
//! Every preference column a query reads is a [`SegmentHandle`], one
//! per member. A *cold* engine ([`GrecaEngine::new`]) derives each
//! member's column over the query's itemset with the substrate's
//! segment builder — one `support` call and a sort of that support per
//! member. A *warm* engine ([`GrecaEngine::warm`])
//! owns an `Arc<`[`Substrate`]`>` of precomputed sorted segments; its
//! `prepare()` takes their handles (or one order-preserving filter pass
//! for subset itemsets) — no per-user sort, no provider calls — and
//! derives cold columns for what the substrate cannot serve (an
//! uncovered user, a foreign or duplicated item). The two differ only
//! in where the preference columns come from: both sort the group's
//! affinity lists (≤ n−1 entries each, §4.1.2) from its
//! [`GroupAffinity`] view, and both produce bit-identical results.
//! Either way a column is its support plus an implicit default run over
//! the itemset all members share, so a cold column over a 100,000-item
//! default itemset costs its support, not its itemset.
//!
//! ## The default itemset
//!
//! A query without an itemset runs over the provider's catalog minus
//! the items any member rated (§2.4), and never builds that set: the
//! engine keeps the catalog's ids and fingerprint (built once per
//! catalog size), and each member's column is their column over the
//! catalog — the resident segment when the substrate's universe is the
//! catalog, derived once otherwise — with the rated ids left out of its
//! support and skipped by its run. A miss costs what the group rated
//! plus what the kernel reads, however large the catalog.
//!
//! A prepared query runs GRECA under any [`StoppingRule`] and exposes
//! its inputs, so the §3.1/§4.2 comparison set (`greca_bench::baselines`)
//! reads exactly the lists GRECA reads — what makes `%SA` comparisons
//! fair. [`run_batch`] executes many queries in parallel across OS threads through the
//! batch planner ([`crate::plan`]) and aggregates their access
//! statistics — the §4.2 harness shape (20 random groups per data
//! point).

use crate::greca::{
    greca_topk_with, with_thread_scratch, GrecaConfig, GrecaScratch, StoppingRule, TopKResult,
};
use crate::lists::{
    common_itemset, group_affinity_list_sets, GrecaInputs, ListKind, ListLayout, NonFiniteEntry,
    SortedList,
};
use crate::plan::{run_batch, BatchResult, MemberScope, SharedMemberState};
use crate::substrate::{ItemCoverage, Itemset, SegmentHandle, Substrate};
use greca_affinity::{AffinityMode, GroupAffinity, PopulationAffinity};
use greca_cf::{PreferenceList, PreferenceProvider};
use greca_consensus::{ConsensusFunction, DisagreementKind, GroupPreferenceKind, GroupScorer};
use greca_dataset::{Group, ItemId, UserId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The paper's default result size (§4.2: "k = 10").
pub const PAPER_DEFAULT_K: usize = 10;

/// A query rejected before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// No candidate items were supplied and the provider cannot supply a
    /// default catalog.
    EmptyItemset,
    /// The query period does not exist in the population index.
    PeriodOutOfRange {
        /// The requested period index.
        period: usize,
        /// Number of periods the index holds.
        num_periods: usize,
    },
    /// `k = 0` never returns anything meaningful.
    ZeroK,
    /// A group member is missing from the population-affinity universe.
    UnknownMember(UserId),
    /// A NaN/∞ score was rejected at list ingestion (instead of the
    /// historical panic inside a sort comparator).
    NonFiniteScore {
        /// Description of the offending entry (origin, id, value).
        what: String,
    },
    /// A write-ahead-log operation failed, so the mutation was *not*
    /// made durable and was not applied. Reads keep serving the last
    /// published epoch (see `LiveEngine::health`); the caller may
    /// retry — ingest is idempotent under its batch key.
    Wal {
        /// Description of the failed WAL operation.
        detail: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyItemset => write!(f, "candidate itemset is empty"),
            QueryError::PeriodOutOfRange {
                period,
                num_periods,
            } => write!(
                f,
                "period {period} out of range: the population index holds {num_periods} period(s)"
            ),
            QueryError::ZeroK => write!(f, "k must be positive"),
            QueryError::UnknownMember(u) => {
                write!(
                    f,
                    "group member {u} is not in the population-affinity universe"
                )
            }
            QueryError::NonFiniteScore { what } => write!(f, "{what}"),
            QueryError::Wal { detail } => write!(f, "write-ahead log failure: {detail}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<greca_cf::NonFiniteScore> for QueryError {
    fn from(e: greca_cf::NonFiniteScore) -> Self {
        QueryError::NonFiniteScore {
            what: e.to_string(),
        }
    }
}

impl From<NonFiniteEntry> for QueryError {
    fn from(e: NonFiniteEntry) -> Self {
        QueryError::NonFiniteScore {
            what: e.to_string(),
        }
    }
}

/// Lock a mutex, recovering if a previous holder panicked: the poison
/// flag is cleared and the guard returned as is. Every caller guards
/// state that stays internally consistent across a panic (each mutation
/// under the lock is itself panic-free), so one panicked worker thread
/// never wedges every later request of a long-lived server.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// [`AffinityMode`] with its `f64` payload made hashable via bit
/// identity (two scales key separately unless bit-equal, which is the
/// conservative direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ModeKey {
    None,
    StaticOnly,
    Discrete,
    Continuous(u64),
}

impl From<AffinityMode> for ModeKey {
    fn from(mode: AffinityMode) -> Self {
        match mode {
            AffinityMode::None => ModeKey::None,
            AffinityMode::StaticOnly => ModeKey::StaticOnly,
            AffinityMode::Discrete => ModeKey::Discrete,
            AffinityMode::Continuous { scale } => ModeKey::Continuous(scale.to_bits()),
        }
    }
}

/// [`ConsensusFunction`] made hashable: the two kind discriminants plus
/// the preference weight by bit identity (like [`ModeKey`], bitwise is
/// the conservative direction — two weights cache separately unless
/// bit-equal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ConsensusKey {
    preference: GroupPreferenceKind,
    disagreement: DisagreementKind,
    w1_bits: u64,
}

impl From<ConsensusFunction> for ConsensusKey {
    fn from(c: ConsensusFunction) -> Self {
        ConsensusKey {
            preference: c.preference,
            disagreement: c.disagreement,
            w1_bits: c.w1.to_bits(),
        }
    }
}

/// SplitMix64: the finalizer used to hash individual item ids into the
/// itemset fingerprint.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An itemset's running fingerprint: a wrapping sum and an id-salted
/// xor of each id's SplitMix64 hash. Both halves are order-independent
/// and each id's term can be taken out again (subtracted from the sum,
/// xored out of the xor), so a set's fingerprint also follows from a
/// superset's by removing the ids it lacks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Fingerprint {
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    /// Id `i`'s terms.
    fn terms(i: ItemId) -> (u64, u64) {
        let h = splitmix64(u64::from(i.0).wrapping_add(1));
        (h, h.rotate_left(i.0 % 61))
    }

    /// With `i` added.
    fn with(self, i: ItemId) -> Fingerprint {
        let (h, x) = Fingerprint::terms(i);
        Fingerprint {
            sum: self.sum.wrapping_add(h),
            xor: self.xor ^ x,
        }
    }

    /// With one copy of `i` taken out.
    fn without(self, i: ItemId) -> Fingerprint {
        let (h, x) = Fingerprint::terms(i);
        Fingerprint {
            sum: self.sum.wrapping_sub(h),
            xor: self.xor ^ x,
        }
    }

    fn value(self) -> u128 {
        (u128::from(self.sum) << 64) | u128::from(self.xor)
    }
}

/// Order-independent 128-bit fingerprint of an itemset (see
/// [`Fingerprint`]). Permutations of the same multiset produce the same
/// fingerprint without sorting — the "canonical without a per-query
/// sort" half of [`QueryKey`]'s contract. The empty itemset (resolved
/// from the provider at prepare time) fingerprints to zero.
fn itemset_fingerprint(items: &[ItemId]) -> u128 {
    items
        .iter()
        .fold(Fingerprint::default(), |fp, &i| fp.with(i))
        .value()
}

/// A provider's item catalog `0..n` as one shared [`Itemset`], with its
/// fingerprint: what a query without an itemset subtracts its members'
/// rated items from. Built once per catalog size and shared by `Arc`
/// (a live engine's epochs share one until a publish grows the
/// catalog), so a default-itemset query never builds or hashes a
/// catalog-sized set.
#[derive(Debug)]
pub(crate) struct Catalog {
    items: Itemset,
    fp: Fingerprint,
}

impl Catalog {
    /// The catalog `0..n`.
    pub(crate) fn new(n: usize) -> Arc<Catalog> {
        let empty = Catalog {
            items: Itemset::new(Vec::new()),
            fp: Fingerprint::default(),
        };
        Arc::new(empty).resized(n)
    }

    /// This catalog grown to size `n` (a catalog never shrinks): itself
    /// when `n` is its size, extended by the new ids only otherwise.
    pub(crate) fn resized(self: &Arc<Catalog>, n: usize) -> Arc<Catalog> {
        let len = self.items.len();
        debug_assert!(n >= len, "a catalog never shrinks");
        if n == len {
            return Arc::clone(self);
        }
        Arc::new(Catalog {
            items: self.items.grown(n),
            fp: (len as u32..n as u32).fold(self.fp, |fp, i| fp.with(ItemId(i))),
        })
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

/// Canonical, hashable identity of one [`GroupQuery`]'s full parameter
/// set — the key serving layers memoize results under.
///
/// Two queries with equal keys are guaranteed to produce bit-identical
/// results against the same engine state: group members (already
/// canonical — [`Group`] keeps them sorted), effective period, affinity
/// mode, list layout, consensus function, rpref normalization, `k`, the
/// stopping rule, and the candidate itemset all participate.
/// A given itemset enters as its length plus an order-independent
/// 128-bit fingerprint, so permutations of one itemset share a key at
/// `O(m)` hashing cost with no sort and no copy. (A fingerprint
/// collision between two *different* itemsets is theoretically possible
/// but needs on the order of 2⁶⁴ distinct itemsets under one key scope
/// to become likely; an epoch-scoped serving cache is many orders of
/// magnitude below that.) An omitted itemset keys as the empty
/// fingerprint at `O(1)`, which is sound because its resolution (the
/// catalog minus the members' rated items) is a deterministic function
/// of the group and the engine state the cache is scoped beside.
///
/// The key deliberately excludes the engine and its data: a result
/// cache must be scoped to one engine state — the serving layer scopes
/// per [`LiveEngine`](crate::live::LiveEngine) epoch and, on publish,
/// keeps exactly the entries whose [`QueryFootprint`] is disjoint from
/// the published dirty set (see
/// [`LiveEngine::on_publish_delta`](crate::live::LiveEngine::on_publish_delta)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    members: Vec<UserId>,
    items_len: usize,
    items_fp: u128,
    period: usize,
    mode: ModeKey,
    layout: ListLayout,
    consensus: ConsensusKey,
    normalize_rpref: bool,
    k: usize,
    stopping: StoppingRule,
}

impl QueryKey {
    /// The slice of mutable engine state this query's result depends
    /// on. See [`QueryFootprint`] for the soundness argument.
    pub fn footprint(&self) -> QueryFootprint {
        QueryFootprint {
            members: self.members.clone(),
        }
    }
}

/// The slice of *mutable* engine state one query's result depends on:
/// its group's member set.
///
/// A cached result keyed by the matching [`QueryKey`] stays
/// bit-identical across an epoch publish when no member is in the
/// publish's `DirtySet::users`. The kernel reads (a) each member's
/// preference list, and the dirty-set contract guarantees
/// `dirty.users` covers every user whose list changed, including
/// co-raters and emptied rows under user-CF; (b) pair affinity between
/// members, which comes from the population index, fixed for the
/// engine's lifetime (a rating-derived source would go stale only on
/// pairs in `dirty.pairs`, and each of those holds a rater, who is in
/// `dirty.users`); and (c) the default candidate itemset, a
/// deterministic function of the members' own rating rows. Every other
/// key dimension (itemset, period, mode, …) is fixed per query, so it
/// cannot tell two publishes apart. On the full-rebuild fallback the
/// dirty set is only a lower bound, so callers must treat *everything*
/// as dirty (see [`PublishDelta::full_rebuild`](crate::live::PublishDelta)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryFootprint {
    /// Sorted ascending ([`Group`] keeps members canonical).
    members: Vec<UserId>,
}

impl QueryFootprint {
    /// The footprint of any query over `members` (sorted and
    /// deduplicated here) — what [`QueryKey::footprint`] returns for
    /// the same member set, available before a query is built.
    pub fn new(mut members: Vec<UserId>) -> QueryFootprint {
        members.sort_unstable();
        members.dedup();
        QueryFootprint { members }
    }

    /// The member set (sorted ascending).
    pub fn members(&self) -> &[UserId] {
        &self.members
    }

    /// Whether a publish with this dirty set can change the result:
    /// true iff a member's preference list is dirty. Disjoint ⇒ the
    /// cached result is bit-identical at the new epoch — unless the
    /// publish fell back to a full rebuild, which callers must check
    /// *before* consulting this.
    pub fn intersects(&self, dirty: &greca_cf::DirtySet) -> bool {
        dirty.intersects_users(&self.members)
    }

    /// Replace the member set (re-canonicalized by sorting). This exists
    /// for fault-injection tests that deliberately widen or narrow a
    /// footprint to prove the survival invariants would catch a wrong
    /// one.
    pub fn with_members(self, members: Vec<UserId>) -> QueryFootprint {
        QueryFootprint::new(members)
    }
}

/// The long-lived serving engine: a preference provider (any CF model)
/// plus the population-affinity index, optionally warmed with a shared
/// [`Substrate`] of precomputed sorted storage.
///
/// Both index substrates are borrowed; the precomputed storage is a
/// shared `Arc`, so cloning an engine is cheap and clones serve from
/// the same buffers. The kernel
/// workspace is not the engine's: each thread keeps its own (see
/// [`GrecaScratch`]), so an engine built per request — the serving
/// layer builds one per pinned epoch — still runs on a warm one. The
/// provider is a trait object so heterogeneous deployments (user CF,
/// raw ratings, hand-built tables) serve through one engine type;
/// `Sync` is required so [`run_batch`] can fan queries out across
/// threads.
#[derive(Clone)]
pub struct GrecaEngine<'a> {
    provider: &'a (dyn PreferenceProvider + Sync + 'a),
    population: &'a PopulationAffinity,
    substrate: Option<Arc<Substrate>>,
    /// The provider's catalog, built by the first default-itemset query
    /// unless the engine was handed one (a live epoch holds it).
    catalog: OnceLock<Option<Arc<Catalog>>>,
}

impl std::fmt::Debug for GrecaEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrecaEngine")
            .field("universe", &self.population.universe().len())
            .field("periods", &self.population.num_periods())
            .field("warm", &self.substrate.is_some())
            .finish()
    }
}

impl<'a> GrecaEngine<'a> {
    /// Wrap the substrates *cold*: every query materializes its own
    /// sorted lists. Cheap to construct; right for one-off queries or an
    /// index that is still being appended to.
    pub fn new(
        provider: &'a (dyn PreferenceProvider + Sync + 'a),
        population: &'a PopulationAffinity,
    ) -> Self {
        GrecaEngine {
            provider,
            population,
            substrate: None,
            catalog: OnceLock::new(),
        }
    }

    /// Wrap the substrates *warm*: precompute every universe user's
    /// sorted preference list over `items`, once, into shared storage.
    /// Queries then prepare by slicing views instead of sorting
    /// preference lists (see the module docs).
    pub fn warm(
        provider: &'a (dyn PreferenceProvider + Sync + 'a),
        population: &'a PopulationAffinity,
        items: &[ItemId],
    ) -> Result<Self, QueryError> {
        let substrate = Substrate::build(provider, population, items)?;
        Ok(Self::with_substrate(
            provider,
            population,
            Arc::new(substrate),
        ))
    }

    /// Like [`GrecaEngine::warm`], but precomputes preference segments
    /// only for `users` — the right call when only a known cohort forms
    /// groups. Queries touching other users fall back to cold
    /// materialization transparently.
    pub fn warm_for(
        provider: &'a (dyn PreferenceProvider + Sync + 'a),
        population: &'a PopulationAffinity,
        items: &[ItemId],
        users: &[UserId],
    ) -> Result<Self, QueryError> {
        let substrate = Substrate::build_for(provider, population, items, users)?;
        Ok(Self::with_substrate(
            provider,
            population,
            Arc::new(substrate),
        ))
    }

    /// Wrap the substrates around an existing shared [`Substrate`]
    /// (e.g. one built once and shared across engines or shards). The
    /// substrate holds preference segments only, so any population
    /// index pairs with it; `provider` must be the one its resident
    /// segments were built from.
    pub fn with_substrate(
        provider: &'a (dyn PreferenceProvider + Sync + 'a),
        population: &'a PopulationAffinity,
        substrate: Arc<Substrate>,
    ) -> Self {
        GrecaEngine {
            provider,
            population,
            substrate: Some(substrate),
            catalog: OnceLock::new(),
        }
    }

    /// This engine resolving default itemsets against `catalog`, which
    /// must be the provider's, built beforehand.
    pub(crate) fn with_catalog(self, catalog: Arc<Catalog>) -> Self {
        debug_assert_eq!(self.provider.catalog_size(), Some(catalog.len()));
        GrecaEngine {
            catalog: OnceLock::from(Some(catalog)),
            ..self
        }
    }

    /// The provider's catalog, if it has one.
    fn catalog(&self) -> Option<&Arc<Catalog>> {
        self.catalog
            .get_or_init(|| self.provider.catalog_size().map(Catalog::new))
            .as_ref()
    }

    /// The shared precomputed storage, when the engine is warm.
    pub fn substrate(&self) -> Option<&Arc<Substrate>> {
        self.substrate.as_ref()
    }

    /// Whether the engine serves from precomputed storage.
    pub fn is_warm(&self) -> bool {
        self.substrate.is_some()
    }

    /// Start a query for `group` with the paper's defaults.
    pub fn query<'q>(&'q self, group: &'q Group) -> GroupQuery<'q> {
        GroupQuery {
            engine: self,
            group,
            items: &[],
            period: None,
            mode: AffinityMode::Discrete,
            layout: ListLayout::Decomposed,
            consensus: ConsensusFunction::average_preference(),
            normalize_rpref: true,
            k: PAPER_DEFAULT_K,
            stopping: StoppingRule::Greca,
        }
    }

    /// The population-affinity index this engine serves from.
    pub fn population(&self) -> &'a PopulationAffinity {
        self.population
    }

    /// Execute many prepared queries in parallel — see [`run_batch`].
    pub fn run_batch(&self, queries: &[GroupQuery<'_>]) -> BatchResult {
        run_batch(queries)
    }
}

/// One fluent group query against a [`GrecaEngine`].
///
/// Defaults (the paper's §4.2 settings): `k = 10`, AP consensus,
/// discrete affinity mode, decomposed list layout, normalized relative
/// preference, the current (latest) period, GRECA's buffer stopping rule.
/// The itemset itself defaults to the group's candidate set (every
/// catalog item no member has rated — §2.4), which is never built: see
/// [`prepare_shared`](Self::prepare_shared). Supply
/// [`items`](Self::items) to override it.
#[derive(Clone, Copy)]
pub struct GroupQuery<'q> {
    engine: &'q GrecaEngine<'q>,
    group: &'q Group,
    items: &'q [ItemId],
    period: Option<usize>,
    mode: AffinityMode,
    layout: ListLayout,
    consensus: ConsensusFunction,
    normalize_rpref: bool,
    k: usize,
    stopping: StoppingRule,
}

impl std::fmt::Debug for GroupQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupQuery")
            .field("group", &self.group.members())
            .field("items", &self.items.len())
            .field("period", &self.period)
            .field("mode", &self.mode)
            .field("layout", &self.layout)
            .field("consensus", &self.consensus.label())
            .field("normalize_rpref", &self.normalize_rpref)
            .field("k", &self.k)
            .field("stopping", &self.stopping)
            .finish()
    }
}

impl<'q> GroupQuery<'q> {
    /// The candidate itemset (§2.4 poses the problem over one shared
    /// itemset `I`). Optional: when omitted, the query runs over the
    /// provider's catalog ([`catalog_size`](PreferenceProvider::catalog_size))
    /// minus the items any member rated
    /// ([`rated_items`](PreferenceProvider::rated_items)); a provider
    /// without a catalog (e.g. a hand-built score table), or a group
    /// that rated every item, then yields [`QueryError::EmptyItemset`].
    pub fn items(mut self, items: &'q [ItemId]) -> Self {
        self.items = items;
        self
    }

    /// Query period index (default: the index's latest period).
    pub fn period(mut self, period_idx: usize) -> Self {
        self.period = Some(period_idx);
        self
    }

    /// Affinity mode (default: [`AffinityMode::Discrete`]).
    pub fn affinity(mut self, mode: AffinityMode) -> Self {
        self.mode = mode;
        self
    }

    /// Affinity-list layout (default: [`ListLayout::Decomposed`]).
    pub fn layout(mut self, layout: ListLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Consensus function (default: AP, average preference).
    pub fn consensus(mut self, consensus: ConsensusFunction) -> Self {
        self.consensus = consensus;
        self
    }

    /// Whether relative preference is normalized by `|G|−1`
    /// (default: `true`; the paper's verbatim formula uses `false`).
    pub fn normalize_rpref(mut self, normalize: bool) -> Self {
        self.normalize_rpref = normalize;
        self
    }

    /// Result size `k` (default: 10).
    pub fn top(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// GRECA's stopping rule (default: [`StoppingRule::Greca`]).
    pub fn stopping(mut self, stopping: StoppingRule) -> Self {
        self.stopping = stopping;
        self
    }

    /// The query's canonical cache key — see [`QueryKey`]. `O(n + m)`
    /// in group size and the given itemset's length (`O(n)` for an
    /// omitted one); no allocation beyond the member copy, no sorting.
    pub fn cache_key(&self) -> QueryKey {
        self.key_with_fingerprint(itemset_fingerprint(self.items))
    }

    /// [`cache_key`](Self::cache_key) with the itemset's fingerprint
    /// already computed.
    fn key_with_fingerprint(&self, items_fp: u128) -> QueryKey {
        QueryKey {
            members: self.group.members().to_vec(),
            items_len: self.items.len(),
            items_fp,
            period: self.effective_period(),
            mode: ModeKey::from(self.mode),
            layout: self.layout,
            consensus: ConsensusKey::from(self.consensus),
            normalize_rpref: self.normalize_rpref,
            k: self.k,
            stopping: self.stopping,
        }
    }

    /// The query's effective period: explicit, or the index's latest.
    pub fn effective_period(&self) -> usize {
        self.period
            .unwrap_or_else(|| self.engine.population.num_periods().saturating_sub(1))
    }

    /// Validate the query's settings without materializing lists.
    ///
    /// An empty itemset is *not* an error here: it is resolved at
    /// [`prepare`](Self::prepare) time from the provider's candidate
    /// set, and only fails there if the provider has no catalog.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.k == 0 {
            return Err(QueryError::ZeroK);
        }
        let num_periods = self.engine.population.num_periods();
        let period = self.effective_period();
        // A temporal mode against an index with no periods would
        // silently degrade to static-only scoring; refuse instead. A
        // static-only index still answers period-0 queries for the
        // non-temporal modes.
        if self.mode.is_temporal() && num_periods == 0 {
            return Err(QueryError::PeriodOutOfRange {
                period,
                num_periods,
            });
        }
        if period >= num_periods.max(1) {
            return Err(QueryError::PeriodOutOfRange {
                period,
                num_periods,
            });
        }
        for &u in self.group.members() {
            if !self.engine.population.contains_user(u) {
                return Err(QueryError::UnknownMember(u));
            }
        }
        Ok(())
    }

    /// Materialize or select the sorted lists once; the result can then
    /// run again — under other stopping rules or consensus functions, or
    /// through a §4.2 baseline over the *same* inputs (the fair-`%SA`
    /// setup) — without paying preparation again.
    ///
    /// On a warm engine this takes substrate handles (no per-user sort,
    /// no preference-entry clone); on a cold engine — or for a query the
    /// substrate cannot serve (unknown user, foreign or duplicated
    /// items) — it derives each member's column with the segment
    /// builder. Both paths are bit-identical. This is
    /// [`prepare_shared`](Self::prepare_shared) over a fresh, per-call
    /// [`SharedMemberState`].
    pub fn prepare(&self) -> Result<PreparedQuery, QueryError> {
        self.prepare_shared(&SharedMemberState::new())
    }

    /// Like [`prepare`](Self::prepare), but resolving per-member sorted
    /// lists through a caller-scoped [`SharedMemberState`] arena so
    /// queries whose groups overlap share the resolution work. Every
    /// shared value is a deterministic function of the engine state and
    /// the `(member, itemset)` key, so the preparation — and any
    /// execution over it — is bit-identical to a fresh arena's.
    ///
    /// A given itemset is fingerprinted in `O(m)`. An omitted one — the
    /// catalog minus `E`, the items any member rated — is neither built
    /// nor hashed: its fingerprint is the catalog's (built once per
    /// catalog size) with `E`'s terms taken out, and each member's column
    /// is their catalog column with `E` left out, so preparing it costs
    /// what the group rated and what its columns hold, not the catalog.
    ///
    /// **Scope contract:** `shared` must be used against exactly one
    /// engine state (the planner builds one arena per engine partition;
    /// a live epoch owns one,
    /// [`PinnedEpoch::members`](crate::live::PinnedEpoch::members)).
    /// Crossing engines or epochs would serve stale lists.
    pub fn prepare_shared(&self, shared: &SharedMemberState) -> Result<PreparedQuery, QueryError> {
        let _prepare = crate::obs::phase(crate::obs::Phase::Prepare);
        self.validate()?;
        // Zero for an omitted itemset, which keys as the empty one.
        let fp = itemset_fingerprint(self.items);
        let (prefs, is_warm) = if self.items.is_empty() {
            self.default_columns(shared)?
        } else {
            self.explicit_columns(shared, fp)?
        };
        let affinity = Arc::new(self.engine.population.group_view(
            self.group,
            self.effective_period(),
            self.mode,
        ));
        Ok(PreparedQuery {
            inputs: PreparedInputs::new(prefs, &affinity, self.layout)?,
            affinity,
            is_warm,
            normalize_rpref: self.normalize_rpref,
            consensus: self.consensus,
            k: self.k,
            stopping: self.stopping,
            key: Some(self.key_with_fingerprint(fp)),
        })
    }

    /// The members' columns over the given itemset (fingerprint `fp`),
    /// and whether the substrate served them. The substrate serves the
    /// query iff it covers every member and every item, each once;
    /// otherwise every column is derived cold.
    fn explicit_columns(
        &self,
        shared: &SharedMemberState,
        fp: u128,
    ) -> Result<(Vec<SegmentHandle>, bool), QueryError> {
        // Itemset-scoped columns are keyed the way `QueryKey`
        // identifies itemsets.
        let scope = MemberScope::Itemset {
            len: self.items.len(),
            fp,
        };
        let provider = self.engine.provider;
        let members = self.group.members();
        let coverage = self.engine.substrate.as_deref().and_then(|substrate| {
            let covered = members.iter().all(|&u| substrate.user_index(u).is_some());
            covered
                .then(|| substrate.item_coverage(self.items))
                .flatten()
                .map(|coverage| (substrate, coverage))
        });
        // The columns of one itemset share the arena's copy of its ids.
        let itemset = || shared.itemset(scope, || Itemset::new(self.items.to_vec()));
        let Some((substrate, coverage)) = coverage else {
            let itemset = itemset();
            let prefs = members
                .iter()
                .map(|&u| shared.resolve(u, scope, || SegmentHandle::derive(provider, u, &itemset)))
                .collect::<Result<_, _>>()?;
            return Ok((prefs, false));
        };
        let universe = self.universe_columns(shared, substrate)?;
        let prefs = match coverage {
            ItemCoverage::Full => universe,
            ItemCoverage::Subset(mask) => {
                let itemset = itemset();
                members
                    .iter()
                    .zip(&universe)
                    .map(|(&u, h)| {
                        shared.resolve(u, scope, || {
                            Ok(substrate.filtered_handle(h, &mask, &itemset))
                        })
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        Ok((prefs, true))
    }

    /// The members' columns over the default itemset — the catalog minus
    /// `E`, the items any member rated — and whether the substrate
    /// served them. Nothing here is catalog-sized: the scope's
    /// fingerprint is the catalog's with `E`'s terms taken out, and each
    /// column is the member's column over the catalog with `E` dropped
    /// from its support and merged into its run's skip list. The catalog
    /// column is the member's resident segment when the substrate's
    /// universe is the catalog and covers every member, and is derived
    /// cold otherwise.
    fn default_columns(
        &self,
        shared: &SharedMemberState,
    ) -> Result<(Vec<SegmentHandle>, bool), QueryError> {
        let catalog = self.engine.catalog().ok_or(QueryError::EmptyItemset)?;
        let provider = self.engine.provider;
        let rated = provider.rated_items(self.group);
        // The fingerprint subtraction and the columns' skip lists need
        // ascending, distinct catalog ids; checking costs `O(|E|)`.
        assert!(
            rated.windows(2).all(|w| w[0] < w[1])
                && rated.last().is_none_or(|i| i.idx() < catalog.len()),
            "PreferenceProvider::rated_items must return ascending, distinct ids \
             below catalog_size {}",
            catalog.len()
        );
        if rated.len() == catalog.len() {
            return Err(QueryError::EmptyItemset);
        }
        let fp = rated.iter().fold(catalog.fp, |fp, &i| fp.without(i));
        let scope = MemberScope::Itemset {
            len: catalog.len() - rated.len(),
            fp: fp.value(),
        };
        let itemset = catalog.items.without(rated.iter().map(|i| i.0).collect());
        let members = self.group.members();
        let warm = self.engine.substrate.as_deref().filter(|substrate| {
            substrate.is_catalog(catalog.len())
                && members.iter().all(|&u| substrate.user_index(u).is_some())
        });
        let prefs = match warm {
            Some(substrate) => self
                .universe_columns(shared, substrate)?
                .into_iter()
                .zip(members)
                .map(|(h, &u)| shared.resolve(u, scope, || Ok(h.excluding(&itemset))))
                .collect::<Result<_, _>>()?,
            None => members
                .iter()
                .map(|&u| {
                    shared.resolve(u, scope, || {
                        Ok(SegmentHandle::derive(provider, u, &catalog.items)?.excluding(&itemset))
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        Ok((prefs, warm.is_some()))
    }

    /// The members' resident (or lazy) columns over the substrate's
    /// universe; every member must be covered.
    fn universe_columns(
        &self,
        shared: &SharedMemberState,
        substrate: &Substrate,
    ) -> Result<Vec<SegmentHandle>, QueryError> {
        let provider = self.engine.provider;
        self.group
            .members()
            .iter()
            .map(|&u| {
                let i = substrate.user_index(u).expect("every member is covered");
                shared.resolve(u, MemberScope::Universe, || {
                    substrate.segment_handle(provider, i)
                })
            })
            .collect()
    }

    /// Prepare and execute in one call on the calling thread's kernel
    /// workspace (see [`GrecaScratch`]; identical results to
    /// [`PreparedQuery::run_with_scratch`] on a fresh one). This is
    /// [`run_shared`](Self::run_shared) over a fresh, per-call
    /// [`SharedMemberState`].
    pub fn run(&self) -> Result<TopKResult, QueryError> {
        self.run_shared(&SharedMemberState::new())
    }

    /// [`run`](Self::run) through a caller-scoped [`SharedMemberState`]
    /// arena — the batch planner's and serving layer's execution path
    /// for overlapping waves. Bit-identical to [`run`](Self::run).
    pub fn run_shared(&self, shared: &SharedMemberState) -> Result<TopKResult, QueryError> {
        Ok(self.prepare_shared(shared)?.run())
    }

    /// Stable identity of the engine this query targets — the batch
    /// planner's partition key, so shared member state never crosses an
    /// engine (and therefore substrate/epoch) boundary. Meaningful only
    /// within one wave: the pointed-to engine must outlive the
    /// comparison, which the `'q` borrow guarantees.
    pub(crate) fn engine_address(&self) -> usize {
        std::ptr::from_ref(self.engine) as usize
    }

    /// The group's members (canonical: [`Group`] keeps them sorted).
    pub(crate) fn group_members(&self) -> &[UserId] {
        self.group.members()
    }
}

/// A prepared query's kernel inputs: one [`SegmentHandle`] per member
/// plus the group's affinity lists, sorted per query from its
/// [`GroupAffinity`] view (tiny: ≤ n−1 entries each). Handles are
/// member-agnostic; views label them with the group-local member index,
/// producing view bundles identical to
/// [`MaterializedInputs::views`](crate::lists::MaterializedInputs::views)'s.
#[derive(Debug, Clone)]
struct PreparedInputs {
    prefs: Vec<SegmentHandle>,
    static_lists: Vec<SortedList>,
    period_lists: Vec<Vec<SortedList>>,
    num_members: usize,
    num_pairs: usize,
    num_items: usize,
}

impl PreparedInputs {
    /// Attach the group's affinity lists to its members' preference
    /// columns, which must all rank the same itemset: `O(n)` for the
    /// columns of one preparation, which share it. Panics otherwise.
    fn new(
        prefs: Vec<SegmentHandle>,
        affinity: &GroupAffinity,
        layout: ListLayout,
    ) -> Result<Self, QueryError> {
        let num_members = affinity.members().len();
        assert_eq!(
            prefs.len(),
            num_members,
            "one preference list per group member"
        );
        assert!(
            prefs.windows(2).all(|w| w[0].ranks_same_itemset(&w[1])),
            "preference lists must rank the same itemset"
        );
        let num_items = prefs.first().map_or(0, |h| h.view(0).len());
        let (static_lists, period_lists) = group_affinity_list_sets(affinity, layout)?;
        Ok(PreparedInputs {
            prefs,
            static_lists,
            period_lists,
            num_members,
            num_pairs: affinity.num_pairs(),
            num_items,
        })
    }

    fn views(&self) -> GrecaInputs<'_> {
        GrecaInputs::assemble(
            self.prefs
                .iter()
                .enumerate()
                .map(|(m, h)| h.view(m as u32))
                .collect(),
            self.static_lists.iter().map(SortedList::as_view).collect(),
            self.period_lists
                .iter()
                .map(|ls| ls.iter().map(SortedList::as_view).collect())
                .collect(),
            self.num_members,
            self.num_pairs,
            self.num_items,
        )
    }
}

/// A query whose sorted-list inputs are materialized or selected.
///
/// Holds everything an execution needs — the group's affinity view, one
/// [`SegmentHandle`] per member, and the query's scoring settings — so
/// repeated runs (stopping rules, baselines, the §4.2 sweeps) share one
/// preparation.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    affinity: Arc<GroupAffinity>,
    inputs: PreparedInputs,
    /// Whether the substrate served the columns (see
    /// [`PreparedQuery::is_warm`]).
    is_warm: bool,
    normalize_rpref: bool,
    consensus: ConsensusFunction,
    k: usize,
    stopping: StoppingRule,
    /// The originating query's canonical key, kept in sync by the
    /// scoring mutators below. `None` for hand-assembled preparations
    /// ([`PreparedQuery::from_parts`]), whose inputs never came from an
    /// engine a cache could be scoped beside.
    key: Option<QueryKey>,
}

impl PreparedQuery {
    /// Assemble directly from hand-built parts — the path for inputs
    /// that did not come from a CF model, e.g. the paper's §3.1 running
    /// example, whose preference lists are given as tables. Scoring
    /// settings start at the paper defaults; chain
    /// [`consensus`](Self::consensus) / [`top`](Self::top) /
    /// [`stopping`](Self::stopping) to adjust.
    pub fn from_parts(
        affinity: GroupAffinity,
        pref_lists: &[PreferenceList],
        layout: ListLayout,
        normalize_rpref: bool,
    ) -> Result<Self, QueryError> {
        let itemset = Itemset::new(common_itemset(pref_lists));
        let prefs = pref_lists
            .iter()
            .map(|l| {
                let entries = l.entries.iter().map(|&(i, s)| (i.0, s)).collect();
                SortedList::new(ListKind::Preference { member: 0 }, entries)
                    .map(|list| SegmentHandle::listed(&itemset, list.into_columns()))
            })
            .collect::<Result<_, NonFiniteEntry>>()?;
        let inputs = PreparedInputs::new(prefs, &affinity, layout)?;
        Ok(PreparedQuery {
            affinity: Arc::new(affinity),
            inputs,
            is_warm: false,
            normalize_rpref,
            consensus: ConsensusFunction::average_preference(),
            k: PAPER_DEFAULT_K,
            stopping: StoppingRule::Greca,
            key: None,
        })
    }

    /// Replace the consensus function.
    pub fn consensus(mut self, consensus: ConsensusFunction) -> Self {
        self.consensus = consensus;
        if let Some(key) = &mut self.key {
            key.consensus = ConsensusKey::from(consensus);
        }
        self
    }

    /// Replace the result size.
    pub fn top(mut self, k: usize) -> Self {
        self.k = k;
        if let Some(key) = &mut self.key {
            key.k = k;
        }
        self
    }

    /// Replace the stopping rule.
    pub fn stopping(mut self, stopping: StoppingRule) -> Self {
        self.stopping = stopping;
        if let Some(key) = &mut self.key {
            key.stopping = stopping;
        }
        self
    }

    /// The canonical cache key of the query this preparation came from,
    /// kept in sync across the scoring mutators — equal to what
    /// [`GroupQuery::cache_key`] returned (with any
    /// [`top`](Self::top)/[`consensus`](Self::consensus)/
    /// [`stopping`](Self::stopping) replacement applied). `None` for
    /// [`PreparedQuery::from_parts`] preparations.
    pub fn cache_key(&self) -> Option<&QueryKey> {
        self.key.as_ref()
    }

    /// The list views an execution reads (assembled per call over the
    /// query's handles and affinity lists).
    pub fn inputs(&self) -> GrecaInputs<'_> {
        self.inputs.views()
    }

    /// Whether this preparation is served from substrate segments (as
    /// opposed to columns derived from the provider, the cold path, or
    /// hand-built by [`PreparedQuery::from_parts`]).
    pub fn is_warm(&self) -> bool {
        self.is_warm
    }

    /// The group's affinity view at the query period.
    pub fn affinity(&self) -> &GroupAffinity {
        &self.affinity
    }

    /// The result size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The consensus function runs score with.
    pub fn consensus_function(&self) -> ConsensusFunction {
        self.consensus
    }

    /// Whether relative preference is normalized by `|G|−1`.
    pub fn normalize_rpref(&self) -> bool {
        self.normalize_rpref
    }

    /// Execute GRECA on the calling thread's kernel workspace (see
    /// [`GrecaScratch`]).
    pub fn run(&self) -> TopKResult {
        with_thread_scratch(|scratch| self.execute_with(self.consensus, scratch))
    }

    /// Execute GRECA on a caller-owned kernel workspace — bit-identical
    /// to [`PreparedQuery::run`].
    pub fn run_with_scratch(&self, scratch: &mut GrecaScratch) -> TopKResult {
        self.execute_with(self.consensus, scratch)
    }

    /// Execute GRECA under a different consensus function without
    /// re-preparing the lists (the consensus-sweep path of the
    /// §4.1/§4.2 experiments).
    pub fn run_with(&self, consensus: ConsensusFunction) -> TopKResult {
        with_thread_scratch(|scratch| self.execute_with(consensus, scratch))
    }

    fn execute_with(&self, consensus: ConsensusFunction, scratch: &mut GrecaScratch) -> TopKResult {
        let kernel_timer = crate::obs::phase(crate::obs::Phase::Kernel);
        let result = greca_topk_with(
            &self.inputs.views(),
            &self.affinity,
            consensus,
            self.normalize_rpref,
            GrecaConfig::top(self.k).stopping(self.stopping),
            scratch,
        );
        drop(kernel_timer);
        crate::obs::note_access(result.stats.sa, result.stats.ra);
        result
    }

    /// Exact consensus scores of every candidate item, descending, ties
    /// by ascending id — the reference every top-k is checked against
    /// (no access accounting).
    pub fn exact_scores(&self) -> Vec<(ItemId, f64)> {
        let inputs = self.inputs.views();
        let n = inputs.num_members;
        let mut aprefs: HashMap<u32, Vec<f64>> = HashMap::with_capacity(inputs.num_items);
        for (member, list) in inputs.pref_lists.iter().enumerate() {
            for (id, score) in list.iter() {
                aprefs.entry(id).or_insert_with(|| vec![0.0; n])[member] = score;
            }
        }
        let scorer = GroupScorer::new(
            (*self.affinity).clone(),
            self.consensus,
            self.normalize_rpref,
        );
        let mut scored: Vec<(ItemId, f64)> = aprefs
            .into_iter()
            .map(|(id, a)| (ItemId(id), scorer.score(&a)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then_with(|| a.0.cmp(&b.0))
        });
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_affinity::TableAffinitySource;
    use greca_cf::RawRatings;
    use greca_dataset::{Granularity, RatingMatrixBuilder, Timeline};

    fn world() -> (greca_dataset::RatingMatrix, PopulationAffinity, Vec<ItemId>) {
        let mut b = RatingMatrixBuilder::new(3, 4);
        b.rate(UserId(0), ItemId(0), 5.0, 0)
            .rate(UserId(0), ItemId(2), 3.0, 0)
            .rate(UserId(1), ItemId(1), 4.0, 0)
            .rate(UserId(2), ItemId(3), 2.0, 0);
        let matrix = b.build();
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 1.0)
            .set_static(UserId(1), UserId(2), 0.7);
        let tl = Timeline::discretize(0, 100, Granularity::Custom(50)).unwrap();
        src.set_periodic(UserId(0), UserId(1), tl.periods()[0].start, 0.8);
        let users = vec![UserId(0), UserId(1), UserId(2)];
        let pop = PopulationAffinity::build(&src, &users, &tl);
        let items: Vec<ItemId> = (0..4).map(ItemId).collect();
        (matrix, pop, items)
    }

    #[test]
    fn cache_key_is_invariant_under_itemset_permutation() {
        let (matrix, pop, items) = world();
        let raw = RawRatings(&matrix);
        let engine = GrecaEngine::new(&raw, &pop);
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let shuffled = vec![ItemId(2), ItemId(0), ItemId(3), ItemId(1)];
        let a = engine.query(&group).items(&items).cache_key();
        let b = engine.query(&group).items(&shuffled).cache_key();
        assert_eq!(a, b, "permutations of one itemset share a key");
        // …and the results they stand for are indeed identical.
        assert_eq!(
            engine.query(&group).items(&items).run().unwrap(),
            engine.query(&group).items(&shuffled).run().unwrap(),
        );
    }

    #[test]
    fn cache_key_separates_every_scoring_parameter() {
        let (matrix, pop, items) = world();
        let raw = RawRatings(&matrix);
        let engine = GrecaEngine::new(&raw, &pop);
        let g01 = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let g02 = Group::new(vec![UserId(0), UserId(2)]).unwrap();
        let base = || engine.query(&g01).items(&items);
        let key = base().cache_key();
        let variants = [
            engine.query(&g02).items(&items).cache_key(),
            base().items(&items[..3]).cache_key(),
            base().period(0).cache_key(),
            base().affinity(AffinityMode::StaticOnly).cache_key(),
            base().layout(ListLayout::Single).cache_key(),
            base()
                .consensus(ConsensusFunction::least_misery())
                .cache_key(),
            base()
                .consensus(ConsensusFunction::pairwise_disagreement(0.8))
                .cache_key(),
            base().normalize_rpref(false).cache_key(),
            base().top(3).cache_key(),
            base().stopping(StoppingRule::ThresholdOnly).cache_key(),
            engine.query(&g01).cache_key(), // default (empty) itemset
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(&key, v, "variant {i} must not collide with the base key");
        }
        // The default rule keys like an explicit one.
        assert_eq!(key, base().stopping(StoppingRule::Greca).cache_key());
    }

    #[test]
    fn prepared_query_key_tracks_scoring_mutators() {
        let (matrix, pop, items) = world();
        let raw = RawRatings(&matrix);
        let engine = GrecaEngine::new(&raw, &pop);
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let prepared = engine.query(&group).items(&items).prepare().unwrap();
        assert_eq!(
            prepared.cache_key(),
            Some(&engine.query(&group).items(&items).cache_key())
        );
        let retargeted = prepared.top(3).consensus(ConsensusFunction::least_misery());
        assert_eq!(
            retargeted.cache_key(),
            Some(
                &engine
                    .query(&group)
                    .items(&items)
                    .top(3)
                    .consensus(ConsensusFunction::least_misery())
                    .cache_key()
            )
        );
        // Hand-assembled preparations have no engine-scoped key.
        let affinity = pop.group_view(&group, 0, AffinityMode::Discrete);
        let lists = greca_cf::group_preference_lists(&raw, &group, &items).unwrap();
        let hand =
            PreparedQuery::from_parts(affinity, &lists, ListLayout::Decomposed, true).unwrap();
        assert_eq!(hand.cache_key(), None);
    }

    /// A 3-user, 60-item world with spread-out raw ratings.
    fn wide_world() -> (greca_dataset::RatingMatrix, PopulationAffinity, Vec<ItemId>) {
        let mut b = RatingMatrixBuilder::new(3, 60);
        for u in 0..3u32 {
            for i in (u..60).step_by(2) {
                b.rate(
                    UserId(u),
                    ItemId(i),
                    ((u * 7 + i * 13) % 10 + 1) as f32 / 2.0,
                    0,
                );
            }
        }
        let (_, pop, _) = world();
        (b.build(), pop, (0..60).map(ItemId).collect())
    }

    #[test]
    fn thread_workspace_runs_match_fresh_workspaces() {
        let (matrix, pop, items) = wide_world();
        let raw = RawRatings(&matrix);
        let engine = GrecaEngine::new(&raw, &pop);
        let group = Group::new(vec![UserId(0), UserId(1), UserId(2)]).unwrap();
        let rules = [
            StoppingRule::Greca,
            StoppingRule::ThresholdOnly,
            StoppingRule::Exhaustive,
        ];
        let mut grown = 0;
        // Growing, shrinking, then growing again: every run reuses
        // the workspace the previous one left behind.
        for m in [4, 15, 60, 30, 8, 2, 20, 45, 60] {
            for rule in rules {
                let query = engine
                    .query(&group)
                    .items(&items[..m])
                    .top(3)
                    .stopping(rule);
                let prepared = query.prepare().unwrap();
                let fresh = prepared.run_with_scratch(&mut GrecaScratch::new());
                assert_eq!(
                    query.run().unwrap(),
                    fresh,
                    "GroupQuery::run, m={m} {rule:?}"
                );
                assert_eq!(prepared.run(), fresh, "PreparedQuery::run, m={m} {rule:?}");
                let lm = ConsensusFunction::least_misery();
                assert_eq!(
                    prepared.run_with(lm),
                    prepared
                        .clone()
                        .consensus(lm)
                        .run_with_scratch(&mut GrecaScratch::new()),
                    "PreparedQuery::run_with, m={m} {rule:?}"
                );
                let bytes = crate::greca::thread_workspace_bytes().expect("workspace kept");
                assert!(bytes >= grown, "capacity is retained across runs");
                grown = bytes;
            }
        }
    }

    #[test]
    fn a_workspace_over_the_budget_is_not_kept() {
        use crate::greca::{thread_workspace_bytes, with_thread_scratch, WORKSPACE_BYTE_BUDGET};
        let (matrix, pop, items) = world();
        let raw = RawRatings(&matrix);
        let engine = GrecaEngine::new(&raw, &pop);
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let query = || engine.query(&group);
        query().items(&items).run().unwrap();
        assert!(thread_workspace_bytes().is_some());
        with_thread_scratch(|scratch| {
            // The workspace is out of its slot: a nested run starts empty.
            assert_eq!(thread_workspace_bytes(), None);
            scratch.inflate_for_test(WORKSPACE_BYTE_BUDGET + 1);
            assert!(scratch.memory_bytes() > WORKSPACE_BYTE_BUDGET);
        });
        assert_eq!(
            thread_workspace_bytes(),
            None,
            "over-budget workspace dropped"
        );
        let fresh = query()
            .items(&items)
            .prepare()
            .unwrap()
            .run_with_scratch(&mut GrecaScratch::new());
        assert_eq!(query().items(&items).run().unwrap(), fresh);
        assert!(thread_workspace_bytes().is_some_and(|b| b <= WORKSPACE_BYTE_BUDGET));
    }

    #[test]
    #[should_panic(expected = "must rank the same itemset")]
    fn hand_built_lists_over_different_ids_are_rejected() {
        let (_, pop, _) = world();
        let group = Group::new(vec![UserId(0), UserId(1)]).unwrap();
        let affinity = pop.group_view(&group, 0, AffinityMode::Discrete);
        let list = |user, ids: [u32; 2]| {
            PreferenceList::from_entries(user, ids.iter().map(|&i| (ItemId(i), 1.0)).collect())
                .unwrap()
        };
        let lists = [list(UserId(0), [0, 1]), list(UserId(1), [0, 2])];
        let _ = PreparedQuery::from_parts(affinity, &lists, ListLayout::Decomposed, true);
    }

    /// A served worker's memory follows what its queries read: one
    /// default-itemset query over a 120,000-item catalog, on the
    /// thread's workspace and an epoch-style arena, keeps well under
    /// 1 MiB in each — the arena holds the itemset's ids and each
    /// member's rated entries, the workspace the items the kernel read.
    #[test]
    fn a_workers_memory_is_bounded_by_what_it_touched() {
        const M: u32 = 120_000;
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let mut b = RatingMatrixBuilder::new(users.len(), M as usize);
        for &u in &users {
            for r in 0..20 {
                b.rate(u, ItemId(u.0 * 7_919 + r * 4_001), 4.0, 0);
            }
        }
        let matrix = b.build();
        let raw = RawRatings(&matrix);
        let mut src = TableAffinitySource::new();
        src.set_static(UserId(0), UserId(1), 0.6)
            .set_static(UserId(2), UserId(5), 0.3);
        let pop = PopulationAffinity::new_static_only(&src, &users);
        // Warm over a small universe: the default itemset is foreign to
        // it, so every column is derived cold, as on a served miss.
        let universe: Vec<ItemId> = (0..500).map(ItemId).collect();
        let engine = GrecaEngine::warm(&raw, &pop, &universe).unwrap();
        let group = Group::new(users.clone()).unwrap();
        let arena = SharedMemberState::new();
        let query = engine.query(&group).affinity(AffinityMode::StaticOnly);
        let top = query.run_shared(&arena).unwrap();
        assert_eq!(
            top,
            query
                .prepare()
                .unwrap()
                .run_with_scratch(&mut GrecaScratch::new())
        );
        let candidates = greca_cf::candidate_items(&matrix, &group).len();
        assert!(candidates > 100_000, "{candidates} candidates");
        let workspace = crate::greca::thread_workspace_bytes().expect("workspace kept");
        assert!(workspace < 1 << 20, "thread workspace: {workspace} bytes");
        assert!(
            arena.memory_bytes() < 1 << 20,
            "arena: {} bytes",
            arena.memory_bytes()
        );
    }

    /// A catalog's fingerprint with the rated ids' terms taken out is
    /// the fingerprint of the built complement, and a grown catalog is
    /// the catalog built at its size.
    #[test]
    fn subtracted_fingerprints_equal_built_ones() {
        let mut seed = 7u64;
        let mut draw = |bound: u64| {
            seed = splitmix64(seed);
            seed % bound
        };
        for _ in 0..200 {
            let n = draw(300) as usize;
            let catalog = Catalog::new(n);
            assert_eq!(catalog.len(), n);
            let all: Vec<ItemId> = (0..n as u32).map(ItemId).collect();
            assert_eq!(catalog.fp.value(), itemset_fingerprint(&all));
            let grown = catalog.resized(n + draw(40) as usize);
            let rebuilt = Catalog::new(grown.len());
            assert_eq!(grown.fp, rebuilt.fp);
            assert!(grown.items.same_as(&rebuilt.items));
            // Rated sets from empty to the whole catalog.
            let density = draw(11);
            let rated: Vec<ItemId> = all.iter().copied().filter(|_| draw(10) < density).collect();
            let rest: Vec<ItemId> = all.iter().copied().filter(|i| !rated.contains(i)).collect();
            let fp = rated.iter().fold(catalog.fp, |fp, &i| fp.without(i));
            assert_eq!(fp.value(), itemset_fingerprint(&rest));
        }
    }

    #[test]
    fn a_poisoned_lock_recovers_instead_of_wedging() {
        // Poison the mutex the way a panicking worker would: die while
        // holding the lock.
        let m = Arc::new(Mutex::new(vec![1u32]));
        let held = Arc::clone(&m);
        std::thread::spawn(move || {
            let _guard = held.lock().unwrap();
            panic!("worker panic while holding the lock");
        })
        .join()
        .unwrap_err();
        assert!(m.is_poisoned());

        // The next lock clears the flag and hands back the value intact.
        lock_unpoisoned(&m).push(2);
        assert!(!m.is_poisoned(), "flag cleared");
        assert_eq!(*lock_unpoisoned(&m), vec![1, 2]);
    }
}
