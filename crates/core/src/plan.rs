//! The batch planner: the one executor for query waves, sharing kernel
//! inputs across overlapping queries.
//!
//! At real scale many concurrent groups *overlap* — the paper's alumni
//! and movie-night scenarios are built on shared members — and a query
//! run on its own re-resolves the same members' preference lists its
//! neighbors just resolved. [`run_batch`] analyzes every wave before
//! execution and shares that per-member work, gated by the
//! kernel-identity invariant (every sharing lever reuses a value that is
//! a deterministic function of the engine state and the query, so a
//! planned wave is bit-identical to running each query alone):
//!
//! 1. **Group-level memoization** — queries are deduped by their
//!    canonical [`QueryKey`]; `n` identical queries cost one kernel run
//!    and `n − 1` clones (the in-process analogue of `greca-serve`'s
//!    single-flight result cache).
//! 2. **A shared member-state arena** — [`SharedMemberState`] hoists
//!    per-member column resolution (a segment handle, a subset filter
//!    pass, a cold derivation — all [`SegmentHandle`]s) out of the
//!    per-query preparation into wave-scoped storage that kernels borrow
//!    read-only and extend monotonically, with a per-member once-latch
//!    ([`std::sync::OnceLock`]) so concurrent workers never duplicate a
//!    resolution.
//! 3. **Overlap bucketing** — a union-find over shared members groups
//!    the wave into connected components; the execution order walks one
//!    bucket at a time so a member's freshly resolved lists are hot
//!    when its other groups run. A wave with nothing to share runs the
//!    same way; it pays only the `O(wave)` analysis.
//!
//! Shared entries are keyed by `(user, itemset identity)` and scoped to
//! **one engine state**: [`run_batch`] partitions the wave by engine
//! identity and arenas never cross partitions, while each published
//! live epoch owns one arena, dropped with the epoch
//! ([`PinnedEpoch::members`](crate::live::PinnedEpoch::members)).
//! `GroupQuery::run`/`prepare` use a fresh arena per call, so a direct
//! run never reads a column another query resolved. Partitioning by
//! identity is also how a caller measures the wave *without* sharing:
//! give each query its own clone of the engine, and every query gets
//! its own arena and no dedup, on the same executor and workers.

use crate::access::{AccessStats, Aggregate};
use crate::greca::TopKResult;
use crate::query::{lock_unpoisoned, GroupQuery, QueryError, QueryKey};
use crate::substrate::SegmentHandle;
use greca_dataset::UserId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries a [`SharedMemberState`] holds before it self-flushes
/// wholesale. Wave-scoped arenas never approach this (one entry per
/// distinct member × itemset); the cap bounds the epoch-scoped serving
/// arena.
const SHARED_STATE_CAP: usize = 8_192;

/// Column bytes ([`SharedMemberState::memory_bytes`]) a
/// [`SharedMemberState`] retains before it self-flushes wholesale. A
/// cold column over a 120,000-item catalog holds ~1.4 MB, so the entry
/// cap alone would let a read-only epoch's arena grow to gigabytes.
const SHARED_STATE_BYTE_BUDGET: usize = 64 << 20;

/// What the planner found in (and did with) one wave.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanStats {
    /// Queries in the wave.
    pub wave: usize,
    /// Distinct queries after [`QueryKey`] dedup.
    pub unique_queries: usize,
    /// Queries answered by cloning another query's result.
    pub dedup_hits: usize,
    /// Overlap buckets (union-find components over shared members)
    /// among the unique queries.
    pub buckets: usize,
    /// Total member slots across the unique queries.
    pub member_slots: usize,
    /// Member slots whose user appears in ≥ 2 unique queries of the
    /// same engine partition.
    pub shared_member_slots: usize,
    /// Distinct member-list resolutions performed by the wave.
    pub resolved_members: u64,
    /// Member-list requests answered from the shared arena.
    pub reused_members: u64,
    /// List entries (resolved prefix items) those reuse hits would have
    /// re-materialized had each query run alone.
    pub reused_prefix_items: u64,
}

impl PlanStats {
    /// Fraction of member slots served by a shared resolution.
    pub fn shared_member_ratio(&self) -> f64 {
        if self.member_slots == 0 {
            0.0
        } else {
            self.shared_member_slots as f64 / self.member_slots as f64
        }
    }
}

/// Which of a member's preference columns an arena entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MemberScope {
    /// The member's full-universe substrate segment
    /// (itemset-independent).
    Universe,
    /// The member's column over one itemset (a subset filter or a cold
    /// derivation), identified the way [`QueryKey`] identifies
    /// itemsets (length + order-independent fingerprint).
    Itemset { len: usize, fp: u128 },
}

type MemberKey = (UserId, MemberScope);
type SharedEntry = Result<SegmentHandle, QueryError>;

/// The shared member-state arena of one batch wave or served epoch.
///
/// Maps `(user, scope)` to that member's resolved preference column,
/// computed **exactly once** per key — concurrent requesters
/// block on the entry's [`OnceLock`] instead of duplicating the
/// resolution — and then borrowed read-only by every kernel that needs
/// it. Entries are pure derived state (a deterministic function of the
/// engine's substrates and the key), which is what makes monotone
/// extension identity-safe: whichever worker resolves a key, the value
/// is the same.
///
/// **Scope contract:** one arena serves one engine state. The planner
/// partitions waves by engine identity and builds one arena per
/// partition; a live epoch owns one
/// ([`PinnedEpoch::members`](crate::live::PinnedEpoch::members)).
/// Failed resolutions are cached too (they are equally deterministic),
/// so a wave of queries hitting the same broken member pays one
/// provider round-trip, not one per query.
///
/// The arena flushes wholesale once it holds 8,192 entries or 64 MiB of
/// columns ([`SharedMemberState::memory_bytes`]).
#[derive(Debug, Default)]
pub struct SharedMemberState {
    entries: Mutex<HashMap<MemberKey, Arc<OnceLock<SharedEntry>>>>,
    /// Bytes of the columns resolved since the last flush
    /// ([`SegmentHandle::owned_bytes`]).
    retained: AtomicUsize,
    resolved: AtomicU64,
    reused: AtomicU64,
    reused_prefix_items: AtomicU64,
}

impl SharedMemberState {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        SharedMemberState::default()
    }

    /// Resolve-or-reuse `user`'s column at `scope`. `init` runs at most
    /// once per key across all threads; everyone else gets the cached
    /// value.
    pub(crate) fn resolve(
        &self,
        user: UserId,
        scope: MemberScope,
        init: impl FnOnce() -> SharedEntry,
    ) -> SharedEntry {
        let key = (user, scope);
        let cell = {
            let mut map = lock_unpoisoned(&self.entries);
            if !map.contains_key(&key)
                && (map.len() >= SHARED_STATE_CAP
                    || self.retained.load(Ordering::Relaxed) >= SHARED_STATE_BYTE_BUDGET)
            {
                // Wholesale self-flush, like the engine's affinity
                // cache: entries are derived state, dropping them only
                // costs re-resolution.
                map.clear();
                self.retained.store(0, Ordering::Relaxed);
            }
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        let mut initialized_here = false;
        let entry = cell.get_or_init(|| {
            initialized_here = true;
            init()
        });
        if initialized_here {
            self.resolved.fetch_add(1, Ordering::Relaxed);
            if let Ok(handle) = entry {
                self.retained
                    .fetch_add(handle.owned_bytes(), Ordering::Relaxed);
            }
        } else {
            self.reused.fetch_add(1, Ordering::Relaxed);
            if let Ok(handle) = entry {
                self.reused_prefix_items
                    .fetch_add(handle.ids().len() as u64, Ordering::Relaxed);
            }
        }
        entry.clone()
    }

    /// Distinct member-list resolutions performed so far.
    pub fn resolved_members(&self) -> u64 {
        self.resolved.load(Ordering::Relaxed)
    }

    /// Requests answered from the arena instead of re-resolving.
    pub fn reused_members(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// List entries those reuse hits would have re-materialized.
    pub fn reused_prefix_items(&self) -> u64 {
        self.reused_prefix_items.load(Ordering::Relaxed)
    }

    /// Entries currently held.
    pub fn entries(&self) -> usize {
        lock_unpoisoned(&self.entries).len()
    }

    /// Approximate bytes retained by the arena: the columns its handles
    /// dequantized or derived since the last flush (a handle's aliased
    /// substrate segment is not counted).
    pub fn memory_bytes(&self) -> usize {
        self.retained.load(Ordering::Relaxed)
    }
}

/// The analyzed shape of one wave, before execution.
struct WavePlan {
    /// Engine-identity partition of each query.
    partition_of: Vec<usize>,
    /// Number of partitions.
    partitions: usize,
    /// `Some(rep)` when the query at this index is a [`QueryKey`]
    /// duplicate of the (unique) query at input index `rep`.
    dup_of: Vec<Option<usize>>,
    /// Unique query input indices in execution order: grouped by
    /// partition, then by overlap bucket, then input order.
    order: Vec<usize>,
    stats: PlanStats,
}

/// Analyze a wave: partition by engine, dedupe by [`QueryKey`], bucket
/// unique queries by member overlap.
fn analyze(queries: &[GroupQuery<'_>]) -> WavePlan {
    // ── Engine partitions ────────────────────────────────────────────
    let mut partition_ids: HashMap<usize, usize> = HashMap::new();
    let partition_of: Vec<usize> = queries
        .iter()
        .map(|q| {
            let addr = q.engine_address();
            let next = partition_ids.len();
            *partition_ids.entry(addr).or_insert(next)
        })
        .collect();
    let partitions = partition_ids.len();

    // ── QueryKey dedup within each partition ─────────────────────────
    let mut reps: HashMap<(usize, QueryKey), usize> = HashMap::new();
    let mut dup_of: Vec<Option<usize>> = Vec::with_capacity(queries.len());
    let mut unique: Vec<usize> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let key = (partition_of[i], q.cache_key());
        match reps.get(&key) {
            Some(&rep) => dup_of.push(Some(rep)),
            None => {
                reps.insert(key, i);
                dup_of.push(None);
                unique.push(i);
            }
        }
    }
    let dedup_hits = queries.len() - unique.len();

    // ── Member overlap among unique queries, per partition ───────────
    let mut member_count: HashMap<(usize, UserId), usize> = HashMap::new();
    let mut member_slots = 0usize;
    for &i in &unique {
        for &u in queries[i].group_members() {
            member_slots += 1;
            *member_count.entry((partition_of[i], u)).or_insert(0) += 1;
        }
    }
    let mut shared_member_slots = 0usize;
    for &i in &unique {
        for &u in queries[i].group_members() {
            if member_count[&(partition_of[i], u)] >= 2 {
                shared_member_slots += 1;
            }
        }
    }

    // ── Union-find buckets over shared members ───────────────────────
    // `parent` is indexed by position within `unique`.
    let mut parent: Vec<usize> = (0..unique.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut first_holder: HashMap<(usize, UserId), usize> = HashMap::new();
    for (pos, &i) in unique.iter().enumerate() {
        for &u in queries[i].group_members() {
            let key = (partition_of[i], u);
            if member_count[&key] < 2 {
                continue;
            }
            match first_holder.get(&key) {
                Some(&other) => {
                    let (a, b) = (find(&mut parent, pos), find(&mut parent, other));
                    if a != b {
                        parent[a.max(b)] = a.min(b);
                    }
                }
                None => {
                    first_holder.insert(key, pos);
                }
            }
        }
    }
    let roots: Vec<usize> = (0..unique.len())
        .map(|pos| find(&mut parent, pos))
        .collect();
    let buckets = {
        let mut distinct: Vec<usize> = roots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.len()
    };

    // ── Execution order: partition, then bucket, then input order ────
    // Bucket-mates run back-to-back, so a member's freshly resolved
    // lists are reused while still hot.
    let mut order: Vec<usize> = unique.clone();
    order.sort_by_key(|&i| {
        let pos = unique.binary_search(&i).expect("i came from unique");
        (partition_of[i], roots[pos], i)
    });

    WavePlan {
        partition_of,
        partitions,
        dup_of,
        order,
        stats: PlanStats {
            wave: queries.len(),
            unique_queries: unique.len(),
            dedup_hits,
            buckets,
            member_slots,
            shared_member_slots,
            resolved_members: 0,
            reused_members: 0,
            reused_prefix_items: 0,
        },
    }
}

/// Results of a [`run_batch`] execution.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query outcome, in input order.
    pub results: Vec<Result<TopKResult, QueryError>>,
    /// Access counters summed over the successful queries.
    pub stats: AccessStats,
    /// What the batch planner found in (and did with) the wave.
    pub plan: PlanStats,
}

impl BatchResult {
    /// The successful results, in input order.
    pub fn successes(&self) -> impl Iterator<Item = &TopKResult> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Mean ± stderr of `%SA` over the successful queries — the figures'
    /// "average over 20 random groups" aggregation.
    pub fn sa_percent_aggregate(&self) -> Aggregate {
        let samples: Vec<f64> = self.successes().map(|r| r.stats.sa_percent()).collect();
        Aggregate::of(&samples)
    }
}

/// Execute many queries in parallel and aggregate their access
/// statistics — the §4.2 many-group harness path.
///
/// The wave is analyzed first (see the module docs): duplicate queries
/// are answered by cloning one representative's result, and unique
/// queries execute through one [`SharedMemberState`] per engine
/// partition, over `min(available_parallelism, #unique queries)` OS
/// threads spawned once per wave and fed by a single atomic work queue
/// (queries cost wildly different amounts, so work-stealing beats
/// static chunking). Both levers are bit-identical to running each
/// query alone with [`GroupQuery::run`], which
/// `crates/core/tests/plan_batch.rs` holds on every storage path.
/// Results keep input order; per-query failures surface as `Err`
/// entries without failing the batch.
pub fn run_batch(queries: &[GroupQuery<'_>]) -> BatchResult {
    // One span for the whole wave. Single-worker execution attributes
    // prepare/kernel phases here too; scoped worker threads run with
    // no active span (their phase timers no-op), so a parallel wave's
    // span records the wave's wall clock without double-counting.
    let batch_span = crate::obs::span(crate::obs::next_trace_id(), crate::obs::SpanKind::Batch);
    let result = execute(queries);
    if batch_span.active() {
        crate::obs::note_ok(true);
    }
    drop(batch_span);
    result
}

fn execute(queries: &[GroupQuery<'_>]) -> BatchResult {
    let mut plan = analyze(queries);
    let states: Vec<SharedMemberState> = (0..plan.partitions)
        .map(|_| SharedMemberState::new())
        .collect();
    let mut slots: Vec<Option<Result<TopKResult, QueryError>>> = Vec::new();
    slots.resize_with(queries.len(), || None);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(plan.order.len().max(1));
    if workers <= 1 {
        for &i in &plan.order {
            slots[i] = Some(queries[i].run_shared(&states[plan.partition_of[i]]));
        }
    } else {
        let order = &plan.order;
        let partition_of = &plan.partition_of;
        let states = &states;
        let next = AtomicUsize::new(0);
        let collected: Vec<Vec<(usize, Result<TopKResult, QueryError>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut out = Vec::new();
                            loop {
                                let j = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&i) = order.get(j) else { break };
                                out.push((i, queries[i].run_shared(&states[partition_of[i]])));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("planned batch worker panicked"))
                    .collect()
            });
        for (i, r) in collected.into_iter().flatten() {
            slots[i] = Some(r);
        }
    }

    // Duplicates: clone the representative's result — bit-identical to
    // re-running it, including per-query access statistics, so the
    // summed batch stats match running every query alone exactly.
    for i in 0..queries.len() {
        if let Some(rep) = plan.dup_of[i] {
            slots[i] = Some(slots[rep].clone().expect("representative executed"));
        }
    }
    let results: Vec<Result<TopKResult, QueryError>> = slots
        .into_iter()
        .map(|r| r.expect("every query index visited"))
        .collect();

    for state in &states {
        plan.stats.resolved_members += state.resolved_members();
        plan.stats.reused_members += state.reused_members();
        plan.stats.reused_prefix_items += state.reused_prefix_items();
    }
    BatchResult {
        stats: sum_stats(&results),
        results,
        plan: plan.stats,
    }
}

/// Access counters summed over a batch's successful queries.
fn sum_stats(results: &[Result<TopKResult, QueryError>]) -> AccessStats {
    let mut stats = AccessStats::default();
    for r in results.iter().filter_map(|r| r.as_ref().ok()) {
        stats.sa += r.stats.sa;
        stats.ra += r.stats.ra;
        stats.total_entries += r.stats.total_entries;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::GrecaEngine;
    use greca_affinity::{AffinityMode, PopulationAffinity, TableAffinitySource};
    use greca_dataset::{Group, ItemId, RatingMatrixBuilder};

    #[test]
    fn an_arena_past_its_byte_budget_flushes_and_stays_identical() {
        // Every cold column over 300,000 items holds 12 B per item.
        const M: u32 = 300_000;
        let users: Vec<UserId> = (0..32).map(UserId).collect();
        let mut b = RatingMatrixBuilder::new(users.len(), M as usize);
        for &u in &users {
            b.rate(u, ItemId(u.0 * 7919), 4.0, 0);
        }
        let matrix = b.build();
        let raw = greca_cf::RawRatings(&matrix);
        let pop = PopulationAffinity::new_static_only(&TableAffinitySource::new(), &users);
        let engine = GrecaEngine::new(&raw, &pop);
        let items: Vec<ItemId> = (0..M).map(ItemId).collect();
        let arena = SharedMemberState::new();
        let mut flushed = false;
        for members in users.chunks(4) {
            let group = Group::new(members.to_vec()).unwrap();
            let query = engine.query(&group).items(&items);
            let query = query.affinity(AffinityMode::StaticOnly);
            let before = arena.entries();
            assert_eq!(query.run_shared(&arena), query.run(), "{members:?}");
            flushed |= arena.entries() < before;
            let bytes = arena.memory_bytes();
            assert!(
                bytes < SHARED_STATE_BYTE_BUDGET + 12 * M as usize,
                "{bytes}"
            );
        }
        assert!(flushed, "eight groups of four pass the budget");
        assert_eq!(arena.resolved_members(), users.len() as u64);
    }
}
