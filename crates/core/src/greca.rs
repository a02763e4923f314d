//! GRECA — Algorithm 1 of the paper.
//!
//! An NRA-style top-k computation making **sequential accesses only**,
//! round-robin over the preference and affinity lists, maintaining an
//! item buffer of `[LB, UB]` envelopes, a global threshold for unseen
//! items, and terminating via either
//!
//! * the **threshold condition** — `Sc_th ≤ kth LB` and the buffer holds
//!   exactly `k` items (lines 16–19), or
//! * the **buffer condition** — the paper's novelty: the buffer holds
//!   `k' > k` items and the `k`-th LB is no smaller than the UB of each
//!   of the remaining `k' − k` items, which are then pruned (lines
//!   21–23; Theorem 1 shows this implies the threshold condition for the
//!   monotone consensus functions).
//!
//! Returned is the top-`k` **itemset** — the ranking inside it may be a
//! partial order, exactly as §3.1 describes.
//!
//! ## The stopping cadence
//!
//! Algorithm 1 tests its stopping conditions after every round-robin
//! sweep. Each test refreshes the bound of every buffered item, so on a
//! large buffer the test costs more than the sweep it follows. The
//! kernel therefore checks once every `(live / 128).clamp(1, 32)` sweeps,
//! where `live` is the number of buffered, unpruned items: every sweep,
//! as in Algorithm 1, while fewer than 256 items are live, and at most
//! every 32 sweeps on a large buffer. This is the one place the
//! implementation departs from the paper's control flow. A condition is
//! noticed at most 31 sweeps late, and late is still correct: bounds
//! only tighten as lists are read, so an item that could be pruned at
//! the missed check can still be pruned at the next one, and the
//! returned itemset is still an exact top-k. The price is at most 31
//! extra sweeps of sequential accesses; the access counts (SA%) of a
//! query whose buffer stays below 256 items are Algorithm 1's exactly.
//!
//! ## The allocation-free kernel
//!
//! The execution core is engineered like a classic NRA/TA inner loop:
//! item state lives in a **dense arena** indexed by the item's position
//! in the first preference list (the substrate's contiguous layout on
//! the warm path) instead of a hash map; bound maintenance is
//! **incremental** (pair envelopes refresh only when an affinity list
//! was read, versioned by bitwise change; fully-resolved items skip
//! recomputation; under no-disagreement consensus only the
//! cursor-driven UB chain recomputes); the k-th lower bound comes from
//! a **bounded binary heap** rather than a full sort; and all working
//! memory lives in a reusable [`GrecaScratch`] workspace. Each thread
//! keeps one (see "The thread's workspace" below), so a long-lived
//! serving thread's kernel allocates nothing in steady state. Every
//! shortcut preserves **bit-identical**
//! results — same itemsets, bounds, access counts, sweeps and stop
//! reasons as the straightforward implementation, which survives
//! verbatim as the oracle in `tests/kernel_identity.rs`.
//!
//! ## The thread's workspace
//!
//! [`greca_topk`], [`GroupQuery::run`](crate::query::GroupQuery::run)
//! and [`PreparedQuery::run`](crate::query::PreparedQuery::run) borrow
//! the calling thread's workspace: they take it out of a thread-local
//! slot for the run and put it back afterwards. A nested run on the
//! same thread therefore starts from an empty workspace, and a run that
//! panics just loses it. A workspace is put back only while it holds at
//! most 32 MiB of capacity, so each thread that runs kernels retains at
//! most that much. Callers that manage their own workspace pass it to
//! [`greca_topk_with`] or
//! [`PreparedQuery::run_with_scratch`](crate::query::PreparedQuery::run_with_scratch).

use crate::access::AccessStats;
use crate::interval::Interval;
use crate::lists::{GrecaInputs, ListKind};
use crate::score::BoundScorer;
use greca_consensus::ConsensusFunction;
use greca_dataset::ItemId;
use std::cell::Cell;

/// Early-termination policy. `Greca` and `ThresholdOnly` test their
/// condition between sweeps, on the cadence the module docs describe
/// ("The stopping cadence"); `Exhaustive` never tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoppingRule {
    /// Full GRECA: buffer condition with inter-item pruning, plus the
    /// (cheap) threshold verification. The default.
    #[default]
    Greca,
    /// Traditional threshold-style stop only: terminate when the
    /// threshold drops below the k-th lower bound **and** the buffer
    /// holds exactly `k` items; no inter-item pruning. This is the
    /// baseline GRECA's buffer condition improves upon (§3.2).
    ThresholdOnly,
    /// Never stop early; scan every list to the end.
    Exhaustive,
}

/// Why a run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The buffer condition fired (k'−k items pruned away).
    Buffer,
    /// The threshold condition fired with exactly k buffered items.
    Threshold,
    /// All lists were scanned to exhaustion.
    Exhausted,
}

/// GRECA run configuration. The stopping-check cadence is not
/// configurable: see the module docs ("The stopping cadence").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrecaConfig {
    /// Result size `k`.
    pub k: usize,
    /// Early-termination policy.
    pub stopping: StoppingRule,
}

impl Default for GrecaConfig {
    /// The paper's default `k = 10` with the standard stopping rule.
    fn default() -> Self {
        GrecaConfig::top(10)
    }
}

impl GrecaConfig {
    /// Default configuration for a given `k`.
    pub fn top(k: usize) -> Self {
        GrecaConfig {
            k,
            stopping: StoppingRule::Greca,
        }
    }

    /// Use the given stopping rule.
    pub fn stopping(mut self, rule: StoppingRule) -> Self {
        self.stopping = rule;
        self
    }
}

/// One returned item with its score envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKItem {
    /// The recommended item.
    pub item: ItemId,
    /// Lower bound of its consensus score at termination.
    pub lb: f64,
    /// Upper bound of its consensus score at termination.
    pub ub: f64,
}

impl TopKItem {
    /// Whether the envelope pinned the exact score.
    pub fn is_exact(&self) -> bool {
        (self.ub - self.lb).abs() <= 1e-9
    }
}

/// Result of a top-k run.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// The top-k itemset, ordered by decreasing lower bound (a partial
    /// order: ties/overlapping envelopes are not further distinguished).
    pub items: Vec<TopKItem>,
    /// Access counters.
    pub stats: AccessStats,
    /// Number of full round-robin sweeps performed.
    pub sweeps: u64,
    /// What terminated the run.
    pub stop_reason: StopReason,
}

impl TopKResult {
    /// The returned item ids in result order.
    pub fn item_ids(&self) -> Vec<ItemId> {
        self.items.iter().map(|t| t.item).collect()
    }
}

/// Per-item state of the dense arena: one slot per candidate item,
/// indexed by the item's position in the first preference list (the
/// substrate's contiguous layout on the warm path). `Copy` so the hot
/// loops read and write it by value.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    /// The item id this slot stands for.
    id: u32,
    /// Apref components not yet seen (`n` at first touch minus reads).
    unseen: u32,
    /// Kernel `aff_version` the stored bounds were computed against.
    aff_version: u32,
    /// Check-counter stamp marking membership in the current top-k.
    topk_stamp: u32,
    /// Whether any preference list has surfaced this item yet.
    buffered: bool,
    /// Pruned by the buffer condition (ignored if re-encountered).
    pruned: bool,
    /// A new apref component landed since the bounds were computed.
    stale: bool,
    /// `[LB, UB]` envelope (meaningful only after the first refresh).
    bounds: Interval,
}

/// Reusable workspace of the GRECA kernel: the dense item arena, cursor
/// state, pair-envelope cache and the bounded top-k heap, all allocated
/// once and recycled across runs.
///
/// A scratch value is plain memory — it carries no results between runs
/// (every buffer is re-initialized by the next
/// [`greca_topk_with`] call) — so reusing one across queries is purely
/// an allocation optimization. Every thread keeps one for the entry
/// points that take no workspace (module docs, "The thread's
/// workspace"); callers that want to own theirs pass it to
/// [`greca_topk_with`].
#[derive(Debug, Default)]
pub struct GrecaScratch {
    /// Item id → arena slot (direct-indexed; rebuilt per run).
    slot_of: Vec<u32>,
    /// One slot per candidate item.
    slots: Vec<SlotMeta>,
    /// Flattened seen aprefs `[slot · n + member]`; NaN = unseen (scores
    /// are validated finite at ingestion).
    aprefs: Vec<f64>,
    /// Slots in first-touch order — the deterministic iteration order
    /// that replaced the old `HashMap` buffer.
    touched: Vec<u32>,
    /// Next read position per list (round-robin list order).
    positions: Vec<usize>,
    /// Last read score per list (round-robin list order).
    cursors: Vec<f64>,
    /// Round-robin index of each period's first list.
    period_base: Vec<usize>,
    /// Seen static component per pair; NaN = unseen.
    pair_static: Vec<f64>,
    /// Seen periodic components, flattened `[period · num_pairs + pair]`.
    pair_period: Vec<f64>,
    /// Cached per-pair affinity envelopes.
    pair_affs: Vec<Interval>,
    /// `n × n` member-pair index table (see `BoundScorer::fill_pair_index`).
    pair_index: Vec<usize>,
    /// Per-member apref cursor, refreshed at each bounds refresh.
    pref_cursors: Vec<f64>,
    /// Apref envelope scratch for one item / the threshold.
    aprefs_iv: Vec<Interval>,
    /// Member-preference envelope scratch for the scorer.
    prefs_iv: Vec<Interval>,
    /// Dense `n × n` lo-endpoint pair-affinity matrix (clamped ≥ 0),
    /// for the split-chain fast path.
    aff_lo_mat: Vec<f64>,
    /// Dense `n × n` hi-endpoint pair-affinity matrix (clamped ≥ 0).
    aff_hi_mat: Vec<f64>,
    /// Raw per-member endpoint values for one item's chain.
    end_vals: Vec<f64>,
    /// The same endpoints clamped ≥ 0 (the `mul_nonneg` operand clamp).
    end_nonneg: Vec<f64>,
    /// Periodic component lows for one pair envelope.
    comp_los: Vec<f64>,
    /// Periodic component highs for one pair envelope.
    comp_his: Vec<f64>,
    /// Bounded top-k heap of `(lb, id)`, worst-at-root.
    heap: Vec<(f64, u32)>,
    /// Final ranking scratch.
    ranked: Vec<(u32, Interval)>,
}

impl GrecaScratch {
    /// An empty workspace (buffers grow on first use and are retained).
    pub fn new() -> Self {
        GrecaScratch::default()
    }

    /// Bytes of heap capacity this workspace retains — what a thread's
    /// slot budgets against. Capacity, not length: buffers are
    /// truncated between runs but keep their allocations, and the
    /// allocation is what a retained workspace actually costs.
    pub fn memory_bytes(&self) -> usize {
        fn vec_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        vec_bytes(&self.slot_of)
            + vec_bytes(&self.slots)
            + vec_bytes(&self.aprefs)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.positions)
            + vec_bytes(&self.cursors)
            + vec_bytes(&self.period_base)
            + vec_bytes(&self.pair_static)
            + vec_bytes(&self.pair_period)
            + vec_bytes(&self.pair_affs)
            + vec_bytes(&self.pair_index)
            + vec_bytes(&self.pref_cursors)
            + vec_bytes(&self.aprefs_iv)
            + vec_bytes(&self.prefs_iv)
            + vec_bytes(&self.aff_lo_mat)
            + vec_bytes(&self.aff_hi_mat)
            + vec_bytes(&self.end_vals)
            + vec_bytes(&self.end_nonneg)
            + vec_bytes(&self.comp_los)
            + vec_bytes(&self.comp_his)
            + vec_bytes(&self.heap)
            + vec_bytes(&self.ranked)
    }

    /// Grow retained capacity to at least `bytes` — test hook for the
    /// thread slot's byte budget.
    #[cfg(test)]
    pub(crate) fn inflate_for_test(&mut self, bytes: usize) {
        self.aprefs
            .reserve(bytes.div_ceil(std::mem::size_of::<f64>()));
    }
}

/// Bytes of capacity a thread may keep in its workspace between runs.
/// One huge-query workspace (an arena sized to a 100k-item itemset) is
/// worth keeping; a larger one is dropped after its run instead — it is
/// pure derived state and rebuilds on demand.
pub(crate) const WORKSPACE_BYTE_BUDGET: usize = 32 << 20;

thread_local! {
    /// The calling thread's kernel workspace; empty while a run has it
    /// out (module docs, "The thread's workspace").
    static WORKSPACE: Cell<Option<GrecaScratch>> = const { Cell::new(None) };
}

/// Run `f` on the calling thread's workspace: take it out of its slot
/// (or start an empty one), and put it back afterwards if it stays
/// within [`WORKSPACE_BYTE_BUDGET`].
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut GrecaScratch) -> R) -> R {
    let mut scratch = WORKSPACE.with(Cell::take).unwrap_or_default();
    let result = f(&mut scratch);
    if scratch.memory_bytes() <= WORKSPACE_BYTE_BUDGET {
        WORKSPACE.with(|slot| slot.set(Some(scratch)));
    }
    result
}

/// Bytes of capacity the calling thread's slot holds (`None` when it
/// holds no workspace).
#[cfg(test)]
pub(crate) fn thread_workspace_bytes() -> Option<usize> {
    WORKSPACE.with(|slot| {
        let scratch = slot.take();
        let bytes = scratch.as_ref().map(GrecaScratch::memory_bytes);
        slot.set(scratch);
        bytes
    })
}

/// Whether `a` ranks strictly *worse* than `b` under the buffer
/// condition's `(LB descending, id ascending)` order.
#[inline]
fn ranks_worse(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// Push into a bounded binary heap keeping the `k` best `(lb, id)`
/// entries; the root is the *worst* kept entry, so once the heap is
/// full its root's `lb` is exactly the k-th largest lower bound.
#[inline]
fn heap_push_bounded(heap: &mut Vec<(f64, u32)>, k: usize, item: (f64, u32)) {
    if heap.len() < k {
        heap.push(item);
        let mut i = heap.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if ranks_worse(heap[i], heap[p]) {
                heap.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    } else if ranks_worse(heap[0], item) {
        heap[0] = item;
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut w = i;
            if l < heap.len() && ranks_worse(heap[l], heap[w]) {
                w = l;
            }
            if r < heap.len() && ranks_worse(heap[r], heap[w]) {
                w = r;
            }
            if w == i {
                break;
            }
            heap.swap(i, w);
            i = w;
        }
    }
}

/// The kernel's per-run state: borrowed inputs and scorer, the scratch
/// arena, and the run counters. Everything allocation-bearing lives in
/// the scratch; this struct is cursors and counters.
struct Kernel<'a, 'b, 's> {
    inputs: &'a GrecaInputs<'a>,
    scorer: BoundScorer<'b>,
    scratch: &'s mut GrecaScratch,
    n: usize,
    num_pairs: usize,
    /// Round-robin index of the first static list.
    static_base: usize,
    stats: AccessStats,
    /// Live (buffered, unpruned) item count.
    live_count: usize,
    /// Items pruned by the buffer condition so far.
    pruned_count: usize,
    /// Bumped whenever any pair envelope changes bitwise; complete items
    /// whose stored version matches skip recomputation.
    aff_version: u32,
    /// An affinity list was read since the last pair-envelope refresh.
    affinity_dirty: bool,
    /// The pair envelopes have been computed at least once.
    pair_affs_ready: bool,
    /// Monotone counter stamping the current check's top-k slots.
    check_stamp: u32,
}

impl<'a, 'b, 's> Kernel<'a, 'b, 's> {
    fn new(
        inputs: &'a GrecaInputs<'a>,
        scorer: BoundScorer<'b>,
        scratch: &'s mut GrecaScratch,
    ) -> Self {
        let n = inputs.num_members;
        let num_pairs = inputs.num_pairs;
        let static_base = inputs.pref_lists.len();
        let stats = AccessStats::new(inputs.total_entries());

        // Re-initialize every scratch buffer for this run (capacity is
        // retained; no allocation after the first run at this shape).
        scratch.positions.clear();
        scratch.cursors.clear();
        for list in inputs.all_lists() {
            scratch.positions.push(0);
            // Before any read a descending list is bounded by its first
            // entry; +∞ would also be sound but needlessly loose.
            scratch.cursors.push(list.first_score().unwrap_or(0.0));
        }
        scratch.period_base.clear();
        let mut base = static_base + inputs.static_lists.len();
        for lists in &inputs.period_lists {
            scratch.period_base.push(base);
            base += lists.len();
        }
        scratch.pair_static.clear();
        scratch.pair_static.resize(num_pairs, f64::NAN);
        scratch.pair_period.clear();
        scratch
            .pair_period
            .resize(num_pairs * inputs.period_lists.len(), f64::NAN);
        scratch.pair_affs.clear();
        scratch.pair_affs.resize(num_pairs, Interval::exact(0.0));
        scorer.fill_pair_index(&mut scratch.pair_index);
        scratch.pref_cursors.clear();
        scratch.pref_cursors.resize(n, 0.0);
        scratch.touched.clear();
        scratch.heap.clear();

        // The dense arena: one slot per candidate item, in first-list
        // order (the substrate's contiguous layout on the warm path).
        // All preference lists rank the same itemset, so the first list
        // enumerates every id.
        scratch.slots.clear();
        if let Some(first) = inputs.pref_lists.first() {
            let max_id = first.ids.iter().copied().max().map_or(0, |i| i as usize);
            if scratch.slot_of.len() <= max_id {
                scratch.slot_of.resize(max_id + 1, 0);
            }
            scratch.slots.reserve(first.len());
            for (slot, &id) in first.ids.iter().enumerate() {
                scratch.slot_of[id as usize] = slot as u32;
                scratch.slots.push(SlotMeta {
                    id,
                    unseen: n as u32,
                    aff_version: 0,
                    topk_stamp: 0,
                    buffered: false,
                    pruned: false,
                    stale: false,
                    bounds: Interval::exact(0.0),
                });
            }
        }
        scratch.aprefs.clear();
        scratch.aprefs.resize(scratch.slots.len() * n, f64::NAN);

        Kernel {
            inputs,
            scorer,
            scratch,
            n,
            num_pairs,
            static_base,
            stats,
            live_count: 0,
            pruned_count: 0,
            aff_version: 0,
            affinity_dirty: false,
            pair_affs_ready: false,
            check_stamp: 0,
        }
    }

    /// One round-robin sweep: read one entry from every non-exhausted
    /// list. Returns false if nothing was read (all exhausted).
    fn sweep(&mut self) -> bool {
        let mut read_any = false;
        let n = self.n;
        let mut li = 0;
        for list in &self.inputs.pref_lists {
            let pos = self.scratch.positions[li];
            if pos < list.len() {
                let (id, score) = list.entry(pos);
                self.scratch.positions[li] = pos + 1;
                self.scratch.cursors[li] = score;
                self.stats.record_sa();
                read_any = true;
                let ListKind::Preference { member } = list.kind else {
                    unreachable!("preference lists carry Preference kinds");
                };
                let sc = &mut *self.scratch;
                let slot = sc.slot_of[id as usize] as usize;
                let meta = &mut sc.slots[slot];
                // Hard assert (one predictable compare per read): a
                // member list ranking an item absent from list 0 would
                // otherwise silently write into another item's slot.
                assert_eq!(
                    meta.id, id,
                    "preference lists must rank the same itemset (id {id} missing from list 0)"
                );
                if !meta.pruned {
                    if !meta.buffered {
                        meta.buffered = true;
                        sc.touched.push(slot as u32);
                        self.live_count += 1;
                    }
                    let cell = &mut sc.aprefs[slot * n + member as usize];
                    if cell.is_nan() {
                        meta.unseen -= 1;
                    }
                    *cell = score;
                    meta.stale = true;
                }
            }
            li += 1;
        }
        for list in &self.inputs.static_lists {
            let pos = self.scratch.positions[li];
            if pos < list.len() {
                let (pair, score) = list.entry(pos);
                self.scratch.positions[li] = pos + 1;
                self.scratch.cursors[li] = score;
                self.stats.record_sa();
                read_any = true;
                self.scratch.pair_static[pair as usize] = score;
                self.affinity_dirty = true;
            }
            li += 1;
        }
        for lists in &self.inputs.period_lists {
            for list in lists {
                let pos = self.scratch.positions[li];
                if pos < list.len() {
                    let (pair, score) = list.entry(pos);
                    self.scratch.positions[li] = pos + 1;
                    self.scratch.cursors[li] = score;
                    self.stats.record_sa();
                    read_any = true;
                    let ListKind::PeriodicAffinity { period } = list.kind else {
                        unreachable!("period lists carry PeriodicAffinity kinds");
                    };
                    self.scratch.pair_period[period as usize * self.num_pairs + pair as usize] =
                        score;
                    self.affinity_dirty = true;
                }
                li += 1;
            }
        }
        read_any
    }

    /// Cursor upper bound for the static component of a pair: the cursor
    /// of the (single) static list holding it, while that list is not
    /// exhausted. O(1) via the precomputed membership table — the linear
    /// `list_contains_pair` scan this replaced rechecked every list's
    /// ids on every refresh.
    fn static_cursor(&self, pair: usize) -> f64 {
        match self.inputs.static_list_of(pair) {
            Some(off) => {
                let li = self.static_base + off;
                if self.scratch.positions[li] < self.inputs.static_lists[off].len() {
                    0.0f64.max(self.scratch.cursors[li])
                } else {
                    0.0
                }
            }
            None => 0.0,
        }
    }

    /// Cursor upper bound for one periodic component of a pair (same
    /// O(1) membership lookup as [`Kernel::static_cursor`]).
    fn period_cursor(&self, period: usize, pair: usize) -> f64 {
        match self.inputs.period_list_of(period, pair) {
            Some(off) => {
                let li = self.scratch.period_base[period] + off;
                if self.scratch.positions[li] < self.inputs.period_lists[period][off].len() {
                    0.0f64.max(self.scratch.cursors[li])
                } else {
                    0.0
                }
            }
            None => 0.0,
        }
    }

    /// Refresh the cached pair-affinity envelopes from seen components
    /// and cursors — but only when an affinity list was read since the
    /// last refresh (otherwise every input is unchanged and so is every
    /// envelope). Bumps `aff_version` when any envelope moved bitwise.
    fn refresh_pair_affs(&mut self) {
        if self.pair_affs_ready && !self.affinity_dirty {
            return;
        }
        let mode_static = !self.inputs.static_lists.is_empty();
        let n_periods = self.inputs.period_lists.len();
        let mut changed = !self.pair_affs_ready;
        for pair in 0..self.num_pairs {
            let s_raw = self.scratch.pair_static[pair];
            let s_iv = if !s_raw.is_nan() {
                Interval::exact(s_raw)
            } else if !mode_static {
                // Affinity-agnostic modes have no static lists; the fold
                // ignores the static argument then.
                Interval::exact(0.0)
            } else {
                Interval::new(0.0, self.static_cursor(pair))
            };
            self.scratch.comp_los.clear();
            self.scratch.comp_his.clear();
            for p in 0..n_periods {
                let v = self.scratch.pair_period[p * self.num_pairs + pair];
                let iv = if !v.is_nan() {
                    Interval::exact(v)
                } else {
                    Interval::new(0.0, self.period_cursor(p, pair))
                };
                self.scratch.comp_los.push(iv.lo);
                self.scratch.comp_his.push(iv.hi);
            }
            let iv = self.scorer.pair_affinity_interval_scratch(
                s_iv,
                &self.scratch.comp_los,
                &self.scratch.comp_his,
            );
            if !changed && !iv.bit_eq(&self.scratch.pair_affs[pair]) {
                changed = true;
            }
            self.scratch.pair_affs[pair] = iv;
        }
        if changed {
            self.aff_version += 1;
        }
        self.pair_affs_ready = true;
        self.affinity_dirty = false;
    }

    /// Per-member apref cursor (max over that member's preference list).
    fn pref_cursor(&self, member: usize) -> f64 {
        let list = self.inputs.pref_lists.get(member).expect("member list");
        if self.scratch.positions[member] >= list.len() {
            // Exhausted: every item was seen in this list; any item still
            // lacking this component does not exist. Use the last value
            // (sound for the virtual unseen item of the threshold).
            list.last_score().unwrap_or(0.0)
        } else {
            self.scratch.cursors[member]
        }
    }

    /// Recompute live items' `[LB, UB]` envelopes — incrementally:
    ///
    /// * an item whose components are all seen and whose bounds were
    ///   computed against the current pair envelopes cannot have moved,
    ///   so it is skipped (its inputs are bit-identical to the last
    ///   computation);
    /// * under a no-disagreement consensus (the paper's AP/LM defaults)
    ///   the envelope's endpoints are **independent** scalar chains
    ///   ([`BoundScorer::splits_endpoints`]): an item's LB reads only
    ///   exact components, zeros and the pair-envelope lows, so a
    ///   non-stale item at the current `aff_version` recomputes just
    ///   its UB chain (the only part the moving cursors feed);
    /// * disagreement consensus functions cross endpoints and take the
    ///   full interval recomputation.
    ///
    /// Every computed value follows the reference operation order, so
    /// the maintained bounds are bit-identical to a full recompute.
    fn refresh_bounds(&mut self) {
        self.refresh_pair_affs();
        let n = self.n;
        for m in 0..n {
            let c = self.pref_cursor(m);
            self.scratch.pref_cursors[m] = c;
        }
        let aff_version = self.aff_version;
        let split = self.scorer.splits_endpoints();
        if split {
            // Dense clamped endpoint matrices for the scalar chains,
            // rebuilt per refresh (n² entries — tiny). The diagonal
            // stays exactly 0.0: `score_end_split`'s branchless inner
            // product depends on it.
            let sc = &mut *self.scratch;
            sc.aff_lo_mat.clear();
            sc.aff_lo_mat.resize(n * n, 0.0);
            sc.aff_hi_mat.clear();
            sc.aff_hi_mat.resize(n * n, 0.0);
            for u in 0..n {
                for v in 0..n {
                    if v != u {
                        let iv = sc.pair_affs[sc.pair_index[u * n + v]];
                        sc.aff_lo_mat[u * n + v] = iv.lo.max(0.0);
                        sc.aff_hi_mat[u * n + v] = iv.hi.max(0.0);
                    }
                }
            }
            sc.end_vals.clear();
            sc.end_vals.resize(n, 0.0);
            sc.end_nonneg.clear();
            sc.end_nonneg.resize(n, 0.0);
        }
        for ti in 0..self.scratch.touched.len() {
            let sc = &mut *self.scratch;
            let s = sc.touched[ti] as usize;
            let meta = sc.slots[s];
            if meta.pruned {
                continue;
            }
            let needs_lo = meta.stale || meta.aff_version != aff_version;
            if !needs_lo && meta.unseen == 0 {
                continue;
            }
            let bounds = if split {
                // Hi chain: seen components exact, unseen bounded by the
                // member cursor (clamped exactly as `Interval::new(0, c)`
                // clamps its upper endpoint).
                let row = &sc.aprefs[s * n..s * n + n];
                for (m, &v) in row.iter().enumerate() {
                    let e = if v.is_nan() {
                        sc.pref_cursors[m].max(0.0)
                    } else {
                        v
                    };
                    sc.end_vals[m] = e;
                    sc.end_nonneg[m] = e.max(0.0);
                }
                let hi = self
                    .scorer
                    .score_end_split(&sc.end_vals, &sc.end_nonneg, &sc.aff_hi_mat);
                let lo = if needs_lo {
                    let row = &sc.aprefs[s * n..s * n + n];
                    for (m, &v) in row.iter().enumerate() {
                        let e = if v.is_nan() { 0.0 } else { v };
                        sc.end_vals[m] = e;
                        sc.end_nonneg[m] = e.max(0.0);
                    }
                    self.scorer
                        .score_end_split(&sc.end_vals, &sc.end_nonneg, &sc.aff_lo_mat)
                } else {
                    meta.bounds.lo
                };
                Interval::new(lo, hi)
            } else {
                sc.aprefs_iv.clear();
                for m in 0..n {
                    let v = sc.aprefs[s * n + m];
                    sc.aprefs_iv.push(if v.is_nan() {
                        Interval::new(0.0, sc.pref_cursors[m])
                    } else {
                        Interval::exact(v)
                    });
                }
                self.scorer.score_interval_scratch(
                    &sc.aprefs_iv,
                    &sc.pair_affs,
                    &sc.pair_index,
                    &mut sc.prefs_iv,
                )
            };
            let meta = &mut sc.slots[s];
            meta.bounds = bounds;
            meta.stale = false;
            meta.aff_version = aff_version;
        }
    }

    /// `ComputeTh({E})`: the best score any **unseen** item could have —
    /// all apref components at their cursors, affinities at their current
    /// envelopes. `None` once any preference list is exhausted: every
    /// candidate item appears in every preference list, so exhausting one
    /// list means every item has been encountered and no unseen item
    /// remains. Call only after [`Kernel::refresh_bounds`] (which
    /// refreshes the cursors and pair envelopes this reads).
    fn threshold(&mut self) -> Option<f64> {
        let n = self.n;
        let any_exhausted =
            (0..n).any(|m| self.scratch.positions[m] >= self.inputs.pref_lists[m].len());
        if any_exhausted {
            return None;
        }
        let sc = &mut *self.scratch;
        sc.aprefs_iv.clear();
        for m in 0..n {
            sc.aprefs_iv.push(Interval::new(0.0, sc.pref_cursors[m]));
        }
        Some(
            self.scorer
                .score_interval_scratch(
                    &sc.aprefs_iv,
                    &sc.pair_affs,
                    &sc.pair_index,
                    &mut sc.prefs_iv,
                )
                .hi,
        )
    }

    /// Fill the bounded heap with the k best live `(lb, id)` entries and
    /// return the k-th largest lower bound (call with `live_count ≥ k`).
    fn kth_lower_bound(&mut self, k: usize) -> f64 {
        let sc = &mut *self.scratch;
        sc.heap.clear();
        for ti in 0..sc.touched.len() {
            let s = sc.touched[ti] as usize;
            let meta = &sc.slots[s];
            if !meta.pruned {
                heap_push_bounded(&mut sc.heap, k, (meta.bounds.lo, meta.id));
            }
        }
        debug_assert_eq!(sc.heap.len(), k, "call with at least k live items");
        sc.heap[0].0
    }

    /// The buffer condition's pruning pass: every live item outside the
    /// current top-k whose UB cannot reach the k-th LB is dropped.
    /// Pruned slots are compacted out of the touched list afterwards
    /// (the list's order carries no semantics — every consumer's result
    /// is order-independent — it only bounds later passes).
    fn prune_below(&mut self, kth_lb: f64) {
        self.check_stamp += 1;
        let stamp = self.check_stamp;
        let sc = &mut *self.scratch;
        for i in 0..sc.heap.len() {
            let (_, id) = sc.heap[i];
            let s = sc.slot_of[id as usize] as usize;
            sc.slots[s].topk_stamp = stamp;
        }
        let mut any_pruned = false;
        for ti in 0..sc.touched.len() {
            let s = sc.touched[ti] as usize;
            let meta = &mut sc.slots[s];
            if meta.pruned || meta.topk_stamp == stamp {
                continue;
            }
            if meta.bounds.hi <= kth_lb + 1e-12 {
                meta.pruned = true;
                any_pruned = true;
                self.live_count -= 1;
                self.pruned_count += 1;
            }
        }
        if any_pruned {
            let slots = &sc.slots;
            sc.touched.retain(|&s| !slots[s as usize].pruned);
        }
    }

    /// Rank the live items by `(LB descending, id ascending)`, truncate
    /// to `k`, and assemble the result.
    fn finish(self, k: usize, sweeps: u64, stop_reason: StopReason) -> TopKResult {
        let sc = self.scratch;
        sc.ranked.clear();
        for &s in &sc.touched {
            let meta = &sc.slots[s as usize];
            if !meta.pruned {
                sc.ranked.push((meta.id, meta.bounds));
            }
        }
        sc.ranked.sort_by(|a, b| {
            b.1.lo
                .partial_cmp(&a.1.lo)
                .expect("finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        sc.ranked.truncate(k);
        TopKResult {
            items: sc
                .ranked
                .iter()
                .map(|&(id, iv)| TopKItem {
                    item: ItemId(id),
                    lb: iv.lo,
                    ub: iv.hi,
                })
                .collect(),
            stats: self.stats,
            sweeps,
            stop_reason,
        }
    }
}

/// Run GRECA over prepared inputs.
///
/// `affinity` must be the same view the inputs were built from;
/// `consensus` and `normalize_rpref` must match whatever scalar scoring
/// the caller compares against (see
/// [`PreparedQuery::exact_scores`](crate::query::PreparedQuery::exact_scores);
/// the TA and naive-scan baselines live in `greca_bench::baselines`).
///
/// Every preference list must rank the same itemset (§2.4 poses the
/// problem over one shared itemset `I`; [`MaterializedInputs::build`]
/// and the warm path both guarantee it) — a hand-assembled
/// [`GrecaInputs`] violating this panics rather than mis-attributing
/// components. The kernel's id→slot table is direct-indexed, so peak
/// memory is `O(max raw item id)` — the same layout contract as
/// [`crate::substrate::Substrate`]'s dense item map; remap pathologically
/// sparse id spaces before building lists.
///
/// Runs on the calling thread's [`GrecaScratch`] (module docs, "The
/// thread's workspace"); [`greca_topk_with`] takes a caller-owned one.
///
/// [`MaterializedInputs::build`]: crate::lists::MaterializedInputs::build
pub fn greca_topk(
    inputs: &GrecaInputs<'_>,
    affinity: &greca_affinity::GroupAffinity,
    consensus: ConsensusFunction,
    normalize_rpref: bool,
    config: GrecaConfig,
) -> TopKResult {
    with_thread_scratch(|scratch| {
        greca_topk_with(
            inputs,
            affinity,
            consensus,
            normalize_rpref,
            config,
            scratch,
        )
    })
}

/// Run GRECA over prepared inputs, recycling a caller-owned
/// [`GrecaScratch`] — the allocation-free serving path. Results are
/// bit-identical to [`greca_topk`] regardless of what the scratch was
/// previously used for (every buffer is re-initialized per run).
pub fn greca_topk_with(
    inputs: &GrecaInputs<'_>,
    affinity: &greca_affinity::GroupAffinity,
    consensus: ConsensusFunction,
    normalize_rpref: bool,
    config: GrecaConfig,
    scratch: &mut GrecaScratch,
) -> TopKResult {
    assert!(config.k > 0, "k must be positive");
    assert_eq!(
        affinity.num_pairs(),
        inputs.num_pairs,
        "affinity view must match the inputs"
    );
    let scorer = BoundScorer::new(affinity, consensus, normalize_rpref);
    let mut kernel = Kernel::new(inputs, scorer, scratch);
    let k = config.k.min(inputs.num_items.max(1));
    let mut sweeps: u64 = 0;
    let mut since_check: u64 = 0;
    let mut stop_reason = StopReason::Exhausted;

    loop {
        let read_any = kernel.sweep();
        if !read_any {
            break;
        }
        sweeps += 1;
        since_check += 1;
        // The stopping cadence (module docs): every sweep below 256 live
        // items, stretching to every 32nd sweep on a large buffer.
        let check_now = since_check >= (kernel.live_count as u64 / 128).clamp(1, 32);
        if !check_now || matches!(config.stopping, StoppingRule::Exhaustive) {
            continue;
        }
        since_check = 0;
        kernel.refresh_bounds();
        if kernel.live_count < k {
            continue;
        }
        // k-th largest lower bound among live items, via the bounded
        // heap (the heap then also names the top-k for the prune pass).
        let kth_lb = kernel.kth_lower_bound(k);
        let threshold = kernel.threshold();
        let threshold_ok = threshold.is_none_or(|t| t <= kth_lb + 1e-12);

        match config.stopping {
            StoppingRule::Greca => {
                // Buffer condition: every non-top-k item's UB is below the
                // k-th LB → prune it.
                if kernel.live_count > k {
                    kernel.prune_below(kth_lb);
                }
                // Terminate when only k candidates remain and no unseen
                // item can beat them. (Theorem 1: for monotone consensus
                // functions the buffer condition already implies the
                // threshold condition; we verify it anyway because the
                // interval bounds for disagreement functions are sound
                // but not covered by the theorem's premise.)
                if kernel.live_count == k && threshold_ok {
                    stop_reason = if kernel.pruned_count == 0 {
                        StopReason::Threshold
                    } else {
                        StopReason::Buffer
                    };
                    break;
                }
            }
            StoppingRule::ThresholdOnly => {
                if kernel.live_count == k && threshold_ok {
                    stop_reason = StopReason::Threshold;
                    break;
                }
            }
            StoppingRule::Exhaustive => unreachable!("handled above"),
        }
    }

    if matches!(stop_reason, StopReason::Exhausted) {
        // Everything read: bounds are exact.
        kernel.refresh_bounds();
    }
    let _consensus = crate::obs::phase(crate::obs::Phase::Consensus);
    kernel.finish(k, sweeps, stop_reason)
}
