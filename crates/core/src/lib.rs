//! # greca-core
//!
//! GRECA — *Group Recommendation with Temporal Affinities* (EDBT 2015,
//! §3) — and its baselines.
//!
//! GRECA adapts the NRA member of the Fagin threshold-algorithm family to
//! group recommendation with temporal affinities. Its inputs are, for a
//! group of `n` users queried at period `p`:
//!
//! * `n` absolute-preference lists `PL_u` (from any CF model),
//! * static affinity lists `LaffS`,
//! * one set of periodic affinity lists `LaffV` per period `p' ⪯ p`,
//!
//! all sorted descending and read by **sequential accesses only**. GRECA
//! maintains `[LB, UB]` score envelopes per buffered item, a global
//! threshold for unseen items, and stops early via the paper's novel
//! **buffer condition** (Theorem 1). It is instance-optimal (Lemma 3) and
//! returns the correct top-k itemset (Lemma 2) under every consensus
//! function of `greca-consensus` and every affinity mode of
//! `greca-affinity`.
//!
//! Baselines: [`ta::ta_topk`] (random-access threshold algorithm,
//! reproducing §3.1's RA accounting) and [`naive::naive_topk`] (full
//! scan; also the correctness oracle).
//!
//! Serving layers on top of the algorithms: [`query::GrecaEngine`] (the
//! fluent query API over cold or warm [`substrate::Substrate`] storage)
//! and [`live::LiveEngine`] (rating ingestion with epoch-swapped
//! substrates — §2.4's evolving preferences without ever blocking or
//! perturbing in-flight queries; see the `live` module docs for a
//! runnable ingest example).
//!
//! ```
//! use greca_dataset::prelude::*;
//! use greca_cf::{CfConfig, UserCfModel};
//! use greca_affinity::{PopulationAffinity, SocialAffinitySource};
//! use greca_core::GrecaEngine;
//!
//! // Long-lived substrates: ratings + social signals over one year.
//! let ml = MovieLensConfig::small().generate();
//! let net = SocialConfig::tiny().generate();
//! let tl = Timeline::discretize(0, net.horizon(), Granularity::TwoMonth).unwrap();
//! let cf = UserCfModel::fit(&ml.matrix, CfConfig::default());
//! let universe: Vec<UserId> = net.users().collect();
//! let pop = PopulationAffinity::build(&SocialAffinitySource::new(&net), &universe, &tl);
//!
//! // A warm engine precomputes the shared Substrate once (per-user
//! // sorted preference columns); queries serve views of those columns
//! // with the paper's defaults (k = 10, AP consensus, discrete
//! // affinity, decomposed lists) and the itemset defaulting to the
//! // group's candidate items.
//! let catalog: Vec<ItemId> = ml.matrix.items().collect();
//! let engine = GrecaEngine::warm(&cf, &pop, &catalog).unwrap();
//! let group = Group::new(vec![UserId(0), UserId(1), UserId(2)]).unwrap();
//! let result = engine.query(&group).top(5).run().unwrap();
//! assert_eq!(result.items.len(), 5);
//! assert!(result.stats.sa_percent() <= 100.0);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod fault;
pub mod greca;
pub mod interval;
pub mod lists;
pub mod live;
pub mod naive;
pub mod obs;
pub mod plan;
pub mod query;
pub mod score;
pub mod substrate;
pub mod ta;
pub mod wal;

pub use access::{AccessStats, Aggregate};
pub use fault::{FaultCtx, FaultPlan, InjectedFault, IoFault};
pub use greca::{
    greca_topk, greca_topk_with, GrecaConfig, GrecaScratch, StopReason, StoppingRule, TopKItem,
    TopKResult,
};
pub use interval::Interval;
pub use lists::{
    GrecaInputs, ListKind, ListLayout, ListView, MaterializedInputs, NonFiniteEntry, SortedList,
};
pub use live::{
    EpochLineage, EpochProvider, IngestReport, LineageSummary, LiveEngine, LiveHealth, LiveModel,
    PinnedEpoch, PublishDelta, RecoveryReport, StagedBatch, LINEAGE_CAP,
};
pub use naive::{naive_scores, naive_topk};
pub use obs::{
    CacheNote, FlightRecorder, ObsTotals, Phase, SpanGuard, SpanKind, SpanRecord, TraceFilter,
    NUM_KINDS, NUM_PHASES,
};
pub use plan::{run_batch, BatchResult, PlanStats, SharedMemberState};
pub use query::{
    Algorithm, GrecaEngine, GroupQuery, PreparedQuery, QueryError, QueryFootprint, QueryKey,
    PAPER_DEFAULT_K,
};
pub use score::BoundScorer;
pub use substrate::{
    BuildOptions, ItemCoverage, MemoryFootprint, SegmentHandle, Substrate, QUANT_LEVELS,
};
pub use ta::{ta_topk, TaConfig};
pub use wal::{FsyncPolicy, RecoverySummary, Wal, WalOptions, WalRecord};
