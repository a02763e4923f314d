//! # greca
//!
//! A production-quality Rust reproduction of **"Group Recommendation
//! with Temporal Affinities"** (Amer-Yahia, Omidvar-Tehrani, Basu Roy,
//! Shabib — EDBT 2015).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`dataset`] — rating/social data model, synthetic MovieLens-1M and
//!   Facebook-like substrates, time periods, group formation;
//! * [`cf`] — collaborative filtering (`apref`) and preference lists;
//! * [`affinity`] — static/periodic/drift affinity, the discrete and
//!   continuous temporal models, the incremental population index;
//! * [`consensus`] — relative preference and the AP/MO/PD/variance
//!   consensus functions;
//! * [`core`] — the GRECA top-k algorithm with its buffer stopping
//!   condition and access accounting, and the
//!   [`GrecaEngine`](core::GrecaEngine) serving API (GRECA is the only
//!   algorithm shipped; the §4.2 TA and naive-scan baselines live in
//!   `greca_bench::baselines`);
//! * [`eval`] — the simulated user study (satisfaction oracle,
//!   independent/comparative protocols).
//!
//! ## Quickstart
//!
//! ```
//! use greca::prelude::*;
//!
//! // 1. A world: ratings for tastes, a social network for affinities.
//! let ml = MovieLensConfig::small().generate();
//! let net = SocialConfig::tiny().generate();
//! let timeline = Timeline::discretize(0, net.horizon(), Granularity::TwoMonth).unwrap();
//!
//! // 2. Long-lived substrates: CF for absolute preferences, the
//! //    population-affinity index.
//! let cf = UserCfModel::fit(&ml.matrix, CfConfig::default());
//! let universe: Vec<UserId> = net.users().collect();
//! let population = PopulationAffinity::build(
//!     &SocialAffinitySource::new(&net), &universe, &timeline);
//!
//! // 3. A warm engine precomputes the shared Substrate (sorted
//! //    preference columns) once; queries then serve zero-copy views
//! //    with the paper's defaults baked in (k = 10, AP consensus,
//! //    discrete affinity, decomposed lists, normalized relative
//! //    preference, candidate itemset).
//! let catalog: Vec<ItemId> = ml.matrix.items().collect();
//! let engine = GrecaEngine::warm(&cf, &population, &catalog).unwrap();
//! let group = Group::new(vec![UserId(0), UserId(1), UserId(4)]).unwrap();
//! let top = engine.query(&group).top(5).run().unwrap();
//! assert_eq!(top.items.len(), 5);
//! println!("saved {:.1}% of list accesses", top.stats.saveup_percent());
//!
//! // A prepared query also yields every candidate's exact score,
//! // descending — what a naive scan of all `total_entries` would rank
//! // by. Every item GRECA returns is a true top-5 item.
//! let prepared = engine.query(&group).top(5).prepare().unwrap();
//! let greca = prepared.run();
//! let exact = prepared.exact_scores();
//! for t in &greca.items {
//!     let score = exact.iter().find(|&&(i, _)| i == t.item).unwrap().1;
//!     assert!(score >= exact[4].1 - 1e-9);
//! }
//! assert!(greca.stats.sa <= greca.stats.total_entries);
//! ```
//!
//! Many-group workloads go through [`run_batch`](core::run_batch),
//! which fans prepared queries out across threads and aggregates their
//! access statistics — see `GrecaEngine::run_batch`.

pub use greca_affinity as affinity;
pub use greca_cf as cf;
pub use greca_consensus as consensus;
pub use greca_core as core;
pub use greca_dataset as dataset;
pub use greca_eval as eval;
pub use greca_serve as serve;
pub use greca_worldgen as worldgen;

/// Everything most applications need, in one import.
pub mod prelude {
    pub use greca_affinity::{
        AffinityMode, AffinitySource, GroupAffinity, PopulationAffinity, SocialAffinitySource,
        TableAffinitySource,
    };
    pub use greca_cf::{
        candidate_items, CfConfig, PreferenceList, PreferenceProvider, Similarity, UserCfModel,
    };
    pub use greca_consensus::ConsensusFunction;
    pub use greca_core::{
        run_batch, AccessStats, BatchResult, BuildOptions, GrecaConfig, GrecaEngine, GrecaScratch,
        GroupQuery, IngestReport, ListLayout, LiveEngine, LiveModel, MemoryFootprint, PinnedEpoch,
        PlanStats, PreparedQuery, QueryError, QueryKey, SharedMemberState, StopReason,
        StoppingRule, Substrate, TopKResult,
    };
    pub use greca_dataset::prelude::*;
    pub use greca_eval::{
        OracleConfig, RecVariant, SatisfactionOracle, Study, StudyConfig, StudyWorld, WorldConfig,
    };
    pub use greca_worldgen::{GenWorld, Tier, WorldSpec};
}
