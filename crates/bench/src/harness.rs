//! Shared harness for the scalability experiments (§4.2).
//!
//! Default settings follow the paper: "we form 20 different random
//! groups by selecting a subset of users who participated in our quality
//! experiment. The default settings of the rest of the parameters are,
//! group size = 6, k = 10, number of items = 3900, consensus function =
//! AP. Unless otherwise stated, affinity is computed using the discrete
//! time model."
//!
//! The many-group sweeps go through [`greca_core::run_batch`]: one
//! [`GrecaEngine`] over the world's substrates, twenty prepared
//! [`greca_core::GroupQuery`]s executed in parallel, access statistics
//! aggregated — the serving shape the engine API exists for.

use crate::baselines::{naive_topk, ta_topk};
use greca_affinity::AffinityMode;
use greca_cf::{PreferenceProvider, UserCfModel};
use greca_consensus::ConsensusFunction;
use greca_core::{
    Aggregate, BatchResult, BuildOptions, GrecaEngine, GrecaScratch, PreparedQuery, Substrate,
    TopKResult,
};
use greca_dataset::{Group, GroupBuilder, ItemId, UserId};
use greca_eval::{StudyWorld, WorldConfig};
use std::time::{Duration, Instant};

/// Default experiment settings (§4.2 "Experiment Settings").
#[derive(Debug, Clone, Copy)]
pub struct PerfSettings {
    /// Number of random groups to average over (paper: 20).
    pub num_groups: usize,
    /// Group size (paper default: 6).
    pub group_size: usize,
    /// Result size (paper default: 10).
    pub k: usize,
    /// Number of candidate items (paper default: 3,900).
    pub num_items: usize,
    /// Consensus function (paper default: AP).
    pub consensus: ConsensusFunction,
    /// Affinity model (paper default: discrete).
    pub mode: AffinityMode,
    /// Group-sampling seed.
    pub seed: u64,
}

impl Default for PerfSettings {
    fn default() -> Self {
        PerfSettings {
            num_groups: 20,
            group_size: 6,
            k: 10,
            num_items: 3_900,
            consensus: ConsensusFunction::average_preference(),
            mode: AffinityMode::Discrete,
            seed: 0xbe7c4,
        }
    }
}

/// A materialized world for the scalability experiments, with the CF
/// model fitted once and reused across runs.
pub struct PerfWorld {
    world: StudyWorld,
}

impl PerfWorld {
    /// Build the default scalability world (1,200 users × 3,900 items).
    pub fn build() -> Self {
        PerfWorld {
            world: WorldConfig::scalability_scale().build(),
        }
    }

    /// Build the (small) study world instead — used by tests.
    pub fn build_small() -> Self {
        PerfWorld {
            world: WorldConfig::study_scale().build(),
        }
    }

    /// The underlying study world.
    pub fn world(&self) -> &StudyWorld {
        &self.world
    }

    /// Fit the CF model for the study users (call once, reuse).
    pub fn cf(&self) -> UserCfModel<'_> {
        self.world.cf_model_for(&self.world.study_users())
    }

    /// Draw `n` random groups of `size` study users.
    pub fn random_groups(&self, n: usize, size: usize, seed: u64) -> Vec<Group> {
        let users: Vec<UserId> = self.world.study_users();
        let builder = GroupBuilder::new(users, |_, _| 0.0, |_, _| 0.0);
        builder
            .random_groups(n, size, seed)
            .expect("enough study users for random groups")
    }

    /// The first `n` items of the catalog (the paper varies the number of
    /// available items this way in Figure 5C).
    pub fn items(&self, n: usize) -> Vec<ItemId> {
        self.world
            .movielens
            .matrix
            .items()
            .take(n.min(self.world.movielens.matrix.num_items()))
            .collect()
    }

    /// Prepare one group's query at the last period.
    pub fn prepare_group(
        &self,
        cf: &UserCfModel<'_>,
        group: &Group,
        settings: &PerfSettings,
    ) -> PreparedQuery {
        self.prepare_group_at(cf, group, settings, self.world.last_period())
    }

    /// Prepare one group's query at an arbitrary query period.
    pub fn prepare_group_at(
        &self,
        cf: &UserCfModel<'_>,
        group: &Group,
        settings: &PerfSettings,
        period_idx: usize,
    ) -> PreparedQuery {
        let items = self.items(settings.num_items);
        GrecaEngine::new(cf, &self.world.population)
            .query(group)
            .items(&items)
            .period(period_idx)
            .affinity(settings.mode)
            .consensus(settings.consensus)
            // The scalability experiments use the paper's verbatim
            // (unnormalized) relative preference, as the quality study
            // does.
            .normalize_rpref(false)
            .top(settings.k)
            .prepare()
            .expect("experiment settings form valid queries")
    }

    /// GRECA's `%SA` for one prepared group.
    pub fn sa_percent(&self, prepared: &PreparedQuery) -> f64 {
        prepared.run().stats.sa_percent()
    }

    /// A warm engine over the settings' itemset, with preference
    /// segments precomputed for the study users (the only users the
    /// experiments group). The returned engine borrows `cf` and the
    /// world's population index.
    pub fn warm_engine<'a>(
        &'a self,
        cf: &'a UserCfModel<'a>,
        settings: &PerfSettings,
    ) -> GrecaEngine<'a> {
        let items = self.items(settings.num_items);
        let study = self.world.study_users();
        GrecaEngine::warm_for(cf, &self.world.population, &items, &study)
            .expect("CF scores are finite")
    }

    /// Execute the settings' random-group sweep through the engine's
    /// parallel batch path (§4.2: 20 groups per data point).
    pub fn run_settings_batch(&self, settings: &PerfSettings) -> BatchResult {
        let cf = self.cf();
        let engine = GrecaEngine::new(&cf, &self.world.population);
        self.run_settings_batch_on(&engine, settings)
    }

    /// The batch sweep over a caller-supplied engine (cold or warm — a
    /// warm engine's workers all serve from one shared `Arc<Substrate>`).
    pub fn run_settings_batch_on(
        &self,
        engine: &GrecaEngine<'_>,
        settings: &PerfSettings,
    ) -> BatchResult {
        let groups = self.random_groups(settings.num_groups, settings.group_size, settings.seed);
        let items = self.items(settings.num_items);
        let queries: Vec<_> = groups
            .iter()
            .map(|g| {
                engine
                    .query(g)
                    .items(&items)
                    .period(self.world.last_period())
                    .affinity(settings.mode)
                    .consensus(settings.consensus)
                    .normalize_rpref(false)
                    .top(settings.k)
            })
            .collect();
        engine.run_batch(&queries)
    }

    /// Mean ± stderr of GRECA's `%SA` over the settings' random groups.
    pub fn average_sa_percent(&self, settings: &PerfSettings) -> Aggregate {
        self.run_settings_batch(settings).sa_percent_aggregate()
    }

    /// The GRECA / TA / naive comparison at the given settings: each
    /// algorithm runs over the *same* prepared inputs per group, and
    /// reports mean wall-clock latency plus the `%SA` aggregate — the
    /// `BENCH_engine.json` baseline rows.
    pub fn engine_baseline(&self, settings: &PerfSettings) -> Vec<BaselineRow> {
        let cf = self.cf();
        let groups = self.random_groups(settings.num_groups, settings.group_size, settings.seed);
        let prepared: Vec<PreparedQuery> = groups
            .iter()
            .map(|g| self.prepare_group(&cf, g, settings))
            .collect();
        type Run<'r> = &'r dyn Fn(&PreparedQuery, &mut GrecaScratch) -> TopKResult;
        let algorithms: [(&'static str, Run<'_>); 3] = [
            ("greca", &|p, scratch| p.run_with_scratch(scratch)),
            ("ta", &|p, _| ta_topk(p)),
            ("naive", &|p, _| naive_topk(p)),
        ];
        // One recycled kernel workspace across the whole sweep — the
        // serving shape (a `run_batch` worker reuses its scratch the
        // same way); results are bit-identical to fresh-scratch runs.
        let mut scratch = GrecaScratch::new();
        algorithms
            .iter()
            .map(|&(label, run)| {
                let mut sa_pcts = Vec::with_capacity(prepared.len());
                let mut ra_total = 0u64;
                let start = Instant::now();
                for p in &prepared {
                    let r = run(p, &mut scratch);
                    sa_pcts.push(r.stats.sa_percent());
                    ra_total += r.stats.ra;
                }
                let elapsed = start.elapsed();
                BaselineRow {
                    algorithm: label,
                    mean_latency_ms: elapsed.as_secs_f64() * 1e3 / prepared.len() as f64,
                    sa_percent: Aggregate::of(&sa_pcts),
                    random_accesses: ra_total,
                }
            })
            .collect()
    }
}

/// Cold-vs-warm `prepare()` measurements at one settings point — the
/// substrate layer's headline numbers.
#[derive(Debug, Clone)]
pub struct PrepareSplit {
    /// One-off substrate construction cost (amortized across all
    /// subsequent queries of the engine's lifetime).
    pub substrate_build_ms: f64,
    /// Eager-segment construction via the pre-substrate baseline path
    /// (one `preference_list()` + full-column sort + fresh allocations
    /// per user, sequentially) — the single-threaded reference the
    /// sharded builder is compared against.
    pub build_ms_single: f64,
    /// The same segments through `Substrate::build_with`'s sharded
    /// builder (scratch reuse + zero-tail sort, `build_threads`
    /// workers). Bit-identical output to the baseline path.
    pub build_ms_parallel: f64,
    /// Worker threads the sharded build actually ran with on this host
    /// (`available_parallelism` clamped to the built user population).
    pub build_threads: usize,
    /// Mean per-query `prepare()` latency on a cold engine (provider
    /// calls + per-member sorts, every query).
    pub cold_prepare_ms: f64,
    /// Mean per-query `prepare()` latency on a warm engine (view
    /// selection; no per-user sort, no preference-entry clone).
    pub warm_prepare_ms: f64,
    /// `cold / warm`.
    pub speedup: f64,
    /// Whether cold and warm preparations produced bit-identical
    /// results (itemsets, bounds and access statistics) for every group.
    pub identical: bool,
}

impl PrepareSplit {
    /// The split as a JSON object (hand-formatted; the workspace
    /// has no serialization crate).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"substrate_build_ms\":{:.4},\"build_ms_single\":{:.4},\"build_ms_parallel\":{:.4},\"build_threads\":{},\"cold_prepare_ms\":{:.4},\"warm_prepare_ms\":{:.4},\"speedup\":{:.2},\"identical\":{}}}",
            self.substrate_build_ms,
            self.build_ms_single,
            self.build_ms_parallel,
            self.build_threads,
            self.cold_prepare_ms,
            self.warm_prepare_ms,
            self.speedup,
            self.identical,
        )
    }
}

impl PerfWorld {
    /// Measure cold vs warm `prepare()` over the settings' random
    /// groups (several rounds each, means reported), and verify the two
    /// paths return bit-identical results.
    pub fn prepare_split(&self, settings: &PerfSettings) -> PrepareSplit {
        const ROUNDS: usize = 3;
        let cf = self.cf();
        let groups = self.random_groups(settings.num_groups, settings.group_size, settings.seed);
        let cold_engine = GrecaEngine::new(&cf, &self.world.population);

        let build_start = Instant::now();
        let warm_engine = self.warm_engine(&cf, settings);
        let substrate_build_ms = build_start.elapsed().as_secs_f64() * 1e3;

        let items = self.items(settings.num_items);

        // Single-threaded baseline: the pre-substrate construction path —
        // one provider round-trip, a full-column sort and fresh
        // allocations per user, strictly sequentially, retaining every
        // column as the old builder did.
        let study = self.world.study_users();
        let single_start = Instant::now();
        let mut baseline: Vec<(Vec<u32>, Vec<f64>)> = Vec::with_capacity(study.len());
        for &u in &study {
            let pl = cf.preference_list(u, &items).expect("CF scores are finite");
            baseline.push(pl.into_sorted_columns());
        }
        let build_ms_single = single_start.elapsed().as_secs_f64() * 1e3;
        drop(std::hint::black_box(baseline));

        // Sharded builder over the same users (scratch reuse + zero-tail
        // sort; bit-identity with the baseline is covered by core tests).
        // Threads default to `available_parallelism`; the reported
        // count is the workers the build *actually* ran with — the
        // resolved count clamped to the user population, so a small
        // world never reports phantom parallelism next to its
        // `build_ms_parallel` figure.
        let opts = BuildOptions {
            threads: BuildOptions::default().resolved_threads(),
        };
        let build_threads = opts.workers_for(study.len());
        let parallel_start = Instant::now();
        std::hint::black_box(
            Substrate::build_with(&cf, &self.world.population, &items, &study, &[], opts)
                .expect("CF scores are finite"),
        );
        let build_ms_parallel = parallel_start.elapsed().as_secs_f64() * 1e3;
        let mk = |engine: &GrecaEngine<'_>, group: &Group| {
            engine
                .query(group)
                .items(&items)
                .period(self.world.last_period())
                .affinity(settings.mode)
                .consensus(settings.consensus)
                .normalize_rpref(false)
                .top(settings.k)
                .prepare()
                .expect("experiment settings form valid queries")
        };

        let time_prepares = |engine: &GrecaEngine<'_>| {
            let start = Instant::now();
            for _ in 0..ROUNDS {
                for g in &groups {
                    std::hint::black_box(mk(engine, g));
                }
            }
            start.elapsed().as_secs_f64() * 1e3 / (ROUNDS * groups.len()) as f64
        };
        let cold_prepare_ms = time_prepares(&cold_engine);
        let warm_prepare_ms = time_prepares(&warm_engine);

        let identical = groups.iter().all(|g| {
            let cold = mk(&cold_engine, g);
            let warm = mk(&warm_engine, g);
            warm.is_warm() && cold.run() == warm.run() && cold.exact_scores() == warm.exact_scores()
        });

        PrepareSplit {
            substrate_build_ms,
            build_ms_single,
            build_ms_parallel,
            build_threads,
            cold_prepare_ms,
            warm_prepare_ms,
            speedup: cold_prepare_ms / warm_prepare_ms.max(1e-9),
            identical,
        }
    }
}

/// One `BENCH_engine.json` row: an algorithm at the paper defaults.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Algorithm label (`greca` / `ta` / `naive`).
    pub algorithm: &'static str,
    /// Mean per-query wall-clock latency in milliseconds.
    pub mean_latency_ms: f64,
    /// `%SA` aggregate over the groups.
    pub sa_percent: Aggregate,
    /// Total random accesses across the groups (nonzero only for TA).
    pub random_accesses: u64,
}

impl BaselineRow {
    /// The row as a JSON object (hand-formatted; the workspace
    /// has no serialization crate).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"mean_latency_ms\":{:.4},\"sa_percent_mean\":{:.4},\"sa_percent_stderr\":{:.4},\"groups\":{},\"random_accesses\":{}}}",
            self.algorithm,
            self.mean_latency_ms,
            self.sa_percent.mean,
            self.sa_percent.std_err,
            self.sa_percent.n,
            self.random_accesses,
        )
    }
}

/// Print one aligned row of a harness table.
pub fn print_row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<28} {value}");
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Rank-based percentile over ascending-sorted samples: the sample at
/// rank `ceil(q · n)` (at least the first), or 0 when there are none.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Latency samples in milliseconds, sorted ascending for [`percentile`].
pub fn sorted_ms(samples: impl IntoIterator<Item = Duration>) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.into_iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ms
}

/// Format an aggregate as `mean ± stderr`.
pub fn fmt_aggregate(a: &Aggregate) -> String {
    format!("{:6.2}% ± {:.2} (n={})", a.mean, a.std_err, a.n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_rank_based() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        let ms = sorted_ms([Duration::from_millis(3), Duration::from_micros(500)]);
        assert_eq!(ms, vec![0.5, 3.0]);
    }

    #[test]
    fn default_settings_match_paper() {
        let s = PerfSettings::default();
        assert_eq!(s.num_groups, 20);
        assert_eq!(s.group_size, 6);
        assert_eq!(s.k, 10);
        assert_eq!(s.num_items, 3_900);
        assert_eq!(s.consensus.label(), "AP");
        assert_eq!(s.mode, AffinityMode::Discrete);
    }

    #[test]
    fn small_world_round_trip() {
        let pw = PerfWorld::build_small();
        let settings = PerfSettings {
            num_groups: 2,
            group_size: 3,
            k: 3,
            num_items: 120,
            ..PerfSettings::default()
        };
        let agg = pw.average_sa_percent(&settings);
        assert_eq!(agg.n, 2);
        assert!(agg.mean > 0.0 && agg.mean <= 100.0, "%SA = {}", agg.mean);
    }

    #[test]
    fn batch_matches_sequential_runs() {
        // The parallel batch path must return exactly what running each
        // prepared query one-by-one returns.
        let pw = PerfWorld::build_small();
        let settings = PerfSettings {
            num_groups: 4,
            group_size: 3,
            k: 5,
            num_items: 150,
            ..PerfSettings::default()
        };
        let batch = pw.run_settings_batch(&settings);
        assert_eq!(batch.results.len(), 4);
        let cf = pw.cf();
        let groups = pw.random_groups(settings.num_groups, settings.group_size, settings.seed);
        for (g, r) in groups.iter().zip(&batch.results) {
            let solo = pw.prepare_group(&cf, g, &settings).run();
            let batched = r.as_ref().expect("valid query");
            assert_eq!(solo.item_ids(), batched.item_ids());
            assert_eq!(solo.stats, batched.stats);
        }
        // The aggregate stats are the per-query sums.
        let sa_sum: u64 = batch.successes().map(|r| r.stats.sa).sum();
        assert_eq!(batch.stats.sa, sa_sum);
    }

    #[test]
    fn engine_baseline_compares_three_algorithms() {
        let pw = PerfWorld::build_small();
        let settings = PerfSettings {
            num_groups: 2,
            group_size: 3,
            k: 5,
            num_items: 150,
            ..PerfSettings::default()
        };
        let rows = pw.engine_baseline(&settings);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].algorithm, "greca");
        assert_eq!(rows[2].algorithm, "naive");
        // The naive scan reads everything: its %SA is exactly 100.
        assert!((rows[2].sa_percent.mean - 100.0).abs() < 1e-9);
        // GRECA reads no more than naive and pays no random accesses.
        assert!(rows[0].sa_percent.mean <= rows[2].sa_percent.mean + 1e-9);
        assert_eq!(rows[0].random_accesses, 0);
        assert!(rows[1].random_accesses > 0, "TA must pay RAs");
        // JSON rows are well-formed enough to eyeball.
        assert!(rows[0].to_json().contains("\"algorithm\":\"greca\""));
    }

    #[test]
    fn prepare_split_is_identical_and_warm_is_not_slower_path() {
        let pw = PerfWorld::build_small();
        let settings = PerfSettings {
            num_groups: 2,
            group_size: 3,
            k: 3,
            num_items: 150,
            ..PerfSettings::default()
        };
        let split = pw.prepare_split(&settings);
        assert!(split.identical, "cold and warm must agree bit-for-bit");
        assert!(split.substrate_build_ms >= 0.0);
        assert!(split.cold_prepare_ms > 0.0 && split.warm_prepare_ms > 0.0);
        assert!(split.build_ms_single > 0.0 && split.build_ms_parallel > 0.0);
        assert!(split.build_threads >= 1);
        // The reported count is what the build ran with, never phantom
        // parallelism beyond the built population.
        assert!(split.build_threads <= pw.world.study_users().len());
        assert!(split.to_json().contains("\"identical\":true"));
        assert!(split.to_json().contains("\"build_threads\":"));
    }

    #[test]
    fn warm_batch_equals_cold_batch() {
        let pw = PerfWorld::build_small();
        let settings = PerfSettings {
            num_groups: 3,
            group_size: 3,
            k: 4,
            num_items: 120,
            ..PerfSettings::default()
        };
        let cold = pw.run_settings_batch(&settings);
        let cf = pw.cf();
        let warm_engine = pw.warm_engine(&cf, &settings);
        let warm = pw.run_settings_batch_on(&warm_engine, &settings);
        assert_eq!(cold.stats, warm.stats);
        for (c, w) in cold.results.iter().zip(&warm.results) {
            assert_eq!(
                c.as_ref().expect("valid"),
                w.as_ref().expect("valid"),
                "warm batch must be bit-identical to cold"
            );
        }
    }

    #[test]
    fn items_are_capped_by_catalog() {
        let pw = PerfWorld::build_small();
        let items = pw.items(10_000_000);
        assert_eq!(items.len(), pw.world().movielens.matrix.num_items());
    }
}
