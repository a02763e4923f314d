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
//!
//! Every bench bin reports through one path: a [`Report`] stamps what
//! ran ([`Stamp`]), records each metric once under its JSON key
//! ([`Section::record`]), printing the aligned console row as it goes,
//! and writes `BENCH_<name>.json` through [`greca_serve::Json`].

use crate::baselines::{naive_topk, ta_topk};
use greca_affinity::AffinityMode;
use greca_cf::{preference_list, UserCfModel};
use greca_consensus::ConsensusFunction;
use greca_core::{
    Aggregate, BatchResult, BuildOptions, GrecaEngine, GrecaScratch, PreparedQuery, Substrate,
    TopKResult,
};
use greca_dataset::{Group, GroupBuilder, ItemId, UserId};
use greca_eval::{StudyWorld, WorldConfig};
use greca_serve::Json;
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
    /// (one `greca_cf::preference_list` call — one provider call plus a
    /// full-column sort — and fresh allocations per user, sequentially):
    /// the single-threaded reference the sharded builder is compared
    /// against.
    pub build_ms_single: f64,
    /// The same segments through `Substrate::build_with`'s sharded
    /// builder (scratch reuse; only the provider's support is sorted and
    /// stored, the default run stays implicit; `build_threads`
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
            let pl = preference_list(&cf, u, &items).expect("CF scores are finite");
            baseline.push(pl.into_sorted_columns());
        }
        let build_ms_single = single_start.elapsed().as_secs_f64() * 1e3;
        drop(std::hint::black_box(baseline));

        // Sharded builder over the same users (scratch reuse + support
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

/// A value a [`Section`] records.
pub trait Metric {
    /// The value as JSON.
    fn into_json(self) -> Json;
}

macro_rules! numeric_metric {
    ($($t:ty),*) => {$(
        impl Metric for $t {
            fn into_json(self) -> Json {
                Json::Num(self as f64)
            }
        }
    )*};
}

numeric_metric!(f64, u64, usize);

impl Metric for bool {
    fn into_json(self) -> Json {
        Json::Bool(self)
    }
}

impl Metric for &str {
    fn into_json(self) -> Json {
        Json::str(self)
    }
}

impl Metric for Option<f64> {
    fn into_json(self) -> Json {
        self.map_or(Json::Null, Json::Num)
    }
}

impl Metric for Json {
    fn into_json(self) -> Json {
        self
    }
}

/// A JSON object whose every key is recorded once. Recording prints
/// the aligned console row, labelled with the key's path in the file.
#[derive(Debug, Default)]
pub struct Section {
    path: String,
    entries: Vec<(String, Json)>,
}

impl Section {
    /// Record `value` under `key`, printing its console row.
    ///
    /// # Panics
    /// If `key` is already recorded here: each metric has one value.
    pub fn record(&mut self, key: &str, value: impl Metric) -> &mut Self {
        let value = value.into_json();
        let shown = match &value {
            Json::Num(n) if n.fract() != 0.0 => format!("{n:.4}"),
            Json::Str(s) => s.clone(),
            other => other.to_line(),
        };
        print_row(&format!("{}{key}", self.path), shown);
        self.insert(key, value);
        self
    }

    /// Record a nested object under `key`, filled by `fill`.
    pub fn section<R>(&mut self, key: &str, fill: impl FnOnce(&mut Section) -> R) -> R {
        let mut child = Section::at(format!("{}{key}.", self.path));
        let out = fill(&mut child);
        self.insert(key, child.json());
        out
    }

    /// Append one object, filled by `fill`, to the array under `key`.
    pub fn row<R>(&mut self, key: &str, fill: impl FnOnce(&mut Section) -> R) -> R {
        if !self.entries.iter().any(|(k, _)| k == key) {
            self.insert(key, Json::Arr(Vec::new()));
        }
        let Some((_, Json::Arr(rows))) = self.entries.iter_mut().find(|(k, _)| k == key) else {
            panic!("`{}{key}` is recorded as a metric, not rows", self.path);
        };
        let mut child = Section::at(format!("{}{key}[{}].", self.path, rows.len()));
        let out = fill(&mut child);
        rows.push(child.json());
        out
    }

    fn at(path: String) -> Section {
        Section {
            path,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, key: &str, value: Json) {
        assert!(
            self.entries.iter().all(|(k, _)| k != key),
            "metric `{}{key}` recorded twice",
            self.path
        );
        self.entries.push((key.to_string(), value));
    }

    fn json(&self) -> Json {
        Json::Obj(self.entries.clone())
    }
}

/// What ran, stamped first into every BENCH file.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// The bin's run mode (`quick` / `full`, or its named tier set).
    pub mode: &'static str,
    /// Workers the run's substrate builds ran with.
    pub build_workers: usize,
    /// The seed the workload was drawn with, for bins that have one.
    /// Written as a decimal string: a `u64` above 2^53 does not survive
    /// a JSON number.
    pub seed: Option<u64>,
}

/// One bench run's `BENCH_<name>.json`: every metric recorded through
/// the root [`Section`] it dereferences to, written behind the run's
/// [`Stamp`] (`mode`, the host's `nproc`, `build_workers`, `seed`).
#[derive(Debug)]
pub struct Report {
    name: &'static str,
    root: Section,
}

impl Report {
    /// An empty report for `BENCH_<name>.json`.
    pub fn new(name: &'static str) -> Report {
        Report {
            name,
            root: Section::default(),
        }
    }

    /// The file's contents, one JSON line: the stamp (its console rows
    /// printed), then the recorded metrics.
    pub fn render(&self, stamp: Stamp) -> String {
        let mut file = Section::default();
        file.record("mode", stamp.mode)
            .record("nproc", BuildOptions::default().resolved_threads())
            .record("build_workers", stamp.build_workers);
        if let Some(seed) = stamp.seed {
            file.record("seed", seed.to_string().as_str());
        }
        for (key, value) in &self.root.entries {
            file.insert(key, value.clone());
        }
        file.json().to_line() + "\n"
    }

    /// Write `BENCH_<name>.json`, stamped, to the current directory.
    pub fn write(&self, stamp: Stamp) {
        let path = format!("BENCH_{}.json", self.name);
        std::fs::write(&path, self.render(stamp)).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

impl std::ops::Deref for Report {
    type Target = Section;

    fn deref(&self) -> &Section {
        &self.root
    }
}

impl std::ops::DerefMut for Report {
    fn deref_mut(&mut self) -> &mut Section {
        &mut self.root
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

    /// Every key path of `v`, depth first (`a.b`, `rows[].c`), with
    /// each object's keys checked unique along the way.
    fn key_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
        match v {
            Json::Obj(pairs) => {
                for (i, (k, child)) in pairs.iter().enumerate() {
                    assert!(
                        pairs[..i].iter().all(|(seen, _)| seen != k),
                        "{prefix}{k} twice"
                    );
                    let path = format!("{prefix}{k}");
                    out.push(path.clone());
                    key_paths(child, &format!("{path}."), out);
                }
            }
            Json::Arr(rows) => {
                for row in rows {
                    key_paths(row, &format!("{}[].", prefix.trim_end_matches('.')), out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn report_stamps_and_records_each_metric_once() {
        let mut report = Report::new("test");
        report
            .record("world", "study_scale")
            .record("p50_ms", 0.1 + 0.2)
            .record("identical", true)
            .record("overlap", None::<f64>);
        report.section("cache", |s| {
            s.record("hit_rate", 0.25);
        });
        for (label, n) in [("raw", 30usize), ("user_cf", 10)] {
            report.row("rows", |row| {
                row.record("model", label).record("batches", n);
            });
        }

        let stamp = Stamp {
            mode: "quick",
            build_workers: 2,
            seed: Some(u64::MAX),
        };
        let parsed = greca_serve::json::parse(&report.render(stamp)).expect("the file re-parses");
        for stamp in ["mode", "nproc", "build_workers", "seed"] {
            assert!(parsed.get(stamp).is_some(), "stamp key {stamp} missing");
        }
        assert_eq!(
            parsed.get("seed").and_then(Json::as_str),
            Some("18446744073709551615")
        );
        assert_eq!(parsed.get("p50_ms").and_then(Json::as_f64), Some(0.1 + 0.2));
        let mut paths = Vec::new();
        key_paths(&parsed, "", &mut paths);
        let want = [
            "mode",
            "nproc",
            "build_workers",
            "seed",
            "world",
            "p50_ms",
            "identical",
            "overlap",
            "cache",
            "cache.hit_rate",
            "rows",
            "rows[].model",
            "rows[].batches",
            "rows[].model",
            "rows[].batches",
        ];
        assert_eq!(paths, want);

        // Recording a key twice is refused: in a section, at the root,
        // as rows over a metric, and as a metric the stamp also writes.
        let refused = |fill: fn(&mut Report)| {
            let mut r = Report::new("test");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fill(&mut r);
                r.render(stamp);
            }))
            .is_err()
        };
        assert!(refused(|r| r.section("s", |s| {
            s.record("x", 1.0).record("x", 2.0);
        })));
        assert!(refused(|r| {
            r.record("x", 1.0).record("x", 1.0);
        }));
        assert!(refused(|r| {
            r.record("rows", 1usize).row("rows", |_| ());
        }));
        assert!(refused(|r| {
            r.record("mode", "full");
        }));
        assert!(!refused(|r| {
            r.record("x", 1.0);
        }));
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
