//! GRECA kernel microbenchmark: per-`StoppingRule` latency of the
//! allocation-free execution core, with the identity gates CI relies
//! on.
//!
//! Measures mean per-query kernel latency (preparation excluded — the
//! queries are prepared once) over the §4.2 random groups for each
//! stopping rule, reusing one [`GrecaScratch`]
//! across every run the way a serving worker does. Before timing, it
//! verifies:
//!
//! * **scratch identity** — every rule's result through a recycled
//!   scratch equals a fresh-scratch run bit-for-bit (workspace reuse
//!   cannot leak state);
//! * **truth identity** — every rule's returned itemset carries exact
//!   scores matching the `StoppingRule::Exhaustive` oracle's top-k.
//!
//! Every timed run is also held to the stopping cadence's guarantee
//! (`greca-core`'s `greca` module docs): its checks visit no more live
//! items than it read entries (`check_items ≤ sa`). Each row records
//! the mean checks and check items per query beside its SA.
//!
//! A `default_run` section times the served default itemset's shape:
//! each group over the catalog minus its members' rated items, scored
//! by raw ratings, so every preference column is one default run and
//! the kernel reads a few entries of each. It runs under the same two
//! gates and records the recycled workspace's bytes, which follow the
//! items read, not the itemset.
//!
//! Emits `BENCH_greca_kernel.json` with the `identical` and
//! `checks_within_reads` flags CI asserts, plus a generous latency
//! sanity budget in `--quick` mode (catching kernel regressions without
//! a flaky perf gate).
//!
//! Run with: `cargo run -p greca-bench --release --bin greca_kernel`
//! (pass `--quick` for the small study world).

use greca_bench::harness::{banner, Report, Stamp};
use greca_bench::{PerfSettings, PerfWorld};
use greca_cf::RawRatings;
use greca_core::{BuildOptions, GrecaEngine, GrecaScratch, PreparedQuery, StoppingRule};
use std::time::Instant;

/// Latency budget (ms/query) for the served GRECA configuration in
/// `--quick` mode — several times the current measurement, so only a
/// real kernel regression trips it.
const QUICK_BUDGET_MS: f64 = 60.0;

/// One row per stopping rule; each runs the kernel's one check cadence.
const RULES: [(StoppingRule, &str); 3] = [
    (StoppingRule::Greca, "greca"),
    (StoppingRule::ThresholdOnly, "threshold_only"),
    (StoppingRule::Exhaustive, "exhaustive"),
];

/// Whether the returned itemset's exact scores match the exhaustive
/// truth's top-k score multiset (ties may swap items; scores may not
/// differ).
fn matches_truth(p: &PreparedQuery, got: &greca_core::TopKResult, k: usize) -> bool {
    let exact = p.exact_scores();
    let want: Vec<f64> = exact.iter().take(k).map(|&(_, s)| s).collect();
    let mut have: Vec<f64> = got
        .items
        .iter()
        .map(|t| {
            exact
                .iter()
                .find(|&&(i, _)| i == t.item)
                .map(|&(_, s)| s)
                .unwrap_or(f64::NAN)
        })
        .collect();
    have.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    have.len() == want.len() && have.iter().zip(&want).all(|(h, w)| (h - w).abs() < 1e-6)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner("GRECA kernel: allocation-free execution core microbenchmark");
    let (pw, settings, world_label, rounds) = if quick {
        (
            PerfWorld::build_small(),
            PerfSettings {
                num_items: 600,
                ..PerfSettings::default()
            },
            "study_scale",
            2usize,
        )
    } else {
        (
            PerfWorld::build(),
            PerfSettings::default(),
            "scalability_scale",
            3usize,
        )
    };
    let mut report = Report::new("greca_kernel");
    report
        .record("world", world_label)
        .record("num_groups", settings.num_groups)
        .record("group_size", settings.group_size)
        .record("k", settings.k)
        .record("num_items", settings.num_items);

    let cf = pw.cf();
    let groups = pw.random_groups(settings.num_groups, settings.group_size, settings.seed);
    let prepared: Vec<PreparedQuery> = groups
        .iter()
        .map(|g| pw.prepare_group(&cf, g, &settings))
        .collect();

    // Identity gates first (untimed): scratch reuse is bit-identical to
    // fresh scratches, and every rule's itemset matches the exhaustive
    // truth.
    let mut scratch = GrecaScratch::new();
    let mut identical = true;
    for p in &prepared {
        for (stopping, _) in RULES {
            let p = p.clone().stopping(stopping);
            let fresh = p.run();
            let reused = p.run_with_scratch(&mut scratch);
            identical &= fresh == reused;
            identical &= matches_truth(&p, &reused, settings.k);
        }
    }

    // Latency rows: each rule over all groups × rounds, one recycled
    // scratch (the serving shape).
    let mut checks_within_reads = true;
    let mut served_ms = f64::NAN;
    for (stopping, label) in RULES {
        let ruled: Vec<PreparedQuery> = prepared
            .iter()
            .map(|p| p.clone().stopping(stopping))
            .collect();
        let (mut sa_sum, mut checks, mut check_items) = (0.0, 0, 0);
        let start = Instant::now();
        for _ in 0..rounds {
            for p in &ruled {
                let r = p.run_with_scratch(&mut scratch);
                sa_sum += r.stats.sa_percent();
                checks += r.checks;
                check_items += r.check_items;
                checks_within_reads &= r.check_items <= r.stats.sa;
            }
        }
        let runs = (rounds * prepared.len()) as f64;
        let mean_latency_ms = start.elapsed().as_secs_f64() * 1e3 / runs;
        // The served configuration (`GrecaConfig::top`), picked by rule
        // so reordering or extending RULES cannot gate the wrong row.
        if stopping == StoppingRule::Greca {
            served_ms = mean_latency_ms;
        }
        report.row("rows", |r| {
            r.record("stopping", label)
                .record("mean_latency_ms", mean_latency_ms)
                .record("sa_percent_mean", sa_sum / runs)
                .record("checks_mean", checks as f64 / runs)
                .record("check_items_mean", check_items as f64 / runs);
        });
    }

    // The default-run shape: raw ratings over each group's candidate
    // set, on a workspace of its own so its bytes show this shape.
    let world = pw.world();
    let raw = RawRatings(&world.movielens.matrix);
    let engine = GrecaEngine::new(&raw, &world.population);
    let defaulted: Vec<PreparedQuery> = groups
        .iter()
        .map(|g| {
            engine
                .query(g)
                .period(world.last_period())
                .affinity(settings.mode)
                .consensus(settings.consensus)
                .normalize_rpref(false)
                .top(settings.k)
                .prepare()
                .expect("experiment settings form valid queries")
        })
        .collect();
    let mut run_scratch = GrecaScratch::new();
    for p in &defaulted {
        let reused = p.run_with_scratch(&mut run_scratch);
        identical &= p.run_with_scratch(&mut GrecaScratch::new()) == reused;
        identical &= matches_truth(p, &reused, settings.k);
    }
    let (mut sa_sum, mut checks, mut check_items) = (0.0, 0, 0);
    let start = Instant::now();
    for _ in 0..rounds {
        for p in &defaulted {
            let r = p.run_with_scratch(&mut run_scratch);
            sa_sum += r.stats.sa_percent();
            checks += r.checks;
            check_items += r.check_items;
            checks_within_reads &= r.check_items <= r.stats.sa;
        }
    }
    let runs = (rounds * defaulted.len()) as f64;
    let candidates = defaulted
        .iter()
        .map(|p| p.inputs().num_items)
        .sum::<usize>();
    report.section("default_run", |r| {
        r.record("stopping", "greca")
            .record(
                "mean_candidate_items",
                candidates as f64 / defaulted.len() as f64,
            )
            .record(
                "mean_latency_ms",
                start.elapsed().as_secs_f64() * 1e3 / runs,
            )
            .record("sa_percent_mean", sa_sum / runs)
            .record("checks_mean", checks as f64 / runs)
            .record("check_items_mean", check_items as f64 / runs)
            .record("workspace_bytes", run_scratch.memory_bytes());
    });
    report
        .record("identical", identical)
        .record("checks_within_reads", checks_within_reads);

    assert!(
        identical,
        "kernel outputs must be bit-identical across scratch reuse and match the exhaustive truth"
    );
    assert!(
        checks_within_reads,
        "a run's stopping checks visited more live items than it read entries"
    );
    if quick {
        assert!(
            served_ms <= QUICK_BUDGET_MS,
            "GRECA kernel regression: {served_ms:.3} ms/query exceeds the {QUICK_BUDGET_MS} ms sanity budget"
        );
    }
    // The workers a warm engine over the study users builds with. Every
    // kernel row runs on one thread; the queries are prepared once,
    // cold, before any timing.
    report.write(Stamp {
        mode: if quick { "quick" } else { "full" },
        build_workers: BuildOptions::default().workers_for(pw.world().study_users().len()),
        seed: None,
    });
}
