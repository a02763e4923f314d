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
//! Emits `BENCH_greca_kernel.json` with an `identical` flag CI asserts,
//! plus a generous latency sanity budget in `--quick` mode (catching
//! kernel regressions without a flaky perf gate).
//!
//! Run with: `cargo run -p greca-bench --release --bin greca_kernel`
//! (pass `--quick` for the small study world).

use greca_bench::harness::{banner, Report, Stamp};
use greca_bench::{PerfSettings, PerfWorld};
use greca_core::{BuildOptions, GrecaScratch, PreparedQuery, StoppingRule};
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
    report.record("identical", identical);

    // Latency rows: each rule over all groups × rounds, one recycled
    // scratch (the serving shape).
    let mut served_ms = f64::NAN;
    for (stopping, label) in RULES {
        let ruled: Vec<PreparedQuery> = prepared
            .iter()
            .map(|p| p.clone().stopping(stopping))
            .collect();
        let mut sa_sum = 0.0;
        let start = Instant::now();
        for _ in 0..rounds {
            for p in &ruled {
                let r = p.run_with_scratch(&mut scratch);
                sa_sum += r.stats.sa_percent();
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
                .record("sa_percent_mean", sa_sum / runs);
        });
    }

    assert!(
        identical,
        "kernel outputs must be bit-identical across scratch reuse and match the exhaustive truth"
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
