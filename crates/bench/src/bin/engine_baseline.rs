//! Engine baseline: GRECA vs TA vs naive at the paper's §4.2 defaults
//! over the same prepared queries, plus the substrate layer's
//! footprint and cold-vs-warm `prepare()` split.
//!
//! Emits `BENCH_engine.json` (mean per-query latency + `%SA` per
//! algorithm, the footprint and the prepare split) — the repository's
//! performance trajectory artifact.
//!
//! Run with: `cargo run -p greca-bench --release --bin engine_baseline`
//! (pass `--quick` for the small study world instead of the full
//! scalability world).

use greca_bench::harness::{banner, Report, Stamp};
use greca_bench::{PerfSettings, PerfWorld};
use greca_core::BuildOptions;
use greca_serve::memory_json;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner("Engine baseline: GRECA vs TA vs naive (paper defaults)");
    let (pw, settings, world_label) = if quick {
        (
            PerfWorld::build_small(),
            PerfSettings {
                num_items: 600,
                ..PerfSettings::default()
            },
            "study_scale",
        )
    } else {
        (
            PerfWorld::build(),
            PerfSettings::default(),
            "scalability_scale",
        )
    };
    let mut report = Report::new("engine");
    report
        .record("world", world_label)
        .record("num_groups", settings.num_groups)
        .record("group_size", settings.group_size)
        .record("k", settings.k)
        .record("num_items", settings.num_items);

    // The substrate's per-layer resident footprint — the serving
    // layer's capacity-planning number (also exposed live through
    // greca-serve's `stats` verb).
    let cf = pw.cf();
    let warm = pw.warm_engine(&cf, &settings);
    let footprint = warm
        .substrate()
        .expect("warm engine has a substrate")
        .memory_footprint();
    report.record("memory", memory_json(footprint));

    // The substrate's headline: cold vs warm prepare latency, with the
    // bit-identical cross-check.
    let split = pw.prepare_split(&settings);
    report.section("prepare", |s| {
        s.record("substrate_build_ms", split.substrate_build_ms)
            .record("build_ms_single", split.build_ms_single)
            .record("build_ms_parallel", split.build_ms_parallel)
            .record("build_threads", split.build_threads)
            .record("cold_prepare_ms", split.cold_prepare_ms)
            .record("warm_prepare_ms", split.warm_prepare_ms)
            .record("speedup", split.speedup)
            .record("identical", split.identical);
    });
    assert!(
        split.identical,
        "cold and warm preparations must be bit-identical"
    );

    // Then the three-algorithm comparison over identical prepared inputs.
    for row in pw.engine_baseline(&settings) {
        report.row("rows", |r| {
            r.record("algorithm", row.algorithm)
                .record("mean_latency_ms", row.mean_latency_ms)
                .record("sa_percent_mean", row.sa_percent.mean)
                .record("sa_percent_stderr", row.sa_percent.std_err)
                .record("groups", row.sa_percent.n)
                .record("random_accesses", row.random_accesses);
        });
    }
    // Every substrate this run builds covers the study users.
    report.write(Stamp {
        mode: if quick { "quick" } else { "full" },
        build_workers: BuildOptions::default().workers_for(pw.world().study_users().len()),
        seed: None,
    });
}
