//! Engine baseline: GRECA vs TA vs naive at the paper's §4.2 defaults,
//! through the `GrecaEngine` / `run_batch` serving path, plus the
//! substrate layer's cold-vs-warm `prepare()` split.
//!
//! Emits `BENCH_engine.json` (mean per-query latency + `%SA` per
//! algorithm, and the prepare split) — the repository's performance
//! trajectory artifact; later PRs regenerate it to show movement.
//!
//! Run with: `cargo run -p greca-bench --release --bin engine_baseline`
//! (pass `--quick` for the small study world instead of the full
//! scalability world).

use greca_bench::harness::{banner, fmt_aggregate, print_row};
use greca_bench::{PerfSettings, PerfWorld};
use std::io::Write;

/// Bytes per mebibyte, for the human-readable footprint row.
const MIB: f64 = 1024.0 * 1024.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner("Engine baseline: GRECA vs TA vs naive (paper defaults, batch path)");
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
    print_row("world", world_label);
    print_row("groups", settings.num_groups);
    print_row("group size", settings.group_size);
    print_row("k", settings.k);
    print_row("items", settings.num_items);

    // The warm batch path first: one Arc<Substrate> shared by all
    // workers, aggregated stats over the 20-group sweep.
    let cf = pw.cf();
    let warm = pw.warm_engine(&cf, &settings);
    let batch = pw.run_settings_batch_on(&warm, &settings);
    print_row(
        "batch %SA (GRECA, warm)",
        fmt_aggregate(&batch.sa_percent_aggregate()),
    );

    // The substrate's per-layer resident footprint — the serving
    // layer's capacity-planning number (also exposed live through
    // greca-serve's `stats` verb).
    let footprint = warm
        .substrate()
        .expect("warm engine has a substrate")
        .memory_footprint();
    print_row(
        "substrate memory",
        format!(
            "{:8.2} MiB  (universe {:.2} + prefs {:.2})",
            footprint.total() as f64 / MIB,
            footprint.universe_bytes as f64 / MIB,
            footprint.pref_bytes as f64 / MIB,
        ),
    );

    // The substrate's headline: cold vs warm prepare latency, with the
    // bit-identical cross-check.
    let split = pw.prepare_split(&settings);
    print_row(
        "substrate build",
        format!("{:9.3} ms (once per engine)", split.substrate_build_ms),
    );
    print_row(
        "segment build single",
        format!("{:9.3} ms (baseline path, 1 thread)", split.build_ms_single),
    );
    print_row(
        "segment build sharded",
        format!(
            "{:9.3} ms ({} thread(s), {:.1}× vs baseline)",
            split.build_ms_parallel,
            split.build_threads,
            split.build_ms_single / split.build_ms_parallel.max(1e-9),
        ),
    );
    print_row(
        "prepare cold",
        format!("{:9.3} ms/query", split.cold_prepare_ms),
    );
    print_row(
        "prepare warm",
        format!("{:9.3} ms/query", split.warm_prepare_ms),
    );
    print_row(
        "warm speedup",
        format!(
            "{:.1}×  (results identical: {})",
            split.speedup, split.identical
        ),
    );
    assert!(
        split.identical,
        "cold and warm preparations must be bit-identical"
    );

    // Then the three-algorithm comparison over identical prepared inputs.
    let rows = pw.engine_baseline(&settings);
    for row in &rows {
        println!(
            "  {:<8} latency = {:9.3} ms/query   %SA = {}   RAs = {}",
            row.algorithm,
            row.mean_latency_ms,
            fmt_aggregate(&row.sa_percent),
            row.random_accesses,
        );
    }

    let json = format!(
        "{{\n  \"world\": \"{}\",\n  \"num_groups\": {},\n  \"group_size\": {},\n  \"k\": {},\n  \"num_items\": {},\n  \"memory\": {},\n  \"prepare\": {},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        world_label,
        settings.num_groups,
        settings.group_size,
        settings.k,
        settings.num_items,
        footprint.to_json(),
        split.to_json(),
        rows.iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    let path = "BENCH_engine.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_engine.json");
    println!("\nwrote {path}");
}
