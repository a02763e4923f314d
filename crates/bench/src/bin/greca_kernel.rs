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

use greca_bench::harness::{banner, print_row};
use greca_bench::{PerfSettings, PerfWorld};
use greca_core::{BuildOptions, GrecaScratch, PreparedQuery, StoppingRule};
use std::io::Write;
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

struct KernelRow {
    stopping: &'static str,
    mean_latency_ms: f64,
    sa_percent_mean: f64,
}

impl KernelRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"stopping\":\"{}\",\"mean_latency_ms\":{:.4},\"sa_percent_mean\":{:.4}}}",
            self.stopping, self.mean_latency_ms, self.sa_percent_mean,
        )
    }
}

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
    print_row("world", world_label);
    print_row("groups", settings.num_groups);
    print_row("k", settings.k);
    print_row("items", settings.num_items);
    // The host's threads, and the workers a warm engine over the study
    // users builds with. Every kernel row runs on one thread; the
    // queries are prepared once, cold, before any timing.
    let nproc = BuildOptions::default().resolved_threads();
    let build_workers = BuildOptions::default().workers_for(pw.world().study_users().len());
    print_row("nproc", nproc);
    print_row("build workers", build_workers);

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
    print_row("identical", identical);

    // Latency rows: each rule over all groups × rounds, one recycled
    // scratch (the serving shape).
    let mut rows = Vec::new();
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
        let mean_latency_ms =
            start.elapsed().as_secs_f64() * 1e3 / (rounds * prepared.len()) as f64;
        let row = KernelRow {
            stopping: label,
            mean_latency_ms,
            sa_percent_mean: sa_sum / (rounds * prepared.len()) as f64,
        };
        println!(
            "  {:<16} latency = {:9.3} ms/query   %SA = {:6.2}",
            row.stopping, row.mean_latency_ms, row.sa_percent_mean,
        );
        rows.push(row);
    }

    assert!(
        identical,
        "kernel outputs must be bit-identical across scratch reuse and match the exhaustive truth"
    );
    if quick {
        // The served configuration (`GrecaConfig::top`), looked up by
        // label so reordering or extending RULES cannot silently gate the
        // wrong row.
        let default_row = rows
            .iter()
            .find(|r| r.stopping == "greca")
            .expect("the served rule is benchmarked");
        assert!(
            default_row.mean_latency_ms <= QUICK_BUDGET_MS,
            "GRECA kernel regression: {:.3} ms/query exceeds the {} ms sanity budget",
            default_row.mean_latency_ms,
            QUICK_BUDGET_MS
        );
    }

    let json = format!(
        "{{\n  \"world\": \"{}\",\n  \"nproc\": {},\n  \"build_workers\": {},\n  \"num_groups\": {},\n  \"group_size\": {},\n  \"k\": {},\n  \"num_items\": {},\n  \"identical\": {},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        world_label,
        nproc,
        build_workers,
        settings.num_groups,
        settings.group_size,
        settings.k,
        settings.num_items,
        identical,
        rows.iter()
            .map(KernelRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    let path = "BENCH_greca_kernel.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_greca_kernel.json");
    println!("\nwrote {path}");
}
