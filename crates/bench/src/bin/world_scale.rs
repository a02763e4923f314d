//! `world_scale`: the substrate layer across worldgen scale tiers,
//! emitting `BENCH_scale.json` — one row per tier.
//!
//! Per tier the row reports:
//!
//! * **build** — eager segment construction through the single-threaded
//!   baseline path (one `preference_list()` + full-column sort + fresh
//!   allocations per user, sequentially) vs the sharded
//!   [`Substrate::build_with`] builder in its shipping configuration for
//!   scale tiers (sparse head assembly + quantized `u16` storage,
//!   `build_threads` workers). The dense `f64` build is timed too
//!   (`build_ms_dense`) — it orders identically and serves as the
//!   bit-identity reference;
//! * **bytes/user** — the dense `f64` representation vs the quantized
//!   `u16`-code representation, with the saving percentage and whether
//!   quantized serving is bit-identical to dense;
//! * **warm query p50** — µs per query over an overlapping-membership
//!   group workload against the quantized substrate;
//! * **ingest-to-visibility** — wall time for a post-horizon rating
//!   stream to be ingested *and published* by a [`LiveEngine`] (the
//!   epoch-swap pipeline end to end);
//! * **lazy residency** — materializations/evictions under the
//!   `materialize_budget` for tiers that leave non-cohort users lazy.
//!
//! Modes: `--quick` runs study + 10k (the CI smoke; < 60 s), the
//! default adds 100k, `--full` adds the 1M tier (lazy residency).
//!
//! Gates asserted by the binary:
//!
//! * quantized serving is **bit-identical** to dense at every tier
//!   (quantization is exact or leaves the column dense);
//! * quantized storage is **≥ 40 % smaller** per user at every tier;
//! * the sharded (shipping-configuration) build is **≥ 2× faster** than
//!   the baseline path at the 100k tier (when that tier runs, i.e. not
//!   `--quick`).
//!
//! Run with: `cargo run -p greca-bench --release --bin world_scale`

use greca_bench::harness::{banner, percentile, print_row};
use greca_cf::PreferenceProvider;
use greca_core::{BuildOptions, GrecaEngine, LiveEngine, LiveModel, ScoreCompression, Substrate};
use greca_worldgen::{GenWorld, Tier, DEFAULT_SEED};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Materialization-cache budget for lazy tiers (bytes).
const MATERIALIZE_BUDGET: usize = 256 << 20;
/// Ratings per ingest-to-visibility batch.
const INGEST_BATCH: usize = 200;
/// Groups in the warm-query workload (2 passes are timed).
const QUERY_GROUPS: usize = 20;
/// Users sampled for the dense-vs-quantized identity check on tiers
/// where a full sweep would dominate the run (study sweeps everything).
const IDENTITY_SAMPLE: usize = 64;

/// One `BENCH_scale.json` row.
struct Row {
    tier: Tier,
    users: usize,
    items: usize,
    serving_items: usize,
    cohort: usize,
    eager_users: usize,
    lazy_users: usize,
    world_gen_ms: f64,
    build_ms_single: f64,
    build_ms_parallel: f64,
    build_ms_dense: f64,
    build_speedup: f64,
    bytes_per_user_f64: f64,
    bytes_per_user_quant: f64,
    quant_saving_pct: f64,
    quant_identical: bool,
    warm_p50_us: f64,
    warm_queries: usize,
    ingest_to_visible_ms: f64,
    lazy_materializations: u64,
    lazy_evictions: u64,
    lazy_resident_bytes: usize,
    footprint_total_bytes: usize,
}

impl Row {
    /// The row as a JSON object (hand-formatted; the workspace
    /// has no serialization crate).
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"tier\":\"{}\",\"users\":{},\"items\":{},\"serving_items\":{},",
                "\"cohort\":{},\"eager_users\":{},\"lazy_users\":{},",
                "\"world_gen_ms\":{:.2},",
                "\"build_ms_single\":{:.2},\"build_ms_parallel\":{:.2},",
                "\"build_ms_dense\":{:.2},\"build_speedup\":{:.2},",
                "\"bytes_per_user_f64\":{:.1},\"bytes_per_user_quant\":{:.1},",
                "\"quant_saving_pct\":{:.1},\"quant_identical\":{},",
                "\"warm_p50_us\":{:.1},\"warm_queries\":{},",
                "\"ingest_to_visible_ms\":{:.2},",
                "\"lazy_materializations\":{},\"lazy_evictions\":{},",
                "\"lazy_resident_bytes\":{},\"footprint_total_bytes\":{}}}",
            ),
            self.tier.name(),
            self.users,
            self.items,
            self.serving_items,
            self.cohort,
            self.eager_users,
            self.lazy_users,
            self.world_gen_ms,
            self.build_ms_single,
            self.build_ms_parallel,
            self.build_ms_dense,
            self.build_speedup,
            self.bytes_per_user_f64,
            self.bytes_per_user_quant,
            self.quant_saving_pct,
            self.quant_identical,
            self.warm_p50_us,
            self.warm_queries,
            self.ingest_to_visible_ms,
            self.lazy_materializations,
            self.lazy_evictions,
            self.lazy_resident_bytes,
            self.footprint_total_bytes,
        )
    }
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn measure(tier: Tier) -> Row {
    banner(&format!("tier {tier}"));
    let t = Instant::now();
    let world = GenWorld::of_tier(tier);
    let world_gen_ms = elapsed_ms(t);
    let spec = world.spec;
    let items = world.serving_items();
    let provider = world.provider();
    let (eager, lazy) = world.substrate_users();
    print_row(
        "world",
        format!(
            "{} users × {} items ({} serving, cohort {}), gen {:.0} ms",
            spec.num_users, spec.num_items, spec.serving_items, spec.cohort, world_gen_ms
        ),
    );

    // ── Build: single-threaded baseline vs sharded builder ───────────
    // The baseline retains every column it builds, exactly like the
    // pre-substrate builder did (dropping them would hand the baseline
    // recycled allocations the real builder never sees).
    let t = Instant::now();
    let mut baseline: Vec<(Vec<u32>, Vec<f64>)> = Vec::with_capacity(eager.len());
    for &u in &eager {
        let pl = provider
            .preference_list(u, &items)
            .expect("generated scores are finite");
        baseline.push(pl.into_sorted_columns());
    }
    let build_ms_single = elapsed_ms(t);
    drop(std::hint::black_box(baseline));

    // The headline "parallel" build is the substrate's shipping
    // configuration for scale tiers: sharded construction into the
    // quantized representation. The dense `f64` build is timed as a
    // reference — it orders identically and anchors the identity sweep.
    let opts = BuildOptions {
        materialize_budget: Some(MATERIALIZE_BUDGET),
        ..BuildOptions::default()
    };
    let t = Instant::now();
    let quant = Substrate::build_with(
        &provider,
        &world.population,
        &items,
        &eager,
        &lazy,
        BuildOptions {
            compression: ScoreCompression::Quantized,
            ..opts
        },
    )
    .expect("generated scores are finite");
    let build_ms_parallel = elapsed_ms(t);
    let build_speedup = build_ms_single / build_ms_parallel.max(1e-9);
    print_row(
        "build single vs sharded",
        format!(
            "{build_ms_single:9.1} ms vs {build_ms_parallel:9.1} ms  ({build_speedup:.1}×, {} thread(s))",
            opts.workers_for(eager.len())
        ),
    );

    let t = Instant::now();
    let dense = Substrate::build_with(&provider, &world.population, &items, &eager, &lazy, opts)
        .expect("generated scores are finite");
    let build_ms_dense = elapsed_ms(t);
    print_row("build dense reference", format!("{build_ms_dense:9.1} ms"));

    // ── Storage: bytes per eager user, dense vs quantized ────────────
    let bytes_per_user_f64 = dense.pref_bytes() as f64 / eager.len() as f64;
    let bytes_per_user_quant = quant.pref_bytes() as f64 / eager.len() as f64;
    let quant_saving_pct = 100.0 * (1.0 - bytes_per_user_quant / bytes_per_user_f64);
    print_row(
        "bytes/user f64 vs quant",
        format!(
            "{bytes_per_user_f64:9.0} vs {bytes_per_user_quant:9.0}  (−{quant_saving_pct:.1}%)"
        ),
    );

    // ── Identity: quantized serving vs dense, bit for bit ────────────
    let sweep = if tier == Tier::Study {
        eager.len()
    } else {
        eager.len().min(IDENTITY_SAMPLE)
    };
    let mut quant_identical = true;
    for idx in 0..sweep {
        let hd = dense.segment_handle(&provider, idx).expect("resident");
        let hq = quant.segment_handle(&provider, idx).expect("resident");
        quant_identical &= hd.ids() == hq.ids()
            && hd
                .scores()
                .iter()
                .zip(hq.scores())
                .all(|(a, b)| a.to_bits() == b.to_bits());
    }
    print_row(
        "quant identical",
        format!("{quant_identical} (over {sweep} users)"),
    );

    // ── Warm query p50 over the quantized substrate ──────────────────
    let quant = Arc::new(quant);
    let engine = GrecaEngine::with_substrate(&provider, &world.population, Arc::clone(&quant));
    let groups = world.group_workload(QUERY_GROUPS, 6, 0.5, 0x9e);
    let last_period = spec.num_periods - 1;
    let mut lat_us: Vec<f64> = Vec::with_capacity(groups.len() * 2);
    for _pass in 0..2 {
        for g in &groups {
            let t = Instant::now();
            let top = engine
                .query(g)
                .items(&items)
                .period(last_period)
                .top(10)
                .run()
                .expect("workload groups are covered");
            std::hint::black_box(top);
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let warm_p50_us = percentile(&lat_us, 0.5);
    print_row(
        "warm query p50 / p99",
        format!(
            "{warm_p50_us:9.1} µs / {:9.1} µs  (n={})",
            percentile(&lat_us, 0.99),
            lat_us.len()
        ),
    );

    // ── Lazy residency: touch a slice of lazy users under budget ─────
    for &u in lazy.iter().take(200) {
        let idx = quant.user_index(u).expect("lazy users are in the universe");
        std::hint::black_box(quant.segment_handle(&provider, idx).expect("materializes"));
    }
    let lazy_stats = quant.lazy_stats();
    if !lazy.is_empty() {
        print_row(
            "lazy cache",
            format!(
                "{} materialized, {} evicted, {:.1} MiB resident (budget {} MiB)",
                lazy_stats.materializations,
                lazy_stats.evictions,
                lazy_stats.resident_bytes as f64 / (1 << 20) as f64,
                MATERIALIZE_BUDGET >> 20,
            ),
        );
    }

    // ── Ingest-to-visibility through the epoch-swap pipeline ────────
    let live = LiveEngine::new_with_options(
        &world.population,
        LiveModel::Raw,
        &world.matrix,
        &items,
        opts,
    )
    .expect("generated scores are finite");
    let stream = world.rating_stream(INGEST_BATCH, 0x51);
    let epoch_before = live.epoch();
    let t = Instant::now();
    live.ingest(&stream).expect("stream ratings are finite");
    let ingest_to_visible_ms = elapsed_ms(t);
    assert_eq!(live.epoch(), epoch_before + 1, "publish must swap an epoch");
    print_row(
        "ingest→visible",
        format!("{ingest_to_visible_ms:9.2} ms  ({INGEST_BATCH} ratings, 1 epoch)"),
    );

    Row {
        tier,
        users: spec.num_users,
        items: spec.num_items,
        serving_items: spec.serving_items,
        cohort: spec.cohort,
        eager_users: eager.len(),
        lazy_users: lazy.len(),
        world_gen_ms,
        build_ms_single,
        build_ms_parallel,
        build_ms_dense,
        build_speedup,
        bytes_per_user_f64,
        bytes_per_user_quant,
        quant_saving_pct,
        quant_identical,
        warm_p50_us,
        warm_queries: lat_us.len(),
        ingest_to_visible_ms,
        lazy_materializations: lazy_stats.materializations,
        lazy_evictions: lazy_stats.evictions,
        lazy_resident_bytes: lazy_stats.resident_bytes,
        footprint_total_bytes: quant.memory_footprint().total(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    assert!(
        !(quick && full),
        "--quick and --full are mutually exclusive"
    );
    let (mode, tiers): (&str, &[Tier]) = if quick {
        ("quick", &[Tier::Study, Tier::Users10k])
    } else if full {
        (
            "full",
            &[Tier::Study, Tier::Users10k, Tier::Users100k, Tier::Users1M],
        )
    } else {
        ("default", &[Tier::Study, Tier::Users10k, Tier::Users100k])
    };
    banner(&format!(
        "world_scale: substrate scaling over worldgen tiers ({mode})"
    ));

    let rows: Vec<Row> = tiers.iter().map(|&t| measure(t)).collect();

    // The gates (see the module docs).
    for row in &rows {
        assert!(
            row.quant_saving_pct >= 40.0,
            "tier {}: quantized storage must be ≥40% smaller (got {:.1}%)",
            row.tier,
            row.quant_saving_pct
        );
        assert!(
            row.quant_identical,
            "tier {}: quantized results must be bit-identical to f64",
            row.tier
        );
        if row.tier == Tier::Users100k {
            assert!(
                row.build_speedup >= 2.0,
                "100k tier: sharded build must be ≥2× the baseline path (got {:.2}×)",
                row.build_speedup
            );
        }
    }

    let json = format!(
        "{{\n  \"seed\": {},\n  \"mode\": \"{}\",\n  \"build_threads\": {},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        DEFAULT_SEED,
        mode,
        BuildOptions::default().resolved_threads(),
        rows.iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    let path = "BENCH_scale.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_scale.json");
    println!("\nwrote {path}");
}
