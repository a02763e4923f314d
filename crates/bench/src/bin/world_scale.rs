//! `world_scale`: the substrate layer across worldgen scale tiers,
//! emitting `BENCH_scale.json` — one row per tier.
//!
//! Per tier the row reports:
//!
//! * **build** — eager segment construction through the single-threaded
//!   baseline path (one `preference_list()` + full-column sort + fresh
//!   allocations per user, sequentially) vs the sharded
//!   [`Substrate::build_with`] builder (sparse head assembly + `u16`
//!   code storage, `build_workers` workers). The baseline's sorted
//!   columns are the bit-identity reference;
//! * **bytes/user** — the dense representation (a `u32` id + an `f64`
//!   score per item, 12 B × items) vs the substrate's stored columns,
//!   with the saving percentage and whether the substrate's dequantized
//!   columns are bit-identical to the baseline's;
//! * **warm query p50** — µs per query over an overlapping-membership
//!   group workload against the substrate;
//! * **ingest-to-visibility** — wall time for a post-horizon rating
//!   stream to be ingested *and published* by a [`LiveEngine`] (the
//!   epoch-swap pipeline end to end;
//! * **footprint** — the substrate's [`Substrate::memory_footprint`]
//!   total after the identity sweep and the warm queries have read it.
//!
//! Modes: `--quick` runs study + 10k (the CI smoke; < 60 s), the
//! default adds 100k, `--full` adds the 1M tier (whose non-cohort users
//! get lazy slots).
//!
//! Gates asserted by the binary:
//!
//! * the substrate's columns are **bit-identical** to the baseline's at
//!   every tier (quantization is exact or leaves the column dense);
//! * substrate storage is **≥ 40 % smaller** per user than dense at
//!   every tier;
//! * the sharded (shipping-configuration) build is **≥ 2× faster** than
//!   the baseline path at the 100k tier (when that tier runs, i.e. not
//!   `--quick`).
//!
//! Run with: `cargo run -p greca-bench --release --bin world_scale`

use greca_bench::harness::{banner, percentile, sorted_ms, Report, Section, Stamp};
use greca_cf::PreferenceProvider;
use greca_core::{BuildOptions, GrecaEngine, LiveEngine, LiveModel, Substrate};
use greca_worldgen::{GenWorld, Tier, DEFAULT_SEED};
use std::sync::Arc;
use std::time::Instant;

/// Ratings per ingest-to-visibility batch.
const INGEST_BATCH: usize = 200;
/// Groups in the warm-query workload (2 passes are timed).
const QUERY_GROUPS: usize = 20;
/// Users whose baseline columns are kept for the identity check on
/// tiers where a full sweep would dominate the run (study sweeps
/// everything).
const IDENTITY_SAMPLE: usize = 64;

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Measure one tier into `row` and assert its gates (see the module
/// docs). Returns the tier's eager user count.
fn measure(tier: Tier, row: &mut Section) -> usize {
    banner(&format!("tier {tier}"));
    let t = Instant::now();
    let world = GenWorld::of_tier(tier);
    let world_gen_ms = elapsed_ms(t);
    let spec = world.spec;
    let items = world.serving_items();
    let provider = world.provider();
    let (eager, lazy) = world.substrate_users();
    row.record("tier", tier.name())
        .record("users", spec.num_users)
        .record("items", spec.num_items)
        .record("serving_items", spec.serving_items)
        .record("cohort", spec.cohort)
        .record("eager_users", eager.len())
        .record("lazy_users", lazy.len())
        .record("world_gen_ms", world_gen_ms);

    // ── Build: single-threaded baseline vs sharded builder ───────────
    // The baseline retains every column it builds, exactly like the
    // pre-substrate builder did (dropping them would hand the baseline
    // recycled allocations the real builder never sees). Afterwards
    // only the sampled users' columns are kept, as the identity
    // reference.
    let sweep = if tier == Tier::Study {
        eager.len()
    } else {
        eager.len().min(IDENTITY_SAMPLE)
    };
    let t = Instant::now();
    let mut baseline: Vec<(Vec<u32>, Vec<f64>)> = Vec::with_capacity(eager.len());
    for &u in &eager {
        let pl = provider
            .preference_list(u, &items)
            .expect("generated scores are finite");
        baseline.push(pl.into_sorted_columns());
    }
    let build_ms_single = elapsed_ms(t);
    baseline.truncate(sweep);
    baseline.shrink_to_fit();

    let opts = BuildOptions::default();
    let t = Instant::now();
    let quant = Substrate::build_with(&provider, &world.population, &items, &eager, &lazy, opts)
        .expect("generated scores are finite");
    let build_ms_parallel = elapsed_ms(t);
    let build_speedup = build_ms_single / build_ms_parallel.max(1e-9);
    row.record("build_ms_single", build_ms_single)
        .record("build_ms_parallel", build_ms_parallel)
        .record("build_speedup", build_speedup);

    // ── Storage: bytes per eager user, dense vs quantized ────────────
    let bytes_per_user_f64 = (12 * items.len()) as f64;
    let bytes_per_user_quant = quant.pref_bytes() as f64 / eager.len() as f64;
    let quant_saving_pct = 100.0 * (1.0 - bytes_per_user_quant / bytes_per_user_f64);
    row.record("bytes_per_user_f64", bytes_per_user_f64)
        .record("bytes_per_user_quant", bytes_per_user_quant)
        .record("quant_saving_pct", quant_saving_pct);

    // ── Identity: dequantized columns vs the baseline, bit for bit ───
    // (over the first `sweep` eager users).
    let mut quant_identical = true;
    for (&u, (ids, scores)) in eager.iter().zip(&baseline) {
        let idx = quant.user_index(u).expect("eager users are covered");
        let h = quant.segment_handle(&provider, idx).expect("resident");
        quant_identical &= h.ids() == &ids[..]
            && h.scores()
                .iter()
                .zip(scores)
                .all(|(a, b)| a.to_bits() == b.to_bits());
    }
    row.record("quant_identical", quant_identical);

    // ── Warm query p50 over the substrate ────────────────────────────
    let quant = Arc::new(quant);
    let engine = GrecaEngine::with_substrate(&provider, &world.population, Arc::clone(&quant));
    let groups = world.group_workload(QUERY_GROUPS, 6, 0.5, 0x9e);
    let last_period = spec.num_periods - 1;
    let mut latencies = Vec::with_capacity(groups.len() * 2);
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
            latencies.push(t.elapsed());
        }
    }
    let lat_ms = sorted_ms(latencies);
    row.record("warm_p50_us", percentile(&lat_ms, 0.5) * 1e3)
        .record("warm_queries", lat_ms.len());

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
    row.record("ingest_to_visible_ms", elapsed_ms(t))
        .record("footprint_total_bytes", quant.memory_footprint().total());
    assert_eq!(live.epoch(), epoch_before + 1, "publish must swap an epoch");

    // The gates (see the module docs).
    assert!(
        quant_saving_pct >= 40.0,
        "tier {tier}: stored columns must be ≥40% smaller than dense (got {quant_saving_pct:.1}%)"
    );
    assert!(
        quant_identical,
        "tier {tier}: stored columns must be bit-identical to the baseline's"
    );
    if tier == Tier::Users100k {
        assert!(
            build_speedup >= 2.0,
            "100k tier: sharded build must be ≥2× the baseline path (got {build_speedup:.2}×)"
        );
    }
    eager.len()
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

    let mut report = Report::new("scale");
    let min_eager = tiers
        .iter()
        .map(|&t| report.row("rows", |row| measure(t, row)))
        .min()
        .unwrap_or(0);
    // Every tier builds with `workers_for(eager users)`; the smallest
    // tier's count is the one all tiers share once each has at least
    // as many users as threads.
    report.write(Stamp {
        mode,
        build_workers: BuildOptions::default().workers_for(min_eager),
        seed: Some(DEFAULT_SEED),
    });
}
