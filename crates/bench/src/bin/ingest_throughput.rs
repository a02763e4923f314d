//! Live-ingestion throughput: incremental epoch publishing vs full
//! substrate rebuild.
//!
//! Streams single-user rating batches into a [`LiveEngine`] (the raw
//! and user-CF models) and measures, per model:
//!
//! * **updates/s** — published single-rating batches per second through
//!   the dirty-set + `Substrate::rebuild_dirty` + epoch-swap path;
//! * **staleness-to-visibility** — wall time from the `ingest()` call
//!   to the new epoch being pinnable (mean and max);
//! * **full-rebuild comparison** — what the pre-live alternative cost:
//!   refit the model and rebuild the whole substrate from the same
//!   post-batch ratings (the "construct a whole new engine" path);
//! * **identical** — a pinned-epoch query after the stream equals a
//!   cold engine fully refit on the final ratings, bit-for-bit.
//!
//! Emits `BENCH_ingest.json`. The acceptance bar asserted here:
//! incremental publishing is ≥ 10× faster than the full rebuild for
//! single-user delta batches under the row-only model, whose dirty set
//! is exactly one segment.
//!
//! The user-CF row is reported without a bar, and its number is worth
//! understanding: *exact* CF invalidation must dirty every co-rater of
//! the batch user (any edit to a user's vector moves their cosine
//! similarity to every co-rater), and the study cohort is dense — every
//! study user co-rates with every other — so the dirty set degenerates
//! to the whole cohort. Historically that made "incremental" publishing
//! a net *regression* (0.9× vs a full rebuild); the engine now detects
//! degenerate coverage (95% of the segments,
//! `DEFAULT_FULL_REBUILD_FRACTION`) and rebuilds wholesale instead —
//! `full_rebuild_fallbacks` in the JSON counts how often. Sparse populations and row-local providers are
//! where incremental epochs shine (`rebuilt_segments_mean` makes the
//! fan-out visible).
//!
//! Run with: `cargo run -p greca-bench --release --bin ingest_throughput`
//! (pass `--quick` for the small study world).

use greca_bench::harness::{banner, Report, Section, Stamp};
use greca_bench::{PerfSettings, PerfWorld};
use greca_cf::{PreferenceProvider, RawRatings, UserCfModel};
use greca_core::{BuildOptions, GrecaEngine, LiveEngine, LiveModel};
use greca_dataset::{Group, ItemId, Rating, UserId};
use std::time::Instant;

/// Stream `batches` single-rating publishes through `model` and record
/// the row; returns `(speedup, identical)` for the gates.
fn measure(
    pw: &PerfWorld,
    settings: &PerfSettings,
    model: LiveModel,
    batches: usize,
    row: &mut Section,
) -> (f64, bool) {
    let world = pw.world();
    let items: Vec<ItemId> = pw.items(settings.num_items);
    let live = LiveEngine::new(&world.population, model, &world.movielens.matrix, &items)
        .expect("finite CF scores");
    let users: Vec<UserId> = live.pin().substrate().users().to_vec();

    // One untimed warmup publish: the first fit + substrate build after
    // engine construction runs measurably slower (cold caches and
    // allocator) and would bias the incremental mean against the
    // comparator, which is measured later on a warm process.
    let warmup = Rating {
        user: users[users.len() - 1],
        item: items[items.len() - 1],
        value: 3.0,
        ts: -1,
    };
    live.ingest(&[warmup]).expect("finite rating");

    // Single-user batches: rotate the rating user, walk the catalog,
    // cycle the star value (every batch dirties at least one segment).
    let mut publish_ms: Vec<f64> = Vec::with_capacity(batches);
    let mut rebuilt = 0usize;
    let mut fallbacks = 0usize;
    for b in 0..batches {
        let rating = Rating {
            user: users[(b * 7) % users.len()],
            item: items[(b * 13) % items.len()],
            value: (b % 5) as f32 + 1.0,
            ts: b as i64,
        };
        let start = Instant::now();
        let report = live.ingest(&[rating]).expect("finite rating");
        publish_ms.push(start.elapsed().as_secs_f64() * 1e3);
        rebuilt += report.rebuilt_segments;
        fallbacks += report.full_rebuild as usize;
    }
    let total_s: f64 = publish_ms.iter().sum::<f64>() / 1e3;
    let mean = publish_ms.iter().sum::<f64>() / batches as f64;
    let max = publish_ms.iter().copied().fold(0.0, f64::max);

    // The alternative a serving deployment had before the live layer:
    // rebuild model + substrate wholesale from the final ratings.
    // Averaged over a few rounds (a single sample of a multi-second
    // build is too noisy to serve as the speedup denominator); the
    // process is already warm from the publish stream, matching the
    // warmed-up incremental measurements.
    const REBUILD_ROUNDS: usize = 3;
    let pin = live.pin();
    let final_matrix = pin.matrix().clone();
    let mut rebuild_s = 0.0f64;
    let mut full = None;
    for _ in 0..REBUILD_ROUNDS {
        let start = Instant::now();
        let engine = LiveEngine::new(&world.population, model, &final_matrix, &items)
            .expect("finite CF scores");
        rebuild_s += start.elapsed().as_secs_f64();
        // Dropping the previous round's engine happens here, outside
        // the timed section — deallocation is not rebuild cost.
        full = Some(engine);
    }
    let full = full.expect("at least one round");
    let full_rebuild_ms = rebuild_s * 1e3 / REBUILD_ROUNDS as f64;

    // Spot-check the headline contract: the streamed engine's pinned
    // epoch equals a cold full refit, bit-for-bit.
    let provider: Box<dyn PreferenceProvider + Sync> = match model {
        LiveModel::Raw => Box::new(RawRatings(&final_matrix)),
        LiveModel::UserCf(cfg) => Box::new(UserCfModel::fit(&final_matrix, cfg)),
    };
    let cold = GrecaEngine::new(provider.as_ref(), &world.population);
    let identical = pw
        .random_groups(4, settings.group_size, settings.seed)
        .iter()
        .all(|g: &Group| {
            let mk = |e: &GrecaEngine<'_>| {
                e.query(g)
                    .items(&items)
                    .top(settings.k)
                    .run()
                    .expect("valid query")
            };
            mk(&cold) == mk(&pin.engine()) && mk(&cold) == mk(&full.pin().engine())
        });

    let speedup = full_rebuild_ms / mean;
    row.record("batch_size", 1usize)
        .record("batches", batches)
        .record("incremental_ms_mean", mean)
        .record("incremental_ms_max", max)
        .record("updates_per_s", batches as f64 / total_s)
        .record("full_rebuild_ms", full_rebuild_ms)
        .record("speedup", speedup)
        .record("rebuilt_segments_mean", rebuilt as f64 / batches as f64)
        .record("full_rebuild_fallbacks", fallbacks)
        .record("identical", identical);
    (speedup, identical)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner("Live ingestion: incremental epoch publish vs full substrate rebuild");
    let (pw, settings, world_label, batches) = if quick {
        (
            PerfWorld::build_small(),
            PerfSettings {
                num_items: 600,
                ..PerfSettings::default()
            },
            "study_scale",
            30,
        )
    } else {
        (
            PerfWorld::build(),
            PerfSettings::default(),
            "scalability_scale",
            30,
        )
    };
    let world = pw.world();
    let mut report = Report::new("ingest");
    report
        .record("world", world_label)
        .record("universe_users", world.population.universe().len())
        .record("num_items", settings.num_items);

    let models = [
        ("raw", LiveModel::Raw, batches),
        // Exact CF invalidation over the dense study cohort rebuilds
        // every segment per batch (see the module docs); a few batches
        // measure that honestly without dominating the wall clock.
        (
            "user_cf",
            LiveModel::UserCf(world.config.cf),
            batches.min(10),
        ),
    ];
    let mut raw_speedup = f64::NAN;
    for (label, model, batches) in models {
        let (speedup, identical) = report.row("rows", |row| {
            row.record("model", label);
            measure(&pw, &settings, model, batches, row)
        });
        assert!(identical, "pinned epoch must equal a cold full refit");
        if label == "raw" {
            raw_speedup = speedup;
        }
    }
    assert!(
        raw_speedup >= 10.0,
        "single-user incremental publish must be ≥ 10× faster than a full rebuild (got {raw_speedup:.1}×)"
    );
    // What the engines' substrate builds actually ran with: `LiveEngine`
    // builds with the default options, sharded over the universe.
    report.write(Stamp {
        mode: if quick { "quick" } else { "full" },
        build_workers: BuildOptions::default().workers_for(world.population.universe().len()),
        seed: None,
    });
}
