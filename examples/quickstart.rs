//! Quickstart: build a world, form an ad-hoc group, get temporal
//! affinity-aware recommendations, and check them against every
//! candidate's exact score — what a naive full scan would rank by.
//!
//! Run with: `cargo run --release --example quickstart`

use greca::prelude::*;

fn main() {
    // --- 1. A world ------------------------------------------------------
    // Ratings provide individual tastes; the social network provides
    // friendships (static affinity) and timestamped page-likes (dynamic
    // affinity) over one simulated year.
    let ml = MovieLensConfig::small().generate();
    let net = SocialConfig::paper_scale().generate();
    let timeline =
        Timeline::discretize(0, net.horizon(), Granularity::TwoMonth).expect("valid horizon");
    println!(
        "world: {} users × {} items, {} ratings; {} social users, {} like events",
        ml.matrix.num_users(),
        ml.matrix.num_items(),
        ml.matrix.num_ratings(),
        net.num_users(),
        net.num_likes(),
    );

    // --- 2. Substrates → the warm serving engine -------------------------
    // `warm` precomputes, once, every user's sorted preference list over
    // the catalog; queries then prepare by slicing zero-copy views
    // instead of sorting them.
    let cf = UserCfModel::fit(&ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = net.users().collect();
    let population =
        PopulationAffinity::build(&SocialAffinitySource::new(&net), &universe, &timeline);
    let catalog: Vec<ItemId> = ml.matrix.items().collect();
    let engine = GrecaEngine::warm(&cf, &population, &catalog).expect("finite CF scores");
    println!(
        "warm engine: {} preference segments × {} items precomputed ({} KiB shared)",
        engine.substrate().map_or(0, |s| s.users().len()),
        catalog.len(),
        engine.substrate().map_or(0, |s| s.pref_bytes() / 1024),
    );

    // --- 3. An ad-hoc group query ---------------------------------------
    let group = Group::new(vec![UserId(1), UserId(5), UserId(9)]).expect("non-empty");

    // Paper defaults (AP consensus, discrete affinity, decomposed lists)
    // are baked in, and the itemset defaults to the group's candidate
    // items (everything no member has rated) — only k is stated.
    let prepared = engine.query(&group).top(5).prepare().expect("valid query");
    println!(
        "group {:?}: {} candidate items, served from substrate views: {}",
        group.members(),
        prepared.inputs().num_items,
        prepared.is_warm(),
    );

    // --- 4. GRECA vs the exact scores of a full scan --------------------
    let top = prepared.run();
    let exact = prepared.exact_scores();

    println!("\ntop-5 items for the group (AP consensus, discrete temporal affinity):");
    for t in &top.items {
        println!("  {}  score ∈ [{:.3}, {:.3}]", t.item, t.lb, t.ub);
    }
    println!(
        "\nGRECA read {} of {} entries ({:.1}% — saved {:.1}%), stop reason: {:?}",
        top.stats.sa,
        top.stats.total_entries,
        top.stats.sa_percent(),
        top.stats.saveup_percent(),
        top.stop_reason,
    );
    // A naive scan reads every entry and keeps the exact top-5. GRECA's
    // itemset matches it when every returned item scores at least the
    // 5th-best exact score (ties may swap items, never scores).
    let kth_best = exact[top.items.len() - 1].1;
    let score_of = |item| exact.iter().find(|&&(i, _)| i == item).map(|&(_, s)| s);
    let same = top
        .items
        .iter()
        .all(|t| score_of(t.item).is_some_and(|s| s >= kth_best - 1e-9));
    println!(
        "a naive scan reads all {} entries; same itemset: {same}",
        top.stats.total_entries,
    );
    assert!(same, "GRECA's top-5 must be the exact top-5");
}
