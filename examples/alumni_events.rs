//! Alumni events: the paper's second motivating scenario (§1).
//!
//! "Interns at a research lab may subscribe to a Facebook group during
//! their internship. When the internship period is over, the group
//! becomes an alumni [group] and affinities between its members will
//! likely change. Therefore, if events … are to be recommended to the
//! alumni group in the future, affinities between its members should be
//! accounted for."
//!
//! We query the same group at every period of the year and watch the
//! recommendations shift as pairwise affinities drift, and we compare
//! the discrete and continuous time models. Items play the role of
//! events; preferences still come from CF.
//!
//! Run with: `cargo run --release --example alumni_events`

use greca::prelude::*;

fn main() {
    let ml = MovieLensConfig::small().generate();
    let net = SocialConfig::paper_scale().generate();
    let timeline =
        Timeline::discretize(0, net.horizon(), Granularity::TwoMonth).expect("valid horizon");
    let cf = UserCfModel::fit(&ml.matrix, CfConfig::default());
    let universe: Vec<UserId> = net.users().collect();

    // Build the index incrementally, period by period — exactly how a
    // deployment would maintain it as new like-events arrive (§1's
    // index-maintenance claim).
    let source = SocialAffinitySource::new(&net);
    let mut population = PopulationAffinity::new_static_only(&source, &universe);

    // An "alumni group": one seed cluster — strong static affinity, but
    // interests drift apart over the year for some members.
    let members: Vec<UserId> = net
        .users()
        .filter(|&u| net.cluster_of(u) == 0)
        .take(4)
        .collect();
    let group = Group::new(members).expect("cluster has members");
    let consensus = ConsensusFunction::average_preference();

    println!("alumni group {:?} over the year:", group.members());
    let mut previous: Option<Vec<ItemId>> = None;
    for (p_idx, &period) in timeline.periods().iter().enumerate() {
        population.append_period(&source, period);
        // A *cold* engine is the right shape while the index is still
        // being appended to: it is a cheap view over the substrates, and
        // re-wrapping it after each append keeps the borrow obvious. The
        // itemset defaults to the group's candidate items.
        let engine = GrecaEngine::new(&cf, &population);
        let list: Vec<ItemId> = engine
            .query(&group)
            .period(p_idx)
            .consensus(consensus)
            .top(5)
            .run()
            .expect("valid query")
            .items
            .iter()
            .map(|t| t.item)
            .collect();
        let (a, b) = (group.members()[0], group.members()[1]);
        let view = population.group_view(&group, p_idx, AffinityMode::Discrete);
        let pair_aff = view.affinity_between(a, b);
        let changed = previous
            .as_ref()
            .map(|prev| 5 - list.iter().filter(|i| prev.contains(i)).count())
            .unwrap_or(0);
        println!(
            "  period {p_idx} (day {:3}+): top-5 = {list:?}  aff({a},{b}) = {pair_aff:.3}  ({changed} new items)",
            period.start / 86_400,
        );
        previous = Some(list);
    }

    // Discrete vs continuous at year end. The index is final now, so
    // warm the engine: preference lists precompute once and both modes
    // serve from the same shared substrate.
    let last = timeline.num_periods() - 1;
    let catalog: Vec<ItemId> = ml.matrix.items().collect();
    let engine = GrecaEngine::warm(&cf, &population, &catalog).expect("finite CF scores");
    for mode in [AffinityMode::Discrete, AffinityMode::continuous()] {
        let r = engine
            .query(&group)
            .period(last)
            .affinity(mode)
            .consensus(consensus)
            .top(5)
            .run()
            .expect("valid query");
        println!(
            "\n{mode:?}: top-5 = {:?}  (%SA = {:.1})",
            r.item_ids(),
            r.stats.sa_percent()
        );
    }
}
