//! Runs every table/figure reproduction in sequence (the full §4 suite).
use greca_bench::{experiments, PerfWorld, Scale};
use greca_eval::WorldConfig;

fn main() {
    experiments::table5(Scale::Full);
    let study_world = WorldConfig::study_scale().build();
    experiments::fig1(&study_world, Scale::Full);
    experiments::fig2(&study_world, Scale::Full);
    experiments::fig3(&study_world, Scale::Full);
    experiments::fig4(&study_world);
    let pw = PerfWorld::build();
    experiments::fig5a(&pw, Scale::Full);
    experiments::fig5b(&pw, Scale::Full);
    experiments::fig5c(&pw, Scale::Full);
    experiments::fig6(&pw, Scale::Full);
    experiments::fig7(&pw, Scale::Full);
    experiments::fig8(&pw, Scale::Full);
    experiments::time_models(&pw, Scale::Full);
    println!();
    println!("All experiments complete.");
}
