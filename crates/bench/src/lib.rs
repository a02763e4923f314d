//! # greca-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§4), plus Criterion micro-benchmarks and the ablation
//! studies in `benches/ablations.rs`.
//!
//! | binary        | artifact      | what it regenerates                          |
//! |---------------|---------------|----------------------------------------------|
//! | `table5`      | Table 5       | dataset statistics                           |
//! | `fig1`        | Figure 1 A–F  | independent quality evaluation               |
//! | `fig2`        | Figure 2      | AP/MO/PD three-way preference                |
//! | `fig3`        | Figure 3 A–C  | comparative quality evaluation               |
//! | `fig4`        | Figure 4      | period-granularity sweep                     |
//! | `fig5`        | Figure 5 A–C  | %SA vs k, group size, #items                 |
//! | `fig6`        | Figure 6      | %SA per query period                         |
//! | `fig7`        | Figure 7      | %SA per group characteristic                 |
//! | `fig8`        | Figure 8      | %SA per consensus function                   |
//! | `time_models` | §4.2.4        | continuous vs discrete %SA                   |
//! | `engine_baseline` | `BENCH_engine.json` | GRECA/TA/naive latency + prepare split |
//! | `greca_kernel` | `BENCH_greca_kernel.json` | kernel latency per stopping × cadence |
//! | `ingest_throughput` | `BENCH_ingest.json` | live-epoch publish vs full rebuild  |
//! | `run_all`     | everything    | runs the full suite in sequence              |
//!
//! Run any of them with
//! `cargo run -p greca-bench --release --bin <name>`.

pub mod experiments;
pub mod harness;

pub use experiments::Scale;
pub use harness::{BaselineRow, PerfSettings, PerfWorld};
