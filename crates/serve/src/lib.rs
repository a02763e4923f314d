//! # greca-serve
//!
//! The production serving front-end over
//! [`LiveEngine`](greca_core::LiveEngine): a multi-threaded TCP server
//! speaking a line-delimited JSON protocol, with the serving
//! discipline a real deployment needs and the algorithms alone don't
//! provide —
//!
//! * **a network surface** ([`server`]) — `query` / `subscribe` /
//!   `unsubscribe` / `ingest` / `stats` / `health` verbs over
//!   `std::net::TcpListener`, one JSON value per line ([`protocol`],
//!   with its own `std`-only JSON in [`json`]);
//! * **result reuse** ([`cache`]) — an epoch-aware cache keyed by the
//!   engine's canonical [`QueryKey`](greca_core::QueryKey), guarded
//!   per-lookup by the pinned epoch, with single-flight stampede
//!   protection. Publishes invalidate it *selectively* through
//!   [`LiveEngine::on_publish_delta`](greca_core::LiveEngine::on_publish_delta):
//!   entries whose
//!   [`QueryFootprint`](greca_core::QueryFootprint) is disjoint from
//!   the publish's dirty set survive the epoch swap bit-identically;
//! * **continuous queries** ([`server`]) — `subscribe` registers a
//!   group query; a pump thread re-runs it after every publish whose
//!   dirty set intersects its footprint and pushes a delta frame when
//!   the top-k actually changed;
//! * **backpressure** ([`admission`]) — bounded per-verb queues that
//!   shed with a typed `overloaded` reply the moment demand exceeds
//!   capacity, keeping tail latency bounded instead of queueing
//!   unboundedly, plus graceful drain on shutdown;
//! * **observability** ([`metrics`]) — per-verb latency histograms,
//!   shed/error counters, cache hit rates, epoch lag and the
//!   substrate's
//!   [`memory_footprint`](greca_core::Substrate::memory_footprint),
//!   all through the `stats` verb.
//!
//! The load harness (`cargo run -p greca-bench --release --bin
//! serve_load`) drives a mixed query/ingest workload against this
//! stack and emits `BENCH_serve.json`, gating on served results being
//! bit-identical to direct engine execution.
//!
//! ## Quickstart
//!
//! Everything is borrowed, so server and clients compose with scoped
//! threads (see `examples/serve_demo.rs` for the full version):
//!
//! ```ignore
//! let live = LiveEngine::new(&population, LiveModel::Raw, &matrix, &items)?;
//! let server = GrecaServer::bind(&live, ServeConfig::default())?;
//! let handle = server.handle();
//! std::thread::scope(|s| {
//!     s.spawn(|| server.run());
//!     let mut client = Client::connect(handle.addr())?;
//!     let reply = client.query(&[3, 17, 42], None, Some(5))?;
//!     handle.shutdown();
//! });
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod expo;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use admission::{ResponseSlot, Submission, VerbQueue};
pub use cache::{CacheError, CacheOutcome, CacheStats, ResultCache};
pub use client::{Client, ClientConfig, ClientError};
pub use json::Json;
pub use metrics::{Histogram, Metrics, VerbMetrics};
pub use protocol::{IngestRequest, QueryRequest, Request, TraceRequest, MAX_WIRE_TRACE};
pub use server::{memory_json, GrecaServer, ServerHandle};

use greca_core::FaultPlan;
use std::sync::Arc;
use std::time::Duration;

/// Server configuration. The defaults suit tests and examples; a
/// production deployment tunes queue depths and worker counts to its
/// latency budget (capacity per verb ≈ queue depth + workers).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing `query` jobs.
    pub query_workers: usize,
    /// Worker threads executing `ingest` jobs (publishes serialize on
    /// the engine's staging store, so more than 1 rarely helps).
    pub ingest_workers: usize,
    /// Pending `query` jobs admitted before shedding.
    pub query_queue: usize,
    /// Pending `ingest` jobs admitted before shedding.
    pub ingest_queue: usize,
    /// Result-cache entries before a wholesale flush.
    pub cache_capacity: usize,
    /// Poll granularity for connection reads — bounds how long a quiet
    /// connection takes to notice a shutdown.
    pub read_timeout: Duration,
    /// Longest request line accepted, in bytes (an ingest batch of
    /// ~100k ratings fits in the default 8 MiB); an oversized line gets
    /// a `bad_request` and a disconnect, never unbounded buffering.
    pub max_line_bytes: usize,
    /// Label of the world this server fronts (a worldgen tier name such
    /// as `"10k"`, or a dataset name). Reported verbatim by the `stats`
    /// verb so operators can tell capacity numbers from different tiers
    /// apart; purely informational.
    pub world_label: String,
    /// Deterministic fault-injection plan consulted before every
    /// socket read/write and queued-work execution (the engine's WAL
    /// consults its own copy). `None` — the default in production —
    /// injects nothing and costs one branch per operation. The default
    /// is taken from the `GRECA_FAULT_PLAN` environment variable when
    /// set (see [`FaultPlan::from_env`]), which is how CI re-runs the
    /// ordinary serve test suites under a background fault schedule.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Slow-query threshold in milliseconds: any traced span slower
    /// than this is copied into the flight recorder's slow-query log
    /// at seal time (dumped by the `trace` verb with `"slow": true`).
    /// Applied to the process-wide recorder at
    /// [`GrecaServer::bind`](server::GrecaServer::bind).
    pub slow_query_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            query_workers: parallelism.clamp(2, 8),
            ingest_workers: 1,
            query_queue: 64,
            ingest_queue: 256,
            cache_capacity: 4096,
            read_timeout: Duration::from_millis(25),
            max_line_bytes: 8 << 20,
            world_label: "unlabeled".to_string(),
            fault_plan: FaultPlan::from_env().map(Arc::new),
            slow_query_ms: 250,
        }
    }
}
