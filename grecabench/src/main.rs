//! `grecabench`: the repository benchmark for the GRECA serving stack.
//!
//! One run drives one workload (see `workload.rs`) against the real
//! stack — `GrecaServer` over `LiveEngine`, one `Client` connection in a
//! closed loop — for a fixed number of operations sized to take about
//! `--seconds` of client time, bit-checks every answer against a direct
//! engine run, then measures restart time from the workload's
//! write-ahead log. With `--trace 1` it also re-drives the
//! same operations in-process with the benchmark's own spans around
//! each layer's public functions (`traced.rs`) and reports the
//! per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path grecabench/Cargo.toml -- \
//!     --workload hot_mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). `--workload all` runs every workload, each in its own
//! process; `--repeat N` runs each N times on seeds `seed..seed+N` and
//! prints every metric's median, quartiles and quartile spread.

mod check;
mod spans;
mod stats;
mod traced;
mod workload;

use check::{payload_matches, same_result, Oracle};
use greca_core::{BuildOptions, LiveEngine, PinnedEpoch, TopKResult, Wal, WalOptions, WalRecord};
use greca_serve::{Client, GrecaServer, Json, ServeConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Op, OpStream, Workload, World, K};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Timed recoveries per run; `recover_s` is their median.
const RECOVER_REPS: usize = 5;
/// A run whose fixed work takes longer than this many times
/// `--seconds` of client time stops early (and says so).
const OVERRUN: f64 = 3.0;
/// Groups whose answers the recovered engine must reproduce.
const RECOVERY_CHECK_GROUPS: usize = 8;
/// Largest share of in-process request time the traced run may leave
/// outside every layer span before the run fails.
const ATTRIBUTION_TOLERANCE_PCT: f64 = 5.0;
/// End-to-end metrics printed in the table but left out of the result
/// line (and of `BENCHMARK.json`): `failed_share` is 0 on a healthy run
/// (the result line carries it as `failed` out of `attempted`), and the
/// two tails moved 30–36% between the quartiles of ten `hot_mixed`
/// runs, wider than any bound a regression gate can use.
const TABLE_ONLY: [&str; 3] = ["failed_share", "ingest_tail_ms", "query_miss_tail_ms"];
/// Scratch space (WAL segments) under the working directory.
const RUN_ROOT: &str = ".bench_run";

const USAGE: &str = "usage: grecabench --workload <paper_read|hot_mixed|cf_ingest|all> \
[--seed N] [--seconds S] [--trace 0|1] [--repeat N]";

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 1,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("grecabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the shipped defaults: no injected faults,
    // the flight recorder at its default.
    for var in ["GRECA_FAULT_PLAN", "GRECA_OBS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("grecabench: refusing to run with {var} set");
            return ExitCode::from(2);
        }
    }
    match (args.workload, args.repeat) {
        (Some(w), 1) => single(w, &args),
        _ => orchestrate(&args),
    }
}

// ---------------------------------------------------------------------
// Set-up

/// Wall time of one set-up's stages.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    world_s: f64,
    engine_s: f64,
    bind_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.world_s + self.engine_s + self.bind_s
    }
}

/// The workload's engine over `world` at its shipped build options,
/// logging to a fresh WAL in `wal_dir` when given.
pub fn engine<'w>(world: &'w World, wal_dir: Option<&Path>) -> Result<LiveEngine<'w>, String> {
    let live = LiveEngine::new_with_options(
        world.population(),
        world.model(),
        world.matrix(),
        &world.substrate_items(),
        BuildOptions::default(),
    )
    .map_err(|e| format!("engine build: {e}"))?;
    Ok(match wal_dir {
        Some(dir) => live.with_wal(
            Wal::create(dir, WalOptions::default()).map_err(|e| format!("WAL create: {e}"))?,
        ),
        None => live,
    })
}

/// The server configuration every run uses: the defaults, with fault
/// injection switched off explicitly (the default reads
/// `GRECA_FAULT_PLAN`).
fn serve_config(world: &World) -> ServeConfig {
    ServeConfig {
        world_label: world.label(),
        fault_plan: None,
        ..ServeConfig::default()
    }
}

/// Generate the world, build the engine, bind the server — timed — and
/// hand all three to `f`.
fn with_setup<R>(
    w: Workload,
    wal_dir: &Path,
    f: impl FnOnce(&World, &LiveEngine<'_>, GrecaServer<'_, '_>, SetupTimes) -> Result<R, String>,
) -> Result<R, String> {
    let t = Instant::now();
    let world = World::build(w);
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let live = engine(&world, w.writes().then_some(wal_dir))?;
    let engine_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let server =
        GrecaServer::bind(&live, serve_config(&world)).map_err(|e| format!("bind: {e}"))?;
    let bind_s = t.elapsed().as_secs_f64();
    f(
        &world,
        &live,
        server,
        SetupTimes {
            world_s,
            engine_s,
            bind_s,
        },
    )
}

// ---------------------------------------------------------------------
// Served phase

/// One client operation as the client saw it.
struct Sample {
    query: bool,
    /// Query answered as anything but a cache hit.
    miss: bool,
    ok: bool,
    latency_ms: f64,
}

struct Served<'w> {
    ops: Vec<Op>,
    samples: Vec<Sample>,
    busy_s: f64,
    final_epoch: u64,
    /// The engine pinned at the epoch the timed recovery replays to.
    pin_recover: Option<PinnedEpoch<'w>>,
    /// Per operation: the direct answer a query was checked against and
    /// its epoch (`None` for ingests and refused queries).
    direct: Vec<Option<(u64, Arc<TopKResult>)>>,
    shed: u64,
    direct_runs: usize,
    failures: Vec<String>,
}

/// Drive `stream` through one client connection in a closed loop,
/// checking every answer.
fn serve_phase<'w>(
    w: Workload,
    world: &World,
    live: &LiveEngine<'w>,
    server: GrecaServer<'_, 'w>,
    mut stream: OpStream,
    seconds: f64,
) -> Result<Served<'w>, String> {
    let handle = server.handle();
    let budget = Duration::from_secs_f64(seconds * OVERRUN);
    let recover_epoch = w.recover_publishes();
    std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        let result = (|| -> Result<Served<'w>, String> {
            let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            let mut oracle = Oracle::new(world.model());
            let mut out = Served {
                ops: Vec::new(),
                samples: Vec::new(),
                busy_s: 0.0,
                final_epoch: live.epoch(),
                pin_recover: None,
                direct: Vec::new(),
                shed: 0,
                direct_runs: 0,
                failures: Vec::new(),
            };
            let mut busy = Duration::ZERO;
            while busy < budget {
                let Some(op) = stream.next_op() else { break };
                let i = out.ops.len();
                let t = Instant::now();
                let reply = match &op {
                    Op::Query(g) => {
                        let members: Vec<u32> = g.members().iter().map(|u| u.0).collect();
                        client.query(&members, None, Some(K))
                    }
                    Op::Ingest(r) => client.ingest(&[(r.user.0, r.item.0, r.value, r.ts)]),
                };
                let latency = t.elapsed();
                busy += latency;
                let reply = reply.map_err(|e| format!("op {i}: transport failure: {e}"))?;
                let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
                let epoch = reply.get("epoch").and_then(Json::as_u64);
                if !ok {
                    out.failures
                        .push(format!("op {i}: refused: {}", reply.to_line()));
                }
                let mut checked = None;
                match &op {
                    Op::Query(g) => {
                        let miss = reply.get("cache").and_then(Json::as_str) != Some("hit");
                        out.samples.push(Sample {
                            query: true,
                            miss,
                            ok,
                            latency_ms: latency.as_secs_f64() * 1e3,
                        });
                        if ok {
                            let pin = live.pin();
                            let direct = oracle
                                .direct(&pin, g)
                                .map_err(|e| format!("op {i}: direct run: {e}"))?;
                            if epoch != Some(pin.epoch()) || !payload_matches(&reply, &direct) {
                                out.failures.push(format!(
                                    "op {i}: served answer at epoch {epoch:?} differs from a \
                                     direct run at epoch {}",
                                    pin.epoch()
                                ));
                            }
                            checked = Some((pin.epoch(), direct));
                        }
                    }
                    Op::Ingest(r) => {
                        out.samples.push(Sample {
                            query: false,
                            miss: false,
                            ok,
                            latency_ms: latency.as_secs_f64() * 1e3,
                        });
                        if ok {
                            // The ack returns after the epoch swap: the
                            // rating is already visible to readers.
                            let want = out.final_epoch + 1;
                            if epoch != Some(want) || live.epoch() != want {
                                out.failures.push(format!(
                                    "op {i}: ingest acked epoch {epoch:?}, engine at {}, \
                                     expected {want}",
                                    live.epoch()
                                ));
                            }
                            out.final_epoch = live.epoch();
                            oracle.note_ingest(r.user, out.final_epoch);
                            if out.final_epoch == recover_epoch {
                                out.pin_recover = Some(live.pin());
                            }
                        }
                    }
                }
                out.direct.push(checked);
                out.ops.push(op);
            }
            out.busy_s = busy.as_secs_f64();
            out.direct_runs = oracle.direct_runs;
            Ok(out)
        })();
        handle.shutdown();
        runner
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let mut served = result?;
        let metrics = server.metrics();
        served.shed = metrics
            .query
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            + metrics
                .ingest
                .shed
                .load(std::sync::atomic::Ordering::Relaxed);
        if served.pin_recover.is_none() {
            served.pin_recover = Some(live.pin());
        }
        Ok(served)
    })
}

// ---------------------------------------------------------------------
// Recovery

/// Copy the log in `src` through its `publishes`-th commit into `dst`
/// (frame by frame, so the copy ends on a commit boundary); returns the
/// commits copied.
pub fn copy_wal_prefix(src: &Path, dst: &Path, publishes: u64) -> std::io::Result<u64> {
    std::fs::create_dir_all(dst)?;
    let mut segments: Vec<PathBuf> = std::fs::read_dir(src)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let mut seen = 0u64;
    for segment in segments {
        if seen >= publishes {
            break;
        }
        let buf = std::fs::read(&segment)?;
        let mut end = 0usize;
        while seen < publishes {
            let Some((record, next)) = greca_core::wal::decode_frame_at(&buf, end) else {
                break;
            };
            end = next;
            if matches!(record, WalRecord::Publish { .. }) {
                seen += 1;
            }
        }
        let name = segment.file_name().expect("segment files have names");
        std::fs::write(dst.join(name), &buf[..end])?;
    }
    Ok(seen)
}

/// Total bytes of the files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

struct Recovered {
    seconds: Vec<f64>,
    /// Publishes the checked recovery replayed (`RecoveryReport`).
    publishes: usize,
    failures: Vec<String>,
}

/// Restart from the workload's WAL (its prefix through the workload's
/// fixed commit count), timed `RECOVER_REPS` times, and check the last
/// recovered engine against the pinned epoch it must reproduce.
fn recover_phase(
    w: Workload,
    world: &World,
    served: &Served<'_>,
    wal_dir: &Path,
    scratch: &Path,
) -> Result<Recovered, String> {
    let target = w.recover_publishes().min(served.final_epoch);
    let items = world.substrate_items();
    let pin = served.pin_recover.as_ref().expect("serve_phase pins");
    let mut groups: Vec<&greca_dataset::Group> = Vec::new();
    for op in &served.ops {
        if let Op::Query(g) = op {
            if !groups.contains(&g) {
                groups.push(g);
            }
        }
        if groups.len() == RECOVERY_CHECK_GROUPS {
            break;
        }
    }
    let mut out = Recovered {
        seconds: Vec::new(),
        publishes: 0,
        failures: Vec::new(),
    };
    for rep in 0..RECOVER_REPS {
        let dir = scratch.join(format!("recover-{rep}"));
        let copied =
            copy_wal_prefix(wal_dir, &dir, target).map_err(|e| format!("copy WAL prefix: {e}"))?;
        let t = Instant::now();
        let (engine, report) = LiveEngine::recover(
            world.population(),
            world.model(),
            world.matrix(),
            &items,
            BuildOptions::default(),
            &dir,
            WalOptions::default(),
        )
        .map_err(|e| format!("recover: {e}"))?;
        out.seconds.push(t.elapsed().as_secs_f64());
        if rep + 1 == RECOVER_REPS {
            if engine.epoch() != copied
                || report.publishes_replayed as u64 != copied
                || pin.epoch() != copied
            {
                out.failures.push(format!(
                    "recovery reached epoch {} ({} publishes replayed); the log holds {copied}, \
                     the pinned epoch is {}",
                    engine.epoch(),
                    report.publishes_replayed,
                    pin.epoch()
                ));
            }
            let recovered = engine.pin();
            for g in &groups {
                let got = recovered.engine().query(g).top(K).run();
                let want = pin.engine().query(g).top(K).run();
                match (got, want) {
                    (Ok(a), Ok(b)) if same_result(&a, &b) => {}
                    _ => out.failures.push(format!(
                        "recovered engine answers {:?} differently from epoch {}",
                        g.members(),
                        pin.epoch()
                    )),
                }
            }
            out.publishes = report.publishes_replayed;
        }
        drop(engine);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Environment

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type `path` lives on (longest matching mount point).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// A per-run scratch directory, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(w: Workload) -> Result<RunDir, String> {
        let dir = Path::new(RUN_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either (ignored if other runs'
        // directories are still in it).
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}

// ---------------------------------------------------------------------
// One run

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    stamp: Vec<(&'static str, String)>,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    failures: Vec<String>,
}

fn median0(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Median and tail metrics of `xs`, named `p50` and `tail`.
fn latency_pair(p50: &'static str, tail: &'static str, xs: &[f64]) -> Option<[Metric; 2]> {
    let t = stats::tail(xs)?;
    Some([
        Metric {
            note: format!("n={}", xs.len()),
            ..metric(p50, median0(xs), "ms")
        },
        Metric {
            note: format!("p{:.1} of n={}", t.percentile, t.samples),
            ..metric(tail, t.value, "ms")
        },
    ])
}

fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let run_dir = RunDir::create(w)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 1..SETUP_REPS {
        let dir = run_dir.0.join(format!("setup-{rep}"));
        setups.push(with_setup(w, &dir, |_, _, _, t| Ok(t))?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let wal_dir = run_dir.0.join("wal");
    with_setup(w, &wal_dir, |world, live, server, t| {
        setups.push(t);
        let config = serve_config(world);
        let total = (seconds * w.ops_per_second()).round().max(1.0) as usize;
        let stream = OpStream::new(w, world, seed, total);
        let served = serve_phase(w, world, live, server, stream, seconds)?;
        let recovered = if w.writes() {
            Some(recover_phase(w, world, &served, &wal_dir, &run_dir.0)?)
        } else {
            None
        };
        let peak_rss = peak_rss_mb();

        let mut out = Outcome {
            attempted: served.samples.len(),
            failed: served.samples.iter().filter(|s| !s.ok).count(),
            stamp: vec![
                (
                    "work",
                    format!(
                        "{} of {total} operations{}",
                        served.samples.len(),
                        if served.samples.len() < total {
                            " (stopped early: over the time limit)"
                        } else {
                            ""
                        }
                    ),
                ),
                ("workload", w.name().to_string()),
                ("world", world.label()),
                ("seed", seed.to_string()),
                (
                    "nproc",
                    std::thread::available_parallelism()
                        .map_or(0, |n| n.get())
                        .to_string(),
                ),
                (
                    "build_workers",
                    BuildOptions::default()
                        .workers_for(world.population().universe().len())
                        .to_string(),
                ),
                ("query_workers", config.query_workers.to_string()),
                ("ingest_workers", config.ingest_workers.to_string()),
                ("client_connections", "1 (closed loop)".to_string()),
                (
                    "fsync",
                    if w.writes() {
                        format!("{:?}", WalOptions::default().fsync)
                    } else {
                        "none (no WAL)".to_string()
                    },
                ),
                ("wal_fs", filesystem_of(&run_dir.0)),
                (
                    "served_hits",
                    format!(
                        "{} of {} queries answered from the cache",
                        served.samples.iter().filter(|s| s.query && !s.miss).count(),
                        served.samples.iter().filter(|s| s.query).count()
                    ),
                ),
                (
                    "direct_runs",
                    format!(
                        "{} direct engine runs checked {} answers",
                        served.direct_runs,
                        served.samples.iter().filter(|s| s.query && s.ok).count()
                    ),
                ),
            ],
            end_to_end: Vec::new(),
            layers: Vec::new(),
            failures: served.failures.clone(),
        };

        // End-to-end metrics.
        let setup_totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
        out.end_to_end.push(Metric {
            note: format!("median of {SETUP_REPS} set-ups"),
            ..metric("setup_s", median0(&setup_totals), "s")
        });
        let ms = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
            served
                .samples
                .iter()
                .filter(|s| s.ok && pick(s))
                .map(|s| s.latency_ms)
                .collect()
        };
        let miss_ms = ms(&|s| s.query && s.miss);
        let ingest_ms = ms(&|s| !s.query);
        out.end_to_end.extend(
            latency_pair("query_miss_p50_ms", "query_miss_tail_ms", &miss_ms)
                .into_iter()
                .flatten(),
        );
        out.end_to_end.extend(
            latency_pair("ingest_p50_ms", "ingest_tail_ms", &ingest_ms)
                .into_iter()
                .flatten(),
        );
        let ok_ops = out.attempted - out.failed;
        out.end_to_end.push(Metric {
            note: format!("{ok_ops} ops over {:.2} s of client time", served.busy_s),
            ..metric("ops_per_s", ok_ops as f64 / served.busy_s.max(1e-9), "1/s")
        });
        if let Some(r) = &recovered {
            out.failures.extend(r.failures.iter().cloned());
            out.end_to_end.push(Metric {
                note: format!(
                    "median of {RECOVER_REPS}; replays {} publishes",
                    r.publishes
                ),
                ..metric("recover_s", median0(&r.seconds), "s")
            });
        }
        out.end_to_end.push(metric("peak_rss_mb", peak_rss, "MiB"));
        out.end_to_end.push(metric(
            "failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
            "share",
        ));

        if trace {
            let traced = traced::redrive(
                world,
                &served.ops,
                &served.direct,
                &run_dir.0.join("traced-wal"),
                &run_dir.0.join("traced-recover"),
                w.recover_publishes().min(served.final_epoch),
            )?;
            out.failures.extend(traced.failures.iter().cloned());
            out.layers = layer_metrics(
                &setups,
                &served,
                recovered.as_ref(),
                &traced,
                &mut out.failures,
            );
        }
        drop(served);
        Ok(out)
    })
}

/// The per-layer metrics from the traced run (plus the set-up split
/// and the served run's counters).
fn layer_metrics(
    setups: &[SetupTimes],
    served: &Served<'_>,
    recovered: Option<&Recovered>,
    traced: &traced::Traced,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let spans = &traced.spans;
    let self_ns = spans::self_times(spans);
    let durs = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / scale)
            .collect()
    };
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let hit_roots: Vec<usize> = traced
        .ops
        .iter()
        .filter(|(_, hit)| *hit == Some(true))
        .map(|&(root, _)| root)
        .collect();
    let hit_lookup_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "cache.lookup" && s.parent.is_some_and(|p| hit_roots.contains(&p)))
        .map(|s| s.dur() as f64 / US)
        .collect();

    // Served-vs-direct gap, request by request: the traced run's cache
    // decisions must replay the served ones exactly.
    let mut gap_ms = Vec::new();
    for (i, (sample, &(root, hit))) in served.samples.iter().zip(&traced.ops).enumerate() {
        if !sample.query {
            continue;
        }
        if hit != Some(!sample.miss) {
            failures.push(format!(
                "op {i}: traced cache disposition differs from the served one"
            ));
            continue;
        }
        if sample.miss {
            gap_ms.push(sample.latency_ms - spans[root].dur() as f64 / MS);
        }
    }

    // Blocking-path accounting: each request's time is its root span;
    // the part no layer span covers is the root's own self time.
    let roots: Vec<usize> = traced.ops.iter().map(|&(r, _)| r).collect();
    let root_ns: u64 = roots.iter().map(|&r| spans[r].dur()).sum();
    let unattributed_ns: u64 = roots.iter().map(|&r| self_ns[r]).sum();
    let attributed_pct = 100.0 * (1.0 - unattributed_ns as f64 / root_ns.max(1) as f64);
    if attributed_pct < 100.0 - ATTRIBUTION_TOLERANCE_PCT {
        failures.push(format!(
            "layer spans cover {attributed_pct:.2}% of in-process request time \
             (tolerance {ATTRIBUTION_TOLERANCE_PCT}%)"
        ));
    }
    let request_spans = spans
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let mut at = Some(*i);
            while let Some(j) = at {
                if roots.binary_search(&j).is_ok() {
                    return true;
                }
                at = spans[j].parent;
            }
            false
        })
        .count();
    let span_cost_ns = spans::calibrate_ns(9, 20_000);
    let overhead_pct = 100.0 * request_spans as f64 * span_cost_ns / root_ns.max(1) as f64;

    let misses = &traced.misses;
    let reports = &traced.reports;
    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let count = |name, value: f64| metric(name, value, "count");
    let setup = |f: fn(&SetupTimes) -> f64| median0(&setups.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("setup.world_s", setup(|t| t.world_s), "s"),
        metric("setup.engine_s", setup(|t| t.engine_s), "s"),
        metric("substrate.bytes", traced.substrate_bytes as f64, "bytes"),
        Metric {
            note: format!("median over {} misses", gap_ms.len()),
            ..metric("serve.overhead_ms", median0(&gap_ms), "ms")
        },
        metric(
            "protocol.parse_us",
            median0(&durs("protocol.parse", US)),
            "us",
        ),
        metric(
            "protocol.serialize_us",
            median0(&durs("protocol.serialize", US)),
            "us",
        ),
        count("admission.shed", served.shed as f64),
        metric("cache.hit_rate", traced.hit_rate, "share"),
        metric("cache.hit_us", median0(&hit_lookup_us), "us"),
        metric("cache.survival_rate", traced.survival_rate, "share"),
        metric(
            "cache.apply_publish_us",
            median0(&durs("cache.apply_publish", US)),
            "us",
        ),
        metric(
            "plan.reuse_ratio",
            share(
                traced.plan_reused as usize,
                (traced.plan_resolved + traced.plan_reused) as usize,
            ),
            "share",
        ),
        metric(
            "prepare.candidates_ms",
            median0(&durs("prepare.candidates", MS)),
            "ms",
        ),
        count(
            "prepare.candidate_items",
            median0(
                &misses
                    .iter()
                    .map(|m| m.candidates as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric(
            "prepare.lists_ms",
            median0(&durs("prepare.lists", MS)),
            "ms",
        ),
        metric(
            "prepare.warm_share",
            share(misses.iter().filter(|m| m.warm).count(), misses.len()),
            "share",
        ),
        Metric {
            note: format!("median over {} misses", misses.len()),
            ..metric("kernel.ms", median0(&durs("kernel", MS)), "ms")
        },
        count(
            "kernel.sa",
            median0(&misses.iter().map(|m| m.sa as f64).collect::<Vec<_>>()),
        ),
        metric(
            "kernel.sa_pct",
            median0(&misses.iter().map(|m| m.sa_pct).collect::<Vec<_>>()),
            "%",
        ),
        count(
            "kernel.sweeps",
            median0(&misses.iter().map(|m| m.sweeps as f64).collect::<Vec<_>>()),
        ),
        Metric {
            note: format!("median over {} publishes", reports.len()),
            ..metric("publish.ms", median0(&durs("publish", MS)), "ms")
        },
        metric("publish.dirty_ms", median0(&durs("shadow.dirty", MS)), "ms"),
        metric("publish.refit_ms", median0(&durs("shadow.refit", MS)), "ms"),
        metric(
            "publish.rebuild_ms",
            median0(&durs("shadow.rebuild", MS)),
            "ms",
        ),
        count(
            "publish.dirty_users",
            median0(
                &reports
                    .iter()
                    .map(|r| r.dirty_users as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        count(
            "publish.rebuilt_segments",
            median0(
                &reports
                    .iter()
                    .map(|r| r.rebuilt_segments as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric(
            "publish.full_rebuild_share",
            share(
                reports.iter().filter(|r| r.full_rebuild).count(),
                reports.len(),
            ),
            "share",
        ),
        metric("wal.stage_ms", median0(&durs("wal.stage", MS)), "ms"),
        metric(
            "wal.bytes_per_rating",
            share(traced.wal_bytes as usize, traced.ratings),
            "bytes",
        ),
        metric("recover.scan_ms", median0(&durs("recover.scan", MS)), "ms"),
        metric(
            "recover.engine_s",
            median0(&durs("recover.engine", 1e9)),
            "s",
        ),
        metric(
            "recover.replay_s",
            median0(&durs("recover.replay", 1e9)),
            "s",
        ),
        count(
            "recover.publishes",
            recovered.map_or(0.0, |r| r.publishes as f64),
        ),
        Metric {
            note: format!("{request_spans} request spans × {span_cost_ns:.1} ns"),
            ..metric("trace.overhead_pct", overhead_pct, "%")
        },
        Metric {
            note: format!("tolerance: ≥ {}%", 100.0 - ATTRIBUTION_TOLERANCE_PCT),
            ..metric("trace.attributed_pct", attributed_pct, "%")
        },
    ]
}

// ---------------------------------------------------------------------
// Output

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<28} {:>14.4} {:<6}{note}", m.name, m.value, m.unit);
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::obj(vec![
                                ("value", Json::num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_line()
}

fn single(w: Workload, args: &Args) -> ExitCode {
    let outcome = match run_one(w, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("grecabench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in &outcome.stamp {
        println!("{k:<20} {v}");
    }
    print_metrics("end-to-end (served, untraced):", &outcome.end_to_end);
    if args.trace {
        print_metrics("per-layer (traced in-process re-drive):", &outcome.layers);
    }
    for f in outcome.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    let reported: Vec<Metric> = if args.trace {
        outcome.layers
    } else {
        outcome
            .end_to_end
            .into_iter()
            .filter(|m| !TABLE_ONLY.contains(&m.name))
            .collect()
    };
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &reported)
    );
    if correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run each selected workload `repeat` times, each in its own process,
/// relaying their output; with `repeat > 1`, summarize every metric's
/// median, quartiles and quartile spread across the runs.
fn orchestrate(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("grecabench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let (mut all_ok, mut attempted, mut failed) = (true, 0usize, 0usize);
    for w in workloads {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        for rep in 0..args.repeat {
            let seed = args.seed + rep as u64;
            println!("== {} seed {seed} ==", w.name());
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("grecabench: spawn {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            if args.repeat == 1 {
                print!("{stdout}");
            }
            all_ok &= output.status.success();
            let result = stdout
                .lines()
                .last()
                .and_then(|l| greca_serve::json::parse(l).ok());
            let Some(result) = result else {
                all_ok = false;
                continue;
            };
            attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0) as usize;
            failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0) as usize;
            if let Some(Json::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    let entry = values.entry(name.clone()).or_insert((unit, Vec::new()));
                    entry.1.extend(m.get("value").and_then(Json::as_f64));
                }
            }
        }
        if args.repeat > 1 {
            println!(
                "{} over {} seeds: {:<26} {:>12} {:>12} {:>12} {:>8}",
                w.name(),
                args.repeat,
                "metric",
                "q1",
                "median",
                "q3",
                "spread"
            );
            for (name, (unit, xs)) in &values {
                let runs: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
                match stats::quartiles(xs) {
                    Some((q1, q2, q3)) => println!(
                        "  {name:<26} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.1}%  {unit}  [{}]",
                        100.0 * stats::quartile_spread(xs).unwrap_or(0.0),
                        runs.join(" ")
                    ),
                    None => println!("  {name:<26} [{}] {unit}", runs.join(" ")),
                }
            }
        }
    }
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(all_ok)),
            ("attempted", Json::num(attempted as f64)),
            ("failed", Json::num(failed as f64)),
            ("metrics", Json::obj(Vec::new())),
        ])
        .to_line()
    );
    if all_ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
