//! The TCP front: accept loop, per-connection readers, verb dispatch.
//!
//! [`GrecaServer::bind`] attaches to a [`LiveEngine`] and a listening
//! socket; [`GrecaServer::run`] blocks, serving until a
//! [`ServerHandle::shutdown`]. Inside `run` everything is scoped
//! threads over borrowed state — no `'static` gymnastics, no runtime:
//!
//! ```text
//! accept loop ──► connection threads ──► per-verb bounded queues ──► workers
//!      │                 │                      │ (full → overloaded)     │
//!      │                 └── stats/health answered inline                 │
//!      └── shutdown: stop accepting, drain queues, finish in-flight ──────┘
//! ```
//!
//! * `query` requests first probe the epoch-scoped [`ResultCache`]
//!   inline — a resident entry costs no kernel work, so hits are
//!   answered on the connection thread without queueing; only cache
//!   misses pay admission (one kernel run, coalesced across identical
//!   concurrent queries).
//! * `ingest` jobs stage and publish through the engine; the
//!   publish-delta hook registered at bind time invalidates the cache
//!   *selectively* (entries whose footprint is disjoint from the dirty
//!   set survive the swap) and queues the delta for the subscription
//!   pump before the ingest response is even written.
//! * `subscribe` registers a continuous query: one baseline kernel run
//!   through the query queue, then the subscription pump re-runs it
//!   after every publish whose dirty set intersects its footprint and
//!   pushes a frame when the top-k actually changed (see
//!   [`protocol`]'s push-frame docs). `unsubscribe` is answered
//!   inline.
//! * `stats`/`health` never queue: they read atomics and one pin, so
//!   they stay responsive under full overload — exactly when an
//!   operator needs them.

use crate::admission::{ResponseSlot, Submission, VerbQueue};
use crate::cache::{CacheError, CacheOutcome, ResultCache};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::protocol::{self, IngestRequest, QueryRequest, Request, TraceRequest};
use crate::ServeConfig;
use greca_core::obs::{self, CacheNote, Phase, SpanKind, TraceFilter};
use greca_core::{
    FaultCtx, FaultPlan, IoFault, LiveEngine, PublishDelta, QueryError, QueryFootprint, TopKResult,
    LINEAGE_CAP,
};
use greca_dataset::Group;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Recover a poisoned guard: every mutex in this module protects
/// structurally-sound plain data (no invariants span the lock), so a
/// panicking peer must not wedge the serving path.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// One registered continuous query.
struct Subscription {
    /// Server-assigned id (the `sub` field on the wire).
    id: u64,
    /// The parsed query this subscription re-runs (its `id` field is
    /// the client tag echoed in every push frame).
    request: QueryRequest,
    /// The owning connection's write half, shared with its response
    /// writer so pushed frames and responses interleave as whole lines.
    writer: Arc<Mutex<TcpStream>>,
    /// The footprint the pump intersects publish deltas against.
    footprint: QueryFootprint,
    /// The last result delivered, with its epoch — pushes happen only
    /// for strictly newer epochs, which is what makes stale pushes
    /// structurally impossible.
    state: Mutex<SubState>,
}

struct SubState {
    epoch: u64,
    result: Option<Arc<TopKResult>>,
}

/// Publish deltas queued by the hook for the subscription pump, plus
/// the drain flag the pump exits on.
struct PendingDeltas {
    queue: VecDeque<PublishDelta>,
    draining: bool,
}

/// Deltas held for the pump before coalescing kicks in. The pump
/// usually keeps the queue near-empty; the cap only matters when
/// publishes outpace it (or nothing is pumping), where merging into the
/// newest entry bounds memory at the cost of coarser coalescing.
const PENDING_DELTA_CAP: usize = 64;

/// State shared between the server, its handle, and the publish hook.
struct Shared {
    shutdown: AtomicBool,
    metrics: Metrics,
    cache: ResultCache,
    /// Live subscriptions by id.
    subs: Mutex<HashMap<u64, Arc<Subscription>>>,
    /// Next subscription id.
    next_sub: AtomicU64,
    /// Publish deltas awaiting the subscription pump.
    pending: Mutex<PendingDeltas>,
    /// Wakes the pump for new deltas and for drain.
    pending_cv: Condvar,
    /// Compact wire form of the last publish's dirty set (when small
    /// enough to be worth shipping) — surfaced by `stats` so operators
    /// and downstream caches can see what the last swap invalidated.
    last_dirty: Mutex<Option<String>>,
    /// Per-epoch cache-survival lineage: `(epoch, kept, dropped)` for
    /// the newest [`LINEAGE_CAP`] publishes, recorded by the bind-time
    /// hook and joined with the engine's epoch lineage by `stats`.
    survival_log: Mutex<VecDeque<(u64, u64, u64)>>,
    /// Deterministic fault-injection plan for socket and worker I/O
    /// ([`crate::ServeConfig::fault_plan`]); `None` injects nothing.
    fault: Option<Arc<FaultPlan>>,
    started: Instant,
}

/// A clonable remote control for a running [`GrecaServer`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Begin a graceful shutdown: stop accepting, refuse new work,
    /// finish everything already admitted. [`GrecaServer::run`] returns
    /// once in-flight connections close (idle ones are dropped at the
    /// next read-timeout tick). Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// The serving front-end over one [`LiveEngine`]. See the module docs.
pub struct GrecaServer<'live, 'pop> {
    live: &'live LiveEngine<'pop>,
    listener: TcpListener,
    config: ServeConfig,
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl<'live, 'pop> GrecaServer<'live, 'pop> {
    /// Bind to `config.addr` (`127.0.0.1:0` by default — an ephemeral
    /// port, reported by [`GrecaServer::addr`]) and register the cache
    /// invalidation hook on `live`.
    pub fn bind(live: &'live LiveEngine<'pop>, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&*config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            metrics: Metrics::default(),
            cache: ResultCache::new(config.cache_capacity),
            subs: Mutex::new(HashMap::new()),
            next_sub: AtomicU64::new(1),
            pending: Mutex::new(PendingDeltas {
                queue: VecDeque::new(),
                draining: false,
            }),
            pending_cv: Condvar::new(),
            last_dirty: Mutex::new(None),
            survival_log: Mutex::new(VecDeque::new()),
            fault: config.fault_plan.clone(),
            started: Instant::now(),
        });
        // Arm the slow-query log: any span slower than the configured
        // threshold is copied into the recorder's slow log at seal time.
        obs::recorder().set_slow_threshold(Duration::from_millis(config.slow_query_ms));
        // The epoch-handoff integration: one hook, registered once,
        // applies the publish's dirty set to the cache (selective
        // survival) and queues the delta for the subscription pump. The hook holds
        // only the shared state, so it stays valid (and harmless) after
        // the server itself is gone.
        shared.cache.invalidate_to(live.epoch());
        let hook_shared = Arc::clone(&shared);
        live.on_publish_delta(move |delta| {
            // The hook runs on the publishing thread, inside the
            // publish's span scope — cache-survival work is attributed
            // to it as the `survival` phase, and the per-epoch
            // kept/dropped delta is folded into the survival log.
            let survival = obs::phase(Phase::Survival);
            let kept_before = hook_shared.cache.stats.survivors.load(Ordering::Relaxed);
            let dropped_before = hook_shared.cache.stats.dropped.load(Ordering::Relaxed);
            hook_shared.cache.apply_publish(delta);
            let kept = hook_shared.cache.stats.survivors.load(Ordering::Relaxed) - kept_before;
            let dropped = hook_shared.cache.stats.dropped.load(Ordering::Relaxed) - dropped_before;
            drop(survival);
            {
                let mut log = lock_ok(&hook_shared.survival_log);
                if log.len() >= LINEAGE_CAP {
                    log.pop_front();
                }
                log.push_back((delta.epoch, kept, dropped));
            }
            hook_shared
                .metrics
                .publishes
                .fetch_add(1, Ordering::Relaxed);
            *lock_ok(&hook_shared.last_dirty) = (delta.dirty.num_users() <= 32
                && delta.dirty.num_pairs() <= 32
                && !delta.full_rebuild)
                .then(|| delta.dirty.to_wire());
            // Hand the delta to the subscription pump. Keep the hook
            // cheap: subscriptions re-run on the pump thread, never
            // here on the ingestion path.
            let mut pending = lock_ok(&hook_shared.pending);
            if pending.queue.len() >= PENDING_DELTA_CAP {
                // Bound memory when nothing drains the queue: fold into
                // the newest entry.
                let newest = pending.queue.pop_back().expect("cap > 0");
                pending.queue.push_back(coalesce(&newest, delta));
            } else {
                pending.queue.push_back(delta.clone());
            }
            drop(pending);
            hook_shared.pending_cv.notify_all();
        });
        Ok(GrecaServer {
            live,
            listener,
            config,
            shared,
            addr,
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control for this server (clonable, thread-safe).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// The server's result cache (observability for tests/benches).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Consult the fault plan (when configured) before one socket or
    /// worker operation. `Delay` faults are slept out here; anything
    /// else is returned for the call site to apply.
    fn inject(&self, ctx: FaultCtx) -> Option<IoFault> {
        let plan = self.shared.fault.as_deref()?;
        FaultPlan::maybe_sleep(plan.decide(ctx))
    }

    /// Write one line on a connection's shared write half, consulting
    /// the fault plan's socket-write channel first. `false` means the
    /// peer is (treated as) gone — an injected drop behaves exactly
    /// like a real dead socket.
    fn write_line(&self, writer: &Arc<Mutex<TcpStream>>, line: &str) -> bool {
        if self.inject(FaultCtx::SockWrite).is_some() {
            return false;
        }
        writeln!(lock_ok(writer), "{line}").is_ok()
    }

    /// Serve until [`ServerHandle::shutdown`]. Blocks the calling
    /// thread; spawn it in a scope alongside your clients:
    ///
    /// ```ignore
    /// std::thread::scope(|s| {
    ///     s.spawn(|| server.run());
    ///     // … clients talk to server.addr() …
    ///     handle.shutdown();
    /// });
    /// ```
    pub fn run(&self) {
        let queues = Queues {
            query: VerbQueue::new(self.config.query_queue),
            ingest: VerbQueue::new(self.config.ingest_queue),
        };
        std::thread::scope(|scope| {
            for _ in 0..self.config.query_workers.max(1) {
                scope.spawn(|| queues.query.worker_loop());
            }
            for _ in 0..self.config.ingest_workers.max(1) {
                scope.spawn(|| queues.ingest.worker_loop());
            }
            scope.spawn(|| self.subscription_pump());
            for stream in self.listener.incoming() {
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                self.shared
                    .metrics
                    .connections
                    .fetch_add(1, Ordering::Relaxed);
                let queues = &queues;
                scope.spawn(move || self.serve_connection(stream, queues));
            }
            // Graceful drain: everything accepted still executes; new
            // submissions get `shutting_down`. Ingest jobs drained here
            // may still publish, so the pump is told to drain only
            // *after* the queues are empty — it flushes every pending
            // subscription notification before exiting.
            queues.query.drain();
            queues.ingest.drain();
            lock_ok(&self.shared.pending).draining = true;
            self.shared.pending_cv.notify_all();
        });
        // The pump has exited; drop the subscriptions (closing their
        // write halves) so subscribers see EOF rather than a silent
        // socket.
        lock_ok(&self.shared.subs).clear();
    }

    /// The subscription pump: waits for publish deltas queued by the
    /// bind-time hook, coalesces bursts, and re-runs every affected
    /// subscription at the current epoch — pushing a frame when (and
    /// only when) its top-k changed. Runs on one dedicated thread
    /// inside [`GrecaServer::run`]'s scope; exits after flushing the
    /// queue once drain is signalled.
    fn subscription_pump(&self) {
        loop {
            let next = {
                let mut pending = lock_ok(&self.shared.pending);
                loop {
                    if let Some(delta) = pending.queue.pop_front() {
                        break Some(delta);
                    }
                    if pending.draining {
                        break None;
                    }
                    pending = self
                        .shared
                        .pending_cv
                        .wait(pending)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let Some(mut delta) = next else { return };
            // Coalesce the rest of a burst into one pass: subscriptions
            // are re-run at the *current* epoch anyway, so N queued
            // deltas cost one union + one sweep, not N sweeps.
            {
                let mut pending = lock_ok(&self.shared.pending);
                while let Some(more) = pending.queue.pop_front() {
                    delta = coalesce(&delta, &more);
                }
            }
            self.process_delta(&delta);
        }
    }

    /// Re-run every subscription the delta affects and push changed
    /// results. See [`GrecaServer::subscription_pump`].
    fn process_delta(&self, delta: &PublishDelta) {
        let subs: Vec<Arc<Subscription>> = lock_ok(&self.shared.subs).values().cloned().collect();
        if subs.is_empty() {
            return;
        }
        // One span per coalesced pump pass: re-run kernel costs (and
        // the pushes they produce) attribute to the pump, not to any
        // client request.
        let pump_span = obs::span(
            obs::next_trace_id() & protocol::MAX_WIRE_TRACE,
            SpanKind::Pump,
        );
        let pump_timer = obs::phase(Phase::Pump);
        let epoch = self.live.epoch();
        for sub in subs {
            if !delta.affects(&sub.footprint) || lock_ok(&sub.state).epoch >= epoch {
                continue;
            }
            self.shared.metrics.sub_runs.fetch_add(1, Ordering::Relaxed);
            let Ok(group) = Group::new(sub.request.group.clone()) else {
                continue; // validated at subscribe; unreachable
            };
            let (epoch, result, _) = self.run_cached(&group, &sub.request);
            let Ok(top) = result else { continue };
            let frame = {
                let mut st = lock_ok(&sub.state);
                if epoch <= st.epoch {
                    // A newer run already recorded its result; pushing
                    // ours now would deliver a stale epoch.
                    None
                } else {
                    let changed = st.result.as_ref().is_none_or(|prev| **prev != *top);
                    st.epoch = epoch;
                    st.result = Some(Arc::clone(&top));
                    changed.then(|| {
                        protocol::push_frame(
                            sub.id,
                            &top,
                            epoch,
                            &sub.request.id,
                            sub.request.trace,
                        )
                    })
                }
            };
            if let Some(frame) = frame {
                let wrote = self.write_line(&sub.writer, &frame);
                if wrote {
                    self.shared.metrics.pushes.fetch_add(1, Ordering::Relaxed);
                } else {
                    // The subscriber is gone; retire the subscription
                    // so the pump never spins on a dead socket. The
                    // drop is counted separately from raw push errors:
                    // one tick per subscription actually unregistered.
                    self.shared
                        .metrics
                        .push_errors
                        .fetch_add(1, Ordering::Relaxed);
                    if lock_ok(&self.shared.subs).remove(&sub.id).is_some() {
                        self.shared
                            .metrics
                            .subscribers_dropped
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        drop(pump_timer);
        if pump_span.active() {
            obs::note_epoch(epoch);
            obs::note_ok(true);
        }
        drop(pump_span);
    }

    /// One connection: read request lines, write response lines, in
    /// order. Returns when the peer closes, on a fatal socket error, or
    /// at the first read-timeout tick after shutdown began.
    ///
    /// Input is read in buffered chunks with the line-size cap enforced
    /// per chunk, so a client streaming one endless unterminated line —
    /// at any speed — is answered with `bad_request` and disconnected
    /// at the cap instead of growing a buffer until OOM.
    ///
    /// The write half is shared (behind a mutex) with any subscriptions
    /// this connection registers, so pushed frames and responses
    /// interleave as whole lines. When the *peer* goes away the
    /// connection's subscriptions die with it; when the connection
    /// thread exits because the *server* is draining, they are left
    /// registered so the pump can flush final notifications before
    /// [`GrecaServer::run`] returns.
    fn serve_connection<'env>(&'env self, stream: TcpStream, queues: &Queues<'env>) {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let writer = Arc::new(Mutex::new(stream));
        let mut conn_subs: Vec<u64> = Vec::new();
        let peer_gone = self.connection_loop(read_half, queues, &writer, &mut conn_subs);
        if peer_gone {
            let mut subs = lock_ok(&self.shared.subs);
            for id in conn_subs {
                subs.remove(&id);
            }
        }
    }

    /// The connection read/dispatch loop. Returns `true` when the peer
    /// is gone (EOF, fatal error, protocol cutoff) — its subscriptions
    /// should die — and `false` on server drain, where they outlive the
    /// connection thread just long enough for the pump to flush.
    fn connection_loop<'env>(
        &'env self,
        read_half: TcpStream,
        queues: &Queues<'env>,
        writer: &Arc<Mutex<TcpStream>>,
        conn_subs: &mut Vec<u64>,
    ) -> bool {
        let mut reader = BufReader::new(read_half);
        let mut acc: Vec<u8> = Vec::new();
        let cap = self.config.max_line_bytes.max(1024);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            // An injected read fault behaves like the peer resetting
            // the connection: the loop exits and the connection's
            // subscriptions are retired, same as a real dead socket.
            if self.inject(FaultCtx::SockRead).is_some() {
                return true;
            }
            let (consumed, complete) = {
                let chunk = match reader.fill_buf() {
                    Ok([]) => return true, // EOF (a trailing partial line is not a request)
                    Ok(chunk) => chunk,
                    // Timeout tick: keep accumulated partial input,
                    // re-check the shutdown flag.
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => return true,
                };
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        acc.extend_from_slice(&chunk[..pos]);
                        (pos + 1, true)
                    }
                    None => {
                        acc.extend_from_slice(chunk);
                        (chunk.len(), false)
                    }
                }
            };
            reader.consume(consumed);
            if acc.len() > cap {
                self.shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let response = protocol::error_response(
                    "?",
                    "bad_request",
                    &format!("request line exceeds the {cap}-byte limit"),
                    &None,
                    None,
                );
                self.write_line(writer, &response);
                return true; // the remainder of the oversized line is garbage
            }
            if !complete {
                continue;
            }
            let response = match std::str::from_utf8(&acc) {
                Ok(line) => self.dispatch(line.trim(), queues, writer, conn_subs),
                Err(_) => {
                    self.shared
                        .metrics
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    protocol::error_response(
                        "?",
                        "bad_request",
                        "request line is not valid UTF-8",
                        &None,
                        None,
                    )
                }
            };
            acc.clear();
            if !self.write_line(writer, &response) {
                return true;
            }
        }
    }

    /// Parse one line and route it. Always produces exactly one
    /// response line.
    fn dispatch<'env>(
        &'env self,
        line: &str,
        queues: &Queues<'env>,
        writer: &Arc<Mutex<TcpStream>>,
        conn_subs: &mut Vec<u64>,
    ) -> String {
        if line.is_empty() {
            self.shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return protocol::error_response("?", "bad_request", "empty request line", &None, None);
        }
        let parsed = match crate::json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return protocol::error_response(
                    "?",
                    "bad_request",
                    &format!("invalid JSON: {e}"),
                    &None,
                    None,
                );
            }
        };
        let request = match protocol::parse_request(&parsed) {
            Ok(r) => r,
            Err(bad) => {
                self.shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return protocol::error_response("?", "bad_request", &bad.detail, &bad.id, None);
            }
        };
        match request {
            // Observability verbs answer inline — responsive even when
            // every queue is full.
            Request::Health => {
                let t0 = Instant::now();
                let response = self.handle_health();
                self.shared.metrics.health.served(t0.elapsed(), true);
                response
            }
            Request::Stats => {
                let t0 = Instant::now();
                let response = self.handle_stats(queues);
                self.shared.metrics.stats.served(t0.elapsed(), true);
                response
            }
            Request::Trace(t) => {
                let t0 = Instant::now();
                let response = self.handle_trace(&t);
                self.shared.metrics.stats.served(t0.elapsed(), true);
                response
            }
            Request::Metrics { id } => {
                let t0 = Instant::now();
                let body = crate::expo::render(&self.shared.metrics, &self.shared.cache.stats);
                let response = protocol::metrics_response(&body, &id);
                self.shared.metrics.stats.served(t0.elapsed(), true);
                response
            }
            Request::Query(q) => {
                // Fast path: a resident cache entry costs no kernel
                // work, so it is served inline — never queued, never
                // shed — exactly like the observability verbs.
                let t0 = Instant::now();
                let trace = resolve_trace(q.trace);
                if let Some(response) = self.try_cached_query(&q, trace) {
                    self.shared.metrics.query.served(t0.elapsed(), true);
                    return response;
                }
                self.submit(
                    &queues.query,
                    "query",
                    q.id.clone(),
                    q.deadline_ms,
                    trace,
                    move || self.handle_query(&q, trace, t0),
                )
            }
            Request::Ingest(i) => {
                let t0 = Instant::now();
                let trace = resolve_trace(i.trace);
                self.submit(
                    &queues.ingest,
                    "ingest",
                    i.id.clone(),
                    i.deadline_ms,
                    trace,
                    move || self.handle_ingest(&i, trace, t0),
                )
            }
            Request::Subscribe(q) => {
                // Assign the id and register *on the connection thread*,
                // before the baseline runs: the footprint makes the pump
                // re-check this subscription for any publish touching
                // its members, so a swap racing the baseline can never
                // be missed — only re-verified.
                let t0 = Instant::now();
                let trace = resolve_trace(q.trace);
                let sub_id = self.shared.next_sub.fetch_add(1, Ordering::Relaxed);
                conn_subs.push(sub_id);
                let sub = Arc::new(Subscription {
                    id: sub_id,
                    request: q.clone(),
                    writer: Arc::clone(writer),
                    footprint: QueryFootprint::new(q.group.clone()),
                    state: Mutex::new(SubState {
                        epoch: 0,
                        result: None,
                    }),
                });
                lock_ok(&self.shared.subs).insert(sub_id, Arc::clone(&sub));
                let response = self.submit(
                    &queues.query,
                    "subscribe",
                    q.id.clone(),
                    q.deadline_ms,
                    trace,
                    move || self.handle_subscribe(&sub, trace, t0),
                );
                // A shed, drained, or failed baseline leaves no live
                // subscription (success lines always lead with the `ok`
                // key — the same invariant push-frame framing rests on).
                if !response.starts_with("{\"ok\":true") {
                    lock_ok(&self.shared.subs).remove(&sub_id);
                    conn_subs.retain(|&s| s != sub_id);
                }
                response
            }
            Request::Unsubscribe { sub, id } => {
                // Answered inline, like the observability verbs: it is
                // one map removal, and a subscriber drowning in pushes
                // must be able to stop them even under full overload.
                let t0 = Instant::now();
                let owned = conn_subs.contains(&sub);
                let removed = owned && lock_ok(&self.shared.subs).remove(&sub).is_some();
                if owned {
                    conn_subs.retain(|&s| s != sub);
                }
                self.shared.metrics.subscribe.served(t0.elapsed(), true);
                protocol::unsubscribe_response(sub, removed, &id)
            }
        }
    }

    /// Run a subscription's baseline query. Returns `(response line,
    /// ok)`; on error the caller unregisters the subscription.
    fn handle_subscribe(
        &self,
        sub: &Subscription,
        trace: u64,
        admitted: Instant,
    ) -> (String, bool) {
        let span = obs::span(trace, SpanKind::Subscribe);
        if span.active() {
            obs::add_phase(Phase::Admit, admitted.elapsed());
        }
        let q = &sub.request;
        let group = match request_group("subscribe", q, trace) {
            Ok(g) => g,
            Err(line) => return (line, false),
        };
        let (epoch, result, outcome) = self.run_cached(&group, q);
        if span.active() {
            obs::note_cache(cache_note(outcome));
            obs::note_epoch(epoch);
        }
        match result {
            Ok(top) => {
                let mut st = lock_ok(&sub.state);
                // The baseline result only lands if the pump hasn't
                // already delivered a newer epoch in the registration
                // window.
                if epoch > st.epoch {
                    st.epoch = epoch;
                    st.result = Some(Arc::clone(&top));
                }
                drop(st);
                let serialize = obs::phase(Phase::Serialize);
                let line = protocol::subscribe_response(
                    sub.id,
                    &top,
                    epoch,
                    outcome.label(),
                    &q.id,
                    Some(trace),
                );
                drop(serialize);
                if span.active() {
                    obs::note_ok(true);
                }
                (line, true)
            }
            Err(e) => (cache_error_response("subscribe", &e, &q.id, trace), false),
        }
    }

    /// Admission-controlled execution: run `work` through `queue`,
    /// shedding immediately when it is full. The recorded latency spans
    /// queue wait + execution (what the client experiences minus
    /// network).
    ///
    /// `deadline_ms` is the request's latency budget: a job whose
    /// budget has already elapsed by the time a worker picks it up is
    /// answered `deadline_exceeded` without executing — under
    /// overload, work the caller has abandoned is the cheapest work to
    /// shed.
    fn submit<'env>(
        &'env self,
        queue: &VerbQueue<'env>,
        verb: &'static str,
        id: Option<Json>,
        deadline_ms: Option<u64>,
        trace: u64,
        work: impl FnOnce() -> (String, bool) + Send + 'env,
    ) -> String {
        let t0 = Instant::now();
        let slot = Arc::new(ResponseSlot::new());
        let ok_flag = Arc::new(AtomicBool::new(false));
        let job_slot = Arc::clone(&slot);
        let job_ok = Arc::clone(&ok_flag);
        let job = Box::new(move || {
            // If `work` panics the worker thread dies with it; release
            // the waiter with a typed error first.
            struct Release<'a>(&'a ResponseSlot, &'static str, Option<Json>, u64);
            impl Drop for Release<'_> {
                fn drop(&mut self) {
                    self.0.fill(protocol::error_response(
                        self.1,
                        "internal",
                        "request execution panicked",
                        &self.2,
                        Some(self.3),
                    ));
                }
            }
            let release = Release(&job_slot, verb, id.clone(), trace);
            if let Some(budget) = deadline_ms {
                if t0.elapsed() > Duration::from_millis(budget) {
                    self.shared
                        .metrics
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                    std::mem::forget(release);
                    job_slot.fill(protocol::error_response(
                        verb,
                        "deadline_exceeded",
                        &format!("request spent more than its {budget} ms budget queued"),
                        &id,
                        Some(trace),
                    ));
                    return;
                }
            }
            // The worker-panic channel: an injected `Panic` exercises
            // the release guard above end-to-end (the waiter gets the
            // typed `internal` response, the worker thread dies, and
            // the server keeps serving on the remaining workers).
            if let Some(IoFault::Panic) = self.inject(FaultCtx::Work) {
                panic!("injected fault: worker panic");
            }
            let (response, ok) = work();
            std::mem::forget(release);
            job_ok.store(ok, Ordering::Relaxed);
            job_slot.fill(response);
        });
        match queue.submit(job) {
            Submission::Accepted => {
                let response = slot.wait();
                let ok = ok_flag.load(Ordering::Relaxed);
                self.shared.metrics.verb(verb).served(t0.elapsed(), ok);
                response
            }
            Submission::Overloaded => {
                self.shared.metrics.verb(verb).shed_one();
                protocol::error_response(
                    verb,
                    "overloaded",
                    "admission queue full; back off and retry",
                    &None,
                    Some(trace),
                )
            }
            Submission::Draining => protocol::error_response(
                verb,
                "shutting_down",
                "server is draining",
                &None,
                Some(trace),
            ),
        }
    }

    /// The degraded-mode annotation for read responses: `Some(age)` of
    /// the serving epoch when the engine's WAL is stalled. Queries are
    /// *served* in this state, never shed — the whole point of keeping
    /// reads on the last healthy epoch — but the client is told the
    /// answer's staleness bound. Runs on every query response (cache
    /// hits included), so it uses the engine's lock-free probe rather
    /// than `health()` — the latter snapshots the staging store, which
    /// a publish holds for the whole epoch rebuild, and reads must not
    /// queue behind that.
    fn degraded_staleness(&self) -> Option<u64> {
        self.live
            .degraded_staleness()
            .map(|s| s.as_millis().min(u128::from(u64::MAX)) as u64)
    }

    /// Answer a query from the result cache without queueing, when a
    /// resident entry exists at the current epoch. A hit seals a full
    /// span (cache + serialize attribution) under `trace`; a miss
    /// leaves no record — the queued path opens the trace's real span.
    fn try_cached_query(&self, q: &QueryRequest, trace: u64) -> Option<String> {
        let group = Group::new(q.group.clone()).ok()?;
        let pin = self.live.pin();
        let engine = pin.engine();
        let query = build_query(&engine, &group, q);
        let t_lookup = Instant::now();
        let top = self.shared.cache.try_get(pin.epoch(), &query.cache_key())?;
        let lookup = t_lookup.elapsed();
        let span = obs::span(trace, SpanKind::Query);
        if span.active() {
            obs::add_phase(Phase::Cache, lookup);
            obs::note_cache(CacheNote::Hit);
            obs::note_epoch(pin.epoch());
        }
        let serialize = obs::phase(Phase::Serialize);
        let response = protocol::query_response(
            &top,
            pin.epoch(),
            "hit",
            self.degraded_staleness(),
            &q.id,
            Some(trace),
        );
        drop(serialize);
        if span.active() {
            obs::note_ok(true);
        }
        drop(span);
        Some(response)
    }

    /// Execute one query through the epoch-pinned engine and the result
    /// cache. Returns `(response line, ok)`.
    fn handle_query(&self, q: &QueryRequest, trace: u64, admitted: Instant) -> (String, bool) {
        let span = obs::span(trace, SpanKind::Query);
        if span.active() {
            obs::add_phase(Phase::Admit, admitted.elapsed());
        }
        let group = match request_group("query", q, trace) {
            Ok(g) => g,
            Err(line) => return (line, false),
        };
        let (epoch, result, outcome) = self.run_cached(&group, q);
        if span.active() {
            obs::note_cache(cache_note(outcome));
            obs::note_epoch(epoch);
        }
        match result {
            Ok(top) => {
                let serialize = obs::phase(Phase::Serialize);
                let line = protocol::query_response(
                    &top,
                    epoch,
                    outcome.label(),
                    self.degraded_staleness(),
                    &q.id,
                    Some(trace),
                );
                drop(serialize);
                if span.active() {
                    obs::note_ok(true);
                }
                (line, true)
            }
            Err(e) => (cache_error_response("query", &e, &q.id, trace), false),
        }
    }

    /// Answer `q` over `group` at the current epoch through the result
    /// cache — the one served query path (`query`, `subscribe` and the
    /// subscription pump). Returns the pinned epoch, the result and the
    /// cache outcome.
    fn run_cached(
        &self,
        group: &Group,
        q: &QueryRequest,
    ) -> (u64, Result<Arc<TopKResult>, CacheError>, CacheOutcome) {
        let pin = self.live.pin();
        let epoch = pin.epoch();
        let engine = pin.engine();
        let query = build_query(&engine, group, q);
        // Cache misses run through the pinned epoch's member arena:
        // distinct overlapping groups landing in one epoch resolve each
        // member's column once, not once per query. The arena belongs
        // to the epoch, so sharing never crosses a substrate swap and
        // results stay bit-identical to `query.run()`.
        // The cache timer covers the lookup (and, on a coalesced
        // lookup, the wait for the concurrent identical run); a miss
        // hands off to the kernel's own prepare/kernel timers the
        // moment the compute closure starts.
        let lookup = std::cell::Cell::new(Some(obs::phase(Phase::Cache)));
        let (result, outcome) = self
            .shared
            .cache
            .get_or_compute(epoch, query.cache_key(), || {
                drop(lookup.take());
                query.run_shared(pin.members())
            });
        drop(lookup.take());
        (epoch, result, outcome)
    }

    /// Stage + publish one delta batch. Returns `(response line, ok)`.
    ///
    /// The batch goes through [`LiveEngine::stage_keyed`]: with a
    /// `batch` idempotency key, a retry of an already-staged batch is
    /// a no-op answered `duplicate: true` instead of double-applying.
    /// A WAL failure (append or commit) answers `degraded` — the typed
    /// signal that nothing was applied, nothing was lost, and the
    /// retry is safe — while queries keep being served.
    fn handle_ingest(&self, req: &IngestRequest, trace: u64, admitted: Instant) -> (String, bool) {
        // The ingest span owns the whole pipeline: the engine's
        // WAL-append/stage/rebuild/swap timers and the hook's survival
        // timer all attribute here (`LiveEngine::publish` only opens
        // its own span when none is active).
        let span = obs::span(trace, SpanKind::Ingest);
        if span.active() {
            obs::add_phase(Phase::Admit, admitted.elapsed());
        }
        let code_of = |e: &QueryError| match e {
            QueryError::Wal { .. } => "degraded",
            _ => "rejected",
        };
        let staged = match self
            .live
            .stage_keyed(req.batch_key, &req.ratings, &req.retractions)
        {
            Ok(staged) => staged,
            Err(e) => {
                return (
                    protocol::error_response(
                        "ingest",
                        code_of(&e),
                        &e.to_string(),
                        &req.id,
                        Some(trace),
                    ),
                    false,
                )
            }
        };
        if staged.duplicate {
            // Already staged under this key — but staged is not
            // committed: if the publish that should have committed the
            // original attempt failed (WAL stall), the batch is still
            // sitting in the staging store, neither visible to queries
            // nor durable. In that case re-attempt the publish before
            // acknowledging, so `ok: true` always means "committed";
            // while the WAL keeps failing the retry is answered
            // `degraded` again — never a false ack a crash could lose.
            // (`staged() == 0` means every staged batch has been
            // published: a failed publish re-stages its drained batch
            // under the store lock it holds throughout, so there is no
            // window where an uncommitted batch is invisible here.)
            if self.live.staged() > 0 {
                if let Err(e) = self.live.publish() {
                    return (
                        protocol::error_response(
                            "ingest",
                            code_of(&e),
                            &e.to_string(),
                            &req.id,
                            Some(trace),
                        ),
                        false,
                    );
                }
            }
            let epoch = self.live.epoch();
            if span.active() {
                obs::note_epoch(epoch);
                obs::note_ok(true);
            }
            let mut pairs = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("verb".to_string(), Json::str("ingest")),
            ];
            if let Some(id) = &req.id {
                pairs.push(("id".to_string(), id.clone()));
            }
            pairs.extend([
                ("trace".to_string(), Json::num(trace as f64)),
                ("epoch".to_string(), Json::num(epoch as f64)),
                ("batch_id".to_string(), Json::num(staged.batch_id as f64)),
                ("duplicate".to_string(), Json::Bool(true)),
            ]);
            return (Json::Obj(pairs).to_line(), true);
        }
        match self.live.publish() {
            Ok(report) => {
                if span.active() {
                    obs::note_epoch(report.epoch);
                    obs::note_ok(true);
                }
                let serialize = obs::phase(Phase::Serialize);
                let mut pairs = vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("verb".to_string(), Json::str("ingest")),
                ];
                if let Some(id) = &req.id {
                    pairs.push(("id".to_string(), id.clone()));
                }
                pairs.push(("trace".to_string(), Json::num(trace as f64)));
                pairs.extend([
                    ("epoch".to_string(), Json::num(report.epoch as f64)),
                    ("batch_id".to_string(), Json::num(staged.batch_id as f64)),
                    ("duplicate".to_string(), Json::Bool(false)),
                    ("upserts".to_string(), Json::num(report.upserts as f64)),
                    (
                        "retractions".to_string(),
                        Json::num(report.retractions as f64),
                    ),
                    (
                        "dirty_users".to_string(),
                        Json::num(report.dirty_users as f64),
                    ),
                    (
                        "dirty_pairs".to_string(),
                        Json::num(report.dirty_pairs as f64),
                    ),
                    (
                        "rebuilt_segments".to_string(),
                        Json::num(report.rebuilt_segments as f64),
                    ),
                    (
                        "shared_segments".to_string(),
                        Json::num(report.shared_segments as f64),
                    ),
                    ("full_rebuild".to_string(), Json::Bool(report.full_rebuild)),
                ]);
                let line = Json::Obj(pairs).to_line();
                drop(serialize);
                (line, true)
            }
            Err(e) => (
                protocol::error_response(
                    "ingest",
                    code_of(&e),
                    &e.to_string(),
                    &req.id,
                    Some(trace),
                ),
                false,
            ),
        }
    }

    /// Answer a `trace` request from the flight recorder (or its
    /// slow-query log), applying the request's filters.
    fn handle_trace(&self, req: &TraceRequest) -> String {
        let rec = obs::recorder();
        let filter = TraceFilter {
            trace: req.trace,
            kind: req.kind,
            min_total_us: req.min_us,
            limit: req.limit.unwrap_or(0),
        };
        if req.slow {
            let mut records = rec.slow_queries();
            records.retain(|r| filter.matches(r));
            if let Some(limit) = req.limit {
                if records.len() > limit {
                    let cut = records.len() - limit;
                    records.drain(..cut);
                }
            }
            protocol::trace_response(&records, true, &req.id)
        } else {
            protocol::trace_response(&rec.snapshot(&filter), false, &req.id)
        }
    }

    fn handle_health(&self) -> String {
        let health = self.live.health();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("verb", Json::str("health")),
            ("epoch", Json::num(health.epoch as f64)),
            (
                "uptime_ms",
                Json::num(self.shared.started.elapsed().as_millis() as f64),
            ),
            (
                "draining",
                Json::Bool(self.shared.shutdown.load(Ordering::SeqCst)),
            ),
            ("wal_attached", Json::Bool(health.wal_attached)),
            // `degraded` on the wire == the engine's WAL is stalled:
            // mutations fail typed, reads keep serving this epoch.
            (
                "degraded",
                Json::Bool(health.wal_attached && health.wal_stalled),
            ),
            (
                "staleness_ms",
                Json::num(health.staleness.as_millis() as f64),
            ),
            ("staged", Json::num(health.staged as f64)),
            ("last_batch", Json::num(health.last_batch as f64)),
        ])
        .to_line()
    }

    fn handle_stats(&self, queues: &Queues<'_>) -> String {
        let pin = self.live.pin();
        let engine_epoch = self.live.epoch();
        let cache = &self.shared.cache;
        let stats = &cache.stats;
        let load = |c: &std::sync::atomic::AtomicU64| Json::num(c.load(Ordering::Relaxed) as f64);
        let substrate = pin.substrate();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("verb", Json::str("stats")),
            ("epoch", Json::num(engine_epoch as f64)),
            ("world", Json::str(self.config.world_label.as_str())),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::num(cache.len() as f64)),
                    ("epoch", Json::num(cache.epoch() as f64)),
                    // How far the cache trails the engine (0 in steady
                    // state; a publish between the two reads above can
                    // show a transient 1).
                    (
                        "epoch_lag",
                        Json::num(engine_epoch.saturating_sub(cache.epoch()) as f64),
                    ),
                    ("hits", load(&stats.hits)),
                    ("misses", load(&stats.misses)),
                    ("coalesced", load(&stats.coalesced)),
                    ("bypasses", load(&stats.bypasses)),
                    ("invalidations", load(&stats.invalidations)),
                    (
                        "selective_invalidations",
                        load(&stats.selective_invalidations),
                    ),
                    ("survivors", load(&stats.survivors)),
                    ("dropped", load(&stats.dropped)),
                    ("survival_rate", Json::num(stats.survival_rate())),
                    ("capacity_flushes", load(&stats.capacity_flushes)),
                    ("hit_rate", Json::num(stats.hit_rate())),
                ]),
            ),
            (
                "subscriptions",
                Json::obj(vec![
                    ("active", Json::num(lock_ok(&self.shared.subs).len() as f64)),
                    ("sub_runs", load(&self.shared.metrics.sub_runs)),
                    ("push_count", load(&self.shared.metrics.pushes)),
                    ("push_errors", load(&self.shared.metrics.push_errors)),
                    (
                        "subscribers_dropped",
                        load(&self.shared.metrics.subscribers_dropped),
                    ),
                ]),
            ),
            ("health", {
                let health = self.live.health();
                Json::obj(vec![
                    ("wal_attached", Json::Bool(health.wal_attached)),
                    (
                        "degraded",
                        Json::Bool(health.wal_attached && health.wal_stalled),
                    ),
                    (
                        "staleness_ms",
                        Json::num(health.staleness.as_millis() as f64),
                    ),
                    ("staged", Json::num(health.staged as f64)),
                    ("last_batch", Json::num(health.last_batch as f64)),
                ])
            }),
            (
                "faults_injected",
                match self.shared.fault.as_deref() {
                    Some(plan) => Json::num(plan.injected().len() as f64),
                    None => Json::Null,
                },
            ),
            (
                "last_dirty",
                match lock_ok(&self.shared.last_dirty).as_deref() {
                    Some(wire) => Json::str(wire),
                    None => Json::Null,
                },
            ),
            ("planner", {
                let state = pin.members();
                Json::obj(vec![
                    ("entries", Json::num(state.entries() as f64)),
                    (
                        "resolved_members",
                        Json::num(state.resolved_members() as f64),
                    ),
                    ("reused_members", Json::num(state.reused_members() as f64)),
                    (
                        "reused_prefix_items",
                        Json::num(state.reused_prefix_items() as f64),
                    ),
                    ("memory_bytes", Json::num(state.memory_bytes() as f64)),
                ])
            }),
            (
                "queues",
                Json::obj(vec![
                    (
                        "query",
                        Json::obj(vec![
                            ("depth", Json::num(queues.query.depth() as f64)),
                            ("capacity", Json::num(queues.query.capacity() as f64)),
                        ]),
                    ),
                    (
                        "ingest",
                        Json::obj(vec![
                            ("depth", Json::num(queues.ingest.depth() as f64)),
                            ("capacity", Json::num(queues.ingest.capacity() as f64)),
                        ]),
                    ),
                ]),
            ),
            ("lineage", {
                let summary = self.live.lineage_summary();
                let recent = self.live.lineage_recent(8);
                let survival = lock_ok(&self.shared.survival_log);
                let recent_json: Vec<Json> = recent
                    .iter()
                    .map(|l| {
                        // Join the engine's per-epoch record with the
                        // hook-side cache-survival record for the same
                        // epoch (absent for publishes that predate this
                        // server or fell out of the survival log).
                        let (kept, dropped) = survival
                            .iter()
                            .rev()
                            .find(|(e, _, _)| *e == l.epoch)
                            .map_or((0, 0), |&(_, k, d)| (k, d));
                        Json::obj(vec![
                            ("epoch", Json::num(l.epoch as f64)),
                            ("unix_ms", Json::num(l.unix_ms as f64)),
                            ("upserts", Json::num(l.upserts as f64)),
                            ("retractions", Json::num(l.retractions as f64)),
                            ("dirty_users", Json::num(l.dirty_users as f64)),
                            ("dirty_pairs", Json::num(l.dirty_pairs as f64)),
                            ("rebuilt_segments", Json::num(l.rebuilt_segments as f64)),
                            ("shared_segments", Json::num(l.shared_segments as f64)),
                            ("full_rebuild", Json::Bool(l.full_rebuild)),
                            ("cache_kept", Json::num(kept as f64)),
                            ("cache_dropped", Json::num(dropped as f64)),
                            ("stage_us", Json::num(l.stage_ns as f64 / 1_000.0)),
                            ("rebuild_us", Json::num(l.rebuild_ns as f64 / 1_000.0)),
                            ("wal_us", Json::num(l.wal_ns as f64 / 1_000.0)),
                            ("swap_us", Json::num(l.swap_ns as f64 / 1_000.0)),
                            ("total_us", Json::num(l.total_ns as f64 / 1_000.0)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("epoch", Json::num(summary.epoch as f64)),
                    ("publishes", Json::num(summary.publishes as f64)),
                    ("full_rebuilds", Json::num(summary.full_rebuilds as f64)),
                    (
                        "last_publish_unix_ms",
                        Json::num(summary.last_publish_unix_ms as f64),
                    ),
                    (
                        "degraded_windows",
                        Json::num(summary.degraded_windows as f64),
                    ),
                    (
                        "degraded_ms_total",
                        Json::num(summary.degraded_ms_total as f64),
                    ),
                    ("recent", Json::Arr(recent_json)),
                ])
            }),
            ("obs", {
                let rec = obs::recorder();
                let totals = rec.totals();
                let spans: Vec<(&'static str, Json)> = greca_core::SpanKind::ALL
                    .iter()
                    .map(|&k| (k.label(), Json::num(totals.spans[k as usize] as f64)))
                    .collect();
                let phases: Vec<(&'static str, Json)> = Phase::ALL
                    .iter()
                    .map(|&p| {
                        (
                            p.label(),
                            Json::num(totals.phase_ns[p as usize] as f64 / 1_000.0),
                        )
                    })
                    .collect();
                Json::obj(vec![
                    ("enabled", Json::Bool(rec.is_enabled())),
                    (
                        "slow_threshold_us",
                        Json::num(rec.slow_threshold_us() as f64),
                    ),
                    ("slow_spans", Json::num(totals.slow as f64)),
                    ("sa", Json::num(totals.sa as f64)),
                    ("ra", Json::num(totals.ra as f64)),
                    ("spans", Json::obj(spans)),
                    ("phase_us", Json::obj(phases)),
                ])
            }),
            ("memory", memory_json(substrate.memory_footprint())),
            ("metrics", self.shared.metrics.to_json()),
        ])
        .to_line()
    }
}

/// The per-verb admission queues, scoped to one `run()`.
struct Queues<'env> {
    query: VerbQueue<'env>,
    ingest: VerbQueue<'env>,
}

/// Assemble a [`greca_core::GroupQuery`] from a parsed request's
/// optional fields (shared by the inline fast path and the queued
/// execution path, so both derive the same canonical cache key).
fn build_query<'q>(
    engine: &'q greca_core::GrecaEngine<'q>,
    group: &'q Group,
    req: &'q QueryRequest,
) -> greca_core::GroupQuery<'q> {
    let mut query = engine.query(group);
    if let Some(items) = &req.items {
        query = query.items(items);
    }
    if let Some(k) = req.k {
        query = query.top(k);
    }
    if let Some(period) = req.period {
        query = query.period(period);
    }
    if let Some(mode) = req.mode {
        query = query.affinity(mode);
    }
    if let Some(consensus) = req.consensus {
        query = query.consensus(consensus);
    }
    query
}

/// The trace id a request travels under: the caller's, or a fresh
/// server-assigned one masked to the wire-representable range (the
/// JSON layer carries numbers as `f64` — see
/// [`protocol::MAX_WIRE_TRACE`]).
fn resolve_trace(requested: Option<u64>) -> u64 {
    requested.unwrap_or_else(|| obs::next_trace_id() & protocol::MAX_WIRE_TRACE)
}

/// A cache outcome as the span record's cache disposition.
fn cache_note(outcome: CacheOutcome) -> CacheNote {
    match outcome {
        CacheOutcome::Hit => CacheNote::Hit,
        CacheOutcome::Miss => CacheNote::Miss,
        CacheOutcome::Coalesced => CacheNote::Coalesced,
        CacheOutcome::Bypass => CacheNote::Bypass,
    }
}

/// One delta standing for two publishes (the hook's queue cap and the
/// pump's burst coalescing): the union of their dirty sets at the newer
/// epoch, a full rebuild if either was one.
fn coalesce(a: &PublishDelta, b: &PublishDelta) -> PublishDelta {
    let mut dirty = (*a.dirty).clone();
    dirty.merge(&b.dirty);
    PublishDelta {
        epoch: a.epoch.max(b.epoch),
        dirty: Arc::new(dirty),
        full_rebuild: a.full_rebuild || b.full_rebuild,
    }
}

/// A `query` or `subscribe` request's group, or its `bad_request` line.
fn request_group(verb: &str, q: &QueryRequest, trace: u64) -> Result<Group, String> {
    Group::new(q.group.clone()).map_err(|e| {
        protocol::error_response(verb, "bad_request", &e.to_string(), &q.id, Some(trace))
    })
}

/// The error line for a `query` or `subscribe` whose cached run failed.
fn cache_error_response(verb: &str, e: &CacheError, id: &Option<Json>, trace: u64) -> String {
    let (code, detail) = match e {
        CacheError::Query(e) => ("rejected", e.to_string()),
        CacheError::ComputePanicked => (
            "internal",
            "a concurrent identical query panicked in the kernel".to_string(),
        ),
    };
    protocol::error_response(verb, code, &detail, id, Some(trace))
}

/// A [`greca_core::MemoryFootprint`] as a JSON object: the `stats`
/// verb's `memory` member and `BENCH_engine.json`'s `memory` entry.
pub fn memory_json(fp: greca_core::MemoryFootprint) -> Json {
    Json::obj(vec![
        ("universe_bytes", Json::num(fp.universe_bytes as f64)),
        ("pref_bytes", Json::num(fp.pref_bytes as f64)),
        ("total_bytes", Json::num(fp.total() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_json_reports_each_layer_and_the_total() {
        let fp = greca_core::MemoryFootprint {
            universe_bytes: 68,
            pref_bytes: 136,
        };
        assert_eq!(
            memory_json(fp).to_line(),
            r#"{"universe_bytes":68,"pref_bytes":136,"total_bytes":204}"#
        );
    }
}
