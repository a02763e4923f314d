//! The wire protocol: line-delimited JSON, one request and one response
//! per line, eight verbs — plus server-initiated push frames for
//! continuous queries.
//!
//! ## Requests
//!
//! ```text
//! {"verb":"query","group":[3,17,42]}                          — paper defaults
//! {"verb":"query","group":[3,17],"items":[0,1,2],"k":5,
//!  "period":2,"mode":"static","consensus":"mo","id":7}        — everything spelled out
//! {"verb":"subscribe","group":[3,17],"k":5}                   — continuous query
//! {"verb":"unsubscribe","sub":4}
//! {"verb":"ingest","ratings":[[3,120,4.5,1710000000]],
//!  "retract":[[3,7]]}                                         — one epoch publish
//! {"verb":"stats"}
//! {"verb":"health"}
//! {"verb":"trace","trace":18446744073709551,"limit":10}       — flight-recorder dump
//! {"verb":"metrics"}                                          — Prometheus text exposition
//! ```
//!
//! `consensus` accepts `"ap"`, `"mo"`, `"pd:<w1>"`, `"vd:<w1>"`;
//! `mode` accepts `"none"`, `"static"`, `"discrete"` (the default).
//! An optional `id` of any JSON type is echoed verbatim in the
//! response, for clients that pipeline.
//!
//! `query`, `subscribe` and `ingest` also accept `deadline_ms`: a
//! per-request latency budget. A request still queued when its budget
//! expires is answered `deadline_exceeded` instead of executing —
//! cheaper than doing work whose caller has already given up on.
//! `ingest` additionally accepts `batch`, a u64 client idempotency
//! key: retrying an ingest whose acknowledgement was lost with the
//! same key is a no-op answered with `duplicate: true` (see
//! [`LiveEngine::stage_keyed`](greca_core::LiveEngine::stage_keyed)).
//!
//! ## Tracing
//!
//! `query`, `subscribe` and `ingest` accept an optional u64 `trace`:
//! a caller-chosen trace id threaded through the whole serving path
//! (admission → cache → planner → kernel) and echoed in the response
//! — and, for subscriptions, in every later push frame — so external
//! callers can correlate retries and pushes. Requests without one get
//! a server-assigned id, still echoed. The `trace` verb dumps the
//! flight recorder's cost-attribution records: `trace` (id), `kind`
//! (`query`/`ingest`/`publish`/…), `min_us` (minimum total latency)
//! and `limit` filter; `"slow":true` dumps the slow-query log
//! instead. The `metrics` verb returns the Prometheus text exposition
//! (as a JSON-wrapped `body`, this being a line protocol).
//!
//! ## Responses
//!
//! Every response carries `ok` plus the echoed `verb` (and `id` when
//! given). Failures replace the payload with a typed `code`:
//!
//! * `bad_request` — malformed JSON, unknown verb, missing/ill-typed
//!   field (detail in `error`);
//! * `rejected` — the engine refused the query
//!   ([`QueryError`](greca_core::QueryError) text in `error`);
//! * `overloaded` — the verb's admission queue was full; the request
//!   was **not** executed and the client should back off (the
//!   HTTP-429 analogue);
//! * `deadline_exceeded` — the request's `deadline_ms` budget ran out
//!   while it waited in the queue; it was **not** executed;
//! * `degraded` — an ingest could not be made durable (the write-ahead
//!   log is stalled); nothing was applied and the retry is idempotent.
//!   Reads are *not* shed in this state — see below;
//! * `shutting_down` — the server is draining;
//! * `internal` — a worker panicked mid-execution.
//!
//! Successful `query` responses carry the serving epoch, the cache
//! disposition (`hit` / `miss` / `coalesced` / `bypass`) and the exact
//! result: item ids with their `[lb, ub]` score envelopes (floats in
//! shortest round-trip form, so the payload is bit-comparable to a
//! direct engine run), access statistics, sweeps and the stop reason.
//! While the engine's WAL is stalled, queries keep being answered from
//! the last healthy epoch and gain two fields — `degraded: true` and
//! `staleness_ms`, the age of that epoch — so clients can tell a
//! fresh answer from a degraded-mode one.
//!
//! ## Push frames
//!
//! `subscribe` registers a continuous query: the response carries a
//! server-assigned `sub` id plus the baseline result, and after each
//! epoch publish whose dirty set intersects the subscription's
//! footprint, the server re-runs the query and — *only when the top-k
//! actually changed* — writes an unsolicited frame on the same
//! connection:
//!
//! ```text
//! {"push":"delta","sub":4,"epoch":12,"items":[…],…}
//! ```
//!
//! Push frames always start with the `push` key (never `ok`), so a
//! pipelining client can tell them from responses by the first bytes
//! of the line; the subscription's original `id`, when given, is echoed
//! in every frame.

use crate::json::Json;
use greca_affinity::AffinityMode;
use greca_consensus::ConsensusFunction;
use greca_core::{Phase, SpanKind, SpanRecord, StopReason, TopKResult};
use greca_dataset::{ItemId, Rating, UserId};

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one group query.
    Query(QueryRequest),
    /// Register a continuous group query (same shape as `query`).
    Subscribe(QueryRequest),
    /// Deregister a continuous query by its `sub` id.
    Unsubscribe {
        /// The server-assigned subscription id.
        sub: u64,
        /// Echoed request id.
        id: Option<Json>,
    },
    /// Stage + publish rating deltas as one epoch.
    Ingest(IngestRequest),
    /// Metrics registry dump.
    Stats,
    /// Liveness probe.
    Health,
    /// Flight-recorder dump (filtered span records / slow-query log).
    Trace(TraceRequest),
    /// Prometheus text exposition.
    Metrics {
        /// Echoed request id.
        id: Option<Json>,
    },
}

impl Request {
    /// The verb label echoed in responses.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Query(_) => "query",
            Request::Subscribe(_) => "subscribe",
            Request::Unsubscribe { .. } => "unsubscribe",
            Request::Ingest(_) => "ingest",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::Trace(_) => "trace",
            Request::Metrics { .. } => "metrics",
        }
    }
}

/// One `trace` request: flight-recorder filters.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Keep only records with this trace id.
    pub trace: Option<u64>,
    /// Keep only records of this span kind (`query`/`ingest`/…).
    pub kind: Option<SpanKind>,
    /// Keep only records at least this slow (total, µs).
    pub min_us: Option<u64>,
    /// Dump the slow-query log instead of the rings.
    pub slow: bool,
    /// Newest records kept after filtering.
    pub limit: Option<usize>,
    /// Echoed request id.
    pub id: Option<Json>,
}

/// One `query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Group member user ids.
    pub group: Vec<UserId>,
    /// Candidate itemset; `None` = the provider's candidate set.
    pub items: Option<Vec<ItemId>>,
    /// Result size; `None` = the paper default (10).
    pub k: Option<usize>,
    /// Query period; `None` = the latest.
    pub period: Option<usize>,
    /// Affinity mode; `None` = discrete.
    pub mode: Option<AffinityMode>,
    /// Consensus function; `None` = AP.
    pub consensus: Option<ConsensusFunction>,
    /// Per-request latency budget in milliseconds; a request still
    /// queued when it expires is answered `deadline_exceeded`.
    pub deadline_ms: Option<u64>,
    /// Caller-chosen trace id, echoed in the response (and every push
    /// frame of a subscription); `None` = server-assigned.
    pub trace: Option<u64>,
    /// Echoed request id.
    pub id: Option<Json>,
}

/// One `ingest` request.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Rating upserts.
    pub ratings: Vec<Rating>,
    /// `(user, item)` retractions.
    pub retractions: Vec<(UserId, ItemId)>,
    /// Client idempotency key (`batch` on the wire): a key the engine
    /// has already staged makes the request a no-op answered with
    /// `duplicate: true`.
    pub batch_key: Option<u64>,
    /// Per-request latency budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Caller-chosen trace id, echoed in the ack; `None` =
    /// server-assigned.
    pub trace: Option<u64>,
    /// Echoed request id.
    pub id: Option<Json>,
}

/// A request-level failure, mapped to a typed error response.
#[derive(Debug, Clone, PartialEq)]
pub struct BadRequest {
    /// Human-readable detail.
    pub detail: String,
    /// Echoed request id, when it was at least readable.
    pub id: Option<Json>,
}

fn bad(detail: impl Into<String>, id: Option<Json>) -> BadRequest {
    BadRequest {
        detail: detail.into(),
        id,
    }
}

/// A wire value as a u32 id — rejects negatives, fractions, and values
/// beyond `u32::MAX` (silent truncation would address the wrong
/// user/item).
fn as_u32_id(v: &Json) -> Option<u32> {
    v.as_u64().and_then(|u| u32::try_from(u).ok())
}

/// An optional u64 wire field (`deadline_ms`, `batch`), erroring on an
/// ill-typed value rather than silently ignoring it.
fn u64_field(value: &Json, name: &str, id: &Option<Json>) -> Result<Option<u64>, BadRequest> {
    match value.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("'{name}' must be a u64"), id.clone())),
    }
}

/// Parse one request line's JSON into a [`Request`].
pub fn parse_request(value: &Json) -> Result<Request, BadRequest> {
    let id = value.get("id").cloned();
    let verb = value
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'verb'", id.clone()))?;
    match verb {
        "query" => Ok(Request::Query(parse_query(value, id)?)),
        "subscribe" => Ok(Request::Subscribe(parse_query(value, id)?)),
        "unsubscribe" => {
            let sub = value
                .get("sub")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("unsubscribe needs a u64 field 'sub'", id.clone()))?;
            Ok(Request::Unsubscribe { sub, id })
        }
        "ingest" => Ok(Request::Ingest(parse_ingest(value, id)?)),
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        "trace" => Ok(Request::Trace(parse_trace(value, id)?)),
        "metrics" => Ok(Request::Metrics { id }),
        other => Err(bad(
            format!(
                "unknown verb '{other}' (expected query/subscribe/unsubscribe/ingest/stats/\
                 health/trace/metrics)"
            ),
            id,
        )),
    }
}

fn parse_trace(value: &Json, id: Option<Json>) -> Result<TraceRequest, BadRequest> {
    let kind = match value.get("kind") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(SpanKind::from_label(s).ok_or_else(|| {
            bad(
                format!(
                    "unknown kind '{s}' (expected query/subscribe/ingest/publish/pump/batch/other)"
                ),
                id.clone(),
            )
        })?),
        Some(_) => return Err(bad("'kind' must be a string", id)),
    };
    let slow = match value.get("slow") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad("'slow' must be a boolean", id)),
    };
    Ok(TraceRequest {
        trace: u64_field(value, "trace", &id)?,
        kind,
        min_us: u64_field(value, "min_us", &id)?,
        slow,
        limit: u64_field(value, "limit", &id)?.map(|v| v as usize),
        id,
    })
}

fn parse_query(value: &Json, id: Option<Json>) -> Result<QueryRequest, BadRequest> {
    let group = value
        .get("group")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("query needs an array field 'group'", id.clone()))?
        .iter()
        .map(|v| as_u32_id(v).map(UserId))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("'group' entries must be u32 user ids", id.clone()))?;
    let items = match value.get("items") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_array()
                .ok_or_else(|| bad("'items' must be an array", id.clone()))?
                .iter()
                .map(|v| as_u32_id(v).map(ItemId))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| bad("'items' entries must be u32 item ids", id.clone()))?,
        ),
    };
    let int_field = |name: &str| -> Result<Option<usize>, BadRequest> {
        match value.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(|u| Some(u as usize)).ok_or_else(|| {
                bad(
                    format!("'{name}' must be a non-negative integer"),
                    id.clone(),
                )
            }),
        }
    };
    let k = int_field("k")?;
    let period = int_field("period")?;
    let mode = match value.get("mode") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => match s.as_str() {
            "none" => Some(AffinityMode::None),
            "static" => Some(AffinityMode::StaticOnly),
            "discrete" => Some(AffinityMode::Discrete),
            other => {
                return Err(bad(
                    format!("unknown mode '{other}' (expected none/static/discrete)"),
                    id,
                ))
            }
        },
        Some(_) => return Err(bad("'mode' must be a string", id)),
    };
    let consensus = match value.get("consensus") {
        None | Some(Json::Null) => None,
        Some(Json::Str(spec)) => Some(parse_consensus(spec).ok_or_else(|| {
            bad(
                format!("unknown consensus '{spec}' (expected ap/mo/pd:<w1>/vd:<w1>)"),
                id.clone(),
            )
        })?),
        Some(_) => return Err(bad("'consensus' must be a string", id)),
    };
    let deadline_ms = u64_field(value, "deadline_ms", &id)?;
    let trace = u64_field(value, "trace", &id)?;
    Ok(QueryRequest {
        group,
        items,
        k,
        period,
        mode,
        consensus,
        deadline_ms,
        trace,
        id,
    })
}

/// Parse a consensus spec: `ap`, `mo`, `pd:<w1>`, `vd:<w1>`.
pub fn parse_consensus(spec: &str) -> Option<ConsensusFunction> {
    match spec {
        "ap" => Some(ConsensusFunction::average_preference()),
        "mo" => Some(ConsensusFunction::least_misery()),
        _ => {
            let (kind, w1) = spec.split_once(':')?;
            let w1: f64 = w1.parse().ok()?;
            if !(0.0..=1.0).contains(&w1) {
                return None;
            }
            match kind {
                "pd" => Some(ConsensusFunction::pairwise_disagreement(w1)),
                "vd" => Some(ConsensusFunction::variance_disagreement(w1)),
                _ => None,
            }
        }
    }
}

fn parse_ingest(value: &Json, id: Option<Json>) -> Result<IngestRequest, BadRequest> {
    let mut ratings = Vec::new();
    if let Some(v) = value.get("ratings") {
        let arr = v
            .as_array()
            .ok_or_else(|| bad("'ratings' must be an array", id.clone()))?;
        for entry in arr {
            let tuple = entry
                .as_array()
                .filter(|t| t.len() == 4)
                .ok_or_else(|| bad("each rating must be [user, item, value, ts]", id.clone()))?;
            let user = as_u32_id(&tuple[0]);
            let item = as_u32_id(&tuple[1]);
            let value_f = tuple[2].as_f64();
            let ts = tuple[3].as_f64().filter(|t| t.fract() == 0.0);
            match (user, item, value_f, ts) {
                (Some(u), Some(i), Some(v), Some(t)) => ratings.push(Rating {
                    user: UserId(u),
                    item: ItemId(i),
                    value: v as f32,
                    ts: t as i64,
                }),
                _ => return Err(bad("each rating must be [user, item, value, ts]", id)),
            }
        }
    }
    let mut retractions = Vec::new();
    if let Some(v) = value.get("retract") {
        let arr = v
            .as_array()
            .ok_or_else(|| bad("'retract' must be an array", id.clone()))?;
        for entry in arr {
            let tuple = entry.as_array().filter(|t| t.len() == 2);
            let pair = tuple.and_then(|t| Some((as_u32_id(&t[0])?, as_u32_id(&t[1])?)));
            match pair {
                Some((u, i)) => retractions.push((UserId(u), ItemId(i))),
                None => return Err(bad("each retraction must be [user, item]", id)),
            }
        }
    }
    if ratings.is_empty() && retractions.is_empty() {
        return Err(bad("ingest needs 'ratings' and/or 'retract'", id));
    }
    let batch_key = u64_field(value, "batch", &id)?;
    let deadline_ms = u64_field(value, "deadline_ms", &id)?;
    let trace = u64_field(value, "trace", &id)?;
    Ok(IngestRequest {
        ratings,
        retractions,
        batch_key,
        deadline_ms,
        trace,
        id,
    })
}

/// Start a response object: `ok`, `verb`, echoed `id` and `trace`.
fn response_head(
    ok: bool,
    verb: &str,
    id: &Option<Json>,
    trace: Option<u64>,
) -> Vec<(String, Json)> {
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(ok)),
        ("verb".to_string(), Json::str(verb)),
    ];
    if let Some(id) = id {
        pairs.push(("id".to_string(), id.clone()));
    }
    if let Some(trace) = trace {
        pairs.push(("trace".to_string(), Json::num(trace as f64)));
    }
    pairs
}

/// A typed error response line. `trace` is echoed when the request
/// got far enough to have one (so even a shed or expired request can
/// be correlated).
pub fn error_response(
    verb: &str,
    code: &str,
    detail: &str,
    id: &Option<Json>,
    trace: Option<u64>,
) -> String {
    let mut pairs = response_head(false, verb, id, trace);
    pairs.push(("code".to_string(), Json::str(code)));
    pairs.push(("error".to_string(), Json::str(detail)));
    Json::Obj(pairs).to_line()
}

/// The result payload shared by `query`/`subscribe` responses and push
/// frames: epoch, items with exact score envelopes, access statistics,
/// sweeps, stop reason.
fn result_pairs(result: &TopKResult, epoch: u64) -> Vec<(String, Json)> {
    let items: Vec<Json> = result
        .items
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("item", Json::num(t.item.0)),
                ("lb", Json::Num(t.lb)),
                ("ub", Json::Num(t.ub)),
            ])
        })
        .collect();
    let stop = match result.stop_reason {
        StopReason::Buffer => "buffer",
        StopReason::Threshold => "threshold",
        StopReason::Exhausted => "exhausted",
    };
    vec![
        ("epoch".to_string(), Json::num(epoch as f64)),
        ("items".to_string(), Json::Arr(items)),
        ("sa".to_string(), Json::num(result.stats.sa as f64)),
        ("ra".to_string(), Json::num(result.stats.ra as f64)),
        (
            "total_entries".to_string(),
            Json::num(result.stats.total_entries as f64),
        ),
        ("sweeps".to_string(), Json::num(result.sweeps as f64)),
        ("stop".to_string(), Json::str(stop)),
    ]
}

/// A successful `query` response line. `degraded` is `Some(age_ms)`
/// when the engine's WAL is stalled and the answer comes from the last
/// healthy epoch: the response gains `degraded: true` and
/// `staleness_ms` so the client can tell (the fields are absent on a
/// healthy serve, keeping the common-case payload unchanged).
pub fn query_response(
    result: &TopKResult,
    epoch: u64,
    cache: &str,
    degraded: Option<u64>,
    id: &Option<Json>,
    trace: Option<u64>,
) -> String {
    let mut pairs = response_head(true, "query", id, trace);
    pairs.push(("cache".to_string(), Json::str(cache)));
    if let Some(staleness_ms) = degraded {
        pairs.push(("degraded".to_string(), Json::Bool(true)));
        pairs.push(("staleness_ms".to_string(), Json::num(staleness_ms as f64)));
    }
    pairs.extend(result_pairs(result, epoch));
    Json::Obj(pairs).to_line()
}

/// A successful `subscribe` response line: the assigned `sub` id plus
/// the baseline result.
pub fn subscribe_response(
    sub: u64,
    result: &TopKResult,
    epoch: u64,
    cache: &str,
    id: &Option<Json>,
    trace: Option<u64>,
) -> String {
    let mut pairs = response_head(true, "subscribe", id, trace);
    pairs.push(("sub".to_string(), Json::num(sub as f64)));
    pairs.push(("cache".to_string(), Json::str(cache)));
    pairs.extend(result_pairs(result, epoch));
    Json::Obj(pairs).to_line()
}

/// A successful `unsubscribe` response line (`removed` says whether the
/// id named a live subscription owned by this connection).
pub fn unsubscribe_response(sub: u64, removed: bool, id: &Option<Json>) -> String {
    let mut pairs = response_head(true, "unsubscribe", id, None);
    pairs.push(("sub".to_string(), Json::num(sub as f64)));
    pairs.push(("removed".to_string(), Json::Bool(removed)));
    Json::Obj(pairs).to_line()
}

/// A server-initiated push frame for subscription `sub`. The `push` key
/// leads the object (the wire-level discriminator — see the module
/// docs); the subscription's original `id` and `trace` are echoed when
/// present, so pushes correlate with the subscribe that started them.
pub fn push_frame(
    sub: u64,
    result: &TopKResult,
    epoch: u64,
    id: &Option<Json>,
    trace: Option<u64>,
) -> String {
    let mut pairs = vec![
        ("push".to_string(), Json::str("delta")),
        ("sub".to_string(), Json::num(sub as f64)),
    ];
    if let Some(id) = id {
        pairs.push(("id".to_string(), id.clone()));
    }
    if let Some(trace) = trace {
        pairs.push(("trace".to_string(), Json::num(trace as f64)));
    }
    pairs.extend(result_pairs(result, epoch));
    Json::Obj(pairs).to_line()
}

/// Largest trace id representable on the wire: the JSON layer carries
/// numbers as `f64`, so ids are 53-bit (server-assigned ids are masked
/// to this; client-supplied ones beyond it fail parsing).
pub const MAX_WIRE_TRACE: u64 = (1 << 53) - 1;

/// One flight-recorder record as a JSON object: identity, outcome,
/// cost attribution (total + per-phase µs, zero phases omitted) and
/// the SA/RA access counts.
pub fn span_json(r: &SpanRecord) -> Json {
    let mut pairs = vec![
        ("trace".to_string(), Json::num(r.trace as f64)),
        ("span".to_string(), Json::num(r.span as f64)),
        ("kind".to_string(), Json::str(r.kind.label())),
        ("ok".to_string(), Json::Bool(r.ok)),
        ("epoch".to_string(), Json::num(r.epoch as f64)),
        ("unix_ms".to_string(), Json::num(r.unix_ms as f64)),
        (
            "total_us".to_string(),
            Json::num((r.total_ns / 1_000) as f64),
        ),
        ("sa".to_string(), Json::num(r.sa as f64)),
        ("ra".to_string(), Json::num(r.ra as f64)),
    ];
    if r.cache != greca_core::CacheNote::None {
        pairs.push(("cache".to_string(), Json::str(r.cache.label())));
    }
    let phases: Vec<(String, Json)> = Phase::ALL
        .iter()
        .filter(|&&p| r.phase(p) > 0)
        .map(|&p| {
            (
                format!("{}_us", p.label()),
                Json::num((r.phase(p) as f64) / 1_000.0),
            )
        })
        .collect();
    pairs.push(("phases".to_string(), Json::Obj(phases)));
    Json::Obj(pairs)
}

/// A successful `trace` response line: the filtered records (oldest →
/// newest) plus the source (`recorder` or `slow_log`).
pub fn trace_response(records: &[SpanRecord], slow: bool, id: &Option<Json>) -> String {
    let mut pairs = response_head(true, "trace", id, None);
    pairs.push((
        "source".to_string(),
        Json::str(if slow { "slow_log" } else { "recorder" }),
    ));
    pairs.push(("count".to_string(), Json::num(records.len() as f64)));
    pairs.push((
        "spans".to_string(),
        Json::Arr(records.iter().map(span_json).collect()),
    ));
    Json::Obj(pairs).to_line()
}

/// A successful `metrics` response line: the Prometheus text
/// exposition riding inside the line protocol as a JSON-escaped
/// `body` with its `content_type`.
pub fn metrics_response(body: &str, id: &Option<Json>) -> String {
    let mut pairs = response_head(true, "metrics", id, None);
    pairs.push((
        "content_type".to_string(),
        Json::str("text/plain; version=0.0.4"),
    ));
    pairs.push(("body".to_string(), Json::str(body)));
    Json::Obj(pairs).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn parses_minimal_and_full_query() {
        let v = parse(r#"{"verb":"query","group":[3,1,2]}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Query(q) => {
                assert_eq!(q.group, vec![UserId(3), UserId(1), UserId(2)]);
                assert_eq!(
                    (q.items, q.k, q.period, q.mode, q.consensus),
                    (None, None, None, None, None)
                );
            }
            other => panic!("{other:?}"),
        }
        let v = parse(
            r#"{"verb":"query","group":[1],"items":[5,6],"k":3,"period":2,"mode":"static","consensus":"pd:0.8","id":"abc"}"#,
        )
        .unwrap();
        match parse_request(&v).unwrap() {
            Request::Query(q) => {
                assert_eq!(q.items, Some(vec![ItemId(5), ItemId(6)]));
                assert_eq!((q.k, q.period), (Some(3), Some(2)));
                assert_eq!(q.mode, Some(AffinityMode::StaticOnly));
                assert_eq!(
                    q.consensus,
                    Some(ConsensusFunction::pairwise_disagreement(0.8))
                );
                assert_eq!(q.id, Some(Json::str("abc")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ingest_with_retractions() {
        let v =
            parse(r#"{"verb":"ingest","ratings":[[3,120,4.5,1000]],"retract":[[3,7]]}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Ingest(i) => {
                assert_eq!(i.ratings.len(), 1);
                assert_eq!(i.ratings[0].user, UserId(3));
                assert_eq!(i.ratings[0].value, 4.5);
                assert_eq!(i.ratings[0].ts, 1000);
                assert_eq!(i.retractions, vec![(UserId(3), ItemId(7))]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests_with_detail() {
        for (line, needle) in [
            (r#"{"group":[1]}"#, "verb"),
            (r#"{"verb":"frobnicate"}"#, "unknown verb"),
            (r#"{"verb":"query"}"#, "group"),
            (r#"{"verb":"query","group":[-1]}"#, "u32"),
            (r#"{"verb":"query","group":[4294967297]}"#, "u32"),
            (
                r#"{"verb":"query","group":[1],"items":[4294967296]}"#,
                "u32",
            ),
            (r#"{"verb":"query","group":[1],"mode":5}"#, "string"),
            (r#"{"verb":"query","group":[1],"consensus":7}"#, "string"),
            (
                r#"{"verb":"ingest","ratings":[[4294967296,1,3.0,0]]}"#,
                "rating",
            ),
            (
                r#"{"verb":"ingest","retract":[[1,4294967296]]}"#,
                "retraction",
            ),
            (r#"{"verb":"query","group":[1],"mode":"cubic"}"#, "mode"),
            (
                r#"{"verb":"query","group":[1],"consensus":"pd:7"}"#,
                "consensus",
            ),
            (r#"{"verb":"ingest"}"#, "ingest needs"),
            (r#"{"verb":"ingest","ratings":[[1,2]]}"#, "rating"),
        ] {
            let v = parse(line).unwrap();
            let err = parse_request(&v).unwrap_err();
            assert!(
                err.detail.contains(needle),
                "{line} → {} (wanted '{needle}')",
                err.detail
            );
        }
    }

    #[test]
    fn parses_deadline_and_batch_key() {
        let v = parse(r#"{"verb":"query","group":[1],"deadline_ms":250}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Query(q) => assert_eq!(q.deadline_ms, Some(250)),
            other => panic!("{other:?}"),
        }
        let v = parse(r#"{"verb":"ingest","ratings":[[1,2,3.0,0]],"batch":77,"deadline_ms":100}"#)
            .unwrap();
        match parse_request(&v).unwrap() {
            Request::Ingest(i) => {
                assert_eq!(i.batch_key, Some(77));
                assert_eq!(i.deadline_ms, Some(100));
            }
            other => panic!("{other:?}"),
        }
        for line in [
            r#"{"verb":"query","group":[1],"deadline_ms":"soon"}"#,
            r#"{"verb":"ingest","ratings":[[1,2,3.0,0]],"batch":-1}"#,
        ] {
            let v = parse(line).unwrap();
            assert!(parse_request(&v).is_err(), "{line}");
        }
    }

    #[test]
    fn degraded_queries_carry_staleness_and_healthy_ones_do_not() {
        use greca_core::{AccessStats, StopReason, TopKResult};
        let result = TopKResult {
            items: Vec::new(),
            stats: AccessStats {
                sa: 0,
                ra: 0,
                total_entries: 0,
            },
            sweeps: 0,
            checks: 0,
            check_items: 0,
            stop_reason: StopReason::Exhausted,
        };
        let healthy = parse(&query_response(&result, 3, "miss", None, &None, None)).unwrap();
        assert!(healthy.get("degraded").is_none());
        assert!(healthy.get("staleness_ms").is_none());
        let degraded = parse(&query_response(
            &result,
            3,
            "hit",
            Some(1234),
            &None,
            Some(99),
        ))
        .unwrap();
        assert_eq!(degraded.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            degraded.get("staleness_ms").and_then(Json::as_u64),
            Some(1234)
        );
        assert_eq!(degraded.get("epoch").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn consensus_specs_cover_the_paper_set() {
        assert_eq!(
            parse_consensus("ap"),
            Some(ConsensusFunction::average_preference())
        );
        assert_eq!(
            parse_consensus("mo"),
            Some(ConsensusFunction::least_misery())
        );
        assert_eq!(
            parse_consensus("vd:0.5"),
            Some(ConsensusFunction::variance_disagreement(0.5))
        );
        assert_eq!(parse_consensus("pd"), None);
        assert_eq!(parse_consensus("pd:1.5"), None);
        assert_eq!(parse_consensus("xx:0.5"), None);
    }

    #[test]
    fn parses_subscribe_and_unsubscribe() {
        let v = parse(r#"{"verb":"subscribe","group":[2,1],"k":3,"id":"s1"}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Subscribe(q) => {
                assert_eq!(q.group, vec![UserId(2), UserId(1)]);
                assert_eq!(q.k, Some(3));
                assert_eq!(q.id, Some(Json::str("s1")));
            }
            other => panic!("{other:?}"),
        }
        let v = parse(r#"{"verb":"unsubscribe","sub":7}"#).unwrap();
        assert_eq!(
            parse_request(&v).unwrap(),
            Request::Unsubscribe { sub: 7, id: None }
        );
        let v = parse(r#"{"verb":"unsubscribe"}"#).unwrap();
        assert!(parse_request(&v).unwrap_err().detail.contains("sub"));
    }

    #[test]
    fn push_frames_lead_with_the_push_key() {
        use greca_core::{AccessStats, StopReason, TopKResult};
        let result = TopKResult {
            items: Vec::new(),
            stats: AccessStats {
                sa: 1,
                ra: 2,
                total_entries: 3,
            },
            sweeps: 4,
            checks: 5,
            check_items: 1,
            stop_reason: StopReason::Exhausted,
        };
        let frame = push_frame(9, &result, 12, &Some(Json::str("tag")), Some(41));
        assert!(frame.starts_with(r#"{"push":"delta""#), "{frame}");
        let v = parse(&frame).unwrap();
        assert_eq!(v.get("sub").and_then(Json::as_u64), Some(9));
        assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("tag"));
        assert!(v.get("ok").is_none(), "push frames are not responses");
        // The kernel's check counters stay off the wire.
        assert!(v.get("checks").is_none() && v.get("check_items").is_none());
        let sub = subscribe_response(9, &result, 12, "miss", &None, None);
        let v = parse(&sub).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("sub").and_then(Json::as_u64), Some(9));
    }

    #[test]
    fn error_responses_echo_verb_and_id() {
        let line = error_response(
            "query",
            "overloaded",
            "queue full",
            &Some(Json::num(9u32)),
            Some(7),
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
        assert_eq!(v.get("trace").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn parses_client_trace_ids_and_echoes_them_in_responses() {
        use greca_core::{AccessStats, StopReason, TopKResult};
        let v = parse(r#"{"verb":"query","group":[1],"trace":12345}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Query(q) => assert_eq!(q.trace, Some(12345)),
            other => panic!("{other:?}"),
        }
        let v = parse(r#"{"verb":"ingest","ratings":[[1,2,3.0,0]],"trace":88}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Ingest(i) => assert_eq!(i.trace, Some(88)),
            other => panic!("{other:?}"),
        }
        // A non-integer trace id is a typed bad_request, not silence.
        let v = parse(r#"{"verb":"query","group":[1],"trace":"abc"}"#).unwrap();
        assert!(parse_request(&v).unwrap_err().detail.contains("trace"));
        let result = TopKResult {
            items: Vec::new(),
            stats: AccessStats {
                sa: 0,
                ra: 0,
                total_entries: 0,
            },
            sweeps: 0,
            checks: 0,
            check_items: 0,
            stop_reason: StopReason::Exhausted,
        };
        let line = query_response(&result, 1, "miss", None, &None, Some(12345));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("trace").and_then(Json::as_u64), Some(12345));
        // The largest wire-representable id round-trips exactly.
        let line = query_response(&result, 1, "miss", None, &None, Some(MAX_WIRE_TRACE));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("trace").and_then(Json::as_u64), Some(MAX_WIRE_TRACE));
    }

    #[test]
    fn parses_trace_and_metrics_verbs() {
        let v = parse(r#"{"verb":"trace"}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Trace(t) => {
                assert_eq!(
                    (t.trace, t.kind, t.min_us, t.slow, t.limit),
                    (None, None, None, false, None)
                );
            }
            other => panic!("{other:?}"),
        }
        let v = parse(
            r#"{"verb":"trace","trace":42,"kind":"query","min_us":500,"slow":true,"limit":10,"id":"t1"}"#,
        )
        .unwrap();
        match parse_request(&v).unwrap() {
            Request::Trace(t) => {
                assert_eq!(t.trace, Some(42));
                assert_eq!(t.kind, Some(SpanKind::Query));
                assert_eq!(t.min_us, Some(500));
                assert!(t.slow);
                assert_eq!(t.limit, Some(10));
                assert_eq!(t.id, Some(Json::str("t1")));
            }
            other => panic!("{other:?}"),
        }
        for line in [
            r#"{"verb":"trace","kind":"frobnicate"}"#,
            r#"{"verb":"trace","slow":1}"#,
        ] {
            let v = parse(line).unwrap();
            assert!(parse_request(&v).is_err(), "{line}");
        }
        let v = parse(r#"{"verb":"metrics","id":7}"#).unwrap();
        assert_eq!(
            parse_request(&v).unwrap(),
            Request::Metrics {
                id: Some(Json::num(7u32))
            }
        );
    }

    #[test]
    fn span_records_serialize_with_phase_attribution() {
        let mut record = SpanRecord {
            trace: 42,
            span: 7,
            kind: SpanKind::Query,
            ok: true,
            cache: greca_core::CacheNote::Miss,
            epoch: 3,
            sa: 100,
            ra: 20,
            total_ns: 5_000_000,
            unix_ms: 1_700_000_000_000,
            phase_ns: [0; greca_core::NUM_PHASES],
        };
        record.phase_ns[Phase::Kernel as usize] = 3_000_000;
        record.phase_ns[Phase::Serialize as usize] = 250_000;
        let v = span_json(&record);
        assert_eq!(v.get("trace").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("query"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(v.get("sa").and_then(Json::as_u64), Some(100));
        let phases = v.get("phases").expect("phases object");
        assert_eq!(phases.get("kernel_us").and_then(Json::as_u64), Some(3000));
        assert_eq!(phases.get("serialize_us").and_then(Json::as_u64), Some(250));
        assert!(
            phases.get("admit_us").is_none(),
            "zero phases are omitted: {phases:?}"
        );
        let line = trace_response(&[record], false, &Some(Json::str("t")));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("verb").and_then(Json::as_str), Some("trace"));
        assert_eq!(v.get("source").and_then(Json::as_str), Some("recorder"));
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1));
        let line = trace_response(&[], true, &None);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("source").and_then(Json::as_str), Some("slow_log"));
    }

    #[test]
    fn metrics_responses_carry_the_exposition_body() {
        let line = metrics_response("greca_requests_total 3\n", &Some(Json::str("m1")));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("verb").and_then(Json::as_str), Some("metrics"));
        assert_eq!(
            v.get("content_type").and_then(Json::as_str),
            Some("text/plain; version=0.0.4")
        );
        assert_eq!(
            v.get("body").and_then(Json::as_str),
            Some("greca_requests_total 3\n")
        );
        assert_eq!(v.get("id").and_then(Json::as_str), Some("m1"));
    }
}
