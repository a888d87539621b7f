//! Newline-delimited JSON front-end over TCP — the normative wire
//! protocol specification, versions 1 and 2.
//!
//! One JSON object per line in both directions. A request line is either
//! a **query** (has a `"query"` field) or a **command** (has a `"cmd"`
//! field). Every response is a single object starting with `"ok":
//! true|false`; on `"ok":false` an `"error"` string says why and the
//! connection stays open — including for oversized lines: a line over
//! 4 MiB is answered with the structured `request_too_large` error, the
//! rest of the line is drained and discarded, and the connection keeps
//! serving (the server never buffers more than the cap per connection).
//! A line that is not valid UTF-8 gets an error response the same way.
//!
//! ## Error contract
//!
//! Most `"ok":false` responses carry free-text `"error"` strings
//! (validation failures, bad JSON — match on `"ok"`, not the text).
//! Four conditions are **structured** — their `"error"` value is a fixed
//! token clients may dispatch on:
//!
//! - `{"ok":false,"error":"overloaded","retry_after_ms":N}` — the
//!   admission gate shed the request (queue at `max_queue_depth`); `N`
//!   estimates when capacity frees up. Back off and retry.
//! - `{"ok":false,"error":"deadline_exceeded"}` — the request's
//!   `deadline_ms` expired before a worker started its scan; the work
//!   was dropped, not computed.
//! - `{"ok":false,"error":"request_too_large","limit_bytes":N}` — the
//!   request line exceeded `N` bytes; the line was discarded, the
//!   connection stays open.
//! - `{"ok":false,"error":"internal","detail":"..."}` — the scan
//!   panicked (caught; the worker survived) or the engine lost the
//!   response. The request may be retried; answers are never partial.
//!
//! Structured errors follow the envelope rules of the request's version
//! like any other response (v2 lines get `"v"`/`"id"`/`"epoch"`).
//!
//! ## Connections & response ordering
//!
//! One readiness-polled thread (epoll via the vendored `polling` shim,
//! see `crate::reactor`) owns every connection: nonblocking sockets,
//! per-connection buffers, newline framing across partial reads,
//! write-interest re-arming on partial writes. Idle connections cost a
//! descriptor, not a thread, and a pipelined connection can have many
//! queries in flight at once. Where the shim has no epoll (its non-Linux
//! stub) [`Server::bind`] fails; there is no other front end.
//!
//! **Ordering contract (normative):**
//!
//! - A response to a request that carried an `"id"` (wire v2) is matched
//!   to its request *by the echoed `"id"`, never by arrival order*. A
//!   pipelined connection may send many such requests before reading;
//!   the server may answer them **out of order** — fast queries overtake
//!   a slow head-of-line query. Every admitted request gets exactly one
//!   response.
//! - Requests *without* an `"id"` — every v1 line, and v2 lines that
//!   omit it — are answered **strictly in submission order** relative to
//!   each other, forever. Clients that never send ids keep matching
//!   responses by counting lines, exactly as before v2 existed.
//!
//! ## Versioning (protocol v2)
//!
//! - A request line may carry `"v": 1|2` and (v2 only) an `"id"` — any
//!   JSON string or number. No `"v"` means v1, unless an `"id"` is
//!   present (which implies v2). Any other `"v"` is an error.
//! - **v1 responses are bit-compatible with pre-v2 servers**: no
//!   envelope fields are ever added to them.
//! - v2 responses echo `"v":2`, the request's `"id"` (when given), and
//!   `"epoch"` — the engine epoch the answer was computed under (for
//!   queries, the epoch the request was *admitted* under; for commands
//!   and errors, the epoch current when the line was handled).
//!
//! ## Queries (v1 and v2)
//!
//! `{"query": [[x, y], ...], "algo":
//! "exact|sizes|pss|pos|posd|spring|rls", "measure":
//! "dtw|frechet|t2vec", "k": 5, "index": true}` →
//! `{"ok":true,"cached":false,"batch":1,"latency_us":412,"results":[
//! {"trajectory_id":3,"start":4,"end":9,"distance":0.51,"similarity":0.66},...]}`
//!
//! Points are `[x, y]` or `[x, y, t]`. `measure` defaults to `"dtw"`,
//! `index` to `true`, and `k` to the engine's `default_k` knob (1 unless
//! reconfigured). `"spring"` is a DTW algorithm: with any other measure
//! the request is rejected as invalid. Answers are byte-identical to the
//! offline `TrajectoryDb::top_k` for the same request against the same
//! snapshot.
//!
//! `"batch"` is always 1: a worker answers one request at a time. The
//! field is kept so the body's shape does not change. A repeat found in
//! the result cache at admission is answered on the spot, in the same
//! poll turn that read it, without entering the queue.
//!
//! **Deadlines (v2 only):** a v2 query may add `"deadline_ms": N` (a
//! positive integer). If no worker has dequeued the request within `N`
//! milliseconds of admission, it is dropped and answered with the
//! structured `deadline_exceeded` error instead of being scanned
//! (checked at dequeue only). A deadline never
//! changes an answer — only whether the work runs — and does not affect
//! cache identity. Engines started with `--default-deadline-ms` apply
//! that budget to requests that carry none. A cache hit answered at
//! admission waits for nothing, so no deadline applies to it. On a v1
//! line the field is ignored, like `"trace"`: v1 semantics never change.
//!
//! **Stage tracing (v2 only):** a v2 query may add `"trace": true`; its
//! response then carries a `"trace"` object *appended after* the v1 body
//! fields — `{"admit_us":..,"queue_us":..,"batch_us":..,"scan_us":..,
//! "bound_us":..,"kernel_us":..,"merge_us":..,"serialize_us":..,
//! "scanned":..,"pruned_by_kim":..,"pruned_by_mbr":..,
//! "pruned_by_points":..,"searched":..,"abandoned":..,
//! "searched_cells":..,"cached":..,"batch_size":..,"parse_us":..}` (see
//! [`crate::trace::TraceReport`]; `"abandoned"` counts searched
//! candidates the free-start DP settled below the k-th; the rest entered
//! the heap with their range pending, and at most `k` per scan recovered
//! it). `"parse_us"`, appended last, is the server's JSON parse and
//! request decode of the line; `"serialize_us"` is the time to write the
//! response body. `"batch_us"` is always 0 and `"batch_size"` always 1
//! (no batching; both are kept for shape). A hit answered at admission
//! also reports `"queue_us":0`: it goes from parse through admission
//! (which includes its cache lookup) to serialize on one thread. Trace
//! fields are only ever appended. On a v1 line the flag is ignored: v1
//! responses never grow fields. Tracing turns on the per-candidate
//! bound/kernel clocks for the traced query's own scan only; untraced
//! traffic keeps the near-zero disabled path.
//!
//! ## Commands
//!
//! v1 commands (unchanged):
//!
//! - `{"cmd":"stats"}` → `{"ok":true,"stats":{...}}`. The first thirteen
//!   stats fields (through `cache_evicted_on_swap`) are frozen; later
//!   fields are additive: every other [`crate::stats::Count`] under its
//!   key (`scan_ns`, the scan time behind `ns_per_cell`, among them),
//!   then histogram-backed `p999_us`, the queue/inflight/connection
//!   gauges, `ns_per_cell`, the audit means and `latency_buckets` — see
//!   [`crate::stats::StatsSnapshot::to_json`].
//! - `{"cmd":"ping"}` → `{"ok":true,"pong":true}`
//! - `{"cmd":"shutdown"}` → `{"ok":true,"bye":true}`, then the server
//!   stops accepting, drains the engine, and exits.
//!
//! The typed admin namespace (introduced with v2, accepted on any
//! version — the response envelope follows the request's version):
//!
//! - `{"cmd":"info"}` → `{"ok":true,"epoch":N,"trajectories":T,
//!   "points":P,"workers":W,"cache_capacity":C,"cache_len":E,"default_k":K,
//!   "rls_loaded":B,"t2vec_loaded":B,"swaps":N,"build":"x.y.z",
//!   "protocol":[1,2]}` — what is serving right now.
//! - `{"cmd":"reload","corpus":"/path/to.csv"}` **or**
//!   `{"cmd":"reload","corpus_bin":"/path/to.ssb"}` (optional:
//!   `"policy":"/path"`, `"t2vec":"/path"`, `"skip":N`,
//!   `"suffix":false`) → builds a fresh snapshot server-side and
//!   atomically swaps it in:
//!   `{"ok":true,"reloaded":true,"previous_epoch":N,"epoch":N+1,
//!   "cache_evicted":E,"trajectories":T,"points":P}`.
//!   `corpus_bin` names a *packed* binary corpus (`simsub corpus pack`):
//!   its payload is the columnar arena's slabs, so the reload is one
//!   streaming pass + validation instead of a CSV re-parse, and answers
//!   are byte-identical to serving the CSV it was packed from. A file
//!   in an older packed format fails with an error that names its
//!   version and says to re-pack it. Exactly one of
//!   `corpus`/`corpus_bin` must be present. In-flight queries
//!   finish against the old snapshot; queries admitted after the swap
//!   see the new one. Nothing restarts, no connection drops.
//! - `{"cmd":"configure"}` with any of `"cache_capacity":N`,
//!   `"default_k":N`, `"slow_query_us":N` (0 disables the slow-query
//!   log),
//!   `"audit_sample":F` (fraction in `[0,1]`, 0 disables auditing),
//!   `"max_queue_depth":N` (admission-gate bound; 0 = unbounded),
//!   `"default_deadline_ms":N` (deadline for requests that carry none;
//!   0 = none), `"faults":"spec"` (fault-injection spec, see
//!   [`crate::fault`]; `""` disarms) → applies the knobs live and
//!   answers `{"ok":true,"configured":true,...}` echoing the full
//!   effective configuration. Other keys are ignored; a `configure`
//!   that names none of these knobs is an error.
//! - `{"cmd":"metrics"}` → `{"ok":true,"metrics":"<text>"}` where
//!   `<text>` is the full Prometheus-style exposition
//!   ([`QueryEngine::metrics_exposition`]): `# HELP`/`# TYPE` headers,
//!   `simsub_*` counter/gauge series, and cumulative `_bucket{le=...}`
//!   histograms for request latency. `simsub admin
//!   metrics` prints it verbatim for scraping.
//!
//! Unknown `"cmd"` values are errors, so clients can feature-probe.

use crate::engine::{
    ConfigUpdate, ConfigView, CorpusSnapshot, QueryEngine, ServiceError, SubmitOptions,
};
use crate::json::{obj, write_num, Json, ProtocolVersion};
use crate::query::{QueryRequest, QueryResponse};
use crate::stats::Count;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Arc;
use simsub_core::MdpConfig;
use std::net::TcpListener;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server multiplexes connections: one readiness-polled thread
/// owns every connection (see the module docs). A single variant, kept
/// only because `benchmark/src/workloads.rs` names `IoModel::Reactor`
/// and the perf ledger's sources stay fixed while the library changes
/// (parent and change must run identical benchmark code). Delete it with
/// that call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoModel {
    /// Epoll via the vendored `polling` shim.
    Reactor,
}

/// A running TCP server wrapping a [`QueryEngine`].
pub struct Server {
    engine: Arc<QueryEngine>,
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    serve_thread: Option<JoinHandle<()>>,
    /// Kicks the reactor out of its poll wait when `stop` flips, so
    /// [`Server::stop`] takes effect immediately instead of at the next
    /// poll timeout.
    waker: Arc<polling::Waker>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`; port 0 picks a free port)
    /// and starts the reactor serving it. Fails, rather than serving
    /// some other way, where the `polling` shim has no epoll (its
    /// non-Linux stub).
    pub fn bind(engine: Arc<QueryEngine>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let parts = crate::reactor::ReactorParts::new()?;
        let waker = Arc::clone(&parts.waker);
        let stop = Arc::new(AtomicBool::new(false));
        let serve_thread = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("simsub-reactor".into())
                .spawn(move || crate::reactor::run(parts, listener, &engine, &stop))
                .expect("spawning reactor thread")
        };
        Ok(Server {
            engine,
            local_addr,
            stop,
            serve_thread: Some(serve_thread),
            waker,
        })
    }

    /// [`Server::bind`]. Kept only because `benchmark/src/workloads.rs`
    /// calls it, for the same reason as [`IoModel`]; delete the two
    /// together.
    pub fn bind_with(engine: Arc<QueryEngine>, addr: &str, _: IoModel) -> std::io::Result<Server> {
        Server::bind(engine, addr)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Requests a stop (same effect as the wire `shutdown` command).
    pub fn stop(&self) {
        // ordering: SeqCst — cold stop flag; strongest order keeps shutdown reasoning simple.
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
    }

    /// Blocks until the server stops: joins the serve loop (which drains
    /// every connection), then drains and shuts down the engine. A
    /// panicked serve thread is reported, not propagated — the engine
    /// drain still runs.
    pub fn wait(mut self) {
        if let Some(handle) = self.serve_thread.take() {
            if handle.join().is_err() {
                eprintln!("simsub: serve thread panicked");
            }
        }
        self.engine.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.serve_thread.take() {
            if handle.join().is_err() {
                eprintln!("simsub: serve thread panicked");
            }
        }
    }
}

/// Upper bound on one request line; a client streaming data without a
/// newline must not be able to grow the buffer without limit.
pub(crate) const MAX_LINE_BYTES: usize = 4 << 20;

/// The structured `request_too_large` error body (see the module docs):
/// sent in place of the oversized line's response; the connection stays
/// open.
pub(crate) fn request_too_large_body() -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("request_too_large".into())),
        ("limit_bytes", Json::Num(MAX_LINE_BYTES as f64)),
    ])
}

pub(crate) fn error_response(msg: &str) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.into())),
    ])
}

/// The structured `internal` error body (see the module docs).
fn internal_error_response(detail: &str) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("internal".into())),
        ("detail", Json::Str(detail.into())),
    ])
}

/// Maps an engine error onto the wire error contract: the structured
/// tokens for overload/deadline/internal conditions, legacy free-text
/// for validation and shutdown.
pub(crate) fn service_error_response(e: &ServiceError) -> Json {
    match e {
        ServiceError::Overloaded { retry_after_ms } => obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str("overloaded".into())),
            ("retry_after_ms", Json::Num(*retry_after_ms as f64)),
        ]),
        ServiceError::DeadlineExceeded => obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str("deadline_exceeded".into())),
        ]),
        ServiceError::Internal(detail) => internal_error_response(detail),
        ServiceError::Canceled => {
            internal_error_response("engine dropped the request (worker died or response lost)")
        }
        other => error_response(&other.to_string()),
    }
}

/// One request line, classified: its envelope (version + optional id)
/// plus what has to happen to produce the response body.
pub(crate) struct LineOutcome {
    pub(crate) version: ProtocolVersion,
    pub(crate) id: Option<Json>,
    pub(crate) job: LineJob,
}

/// The work a request line calls for. Classification runs on the
/// polling thread; the reactor then answers immediate jobs inline,
/// submits queries with a completion, and runs `reload` off the polling
/// thread.
pub(crate) enum LineJob {
    /// The body is ready now (commands, validation errors). The caller
    /// wraps it in the version envelope with the current engine epoch.
    Immediate(Json),
    /// `shutdown`: deliver the body, then set the stop flag.
    Shutdown(Json),
    /// `reload`, carrying the parsed command: heavy (file reads + index
    /// build), so the reactor must not run it on the polling thread.
    Reload(Json),
    /// A query to submit to the engine, with its trace flag, deadline
    /// and the time classification took.
    Query {
        request: QueryRequest,
        options: SubmitOptions,
    },
}

pub(crate) fn classify_line(line: &str, engine: &QueryEngine) -> LineOutcome {
    let started = Instant::now();
    // Unparseable lines have no trustworthy envelope: answer in v1
    // (whose envelope is the identity, preserving the legacy bytes).
    let v1_error = |body: Json| LineOutcome {
        version: ProtocolVersion::V1,
        id: None,
        job: LineJob::Immediate(body),
    };
    let parsed = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return v1_error(error_response(&format!("bad json: {e}"))),
    };
    let (version, id) = match ProtocolVersion::of_request(&parsed) {
        Ok(envelope) => envelope,
        Err(e) => return v1_error(error_response(&e)),
    };
    let job = if let Some(cmd) = parsed.get("cmd").and_then(Json::as_str) {
        if cmd == "shutdown" {
            LineJob::Shutdown(obj(vec![
                ("ok", Json::Bool(true)),
                ("bye", Json::Bool(true)),
            ]))
        } else if cmd == "reload" {
            LineJob::Reload(parsed)
        } else {
            LineJob::Immediate(
                handle_admin_command(engine, &parsed)
                    .unwrap_or_else(|| error_response(&format!("unknown cmd {cmd:?}"))),
            )
        }
    } else {
        // Tracing is v2-only: the trace object is an appended body field,
        // and v1 bodies never grow fields.
        let trace_requested = version == ProtocolVersion::V2
            && parsed.get("trace").and_then(Json::as_bool) == Some(true);
        // Deadlines are v2-only too: on a v1 line the field is ignored
        // (like "trace") so v1 semantics never change.
        let deadline = match parsed
            .get("deadline_ms")
            .filter(|_| version == ProtocolVersion::V2)
        {
            None => Ok(None),
            Some(v) => match v.as_usize().filter(|&ms| ms > 0) {
                Some(ms) => Ok(Some(Duration::from_millis(ms as u64))),
                None => Err("\"deadline_ms\" must be a positive integer (milliseconds)"),
            },
        };
        match (
            QueryRequest::from_json_with(&parsed, engine.default_k()),
            deadline,
        ) {
            (Err(e), _) => LineJob::Immediate(error_response(&e)),
            (Ok(_), Err(e)) => LineJob::Immediate(error_response(e)),
            (Ok(request), Ok(deadline)) => LineJob::Query {
                request,
                options: SubmitOptions {
                    trace: trace_requested,
                    deadline,
                    parse: started.elapsed(),
                },
            },
        }
    };
    LineOutcome { version, id, job }
}

/// Renders a finished query into its wire line. Queries echo the epoch
/// they were *admitted* under (which a concurrent reload may have already
/// left behind); errors echo `error_epoch` — the epoch current when the
/// line was handled.
pub(crate) fn render_query_outcome(
    outcome: Result<QueryResponse, ServiceError>,
    trace_requested: bool,
    version: ProtocolVersion,
    id: Option<&Json>,
    error_epoch: u64,
) -> String {
    match outcome {
        Ok(response) => query_line(response, trace_requested, version, id),
        Err(e) => version
            .envelope(service_error_response(&e), id, error_epoch)
            .dump(),
    }
}

/// The wire line (without its newline) of a successful query, written
/// straight into one `String`: the v1 body, then the `"trace"` object if
/// `trace_requested` and the response carries one, then the v2 envelope.
/// Byte for byte it is what [`QueryResponse::to_json`], the trace object
/// appended to it, [`ProtocolVersion::envelope`] and [`Json::dump`]
/// render together (`tests/wire_writer.rs` holds the two to each other).
/// The trace's `serialize_us` times the body write.
pub fn query_line(
    mut response: QueryResponse,
    trace_requested: bool,
    version: ProtocolVersion,
    id: Option<&Json>,
) -> String {
    let started = Instant::now();
    // A slow-query outlier also carries a trace (for the log); only echo
    // it when it was asked for.
    let trace = response.trace.take().filter(|_| trace_requested);
    let mut line = String::with_capacity(160 + 112 * response.results.len());
    line.push_str(if response.cached {
        "{\"ok\":true,\"cached\":true,\"batch\":"
    } else {
        "{\"ok\":true,\"cached\":false,\"batch\":"
    });
    write_num(response.batch_size as f64, &mut line);
    line.push_str(",\"latency_us\":");
    write_num(response.latency.as_micros() as f64, &mut line);
    line.push_str(",\"results\":[");
    for (i, hit) in response.results.iter().enumerate() {
        line.push_str(if i == 0 {
            "{\"trajectory_id\":"
        } else {
            ",{\"trajectory_id\":"
        });
        write_num(hit.trajectory_id as f64, &mut line);
        line.push_str(",\"start\":");
        write_num(hit.result.range.start as f64, &mut line);
        line.push_str(",\"end\":");
        write_num(hit.result.range.end as f64, &mut line);
        line.push_str(",\"distance\":");
        write_num(hit.result.distance, &mut line);
        line.push_str(",\"similarity\":");
        write_num(hit.result.similarity, &mut line);
        line.push('}');
    }
    line.push(']');
    if let Some(mut trace) = trace {
        trace.serialize_us = started.elapsed().as_micros() as u64;
        line.push_str(",\"trace\":");
        trace.write_json(&mut line);
    }
    if version == ProtocolVersion::V2 {
        // The query body never carries an `"epoch"` of its own, so the
        // envelope always appends the admitted one.
        line.push_str(",\"v\":2");
        if let Some(id) = id {
            line.push_str(",\"id\":");
            id.write(&mut line);
        }
        line.push_str(",\"epoch\":");
        write_num(response.epoch as f64, &mut line);
    }
    line.push('}');
    line
}

/// Handles one parsed admin/introspection command (`stats`, `ping`,
/// `info`, `reload`, `configure`), returning the response *body* (no
/// version envelope — the caller owns that). `None` means the command is
/// not part of this namespace (`shutdown` and queries are the server
/// loop's business).
pub fn handle_admin_command(engine: &QueryEngine, parsed: &Json) -> Option<Json> {
    let cmd = parsed.get("cmd").and_then(Json::as_str)?;
    match cmd {
        "stats" => Some(obj(vec![
            ("ok", Json::Bool(true)),
            ("stats", engine.stats().to_json()),
        ])),
        "ping" => Some(obj(vec![
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
        ])),
        "info" => Some(admin_info(engine)),
        "metrics" => Some(obj(vec![
            ("ok", Json::Bool(true)),
            ("metrics", Json::Str(engine.metrics_exposition())),
        ])),
        "reload" => Some(admin_reload(engine, parsed)),
        "configure" => Some(admin_configure(engine, parsed)),
        _ => None,
    }
}

/// `{"cmd":"info"}`: everything an operator needs to know about what is
/// serving right now — epoch, corpus size, loaded models, live knobs,
/// and the build.
fn admin_info(engine: &QueryEngine) -> Json {
    let current = engine.current();
    let snapshot = current.snapshot();
    let corpus = snapshot.corpus();
    let config = engine.config_view();
    let stats = engine.stats();
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("epoch", Json::Num(current.epoch() as f64)),
        ("trajectories", Json::Num(corpus.len() as f64)),
        ("points", Json::Num(corpus.total_points() as f64)),
        ("workers", Json::Num(config.workers as f64)),
    ];
    pairs.extend(config_echo(config));
    pairs.extend([
        ("rls_loaded", Json::Bool(snapshot.has_rls())),
        ("t2vec_loaded", Json::Bool(snapshot.has_t2vec())),
        ("swaps", Json::Num(stats.get(Count::Swaps) as f64)),
        ("build", Json::Str(env!("CARGO_PKG_VERSION").into())),
        ("protocol", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
    ]);
    obj(pairs)
}

/// The live knobs as the `info` and `configure` replies both echo them,
/// `cache_capacity` through `faults`, in wire order.
fn config_echo(view: ConfigView) -> [(&'static str, Json); 8] {
    [
        ("cache_capacity", Json::Num(view.cache_capacity as f64)),
        ("cache_len", Json::Num(view.cache_len as f64)),
        ("default_k", Json::Num(view.default_k as f64)),
        ("slow_query_us", Json::Num(view.slow_query_us as f64)),
        ("audit_sample", Json::Num(view.audit_sample)),
        ("max_queue_depth", Json::Num(view.max_queue_depth as f64)),
        (
            "default_deadline_ms",
            Json::Num(view.default_deadline_ms as f64),
        ),
        ("faults", Json::Str(view.faults)),
    ]
}

/// `{"cmd":"reload",...}`: builds a fresh [`CorpusSnapshot`] from
/// server-side files and hot-swaps it in. The reply reports the epoch
/// bump and how many stale cache entries died with the old snapshot.
pub(crate) fn admin_reload(engine: &QueryEngine, parsed: &Json) -> Json {
    match build_snapshot(parsed) {
        Ok(snapshot) => {
            let report = engine.swap_snapshot(snapshot);
            obj(vec![
                ("ok", Json::Bool(true)),
                ("reloaded", Json::Bool(true)),
                ("previous_epoch", Json::Num(report.previous_epoch as f64)),
                ("epoch", Json::Num(report.epoch as f64)),
                ("cache_evicted", Json::Num(report.cache_evicted as f64)),
                ("trajectories", Json::Num(report.trajectories as f64)),
                ("points", Json::Num(report.points as f64)),
            ])
        }
        Err(e) => error_response(&e),
    }
}

/// Decodes the snapshot a `reload` describes — a corpus (CSV via
/// `"corpus"` or packed binary via `"corpus_bin"`, exactly one),
/// optional RLS policy / t2vec model files — and
/// hands assembly to [`CorpusSnapshot::assemble_arena`], the same
/// builder `simsub serve` starts from.
fn build_snapshot(parsed: &Json) -> Result<CorpusSnapshot, String> {
    let corpus_path = parsed.get("corpus").map(|v| {
        v.as_str()
            .ok_or_else(|| "\"corpus\" must be a file path".to_string())
    });
    let bin_path = parsed.get("corpus_bin").map(|v| {
        v.as_str()
            .ok_or_else(|| "\"corpus_bin\" must be a file path".to_string())
    });
    let arena = match (corpus_path, bin_path) {
        (Some(_), Some(_)) => {
            return Err("reload takes either \"corpus\" or \"corpus_bin\", not both".into())
        }
        (None, None) => return Err("reload needs a \"corpus\" or \"corpus_bin\" file path".into()),
        (Some(csv), None) => {
            let csv = csv?;
            let trajectories = simsub_data::read_csv_file(Path::new(csv))
                .map_err(|e| format!("reading {csv}: {e}"))?;
            simsub_trajectory::CorpusArena::from_trajectories(&trajectories)
        }
        (None, Some(bin)) => {
            let bin = bin?;
            simsub_data::read_bin_file(Path::new(bin)).map_err(|e| format!("reading {bin}: {e}"))?
        }
    };
    let mdp = MdpConfig {
        skip_actions: match parsed.get("skip") {
            None => 0,
            Some(v) => v
                .as_usize()
                .ok_or("\"skip\" must be a non-negative integer")?,
        },
        use_suffix: match parsed.get("suffix") {
            None => true,
            Some(v) => v.as_bool().ok_or("\"suffix\" must be a boolean")?,
        },
    };
    let path_field = |key: &str| -> Result<Option<&str>, String> {
        match parsed.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| format!("\"{key}\" must be a file path")),
        }
    };
    let policy = path_field("policy")?;
    let t2vec = path_field("t2vec")?;
    CorpusSnapshot::assemble_arena(
        arena,
        policy.map(|p| (Path::new(p), mdp)),
        t2vec.map(Path::new),
    )
}

/// `{"cmd":"configure",...}`: applies the live-tunable knobs and echoes
/// the full effective configuration.
fn admin_configure(engine: &QueryEngine, parsed: &Json) -> Json {
    let field_usize = |key: &str| -> Result<Option<usize>, String> {
        match parsed.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_usize()
                .map(Some)
                .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
        }
    };
    let audit_sample = match parsed.get("audit_sample") {
        None => None,
        Some(v) => match v.as_f64() {
            Some(f) => Some(f),
            None => return error_response("\"audit_sample\" must be a number in [0, 1]"),
        },
    };
    let update = ConfigUpdate {
        cache_capacity: match field_usize("cache_capacity") {
            Ok(v) => v,
            Err(e) => return error_response(&e),
        },
        default_k: match field_usize("default_k") {
            Ok(v) => v,
            Err(e) => return error_response(&e),
        },
        slow_query_us: match field_usize("slow_query_us") {
            Ok(v) => v.map(|us| us as u64),
            Err(e) => return error_response(&e),
        },
        audit_sample,
        max_queue_depth: match field_usize("max_queue_depth") {
            Ok(v) => v,
            Err(e) => return error_response(&e),
        },
        default_deadline_ms: match field_usize("default_deadline_ms") {
            Ok(v) => v.map(|ms| ms as u64),
            Err(e) => return error_response(&e),
        },
        faults: match parsed.get("faults") {
            None => None,
            Some(v) => match v.as_str() {
                Some(spec) => Some(spec.to_string()),
                None => {
                    return error_response("\"faults\" must be a string fault spec (\"\" disarms)")
                }
            },
        },
    };
    if update == ConfigUpdate::default() {
        return error_response(
            "configure needs at least one of \"cache_capacity\", \"default_k\", \
             \"slow_query_us\", \"audit_sample\", \"max_queue_depth\", \
             \"default_deadline_ms\", \"faults\"",
        );
    }
    match engine.configure(update) {
        Ok(view) => {
            let workers = view.workers;
            let mut pairs = vec![("ok", Json::Bool(true)), ("configured", Json::Bool(true))];
            pairs.extend(config_echo(view));
            pairs.push(("workers", Json::Num(workers as f64)));
            obj(pairs)
        }
        Err(e) => error_response(&e.to_string()),
    }
}
