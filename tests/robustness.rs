//! Chaos harness for the serve path's bulkheads: panic-isolated scan
//! dispatch, worker supervision and respawn, bounded admission with
//! load-shedding, per-request deadlines, oversized/hostile wire input,
//! and panic-tolerant shutdown.
//!
//! The contract under test: **a fault degrades one request, never the
//! process**. Every connection gets a well-formed response or a
//! structured error, answers produced under fault injection are
//! byte-identical to fault-free answers, and after the chaos the stats
//! reconcile: `admitted == answered + shed + expired + internal`.
//!
//! Every engine in this file pins `EngineConfig::faults` explicitly
//! (`Some(spec)`, with `Some("")` meaning *forced disarmed*), so the
//! assertions stay deterministic even when CI's chaos job arms a global
//! `SIMSUB_FAULTS`.

use proptest::prelude::*;
use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::service::{
    json::Json, AlgoSpec, CorpusSnapshot, Count, EngineConfig, MeasureSpec, QueryEngine,
    QueryRequest, Server, ServiceError, StatsSnapshot, SubmitOptions,
};
use simsub::trajectory::Point;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Once, OnceLock};
use std::time::Duration;

/// Injected panics are expected noise in this file; a hook that swallows
/// only their reports keeps test output readable while real panics still
/// print through the previous hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

fn shared_db(count: usize) -> Arc<TrajectoryDb> {
    TrajectoryDb::build(generate(&DatasetSpec::porto(), count, 42)).into_shared()
}

fn request(query: Vec<Point>, k: usize) -> QueryRequest {
    QueryRequest {
        query,
        algo: AlgoSpec::Exact,
        measure: MeasureSpec::Dtw,
        k,
        use_index: true,
    }
}

/// Query slices cut from corpus trajectories, all distinct (different
/// lengths/sources), so sequential submissions are cache misses.
fn queries_from(db: &TrajectoryDb, n: usize) -> Vec<Vec<Point>> {
    (0..n)
        .map(|i| {
            let t = db.view(i % db.len());
            let len = (6 + i % 5).min(t.len());
            t.to_points()[..len].to_vec()
        })
        .collect()
}

/// The tentpole accounting identity: every admitted request is accounted
/// for exactly once — answered, shed, expired, or failed internally.
fn assert_reconciles(stats: &StatsSnapshot) {
    assert_eq!(
        stats.get(Count::Admitted),
        stats.outcomes(),
        "admitted != answered + shed + expired + internal: {stats:?}"
    );
}

fn wire(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("reading response");
    response
}

fn query_line(query: &[Point], extra: &str) -> String {
    let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    format!(
        "{{\"query\":[{}],\"algo\":\"exact\",\"measure\":\"dtw\",\"k\":2{extra}}}",
        points.join(",")
    )
}

/// A scan panic fails exactly the requests in that dispatch, as a
/// structured `Internal` error carrying the panic message — the worker
/// survives (no restart) and keeps answering everything else.
#[test]
fn scan_panics_are_isolated_to_their_requests() {
    quiet_injected_panics();
    let db = shared_db(16);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            cache_capacity: 0,
            // Deterministic: every 2nd scan dispatch panics.
            faults: Some("panic_in_scan=n:2".into()),
            ..EngineConfig::default()
        },
    );
    for (i, q) in queries_from(&db, 8).into_iter().enumerate() {
        // Sequential + one job per dispatch + no cache: query i is scan i+1, so
        // odd indices (scans 2, 4, ...) are exactly the injected ones.
        match engine.query(request(q, 2)) {
            Ok(_) if i % 2 == 0 => {}
            Err(ServiceError::Internal(msg)) if i % 2 == 1 => {
                assert!(msg.contains("injected fault"), "unexpected detail: {msg}");
            }
            other => panic!("query {i}: unexpected outcome {other:?}"),
        }
    }
    // The worker caught every panic in place: no deaths, no respawns.
    let stats = engine.stats();
    assert_eq!(stats.get(Count::WorkerPanics), 4);
    assert_eq!(stats.get(Count::WorkerRestarts), 0);
    assert_eq!(stats.get(Count::InternalErrors), 4);
    assert_reconciles(&stats);
    let report = engine.shutdown();
    assert!(
        report.clean(),
        "healthy shutdown after caught panics: {report:?}"
    );
}

/// Under a cocktail of panics, stalls, and dropped responses, every
/// answer that does come back is byte-identical to the fault-free
/// baseline — faults degrade availability, never correctness.
#[test]
fn chaos_answers_match_the_fault_free_baseline() {
    quiet_injected_panics();
    let db = shared_db(24);
    let baseline = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            faults: Some(String::new()), // forced disarmed
            ..EngineConfig::default()
        },
    );
    let chaos = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            faults: Some(
                "panic_in_scan=p:0.3,slow_scan=p:0.4:2,drop_response=p:0.2,cache_lock_stall=p:0.2:1"
                    .into(),
            ),
            ..EngineConfig::default()
        },
    );
    for (i, q) in queries_from(&db, 12).into_iter().enumerate() {
        let expect = baseline.query(request(q.clone(), 3)).expect("baseline");
        let mut got = None;
        for _attempt in 0..40 {
            match chaos.query(request(q.clone(), 3)) {
                Ok(r) => {
                    got = Some(r);
                    break;
                }
                // The retryable bulkhead errors; anything else is a bug.
                Err(ServiceError::Internal(_) | ServiceError::Canceled) => continue,
                Err(other) => panic!("query {i}: unexpected error {other:?}"),
            }
        }
        let got = got.expect("chaos engine failed 40 straight attempts");
        assert_eq!(
            *got.results, *expect.results,
            "query {i}: fault injection changed an answer"
        );
    }
    assert!(
        chaos.metrics_exposition().contains("simsub_faults_armed 1"),
        "chaos engine must report armed faults"
    );
    assert_reconciles(&chaos.stats());
}

/// Wire-level chaos: concurrent clients mixing queries, admin commands,
/// and garbage against a fault-injected server each get exactly one
/// well-formed JSON response per line — no hangs, no dropped
/// connections — and the stats reconcile afterwards.
#[test]
fn every_connection_survives_wire_chaos() {
    quiet_injected_panics();
    let db = shared_db(16);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            faults: Some("panic_in_scan=p:0.25,slow_scan=p:0.5:2,drop_response=p:0.2".into()),
            ..EngineConfig::default()
        },
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let queries = queries_from(&db, 8);
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let (mut stream, mut reader) = wire(addr);
                for i in 0..15 {
                    let line = match i % 5 {
                        0 => "{\"cmd\":\"ping\"}".to_string(),
                        1 => "{\"cmd\":\"stats\"}".to_string(),
                        2 => "definitely not json".to_string(),
                        3 => query_line(&queries[(c * 3 + i) % queries.len()], ""),
                        _ => query_line(&queries[(c + i) % queries.len()], ",\"v\":2,\"id\":7"),
                    };
                    let response = send_line(&mut stream, &mut reader, &line);
                    let parsed = Json::parse(response.trim())
                        .unwrap_or_else(|e| panic!("client {c} line {i}: bad response {e}"));
                    assert!(
                        parsed.get("ok").and_then(Json::as_bool).is_some(),
                        "client {c} line {i}: response without ok: {response}"
                    );
                    if let Some(err) = parsed.get("error").and_then(Json::as_str) {
                        // Structured internal errors must carry their detail.
                        if err == "internal" {
                            assert!(parsed.get("detail").is_some(), "internal without detail");
                        }
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    assert_reconciles(&engine.stats());
    drop(server);
}

/// The admission gate sheds bursts past `max_queue_depth` with a
/// structured `Overloaded` error and a positive back-off hint, while
/// everything admitted is still answered; the books balance afterwards.
#[test]
fn overload_sheds_instead_of_queueing_unboundedly() {
    let db = shared_db(12);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            cache_capacity: 0,
            max_queue_depth: 4,
            // Every scan sleeps 15ms, so a burst of 32 instant
            // submissions must pile past the 4-deep gate.
            faults: Some("slow_scan=n:1:15".into()),
            ..EngineConfig::default()
        },
    );
    let queries = queries_from(&db, 6);
    let mut pending = Vec::new();
    let mut shed = 0u64;
    for i in 0..32 {
        match engine.submit(request(queries[i % queries.len()].clone(), 2)) {
            Ok(p) => pending.push(p),
            Err(ServiceError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "hint must be positive");
                shed += 1;
            }
            Err(other) => panic!("submission {i}: unexpected error {other:?}"),
        }
    }
    assert!(shed > 0, "a 32-burst against a 4-deep queue must shed");
    for p in pending {
        p.wait().expect("admitted requests still get answers");
    }
    let stats = engine.stats();
    assert_eq!(stats.get(Count::Shed), shed);
    assert_reconciles(&stats);
}

/// Work whose deadline expires while queued is dropped — answered with
/// `DeadlineExceeded`, never scanned — and the engine keeps serving
/// deadline-free requests as usual.
#[test]
fn expired_deadlines_drop_queued_work() {
    let db = shared_db(12);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            cache_capacity: 0,
            faults: Some("slow_scan=n:1:30".into()),
            ..EngineConfig::default()
        },
    );
    let queries = queries_from(&db, 5);
    // Occupy the single worker (30ms scan), then queue three requests
    // whose 1ms deadlines will be long gone by the time it frees up.
    let occupier = engine.submit(request(queries[0].clone(), 2)).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let (tx, doomed) = std::sync::mpsc::channel();
    for query in &queries[1..4] {
        let tx = tx.clone();
        engine
            .submit_with_completion(
                request(query.clone(), 2),
                SubmitOptions {
                    deadline: Some(Duration::from_millis(1)),
                    ..SubmitOptions::default()
                },
                Box::new(move |outcome| {
                    let _ = tx.send(outcome);
                }),
            )
            .unwrap();
    }
    drop(tx);
    occupier.wait().expect("deadline-free request");
    // Ends once every completion has fired (and dropped its sender).
    let outcomes: Vec<_> = doomed.iter().collect();
    assert_eq!(outcomes.len(), 3);
    for outcome in outcomes {
        assert_eq!(outcome.unwrap_err(), ServiceError::DeadlineExceeded);
    }
    let scans_before_extra = engine.stats().get(Count::DeadlineExpired);
    assert_eq!(scans_before_extra, 3);
    // The engine is not wedged: a fresh deadline-free request works.
    engine
        .query(request(queries[4].clone(), 2))
        .expect("post-deadline query");
    assert_reconciles(&engine.stats());
}

/// A worker thread that dies outright (panic outside the scan guard) is
/// detected and respawned by the supervisor; queued work is never lost
/// and every request still gets its answer.
#[test]
fn supervisor_respawns_dead_workers() {
    quiet_injected_panics();
    let db = shared_db(12);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            cache_capacity: 0,
            // Every 3rd pass through a worker's loop top kills the
            // thread (before it picks up a job, so nothing is lost).
            faults: Some("panic_in_worker=n:3".into()),
            ..EngineConfig::default()
        },
    );
    for q in queries_from(&db, 10) {
        engine
            .query(request(q, 2))
            .expect("answered despite worker deaths");
    }
    let stats = engine.stats();
    assert!(
        stats.get(Count::WorkerPanics) >= 1,
        "no worker death recorded: {stats:?}"
    );
    assert!(
        stats.get(Count::WorkerRestarts) >= 1,
        "no respawn recorded: {stats:?}"
    );
    assert_reconciles(&stats);
}

/// Shutdown collects thread panics into a report instead of propagating
/// mid-drain: a healthy engine reports clean, a dying one reports the
/// injected messages — and neither hangs.
#[test]
fn shutdown_collects_panics_into_a_report() {
    quiet_injected_panics();
    let db = shared_db(8);
    let healthy = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            faults: Some(String::new()),
            ..EngineConfig::default()
        },
    );
    healthy
        .query(request(queries_from(&db, 1).remove(0), 2))
        .unwrap();
    assert!(healthy.shutdown().clean());

    let dying = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            // Workers die at every loop top; the supervisor respawns
            // them into the same fate. Submit nothing — the point is
            // that teardown still terminates and accounts for them.
            faults: Some("panic_in_worker=n:1".into()),
            ..EngineConfig::default()
        },
    );
    std::thread::sleep(Duration::from_millis(60));
    let panics_seen = dying.stats().get(Count::WorkerPanics);
    let report = dying.shutdown();
    for msg in &report.worker_panics {
        assert!(
            msg.contains("injected fault"),
            "foreign panic in report: {msg}"
        );
    }
    assert!(
        panics_seen + report.worker_panics.len() as u64 >= 1,
        "no worker death observed anywhere"
    );
}

/// Scan panics surface on the wire as the structured `internal` error,
/// and the fault registry is live-tunable over the wire: disarming via
/// `configure` restores normal service on the same connection.
#[test]
fn wire_internal_errors_and_live_fault_control() {
    quiet_injected_panics();
    let db = shared_db(12);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            cache_capacity: 0,
            faults: Some("panic_in_scan=n:1".into()),
            ..EngineConfig::default()
        },
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let queries = queries_from(&db, 2);

    let response = send_line(&mut stream, &mut reader, &query_line(&queries[0], ""));
    let parsed = Json::parse(response.trim()).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(parsed.get("error").and_then(Json::as_str), Some("internal"));
    assert!(
        parsed
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("injected fault")),
        "detail must carry the panic message: {response}"
    );

    // Bad specs are rejected atomically (nothing partially armed)...
    let response = send_line(
        &mut stream,
        &mut reader,
        "{\"cmd\":\"configure\",\"faults\":\"bogus=p:2\"}",
    );
    assert_eq!(
        Json::parse(response.trim())
            .unwrap()
            .get("ok")
            .and_then(Json::as_bool),
        Some(false)
    );
    // ...and "" disarms live: the same connection starts getting answers.
    let response = send_line(
        &mut stream,
        &mut reader,
        "{\"cmd\":\"configure\",\"faults\":\"\"}",
    );
    let parsed = Json::parse(response.trim()).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("faults").and_then(Json::as_str), Some(""));
    let response = send_line(&mut stream, &mut reader, &query_line(&queries[1], ""));
    let parsed = Json::parse(response.trim()).unwrap();
    assert_eq!(
        parsed.get("ok").and_then(Json::as_bool),
        Some(true),
        "disarming must restore service: {response}"
    );
    drop(server);
}

/// `deadline_ms` is a v2-only wire field: valid on v2, validated on v2,
/// and ignored on v1 exactly like `"trace"` — v1 semantics never change.
#[test]
fn wire_deadlines_are_v2_only() {
    let db = shared_db(12);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            faults: Some(String::new()),
            ..EngineConfig::default()
        },
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let q = queries_from(&db, 1).remove(0);

    for (extra, ok, why) in [
        (
            ",\"v\":2,\"deadline_ms\":60000",
            true,
            "generous v2 deadline",
        ),
        (",\"v\":2,\"deadline_ms\":0", false, "zero is not positive"),
        (",\"v\":2,\"deadline_ms\":-5", false, "negative rejected"),
        (
            ",\"v\":2,\"deadline_ms\":\"soon\"",
            false,
            "string rejected",
        ),
        (",\"deadline_ms\":0", true, "ignored on v1"),
    ] {
        let response = send_line(&mut stream, &mut reader, &query_line(&q, extra));
        let parsed = Json::parse(response.trim()).unwrap();
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(ok),
            "{why}: {response}"
        );
        if !ok {
            assert!(
                parsed
                    .get("error")
                    .and_then(Json::as_str)
                    .is_some_and(|e| e.contains("deadline_ms")),
                "{why}: error must name the field: {response}"
            );
        }
    }
    drop(server);
}

/// An oversized request line is answered with the structured
/// `request_too_large` error and *discarded*; the same connection keeps
/// serving — as does a line that is not valid UTF-8.
#[test]
fn oversized_and_non_utf8_lines_keep_the_connection_alive() {
    let db = shared_db(8);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            faults: Some(String::new()),
            ..EngineConfig::default()
        },
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());

    // 5 MiB of junk on one line: over the 4 MiB cap.
    stream.write_all(&vec![b'a'; 5 << 20]).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let parsed = Json::parse(response.trim()).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        parsed.get("error").and_then(Json::as_str),
        Some("request_too_large")
    );
    assert_eq!(
        parsed.get("limit_bytes").and_then(Json::as_usize),
        Some(4 << 20)
    );

    // The connection is still usable...
    let response = send_line(&mut stream, &mut reader, "{\"cmd\":\"ping\"}");
    assert!(response.contains("\"pong\":true"), "{response}");

    // ...including after a line of invalid UTF-8.
    stream.write_all(&[0xff, 0xfe, 0x01, b'\n']).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let parsed = Json::parse(response.trim()).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        parsed
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("UTF-8")),
        "{response}"
    );
    let response = send_line(&mut stream, &mut reader, "{\"cmd\":\"ping\"}");
    assert!(response.contains("\"pong\":true"), "{response}");
    drop(server);
}

/// One long-lived server shared by every fuzz case below (leaked on
/// purpose: the test process ends anyway, and per-case servers would
/// dominate runtime).
fn fuzz_server_addr() -> std::net::SocketAddr {
    static ADDR: OnceLock<std::net::SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let db = shared_db(8);
        let engine = Arc::new(QueryEngine::start(
            CorpusSnapshot::new(Arc::clone(&db)),
            EngineConfig {
                workers: 2,
                faults: Some(String::new()),
                ..EngineConfig::default()
            },
        ));
        let server = Server::bind(engine, "127.0.0.1:0").expect("bind fuzz server");
        let addr = server.local_addr();
        std::mem::forget(server);
        addr
    })
}

/// Sends one hostile line and asserts the invariant every request-shaped
/// input must satisfy: exactly one well-formed JSON response with an
/// `ok` field, and the server is still alive to produce it.
fn fuzz_line(payload: &[u8]) {
    let mut line: Vec<u8> = payload
        .iter()
        .copied()
        .filter(|&b| b != b'\n' && b != b'\r')
        .collect();
    if line.iter().all(u8::is_ascii_whitespace) {
        // Blank lines are legitimately ignored (no response); keep every
        // fuzz case on the one-response path.
        line.push(b'x');
    }
    let stream = TcpStream::connect(fuzz_server_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(&line).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("server must answer (a hang or crash fails here)");
    assert!(!response.trim().is_empty(), "connection closed unanswered");
    let parsed = Json::parse(response.trim())
        .unwrap_or_else(|e| panic!("malformed response to {line:?}: {e}"));
    assert!(
        parsed.get("ok").and_then(Json::as_bool).is_some(),
        "response without ok: {response}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bytes on the wire — control characters, truncated
    /// multi-byte sequences, whatever — get a clean error, never a dead
    /// server or a hung connection.
    #[test]
    fn arbitrary_bytes_never_kill_the_server(
        payload in proptest::collection::vec(0u8..=255u8, 0..160)
    ) {
        fuzz_line(&payload);
    }

    /// Structurally hostile JSON: nesting far past the parser's depth
    /// cap (a stack overflow would abort the whole process), truncations
    /// of a valid query at every prefix, and numerics that overflow
    /// f64 / usize.
    #[test]
    fn hostile_json_shapes_get_clean_errors(
        depth in 129usize..6000,
        cut in 0usize..68,
        digits in 1usize..400
    ) {
        fuzz_line("[".repeat(depth).as_bytes());
        fuzz_line(format!("{}0{}", "[".repeat(depth), "]".repeat(depth)).as_bytes());
        let full = r#"{"query":[[1.0,2.0],[3.5,4.5]],"algo":"exact","measure":"dtw","k":2}"#;
        fuzz_line(&full.as_bytes()[..cut.min(full.len())]);
        fuzz_line(format!("{{\"query\":[[1,2]],\"k\":{}}}", "9".repeat(digits)).as_bytes());
        fuzz_line(b"{\"query\":[[1e999,2]],\"k\":1}");
    }
}
