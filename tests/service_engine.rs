//! Integration tests for the serving subsystem: concurrency, cache
//! behaviour, shutdown draining, wire-protocol round-trips against a
//! live TCP server, and — the control-plane contract — snapshot hot-swap
//! semantics (epoch pinning, cache purging, live reload over the wire,
//! v1/v2 coexistence).

mod common;

use common::assert_bitwise_topk;
use simsub::core::{ExactS, PruneStats, Pss, Spring, SubtrajSearch};
use simsub::data::{generate, write_bin_file, write_csv_file, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::measures::{CoordNormalizer, Dtw, Frechet, Measure, T2Vec};
use simsub::service::json::Json;
use simsub::service::server::handle_admin_command;
use simsub::service::{
    AlgoSpec, ConfigUpdate, CorpusSnapshot, Count, EngineConfig, EngineHandle, MeasureSpec,
    QueryEngine, QueryRequest, QueryResponse, Server, ServiceError, SubmitOptions,
};
use simsub::trajectory::Point;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shared_db(count: usize) -> Arc<TrajectoryDb> {
    TrajectoryDb::build(generate(&DatasetSpec::porto(), count, 42)).into_shared()
}

fn engine_with(db: &Arc<TrajectoryDb>, workers: usize) -> QueryEngine {
    QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(db)),
        EngineConfig {
            workers,
            cache_capacity: 256,
            ..EngineConfig::default()
        },
    )
}

fn request(query: Vec<Point>, algo: AlgoSpec, measure: MeasureSpec, k: usize) -> QueryRequest {
    QueryRequest {
        query,
        algo,
        measure,
        k,
        use_index: true,
    }
}

/// Query slices cut from corpus trajectories, so index pruning always has
/// intersecting candidates.
fn queries_from(db: &TrajectoryDb, n: usize) -> Vec<Vec<Point>> {
    (0..n)
        .map(|i| {
            let t = db.view(i % db.len());
            let len = (6 + i % 5).min(t.len());
            t.to_points()[..len].to_vec()
        })
        .collect()
}

#[test]
fn concurrent_queries_match_direct_search() {
    let db = shared_db(40);
    let engine = Arc::new(engine_with(&db, 4));
    let queries = queries_from(&db, 12);

    // Mix of algorithms and measures, fired concurrently from one thread
    // per request; every answer must equal the offline top_k.
    let cases: Vec<(
        QueryRequest,
        &'static dyn SubtrajSearch,
        &'static dyn Measure,
    )> = queries
        .iter()
        .enumerate()
        .map(
            |(i, q)| -> (QueryRequest, &dyn SubtrajSearch, &dyn Measure) {
                if i % 3 == 0 {
                    (
                        request(q.clone(), AlgoSpec::Exact, MeasureSpec::Dtw, 3),
                        &ExactS,
                        &Dtw,
                    )
                } else if i % 3 == 1 {
                    (
                        request(q.clone(), AlgoSpec::Pss, MeasureSpec::Dtw, 5),
                        &Pss,
                        &Dtw,
                    )
                } else {
                    (
                        request(q.clone(), AlgoSpec::Pss, MeasureSpec::Frechet, 2),
                        &Pss,
                        &Frechet,
                    )
                }
            },
        )
        .collect();

    let handles: Vec<_> = cases
        .iter()
        .map(|(req, _, _)| {
            let engine = Arc::clone(&engine);
            let req = req.clone();
            std::thread::spawn(move || engine.query(req).expect("query failed"))
        })
        .collect();

    for (handle, (req, algo, measure)) in handles.into_iter().zip(&cases) {
        let response = handle.join().expect("query thread panicked");
        let want = db.top_k(*algo, *measure, &req.query, req.k, req.use_index);
        assert_eq!(*response.results, want);
    }
    assert_eq!(engine.stats().get(Count::Requests), cases.len() as u64);
    engine.shutdown();
}

#[test]
fn duplicate_query_is_a_cache_hit() {
    let db = shared_db(25);
    let engine = engine_with(&db, 2);
    let query = queries_from(&db, 1).remove(0);
    let req = request(query.clone(), AlgoSpec::Exact, MeasureSpec::Dtw, 4);

    let first = engine.query(req.clone()).unwrap();
    assert!(!first.cached, "first sighting cannot be cached");
    let second = engine.query(req.clone()).unwrap();
    assert!(second.cached, "identical repeat must hit the cache");
    assert_eq!(*first.results, *second.results);
    assert_eq!(
        *second.results,
        db.top_k(&ExactS, &Dtw, &query, 4, true),
        "cached answer must still equal the direct search"
    );

    // Timestamps are not part of the canonical key...
    let mut shifted = req.clone();
    for p in &mut shifted.query {
        p.t += 1000.0;
    }
    assert!(engine.query(shifted).unwrap().cached);

    // ...but k, coordinates, and measure are.
    let mut different_k = req.clone();
    different_k.k = 5;
    assert!(!engine.query(different_k).unwrap().cached);
    let mut different_measure = req.clone();
    different_measure.measure = MeasureSpec::Frechet;
    assert!(!engine.query(different_measure).unwrap().cached);

    let stats = engine.stats();
    assert_eq!(stats.get(Count::Requests), 5);
    assert_eq!(stats.get(Count::CacheHits), 2);
    engine.shutdown();
}

/// A cache hit is answered at admission: on the submitting thread before
/// `submit_with_completion` returns, exactly once, and no deadline can
/// expire it. It never touches the queue, and the books still reconcile.
#[test]
fn admission_hit_answers_on_the_caller_without_queueing() {
    let db = shared_db(20);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            cache_capacity: 64,
            faults: Some(String::new()),
            ..EngineConfig::default()
        },
    );
    let req = request(
        queries_from(&db, 1).remove(0),
        AlgoSpec::Exact,
        MeasureSpec::Dtw,
        3,
    );
    // A cold miss fills the cache (its worker answers after releasing
    // the cache lock, so the next lookup finds it free).
    let cold = engine.query(req.clone()).unwrap();
    assert!(!cold.cached);

    let caller = std::thread::current().id();
    let (tx, rx) = std::sync::mpsc::channel();
    engine
        .submit_with_completion(
            req,
            SubmitOptions {
                trace: true,
                deadline: Some(std::time::Duration::from_nanos(1)),
                ..SubmitOptions::default()
            },
            Box::new(move |outcome| {
                tx.send((std::thread::current().id(), outcome)).unwrap();
            }),
        )
        .unwrap();
    let (ran_on, outcome) = rx
        .try_recv()
        .expect("an admission hit completes before submit returns");
    assert!(rx.recv().is_err(), "the completion fired more than once");
    assert_eq!(ran_on, caller, "the hit was answered on another thread");
    let hit = outcome.expect("nothing waits, so a hit cannot expire");
    assert!(hit.cached);
    assert_eq!(hit.batch_size, 1);
    assert_eq!(*hit.results, *cold.results);
    let trace = hit.trace.expect("traced");
    assert_eq!((trace.queue_us, trace.batch_us, trace.scan_us), (0, 0, 0));
    assert!(trace.cached && trace.batch_size == 1);

    let after = engine.stats();
    assert_eq!((after.queue_depth, after.inflight), (0, 0));
    assert_eq!(
        (
            after.get(Count::Admitted),
            after.get(Count::Requests),
            after.get(Count::CacheHits)
        ),
        (2, 2, 1)
    );
    assert_eq!(after.get(Count::Admitted), after.outcomes());
    engine.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let db = shared_db(30);
    let engine = engine_with(&db, 2);
    let queries = queries_from(&db, 20);

    // Enqueue a pile of distinct (uncacheable) requests, then shut down
    // immediately: every pending answer must still arrive.
    let pendings: Vec<_> = queries
        .iter()
        .map(|q| {
            engine
                .submit(request(q.clone(), AlgoSpec::Exact, MeasureSpec::Dtw, 2))
                .expect("submit before shutdown")
        })
        .collect();
    engine.shutdown();

    for (pending, q) in pendings.into_iter().zip(&queries) {
        let response = pending.wait().expect("drained request lost its answer");
        assert_eq!(*response.results, db.top_k(&ExactS, &Dtw, q, 2, true));
    }

    // After shutdown, new submissions are refused...
    let err = engine
        .submit(request(
            queries[0].clone(),
            AlgoSpec::Exact,
            MeasureSpec::Dtw,
            1,
        ))
        .unwrap_err();
    assert_eq!(err, ServiceError::ShuttingDown);
    // ...and shutdown stays idempotent.
    engine.shutdown();
}

/// A `workers`-worker engine over `db` with `cache_capacity` cache
/// entries and the fault spec `faults` armed.
fn armed_engine(
    db: &Arc<TrajectoryDb>,
    workers: usize,
    cache_capacity: usize,
    faults: &str,
) -> QueryEngine {
    let config = EngineConfig {
        workers,
        cache_capacity,
        faults: Some(faults.into()),
        ..EngineConfig::default()
    };
    QueryEngine::start(CorpusSnapshot::new(Arc::clone(db)), config)
}

type Outcome = Result<QueryResponse, ServiceError>;

/// Submits every request with a completion that reports its index, the
/// instant it completed and its outcome; returns them in completion order.
fn run_all(
    engine: &QueryEngine,
    requests: Vec<QueryRequest>,
    trace: bool,
) -> Vec<(usize, Instant, Outcome)> {
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, req) in requests.into_iter().enumerate() {
        let tx = tx.clone();
        let options = SubmitOptions {
            trace,
            ..SubmitOptions::default()
        };
        let completion = move |outcome: Outcome| tx.send((i, Instant::now(), outcome)).unwrap();
        engine
            .submit_with_completion(req, options, Box::new(completion))
            .unwrap();
    }
    drop(tx);
    rx.iter().collect()
}

/// ExactS + DTW top-`k` requests for `n` distinct queries cut from `db`.
fn exact_requests(db: &TrajectoryDb, n: usize, k: usize) -> Vec<QueryRequest> {
    let exact = |q| request(q, AlgoSpec::Exact, MeasureSpec::Dtw, k);
    queries_from(db, n).into_iter().map(exact).collect()
}

/// A worker takes one job at a time: of two queued queries with the same
/// (algo, measure, k, index), each leaves when its own scan ends.
#[test]
fn an_answer_leaves_when_its_own_scan_ends() {
    let db = shared_db(20);
    let engine = armed_engine(&db, 1, 64, "slow_scan=n:1:100");
    // A blocker, then b and a.
    let done = run_all(&engine, exact_requests(&db, 3, 3), false);
    let order: Vec<_> = done
        .iter()
        .map(|(i, _, o)| (*i, o.as_ref().unwrap().cached))
        .collect();
    assert_eq!(order, [(0, false), (1, false), (2, false)]);
    let gap = done[2].1.duration_since(done[1].1);
    assert!(
        gap >= Duration::from_millis(80),
        "a completed {gap:?} after b"
    );
    engine.shutdown();
}

/// A scan that finishes after a swap answers from its own epoch but
/// caches nothing: the swap's purge already ran, and the key mixes in an
/// epoch no lookup uses any more. Current-epoch answers are cached.
#[test]
fn a_scan_finishing_after_a_swap_leaves_no_unreachable_entry() {
    let db = shared_db(20);
    let engine = armed_engine(&db, 1, 64, "slow_scan=n:1:300");
    let req = exact_requests(&db, 1, 3).remove(0);
    let pending = engine.submit(req.clone()).unwrap();
    let report = engine.swap_snapshot(CorpusSnapshot::new(Arc::clone(&db)));
    assert_eq!((report.epoch, report.cache_evicted), (2, 0));
    let stale = pending.wait().unwrap();
    assert_eq!((stale.epoch, stale.cached), (1, false));
    assert_eq!(*stale.results, db.top_k(&ExactS, &Dtw, &req.query, 3, true));
    assert_eq!(
        engine.config_view().cache_len,
        0,
        "an epoch-1 entry outlived the purge"
    );
    let disarm = ConfigUpdate {
        faults: Some(String::new()),
        ..ConfigUpdate::default()
    };
    engine.configure(disarm).unwrap();
    assert_eq!(engine.query(req.clone()).unwrap().epoch, 2);
    assert!(engine.query(req).unwrap().cached);
    engine.shutdown();
}

/// The retired batching, cache-key and prune knobs are unknown
/// `configure` keys: alone they are the no-knob error, beside a live
/// knob they are ignored.
#[test]
fn configure_ignores_the_retired_knobs() {
    let engine = engine_with(&shared_db(8), 1);
    let admin = |line: &str| {
        let reply = handle_admin_command(&engine, &Json::parse(line).unwrap());
        reply.expect("an admin command").dump()
    };
    // Spelled in pieces so that the retired names appear nowhere else.
    let quant = ["quant", "ize"].concat();
    for key in [
        ["max", "batch"].join("_"),
        ["batch", "window", "us"].join("_"),
        ["cache", "key", &quant].join("_"),
        "prune".to_string(),
    ] {
        for value in ["4", "false"] {
            let refused = admin(&format!("{{\"cmd\":\"configure\",\"{key}\":{value}}}"));
            assert!(
                refused.contains("configure needs at least one of"),
                "{refused}"
            );
            let applied = admin(&format!(
                "{{\"cmd\":\"configure\",\"{key}\":{value},\"default_k\":3}}"
            ));
            assert!(
                applied.contains("\"default_k\":3")
                    && !applied.contains("batch")
                    && !applied.contains(&quant)
                    && !applied.contains("prune"),
                "{applied}"
            );
        }
    }
    let info = admin("{\"cmd\":\"info\"}");
    assert!(
        !info.contains("batch") && !info.contains(&quant) && !info.contains("prune"),
        "{info}"
    );
    engine.shutdown();
}

/// The result cache answers only the query it holds: once a client has
/// asked for a coarser cache identity (a retired key, ignored), a query
/// one coordinate 1e-9 away from a cached one still scans, and its hits
/// are the offline scan of its own coordinates, bit for bit.
#[test]
fn a_near_repeat_is_a_miss_answered_from_its_own_coordinates() {
    let db = shared_db(20);
    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);
    let query_line = |query: &[Point]| {
        let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
        format!(
            "{{\"query\":[{}],\"algo\":\"exact\",\"measure\":\"dtw\",\"k\":3}}",
            points.join(",")
        )
    };

    let key = ["cache", "key", &["quant", "ize"].concat()].join("_");
    let configured = send(&format!(
        "{{\"cmd\":\"configure\",\"{key}\":0.05,\"default_k\":1}}"
    ));
    assert!(configured.contains("\"configured\":true"), "{configured}");
    let query = queries_from(&db, 1).remove(0);
    let first = send(&query_line(&query));
    assert!(first.contains("\"cached\":false"), "{first}");

    let mut near = query.clone();
    near[0].x += 1e-9;
    assert_ne!(near[0].x.to_bits(), query[0].x.to_bits());
    let second = send(&query_line(&near));
    assert!(second.contains("\"cached\":false"), "{second}");
    let want = QueryResponse {
        results: Arc::new(db.top_k(&ExactS, &Dtw, &near, 3, true)),
        cached: false,
        latency: Duration::ZERO,
        batch_size: 1,
        epoch: 1,
        trace: None,
    };
    assert_eq!(
        results_part(&second),
        want.to_json().get("results").expect("results").dump()
    );
    // The cache is on: the first query's own repeat is a hit.
    let repeat = send(&query_line(&query));
    assert!(repeat.contains("\"cached\":true"), "{repeat}");

    let bye = send("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "bye: {bye}");
    server.wait();
}

/// A repeat queued behind its own miss is a cache hit: admission found
/// nothing yet, and its worker looks again at dequeue.
#[test]
fn a_repeat_queued_behind_its_own_miss_is_a_cache_hit() {
    let db = shared_db(20);
    let engine = armed_engine(&db, 1, 64, "slow_scan=n:1:100");
    let req = exact_requests(&db, 1, 3).remove(0);
    let done = run_all(&engine, vec![req.clone(), req], false);
    let [(0, _, Ok(miss)), (1, _, Ok(hit))] = &done[..] else {
        panic!("{done:?}")
    };
    assert!(!miss.cached && hit.cached);
    assert_eq!(*hit.results, *miss.results);
    engine.shutdown();
}

/// Two identical misses on different workers both scan: nothing makes the
/// second wait for the first one's answer.
#[test]
fn identical_misses_on_two_workers_both_scan() {
    let db = shared_db(20);
    let engine = armed_engine(&db, 2, 64, "slow_scan=n:1:100");
    let req = exact_requests(&db, 1, 3).remove(0);
    let (hits, stats) = db.top_k_with_stats(&ExactS, &Dtw, &req.query, 3, true, true);
    for (_, _, outcome) in run_all(&engine, vec![req.clone(), req], false) {
        let response = outcome.unwrap();
        assert!(!response.cached, "the second miss waited for the first");
        assert_eq!(*response.results, hits);
    }
    assert_eq!(engine.stats().get(Count::ScanCandidates), 2 * stats.scanned);
    engine.shutdown();
}

/// A traced cold answer reports its own scan (the library call's counters
/// for that query, timings aside), no batch, and a queue wait that runs
/// until its worker dequeued it.
#[test]
fn a_traced_answer_reports_its_own_scan_and_queue_wait() {
    let db = shared_db(30);
    let engine = armed_engine(&db, 1, 64, "slow_scan=n:1:100");
    let requests = exact_requests(&db, 3, 2);
    let untimed = |s: PruneStats| PruneStats {
        bound_ns: 0,
        kernel_ns: 0,
        ..s
    };
    for (i, _, outcome) in run_all(&engine, requests.clone(), true) {
        let trace = outcome.unwrap().trace.expect("traced");
        let (_, want) = db.top_k_with_stats(&ExactS, &Dtw, &requests[i].query, 2, true, true);
        assert_eq!(untimed(trace.prune), untimed(want), "query {i}");
        assert_eq!(
            (trace.cached, trace.batch_us, trace.batch_size),
            (false, 0, 1)
        );
        // Each query after the first waited out at least one 100 ms scan.
        assert!(i == 0 || trace.queue_us >= 80_000, "query {i}: {trace:?}");
    }
    engine.shutdown();
}

/// A panic in one job's scan fails that job alone, not the jobs of the
/// same (algo, measure, k, index) queued around it.
#[test]
fn a_scan_panic_fails_only_its_own_job() {
    let db = shared_db(20);
    let engine = armed_engine(&db, 1, 0, "slow_scan=n:1:50,panic_in_scan=n:2");
    let done = run_all(&engine, exact_requests(&db, 3, 2), false);
    let outcomes: Vec<_> = done.iter().map(|(i, _, o)| (*i, o.is_ok())).collect();
    assert_eq!(outcomes, [(0, true), (1, false), (2, true)]);
    assert!(matches!(&done[1].2, Err(ServiceError::Internal(m)) if m.contains("injected")));
    engine.shutdown();
}

/// With caching off every repeat scans, nothing is stored, and the
/// gauges settle at zero once every job is answered.
#[test]
fn a_cacheless_engine_scans_every_repeat() {
    let db = shared_db(20);
    let engine = armed_engine(&db, 2, 0, "");
    let req = exact_requests(&db, 1, 2).remove(0);
    for (_, _, outcome) in run_all(&engine, vec![req; 6], false) {
        assert!(!outcome.unwrap().cached);
    }
    let stats = engine.stats();
    let books = (
        stats.get(Count::Requests),
        stats.get(Count::CacheHits),
        stats.queue_depth,
        stats.inflight,
    );
    assert_eq!(books, (6, 0, 0, 0));
    assert_eq!(engine.config_view().cache_len, 0);
    engine.shutdown();
}

#[test]
fn invalid_requests_fail_fast() {
    let db = shared_db(10);
    let engine = engine_with(&db, 1);
    let query = queries_from(&db, 1).remove(0);

    let empty = engine.submit(request(Vec::new(), AlgoSpec::Pss, MeasureSpec::Dtw, 1));
    assert!(matches!(empty, Err(ServiceError::InvalidRequest(_))));

    let zero_k = engine.submit(request(query.clone(), AlgoSpec::Pss, MeasureSpec::Dtw, 0));
    assert!(matches!(zero_k, Err(ServiceError::InvalidRequest(_))));

    // No policy/model loaded into this snapshot.
    let rls = engine.submit(request(query.clone(), AlgoSpec::Rls, MeasureSpec::Dtw, 1));
    assert!(matches!(rls, Err(ServiceError::InvalidRequest(_))));
    let t2vec = engine.submit(request(query, AlgoSpec::Pss, MeasureSpec::T2Vec, 1));
    assert!(matches!(t2vec, Err(ServiceError::InvalidRequest(_))));
    engine.shutdown();
}

/// An engine that can serve every measure, t2vec included.
fn engine_with_t2vec(db: &Arc<TrajectoryDb>) -> Arc<QueryEngine> {
    let model = T2Vec::random(5, 6, CoordNormalizer::identity());
    Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(db)).with_t2vec(model),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    ))
}

/// Spring is DTW's DP whatever measure it is handed: under Fréchet or
/// t2vec it used to answer with DTW scores labelled as that measure. Such
/// a request is now invalid, like one naming a model that is not loaded;
/// under DTW it is served as before.
#[test]
fn spring_is_served_under_dtw_only() {
    let db = shared_db(12);
    let engine = engine_with_t2vec(&db);
    let query = queries_from(&db, 1).remove(0);
    for measure in [MeasureSpec::Frechet, MeasureSpec::T2Vec] {
        match engine.submit(request(query.clone(), AlgoSpec::Spring, measure, 2)) {
            Err(ServiceError::InvalidRequest(msg)) => {
                assert!(msg.contains("spring"), "{}: {msg}", measure.wire_name())
            }
            Err(other) => panic!("{}: {other}", measure.wire_name()),
            Ok(_) => panic!("{}: spring was served", measure.wire_name()),
        }
    }
    let served = engine
        .query(request(
            query.clone(),
            AlgoSpec::Spring,
            MeasureSpec::Dtw,
            2,
        ))
        .expect("spring under dtw");
    assert_eq!(
        *served.results,
        db.top_k(&Spring::new(), &Dtw, &query, 2, true)
    );
    engine.shutdown();
}

/// The same rejection on the wire: a structured error line, and the
/// connection stays open for the next request.
#[test]
fn spring_under_another_measure_is_rejected_on_the_wire() {
    let db = shared_db(12);
    let engine = engine_with_t2vec(&db);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let query = queries_from(&db, 1).remove(0);
    let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    let mut send = |measure: &str| -> String {
        let line = format!(
            "{{\"query\":[{}],\"algo\":\"spring\",\"measure\":\"{measure}\",\"k\":2}}\n",
            points.join(",")
        );
        stream.write_all(line.as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };
    for measure in ["frechet", "t2vec"] {
        let response = send(measure);
        assert!(
            response.contains("\"ok\":false")
                && response.contains("invalid request: spring answers under dtw only"),
            "{measure}: {response}"
        );
    }
    let response = send("dtw");
    assert!(response.contains("\"ok\":true"), "dtw: {response}");
    server.stop();
    server.wait();
}

#[test]
fn tcp_server_handles_slow_and_newline_less_clients() {
    let db = shared_db(15);
    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // A request written in two chunks with a pause longer than the
    // reactor's 200ms poll tick: the buffered prefix must not be
    // discarded.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream
        .write_all(b"{\"query\":[[1,2],[2,3]],\"algo\":")
        .unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(600));
    stream.write_all(b"\"pss\",\"k\":1}\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(
        response.contains("\"ok\":true"),
        "chunked request mangled: {response}"
    );

    // A final request with no trailing newline before close still gets
    // an answer.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream
        .write_all(b"{\"query\":[[1,2]],\"algo\":\"exact\",\"k\":1}")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(
        response.contains("\"ok\":true"),
        "newline-less request dropped: {response}"
    );

    server.stop();
    server.wait();
}

#[test]
fn tcp_server_round_trip() {
    let db = shared_db(20);
    let engine = Arc::new(engine_with(&db, 2));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let query = queries_from(&db, 1).remove(0);
    let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    let request_line = format!(
        "{{\"query\":[{}],\"algo\":\"exact\",\"measure\":\"dtw\",\"k\":3}}",
        points.join(",")
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };

    // Query answers match the direct search (compare ids and ranges
    // through the wire text).
    let response = send(&request_line);
    assert!(response.contains("\"ok\":true"), "response: {response}");
    let want = db.top_k(&ExactS, &Dtw, &query, 3, true);
    for hit in &want {
        assert!(
            response.contains(&format!("\"trajectory_id\":{}", hit.trajectory_id)),
            "missing hit {} in {response}",
            hit.trajectory_id
        );
    }

    // Repeat is served from cache.
    let repeat = send(&request_line);
    assert!(repeat.contains("\"cached\":true"), "repeat: {repeat}");

    // Malformed input errors without closing the connection.
    let garbage = send("{\"algo\":\"exact\"}");
    assert!(garbage.contains("\"ok\":false"), "garbage: {garbage}");

    // Stats are live.
    let stats = send("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"cache_hits\":1"), "stats: {stats}");

    // Graceful wire shutdown.
    let bye = send("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "bye: {bye}");
    server.wait();
}

/// A served `"algo":"rls"` scan gets the loaded [`Rls`] itself, so its
/// trait overrides apply: RLS reports non-admissible similarities, hence
/// the bound cascade must stay off (no candidate pruned) even on a
/// clustered corpus where an admissible algorithm prunes most of it, and
/// the answer is bitwise the offline unpruned full scan.
#[test]
fn served_rls_never_prunes_and_matches_the_offline_scan() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simsub::core::{train_rls, MdpConfig, Rls, RlsTrainConfig};
    use simsub::trajectory::Trajectory;

    // Tight clusters 60 units apart: a query cut from one cluster leaves
    // the bound cascade nearly everything to prune.
    let corpus: Vec<Trajectory> = (0..40u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i + 1);
            let (mut x, mut y) = ((i % 8) as f64 * 60.0, (i / 8) as f64 * 60.0);
            let points = (0..14)
                .map(|t| {
                    x += rng.gen_range(-1.5..1.5);
                    y += rng.gen_range(-1.5..1.5);
                    Point::new(x, y, t as f64)
                })
                .collect();
            Trajectory::new_unchecked(i, points)
        })
        .collect();
    let query = corpus[0].points()[2..8].to_vec();
    let mdp = MdpConfig::rls();
    let policy = train_rls(&Dtw, &corpus, &corpus, &RlsTrainConfig::paper(mdp, 6)).policy;
    let rls = Rls::new(policy.clone(), mdp);
    let db = TrajectoryDb::build(corpus).into_shared();
    let (want, _) = db.top_k_with_stats(&rls, &Dtw, &query, 3, false, false);

    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)).with_rls(Rls::new(policy, mdp)),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let mut req = request(query, AlgoSpec::Rls, MeasureSpec::Dtw, 3);
    req.use_index = false;
    let got = engine.query(req.clone()).expect("served rls");
    assert_bitwise_topk(&got.results, &want, "served rls vs offline full scan");
    let stats = engine.stats();
    assert_eq!(stats.get(Count::ScanCandidates), 40);
    assert_eq!(stats.scan_pruned(), 0, "RLS scores admit no bound pruning");
    assert_eq!(
        (
            stats.get(Count::ScanPrunedPoints),
            stats.get(Count::ScanAbandoned)
        ),
        (0, 0),
        "neither the point-level stage nor a floor reaches an RLS search"
    );

    // The same engine does prune this corpus for an admissible algorithm.
    req.algo = AlgoSpec::Pss;
    engine.query(req).expect("served pss");
    assert!(
        engine.stats().scan_pruned() > 0,
        "PSS + DTW prunes clusters"
    );
    engine.shutdown();
}

/// Cache keys mix the canonical query hash with the epoch: within one
/// snapshot generation a key is exactly as stable as the canonical hash,
/// and a swap — even to the same corpus — changes every key, so entries
/// die with the snapshot that computed them.
#[test]
fn cache_keys_mix_the_canonical_hash_and_the_epoch() {
    let db = shared_db(12);
    let req = request(
        queries_from(&db, 1).remove(0),
        AlgoSpec::Pss,
        MeasureSpec::Dtw,
        3,
    );
    let handle = EngineHandle::new(CorpusSnapshot::new(Arc::clone(&db)));
    let first = handle.load();

    // Same generation: the key survives reloads of the handle...
    assert_eq!(first.cache_key(&req), handle.load().cache_key(&req.clone()));
    // ...and equals for a canonically equal request (timestamps ignored).
    let mut shifted = req.clone();
    for p in &mut shifted.query {
        p.t += 500.0;
    }
    assert_eq!(first.cache_key(&req), first.cache_key(&shifted));
    // Different canonical hash: different key within one generation.
    let mut different = req.clone();
    different.k = 4;
    assert_ne!(first.cache_key(&req), first.cache_key(&different));

    // Same corpus, next epoch: same request, different key.
    let (_, second) = handle.swap(CorpusSnapshot::new(Arc::clone(&db)));
    assert_eq!(second.epoch(), first.epoch() + 1);
    assert_ne!(first.cache_key(&req), second.cache_key(&req));
}

// ---------------------------------------------------------------------
// Control-plane: snapshot hot-swap + wire protocol v2
// ---------------------------------------------------------------------

fn wire(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

/// The serialized `"results"` array of a response line: the part that
/// must be byte-identical across engines answering the same request
/// (envelope fields like `epoch` legitimately differ).
fn results_part(response: &str) -> String {
    simsub::service::json::Json::parse(response.trim())
        .expect("valid response json")
        .get("results")
        .expect("results field")
        .dump()
}

/// The largest `k` a wire request can carry (2^53) answers with the hits
/// of `k` = corpus size, and the server keeps serving: a heap sized by
/// that `k` once aborted the whole process on allocation.
#[test]
fn the_largest_wire_k_answers_and_keeps_serving() {
    let db = shared_db(12);
    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());

    let query = queries_from(&db, 1).remove(0);
    let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    let points = points.join(",");
    let line = |k: usize| format!("{{\"query\":[{points}],\"algo\":\"exact\",\"k\":{k}}}");
    let huge = send_line(&mut stream, &mut reader, &line(1 << 53));
    assert!(huge.contains("\"ok\":true"), "k = 2^53: {huge}");
    let full = send_line(&mut stream, &mut reader, &line(db.len()));
    assert!(full.contains("\"ok\":true"), "k = corpus size: {full}");
    assert_eq!(results_part(&huge), results_part(&full));
    assert!(full.contains("\"trajectory_id\""), "no hits: {full}");

    let pong = send_line(&mut stream, &mut reader, "{\"cmd\":\"ping\"}");
    assert!(pong.contains("\"ok\":true"), "ping: {pong}");
    server.stop();
    server.wait();
}

/// Satellite regression: connections sitting silently in `read_line`
/// (idle, or stalled mid-request) must not stall `shutdown` — the read
/// timeout lets every connection thread observe the stop flag.
#[test]
fn idle_connections_do_not_stall_shutdown() {
    let db = shared_db(10);
    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // One client that never speaks, one stuck mid-line without a newline.
    let idle = TcpStream::connect(addr).expect("connect");
    let mut midline = TcpStream::connect(addr).expect("connect");
    midline.write_all(b"{\"cmd\":\"st").unwrap();
    midline.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));

    let (mut stream, mut reader) = wire(addr);
    let bye = send_line(&mut stream, &mut reader, "{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "shutdown: {bye}");

    let start = std::time::Instant::now();
    server.wait();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(3),
        "silent connections stalled shutdown for {:?}",
        start.elapsed()
    );
    drop(idle);
    drop(midline);
}

/// Swap semantics (a): requests admitted before a swap complete against
/// the epoch they were admitted under — even when the worker only gets
/// to them after the swap landed — and post-swap admissions see the new
/// snapshot immediately.
#[test]
fn preswap_admissions_answer_from_their_epoch() {
    let db_a = shared_db(40);
    let db_b = TrajectoryDb::build(generate(&DatasetSpec::porto(), 25, 777)).into_shared();
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db_a)),
        EngineConfig {
            workers: 1,
            cache_capacity: 64,
            ..EngineConfig::default()
        },
    );

    // Head-of-line blocker: an expensive unindexed exact scan keeps the
    // single worker busy while the rest of the queue is admitted and the
    // swap lands behind it.
    let blocker = engine
        .submit(QueryRequest {
            query: db_a.view(0).to_points(),
            algo: AlgoSpec::Exact,
            measure: MeasureSpec::Dtw,
            k: 1,
            use_index: false,
        })
        .unwrap();
    let queries = queries_from(&db_a, 6);
    let pendings: Vec<_> = queries
        .iter()
        .map(|q| {
            engine
                .submit(request(q.clone(), AlgoSpec::Exact, MeasureSpec::Dtw, 3))
                .unwrap()
        })
        .collect();

    let report = engine.swap_snapshot(CorpusSnapshot::new(Arc::clone(&db_b)));
    assert_eq!((report.previous_epoch, report.epoch), (1, 2));
    assert_eq!(report.trajectories, 25);

    let blocked = blocker.wait().unwrap();
    assert_eq!(blocked.epoch, 1);
    for (pending, q) in pendings.into_iter().zip(&queries) {
        let response = pending.wait().unwrap();
        assert_eq!(response.epoch, 1, "pre-swap admission migrated epochs");
        assert_eq!(
            *response.results,
            db_a.top_k(&ExactS, &Dtw, q, 3, true),
            "pre-swap admission answered from the wrong corpus"
        );
    }

    // Swap semantics (b): post-swap answers are byte-identical to a cold
    // engine started directly on the new snapshot.
    let cold = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db_b)),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    for q in queries_from(&db_b, 4) {
        let req = request(q.clone(), AlgoSpec::Exact, MeasureSpec::Dtw, 3);
        let swapped = engine.query(req.clone()).unwrap();
        assert_eq!(swapped.epoch, 2);
        assert_eq!(*swapped.results, *cold.query(req).unwrap().results);
        assert_eq!(*swapped.results, db_b.top_k(&ExactS, &Dtw, &q, 3, true));
    }
    cold.shutdown();
    engine.shutdown();
}

/// Satellite: swaps are observable. Stale-epoch cache entries die with
/// the swap (counted in `cache_evicted_on_swap`), and the same request
/// is re-answered cold under the new epoch — even when the new corpus is
/// a rebuild of the identical trajectories.
#[test]
fn swap_purges_stale_cache_and_is_observable() {
    let db = shared_db(20);
    let engine = engine_with(&db, 2);
    let q = queries_from(&db, 1).remove(0);
    let req = request(q, AlgoSpec::Pss, MeasureSpec::Dtw, 4);
    assert!(!engine.query(req.clone()).unwrap().cached);
    assert!(engine.query(req.clone()).unwrap().cached);

    let rebuilt = TrajectoryDb::build(db.to_trajectories()).into_shared();
    let report = engine.swap_snapshot(CorpusSnapshot::new(Arc::clone(&rebuilt)));
    assert!(report.cache_evicted >= 1, "swap purged nothing");
    let stats = engine.stats();
    assert_eq!(stats.get(Count::Swaps), 1);
    assert!(stats.get(Count::CacheEvictedOnSwap) >= 1);

    let after = engine.query(req.clone()).unwrap();
    assert!(
        !after.cached,
        "stale-epoch cache entry replayed across a swap"
    );
    assert_eq!(after.epoch, 2);
    // Identical corpus ⇒ identical answer, recached under the new epoch.
    assert!(engine.query(req).unwrap().cached);
    engine.shutdown();
}

/// Wire protocol v2 envelope rules, and their v1 bit-compat flip side.
#[test]
fn wire_v2_envelope_and_version_errors() {
    let db = shared_db(12);
    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);

    let query = "{\"query\":[[1,2],[2,3]],\"algo\":\"exact\",\"k\":1,\"index\":false";
    // v1 (no envelope fields, and explicit v:1): responses carry none.
    for line in [format!("{query}}}"), format!("{query},\"v\":1}}")] {
        let response = send(&line);
        assert!(response.contains("\"ok\":true"), "v1: {response}");
        assert!(
            !response.contains("\"epoch\"") && !response.contains("\"v\":"),
            "v1 response grew envelope fields: {response}"
        );
    }
    // v2 declared: v + epoch echoed; with an id, the id too.
    let response = send(&format!("{query},\"v\":2}}"));
    assert!(
        response.contains("\"v\":2") && response.contains("\"epoch\":1"),
        "v2: {response}"
    );
    let response = send(&format!("{query},\"v\":2,\"id\":\"req-7\"}}"));
    assert!(response.contains("\"id\":\"req-7\""), "id echo: {response}");
    // An id alone implies v2; numeric ids echo as numbers.
    let response = send(&format!("{query},\"id\":42}}"));
    assert!(
        response.contains("\"id\":42") && response.contains("\"v\":2"),
        "implied v2: {response}"
    );
    // Commands take the envelope too.
    let response = send("{\"cmd\":\"ping\",\"v\":2,\"id\":\"p\"}");
    assert!(
        response.contains("\"pong\":true") && response.contains("\"id\":\"p\""),
        "ping: {response}"
    );
    // Unsupported versions and malformed ids are errors.
    let response = send(&format!("{query},\"v\":3}}"));
    assert!(
        response.contains("\"ok\":false") && response.contains("unsupported protocol version"),
        "v3: {response}"
    );
    let response = send(&format!("{query},\"id\":[1]}}"));
    assert!(response.contains("\"ok\":false"), "bad id: {response}");

    // configure: default_k applies to k-less queries, live.
    let response = send("{\"cmd\":\"configure\",\"default_k\":5,\"v\":2}");
    assert!(
        response.contains("\"configured\":true") && response.contains("\"default_k\":5"),
        "configure: {response}"
    );
    let response = send("{\"query\":[[1,2],[2,3]],\"algo\":\"exact\",\"index\":false}");
    assert_eq!(
        response.matches("\"trajectory_id\"").count(),
        5,
        "default_k not applied: {response}"
    );
    // configure with no knobs is an error, as is an unknown command.
    assert!(send("{\"cmd\":\"configure\"}").contains("\"ok\":false"));
    assert!(send("{\"cmd\":\"rewind\"}").contains("unknown cmd"));

    // info reports the serving state.
    let response = send("{\"cmd\":\"info\",\"v\":2}");
    for needle in [
        "\"epoch\":1",
        "\"trajectories\":12",
        "\"protocol\":[1,2]",
        "\"build\":",
        "\"default_k\":5",
    ] {
        assert!(
            response.contains(needle),
            "info missing {needle}: {response}"
        );
    }

    server.stop();
    drop(stream);
    server.wait();
}

/// The acceptance scenario: a live server is reloaded to a different
/// corpus over the wire — no restart — while v1 clients keep querying.
/// Epoch bumps, the cache purge is visible in `stats`, post-reload
/// answers are byte-identical to a cold engine on the new corpus, and
/// not one concurrent v1 request errors.
#[test]
fn live_reload_over_the_wire() {
    let db_a = shared_db(20);
    let corpus_b = generate(&DatasetSpec::porto(), 15, 99);
    let db_b = TrajectoryDb::build(corpus_b.clone()).into_shared();
    let dir = std::env::temp_dir().join(format!("simsub-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path_b = dir.join("corpus_b.csv");
    write_csv_file(&path_b, &corpus_b).unwrap();

    let engine = Arc::new(engine_with(&db_a, 2));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Background v1 clients: distinct connections firing v1 queries
    // throughout the reload. Every response must be ok and envelope-free.
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let v1_clients: Vec<_> = (0..3)
        .map(|i| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let (mut stream, mut reader) = wire(addr);
                let line = format!(
                    "{{\"query\":[[{i},2],[2,3],[3,{i}]],\"algo\":\"pss\",\"k\":2,\"index\":false}}"
                );
                let mut served = 0u32;
                while !done.load(std::sync::atomic::Ordering::Relaxed) && served < 10_000 {
                    let response = send_line(&mut stream, &mut reader, &line);
                    assert!(
                        response.contains("\"ok\":true"),
                        "v1 client {i} failed mid-swap: {response}"
                    );
                    assert!(
                        !response.contains("\"epoch\""),
                        "v1 client {i} got a v2 envelope: {response}"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();

    let (mut stream, mut reader) = wire(addr);
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);
    let query_points: Vec<String> = db_a.view(0).to_points()[..8]
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    let query_line = format!(
        "{{\"query\":[{}],\"algo\":\"exact\",\"measure\":\"dtw\",\"k\":3,\"index\":false,\
         \"v\":2,\"id\":\"q\"}}",
        query_points.join(",")
    );

    // Warm the cache on epoch 1.
    let first = send(&query_line);
    assert!(
        first.contains("\"epoch\":1") && first.contains("\"cached\":false"),
        "first: {first}"
    );
    let repeat = send(&query_line);
    assert!(repeat.contains("\"cached\":true"), "repeat: {repeat}");

    // Live reload to corpus B.
    let reload_line = format!(
        "{{\"cmd\":\"reload\",\"corpus\":{},\"v\":2,\"id\":\"r1\"}}",
        json_string(&path_b.display().to_string())
    );
    let reloaded = send(&reload_line);
    for needle in [
        "\"ok\":true",
        "\"reloaded\":true",
        "\"previous_epoch\":1",
        "\"epoch\":2",
        "\"trajectories\":15",
        "\"id\":\"r1\"",
    ] {
        assert!(
            reloaded.contains(needle),
            "reload missing {needle}: {reloaded}"
        );
    }

    // The purge is on the stats wire response.
    let stats = send("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"swaps\":1"), "stats: {stats}");
    let evicted: f64 = stats
        .split("\"cache_evicted_on_swap\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next()?.parse().ok())
        .expect("cache_evicted_on_swap in stats");
    assert!(evicted >= 1.0, "no evictions visible: {stats}");

    // Same query line now answers cold from corpus B at epoch 2...
    let after = send(&query_line);
    assert!(
        after.contains("\"epoch\":2") && after.contains("\"cached\":false"),
        "after: {after}"
    );
    // ...byte-identical to a cold engine + server started on corpus B.
    let cold_engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db_b)),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    ));
    let cold_server = Server::bind(Arc::clone(&cold_engine), "127.0.0.1:0").expect("bind");
    let (mut cold_stream, mut cold_reader) = wire(cold_server.local_addr());
    let cold = send_line(&mut cold_stream, &mut cold_reader, &query_line);
    assert_eq!(
        results_part(&after),
        results_part(&cold),
        "post-reload answer differs from a cold engine on the new corpus"
    );
    cold_server.stop();
    drop(cold_stream);
    cold_server.wait();

    // v1 clients ran through the whole swap without a single error.
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    for client in v1_clients {
        let served = client.join().expect("v1 client panicked");
        assert!(served > 0, "v1 client never got a request through");
    }

    let bye = send("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "bye: {bye}");
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A packed corpus reloads over the wire; a file in the retired version 1
/// format is refused with an error that names the version and says how
/// to re-pack it, and the server keeps serving its current epoch.
#[test]
fn packed_reload_over_the_wire_refuses_old_versions() {
    let db = shared_db(10);
    let dir = std::env::temp_dir().join(format!("simsub-packed-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let packed = dir.join("corpus.ssb");
    let db_b = TrajectoryDb::build(generate(&DatasetSpec::porto(), 7, 5));
    write_bin_file(&packed, db_b.arena()).unwrap();
    let old = dir.join("old.ssb");
    let mut v1 = b"SSUBARN1".to_vec();
    v1.extend_from_slice(&[0u8; 40]);
    std::fs::write(&old, &v1).unwrap();

    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);
    let reload = |path: &std::path::Path| {
        format!(
            "{{\"cmd\":\"reload\",\"corpus_bin\":{}}}",
            json_string(&path.display().to_string())
        )
    };

    let refused = send(&reload(&old));
    for needle in ["\"ok\":false", "version 1", "simsub corpus pack"] {
        assert!(refused.contains(needle), "missing {needle}: {refused}");
    }
    assert_eq!(engine.epoch(), 1, "a refused reload swaps nothing");

    let reloaded = send(&reload(&packed));
    for needle in ["\"ok\":true", "\"epoch\":2", "\"trajectories\":7"] {
        assert!(reloaded.contains(needle), "missing {needle}: {reloaded}");
    }

    let bye = send("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "bye: {bye}");
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The keys of a one-object JSON reply, in order.
fn reply_keys(response: &str) -> Vec<String> {
    match simsub::service::json::Json::parse(response.trim()).expect("valid response json") {
        simsub::service::json::Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
        other => panic!("not an object: {}", other.dump()),
    }
}

/// The corpus is one database whatever a client asks: a `reload` that
/// still carries the old layout keys swaps like any other (they are
/// ignored like every key `reload` does not read), and neither its reply
/// nor `info` names a layout — both carry exactly their documented
/// fields.
#[test]
fn reload_ignores_retired_layout_keys_and_replies_name_no_layout() {
    let db = shared_db(10);
    let dir = std::env::temp_dir().join(format!("simsub-layout-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path_b = dir.join("corpus_b.csv");
    write_csv_file(&path_b, &generate(&DatasetSpec::porto(), 8, 17)).unwrap();

    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);

    let reloaded = send(&format!(
        "{{\"cmd\":\"reload\",\"corpus\":{},\"shards\":4,\"partitioner\":\"grid\"}}",
        json_string(&path_b.display().to_string())
    ));
    assert_eq!(
        reply_keys(&reloaded).join(","),
        "ok,reloaded,previous_epoch,epoch,cache_evicted,trajectories,points",
        "{reloaded}"
    );

    let info = send("{\"cmd\":\"info\"}");
    let documented = "ok,epoch,trajectories,points,workers,cache_capacity,cache_len,\
                      default_k,slow_query_us,audit_sample,max_queue_depth,\
                      default_deadline_ms,faults,rls_loaded,t2vec_loaded,swaps,build,protocol";
    assert_eq!(reply_keys(&info).join(","), documented, "{info}");
    for needle in ["\"epoch\":2", "\"trajectories\":8", "\"swaps\":1"] {
        assert!(info.contains(needle), "missing {needle}: {info}");
    }

    let configured = send("{\"cmd\":\"configure\",\"default_k\":2}");
    let documented = "ok,configured,cache_capacity,cache_len,default_k,slow_query_us,\
                      audit_sample,max_queue_depth,default_deadline_ms,faults,workers";
    assert_eq!(
        reply_keys(&configured).join(","),
        documented,
        "{configured}"
    );

    let bye = send("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "bye: {bye}");
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A t2vec model file whose GRU header describes a cell of 2^44
/// parameters is refused with an error, not a failed allocation that
/// takes the process down; so is a well-formed model whose GRU does not
/// take the two (x, y) features, which would otherwise load and then fail
/// every t2vec query. The server keeps serving its current epoch.
#[test]
fn reload_with_a_hostile_t2vec_model_fails_and_keeps_serving() {
    let db = shared_db(10);
    let dir = std::env::temp_dir().join(format!("simsub-hostile-t2vec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.csv");
    write_csv_file(&corpus, &db.to_trajectories()).unwrap();
    let model = dir.join("model.t2v");
    let huge = {
        let mut enc = simsub::nn::Encoder::new();
        enc.put_u64(1);
        enc.put_u64(1 << 22);
        enc.put_f64_slice(&[]);
        enc.finish()
    };
    // A 3-input, 1-unit cell: 3 gates of 3 input weights, 1 recurrent
    // weight and 1 bias, then a normalizer.
    let three_wide = {
        let mut enc = simsub::nn::Encoder::new();
        enc.put_u64(3);
        enc.put_u64(1);
        enc.put_f64_slice(&[0.0; 15]);
        for v in [0.0, 0.0, 1.0] {
            enc.put_f64(v);
        }
        enc.finish()
    };

    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);

    for (bytes, reason) in [
        (huge, "implausible dimension"),
        (three_wide, "input dimension 3, expected 2"),
    ] {
        std::fs::write(&model, bytes).unwrap();
        let refused = send(&format!(
            "{{\"cmd\":\"reload\",\"corpus\":{},\"t2vec\":{}}}",
            json_string(&corpus.display().to_string()),
            json_string(&model.display().to_string())
        ));
        for needle in ["\"ok\":false", reason] {
            assert!(refused.contains(needle), "missing {needle}: {refused}");
        }
        assert_eq!(engine.epoch(), 1, "a refused reload swaps nothing");
    }
    let answered = send("{\"query\":[[1,2],[2,3],[3,1]],\"algo\":\"pss\",\"k\":2}");
    assert!(answered.contains("\"ok\":true"), "answered: {answered}");

    let bye = send("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "bye: {bye}");
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `stats` wire response is append-only: the thirteen frozen-prefix
/// fields keep their exact order (pre-observability clients key on it),
/// the observability fields only ever append after them, and v1 query
/// responses never grow fields — in particular no `trace`, even when the
/// client tries to request one (tracing is a v2 opt-in).
#[test]
fn stats_wire_response_is_append_only_and_v1_stays_frozen() {
    let db = shared_db(12);
    let engine = Arc::new(engine_with(&db, 1));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);

    let query = queries_from(&db, 1).remove(0);
    let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    let body = format!(
        "\"query\":[{}],\"algo\":\"exact\",\"measure\":\"dtw\",\"k\":2",
        points.join(",")
    );
    assert!(send(&format!("{{{body}}}")).contains("\"ok\":true"));
    assert!(send(&format!("{{{body}}}")).contains("\"cached\":true"));

    let stats = send("{\"cmd\":\"stats\"}");
    // Frozen prefix: the first thirteen stats keys, in this exact order.
    let frozen = [
        "requests",
        "cache_hits",
        "hit_rate",
        "uptime_s",
        "qps",
        "p50_us",
        "p99_us",
        "scan_candidates",
        "scan_pruned",
        "scan_searched",
        "prune_ratio",
        "swaps",
        "cache_evicted_on_swap",
    ];
    let mut cursor = 0;
    for key in frozen {
        let needle = format!("\"{key}\":");
        let at = stats[cursor..]
            .find(&needle)
            .unwrap_or_else(|| panic!("frozen field {key} missing or out of order: {stats}"));
        cursor += at + needle.len();
    }
    // Additive observability fields land strictly after the prefix.
    let counts = Count::ALL.map(Count::key);
    let additive_counts = counts.into_iter().filter(|k| !frozen.contains(k));
    for key in additive_counts.chain([
        "p999_us",
        "queue_depth",
        "inflight",
        "ns_per_cell",
        "audit_ar",
        "latency_buckets",
    ]) {
        let needle = format!("\"{key}\":");
        assert!(
            stats[cursor..].contains(&needle),
            "additive field {key} missing after the frozen prefix: {stats}"
        );
    }
    // Bucket pairs carry the two served requests.
    assert!(
        stats.contains("\"latency_buckets\":[["),
        "latency buckets empty: {stats}"
    );

    // v1 bit-compat: `trace` never appears on a v1 response, even when
    // the client sets the flag.
    let v1 = send(&format!("{{{body},\"trace\":true}}"));
    assert!(v1.contains("\"ok\":true"), "v1 traced: {v1}");
    assert!(
        !v1.contains("\"trace\"") && !v1.contains("\"v\":"),
        "v1 response grew fields: {v1}"
    );
    // v2 without the flag stays trace-less too: it is per-request opt-in.
    let v2_plain = send(&format!("{{{body},\"v\":2}}"));
    assert!(
        !v2_plain.contains("\"trace\""),
        "untraced v2 response grew a trace: {v2_plain}"
    );

    server.stop();
    drop(stream);
    server.wait();
}

/// Minimal JSON string quoting for paths embedded in request lines.
fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
