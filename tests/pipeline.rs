//! Pipelining and response-ordering contract tests (the wire spec's
//! "Connections & response ordering" section).
//!
//! One connection sends many queries before reading anything back. A
//! fault-injected `slow_scan` makes the head-of-line query the slow one.
//! The later queries were pre-warmed into the result cache, so each is
//! answered at admission, on the reactor thread, in the poll turn that
//! read it: their traces show no queue wait, which proves none of them
//! queued. Head-of-line blocking is therefore observable: id-carrying
//! responses may overtake it (and the test demands they do); id-less
//! responses must never reorder, so the reorder buffer holds the hits
//! until the slow head is written. A held cache lock must not stall the
//! reactor either: with `cache_lock_stall` armed, a hit queues instead,
//! and pings on other connections keep answering. One case holds the
//! reactor's completion routing against connection close: a dead
//! connection's late answer never reaches the connection that reuses its
//! slot. A last case holds the reactor's connection-scale claim: hundreds
//! of idle connections cost descriptors, not threads, and do not get in a
//! pipelined client's way. And an admin `reload` that fails is still
//! answered, so the id-less lines behind it are not held forever.

use simsub::data::{generate, write_csv_file, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::nn::BinaryCodec;
use simsub::rl::{DqnAgent, DqnConfig};
use simsub::service::json::Json;
use simsub::service::{CorpusSnapshot, Count, EngineConfig, Knob, QueryEngine, Server};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shared_db(count: usize) -> Arc<TrajectoryDb> {
    TrajectoryDb::build(generate(&DatasetSpec::porto(), count, 42)).into_shared()
}

/// Two workers and a result cache, no faults armed yet: the fault is
/// armed over the wire *after* the fast queries are warmed, so only the
/// cold head-of-line query's scan sleeps.
fn engine_two_workers(db: &Arc<TrajectoryDb>) -> Arc<QueryEngine> {
    Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(db)),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        }
        .with(Knob::CacheCapacity, 64),
    ))
}

fn query_json(db: &TrajectoryDb, i: usize, k: usize, id: Option<&str>) -> String {
    let t = db.view(i % db.len());
    let len = (6 + i % 5).min(t.len());
    let points: Vec<String> = t.to_points()[..len]
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    let id_field = id.map(|id| format!("\"id\":\"{id}\",")).unwrap_or_default();
    format!(
        "{{{id_field}\"query\":[{}],\"algo\":\"exact\",\"measure\":\"dtw\",\"k\":{k}}}",
        points.join(",")
    )
}

/// Runs every line through a scratch connection to populate the result
/// cache, then arms `faults` over the wire. With `slow_scan=n:1:ms` the
/// next *cold* scan sleeps; the warmed queries are cache hits from here
/// on and never reach the scan fault point.
fn warm_then_arm(addr: std::net::SocketAddr, lines: &[String], faults: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect warm");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let arm = format!("{{\"cmd\":\"configure\",\"faults\":\"{faults}\"}}");
    for line in lines.iter().chain(std::iter::once(&arm)) {
        stream.write_all(line.as_bytes()).expect("write warm");
        stream.write_all(b"\n").expect("write warm");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read warm");
        assert!(
            response.contains("\"ok\":true"),
            "warm-up request failed: {response}"
        );
    }
}

/// `line` as a traced v2 request: its answer then reports `"queue_us":0`
/// only if it was answered at admission, without entering the queue.
fn traced(line: &str) -> String {
    line.replacen('{', "{\"v\":2,\"trace\":true,", 1)
}

/// True when a traced answer never waited in the queue.
fn unqueued(response: &str) -> bool {
    response.contains("\"queue_us\":0,")
}

/// Sends `lines` down one connection without reading, then collects one
/// response line per request.
fn pipeline(addr: std::net::SocketAddr, head: &str, rest: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(b"\n").expect("write head");
    stream.flush().expect("flush head");
    // Let the head query reach a worker (and start its slow scan)
    // before the rest of the pipeline lands.
    std::thread::sleep(Duration::from_millis(150));
    let mut burst = String::new();
    for line in rest {
        burst.push_str(line);
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).expect("write burst");
    stream.flush().expect("flush burst");
    let mut responses = Vec::new();
    for _ in 0..=rest.len() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "connection closed early");
        responses.push(line);
    }
    responses
}

#[test]
fn reactor_answers_pipelined_ids_out_of_order() {
    let db = shared_db(20);
    let engine = engine_two_workers(&db);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");

    let slow = query_json(&db, 0, 2, Some("slow"));
    let fast: Vec<String> = (0..4)
        .map(|i| traced(&query_json(&db, i + 1, 2, Some(&format!("fast-{i}")))))
        .collect();
    warm_then_arm(server.local_addr(), &fast, "slow_scan=n:1:600");
    let responses = pipeline(server.local_addr(), &slow, &fast);

    // Every request got exactly one answer, matched by id, and only the
    // slow head went through the queue: the hits were answered at
    // admission.
    assert!(responses.iter().all(|r| r.contains("\"ok\":true")));
    assert!(
        responses[..4]
            .iter()
            .all(|r| r.contains("\"cached\":true,\"batch\":1,") && unqueued(r)),
        "a hit queued: {responses:?}"
    );
    for i in 0..4 {
        let needle = format!("\"id\":\"fast-{i}\"");
        assert_eq!(
            responses.iter().filter(|r| r.contains(&needle)).count(),
            1,
            "{needle} not answered exactly once: {responses:?}"
        );
    }
    // The head-of-line query was slow; the reactor answered the other
    // four while it scanned, so it must come back LAST — out of
    // submission order.
    assert!(
        responses[4].contains("\"id\":\"slow\""),
        "slow head-of-line query did not finish last: {responses:?}"
    );

    server.stop();
    server.wait();
}

#[test]
fn reactor_keeps_idless_responses_in_submission_order() {
    let db = shared_db(20);
    let engine = engine_two_workers(&db);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");

    // No ids anywhere: the strict-order lane. Query i is a prefix of
    // trajectory i, so its top hit is trajectory i at distance 0 —
    // that's the fingerprint that tells the responses apart. The later
    // queries finish first (cache hits) but the reactor must hold them
    // until the slow head's response has been written.
    let slow = query_json(&db, 0, 2, None);
    let rest: Vec<String> = (0..3)
        .map(|i| traced(&query_json(&db, i + 1, 2, None)))
        .collect();
    warm_then_arm(server.local_addr(), &rest, "slow_scan=n:1:400");
    let responses = pipeline(server.local_addr(), &slow, &rest);

    assert!(responses.iter().all(|r| r.contains("\"ok\":true")));
    assert!(
        responses[1..].iter().all(|r| unqueued(r)),
        "a hit queued: {responses:?}"
    );
    for (i, response) in responses.iter().enumerate() {
        let top = format!("\"results\":[{{\"trajectory_id\":{i},");
        assert!(
            response.contains(&top),
            "id-less response {i} out of order (expected top hit {i}): {responses:?}"
        );
    }

    server.stop();
    server.wait();
}

/// The reactor never waits on the result-cache lock. A worker holds it
/// through an armed `cache_lock_stall` while a warmed repeat arrives on a
/// second connection: admission reads the held lock as a miss, so the
/// repeat queues and its worker's dequeue-time lookup answers it from the
/// cache once the lock frees. Meanwhile a ping on a third connection answers at once.
#[test]
fn held_cache_lock_queues_the_hit_and_never_stalls_the_reactor() {
    const STALL: Duration = Duration::from_millis(600);
    let db = shared_db(20);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            faults: Some(String::new()),
            ..EngineConfig::default()
        }
        .with(Knob::CacheCapacity, 64),
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };
    let send = |stream: &mut TcpStream, line: &str| {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    };
    let read = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line
    };

    let repeat = query_json(&db, 1, 2, None);
    warm_then_arm(
        addr,
        std::slice::from_ref(&repeat),
        &format!("cache_lock_stall=n:1:{}", STALL.as_millis()),
    );
    let admitted = engine.stats().get(Count::Admitted);
    // Polls `done` every millisecond; false if `within` passes first.
    let wait_for = |within: Duration, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + within;
        while !done() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    };

    // A cold miss: once its worker has dequeued it, the worker's lookup
    // takes the lock and stalls (the 20 ms covers the few instructions
    // between the two).
    let (mut miss, mut miss_reader) = connect();
    send(&mut miss, &query_json(&db, 0, 2, None));
    assert!(wait_for(Duration::from_secs(5), &|| engine
        .stats()
        .inflight
        == 1));
    std::thread::sleep(Duration::from_millis(20));
    let stalled = Instant::now();
    let (mut hit, mut hit_reader) = connect();
    send(&mut hit, &repeat);
    assert!(
        wait_for(STALL / 3, &|| engine.stats().get(Count::Admitted)
            == admitted + 2),
        "the reactor did not admit the repeat while the lock was held"
    );
    let (mut ping, mut ping_reader) = connect();
    send(&mut ping, "{\"cmd\":\"ping\"}");
    assert_eq!(read(&mut ping_reader), "{\"ok\":true,\"pong\":true}\n");
    let waited = stalled.elapsed();
    assert!(
        waited < STALL / 2,
        "a ping waited {waited:?} behind the held cache lock"
    );

    let answer = read(&mut hit_reader);
    assert!(answer.contains("\"cached\":true"), "{answer}");
    let waited = stalled.elapsed();
    assert!(
        waited >= STALL / 2,
        "the repeat met a held lock, so it must have queued behind the stall, \
         yet it was answered after {waited:?}"
    );
    assert!(read(&mut miss_reader).contains("\"cached\":false"));

    server.stop();
    server.wait();
}

/// Completion routing vs connection close. A dies while its query is
/// still scanning, with unread data in its receive buffer, so the kernel
/// resets the connection and the reactor frees A's slot at once (a plain
/// FIN would keep the slot until the answer arrives). B takes the slot
/// over — the free list is LIFO and A's slot is the only one — and A's
/// answer, when it lands, must be dropped, never written to B.
#[test]
fn recycled_slot_never_receives_a_dead_connections_answer() {
    let timeout = Duration::from_secs(5);
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + timeout;
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let db = shared_db(20);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            faults: Some("slow_scan=n:1:400".into()),
            ..EngineConfig::default()
        },
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");

    let mut a = TcpStream::connect(server.local_addr()).expect("connect A");
    a.set_read_timeout(Some(timeout)).expect("read timeout");
    let query = query_json(&db, 0, 2, Some("a"));
    a.write_all(format!("{query}\n{{\"cmd\":\"ping\"}}\n").as_bytes())
        .expect("write A");
    // Blocks until A's pong sits unread in its receive buffer; closing
    // over it sends RST instead of FIN.
    assert_eq!(a.peek(&mut [0u8; 1]).expect("A's pong"), 1);
    drop(a);
    wait_for("the reactor to release A's slot", &|| {
        engine.stats().open_connections == 0
    });

    let mut b = TcpStream::connect(server.local_addr()).expect("connect B");
    let mut reader = BufReader::new(b.try_clone().expect("clone"));
    wait_for("the reactor to register B", &|| {
        engine.stats().open_connections == 1
    });
    assert_eq!(
        engine.stats().get(Count::Requests),
        0,
        "A's query finished before B took its slot; nothing was tested"
    );
    wait_for("A's query to be answered", &|| {
        engine.stats().get(Count::Requests) == 1
    });
    // The answer is counted just before its completion fires; let the
    // reactor route it before B speaks.
    std::thread::sleep(Duration::from_millis(50));

    b.write_all(b"{\"cmd\":\"ping\"}\n").expect("write B");
    b.set_read_timeout(Some(timeout)).expect("read timeout");
    let mut line = String::new();
    reader.read_line(&mut line).expect("B's pong");
    assert_eq!(
        line, "{\"ok\":true,\"pong\":true}\n",
        "B read a line it never asked for"
    );
    b.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    let mut extra = String::new();
    match reader.read_line(&mut extra) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("B received more than its pong: {other:?} {extra:?}"),
    }

    server.stop();
    server.wait();
}

/// OS threads of this process right now (one `/proc/self/task` entry
/// each).
fn resident_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Connection scale in miniature: the reactor holds 512 idle
/// connections on its one thread — a thread-per-connection front-end
/// would add 512 — while a pipelined wire-v2 client on one more
/// connection still gets every answer. Both ends of every socket live in
/// this process (≈ 1,030 descriptors); binding the reactor lifts the soft
/// `RLIMIT_NOFILE` to the hard cap, so the default 1,024 does not bite.
#[test]
fn reactor_holds_idle_connections_on_one_thread_and_keeps_answering() {
    const IDLE: usize = 512;
    const PIPELINED: usize = 24;
    let timeout = Duration::from_secs(3);
    let db = shared_db(20);
    let engine = engine_two_workers(&db);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let threads_bound = resident_threads();

    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    // `connect` returns at SYN-ACK; the gauge counts accepted sockets.
    let accept_deadline = Instant::now() + timeout;
    while engine.stats().open_connections < IDLE as i64 {
        assert!(
            Instant::now() < accept_deadline,
            "reactor accepted only {} of {IDLE} idle connections",
            engine.stats().open_connections
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let threads_idle = resident_threads();
    // The slack absorbs engines and servers of the other tests in this
    // binary starting meanwhile.
    assert!(
        threads_idle < threads_bound + 128,
        "{IDLE} idle connections grew the process from {threads_bound} to {threads_idle} threads"
    );

    let mut stream = TcpStream::connect(addr).expect("connect active");
    stream
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let burst: String = (0..PIPELINED)
        .map(|i| query_json(&db, i, 2, Some(&format!("q{i}"))) + "\n")
        .collect();
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut responses = Vec::new();
    for _ in 0..PIPELINED {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response in time");
        assert!(line.contains("\"ok\":true"), "request failed: {line:?}");
        responses.push(line);
    }
    for i in 0..PIPELINED {
        let needle = format!("\"id\":\"q{i}\"");
        assert_eq!(
            responses.iter().filter(|r| r.contains(&needle)).count(),
            1,
            "{needle} not answered exactly once: {responses:?}"
        );
    }
    assert_eq!(engine.stats().open_connections, IDLE as i64 + 1);

    drop(idle);
    server.stop();
    server.wait();
}

/// A `reload` whose policy was trained for another action count (plain
/// RLS: two actions; `"skip":3` needs five) is answered with an error
/// that names both, swaps nothing, and releases the id-less `ping`
/// queued behind it in the connection's reorder buffer.
#[test]
fn reload_with_a_mismatched_policy_is_answered_and_frees_the_next_line() {
    let dir = std::env::temp_dir().join(format!("simsub-mismatched-policy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let corpus = dir.join("corpus.csv");
    write_csv_file(&corpus, &generate(&DatasetSpec::porto(), 8, 42)).expect("corpus");
    let policy = dir.join("policy.ssub");
    DqnAgent::new(DqnConfig::paper(3, 2))
        .policy()
        .save(&policy)
        .expect("policy");

    let db = shared_db(8);
    let engine = engine_two_workers(&db);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let path = |p: &std::path::Path| Json::Str(p.display().to_string()).dump();
    let reload = format!(
        "{{\"cmd\":\"reload\",\"corpus\":{},\"policy\":{},\"skip\":3}}",
        path(&corpus),
        path(&policy)
    );
    stream
        .write_all(format!("{reload}\n{{\"cmd\":\"ping\"}}\n").as_bytes())
        .expect("write");
    let mut answers = Vec::new();
    for what in ["the reload's answer", "the ping's answer"] {
        let mut line = String::new();
        reader.read_line(&mut line).expect(what);
        answers.push(line);
    }
    assert!(
        answers[0].contains("\"ok\":false")
            && answers[0].contains("the policy has 2 actions, RLS-Skip(k=3) needs 5"),
        "reload: {}",
        answers[0]
    );
    assert_eq!(answers[1], "{\"ok\":true,\"pong\":true}\n");
    assert_eq!(engine.epoch(), 1, "a failed reload swapped");

    server.stop();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
