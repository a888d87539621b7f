//! Integration tests for the observability layer: mergeable histogram
//! primitives under real concurrency, the Prometheus-style metrics
//! exposition over the wire, stage tracing as a wire-v2 opt-in, the
//! slow-query log, and the sampled online quality auditor's AR contract.

use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::service::{
    json::Json, AlgoSpec, ConfigUpdate, CorpusSnapshot, Count, EngineConfig, Histogram, Knob,
    MeasureSpec, QueryEngine, QueryRequest, Server, ServiceError, SubmitOptions,
};
use simsub::trajectory::Point;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shared_db(count: usize) -> Arc<TrajectoryDb> {
    TrajectoryDb::build(generate(&DatasetSpec::porto(), count, 42)).into_shared()
}

fn request(query: Vec<Point>, algo: AlgoSpec, k: usize) -> QueryRequest {
    QueryRequest {
        query,
        algo,
        measure: MeasureSpec::Dtw,
        k,
        use_index: true,
    }
}

/// Query slices cut from corpus trajectories (index pruning always has
/// intersecting candidates).
fn queries_from(db: &TrajectoryDb, n: usize) -> Vec<Vec<Point>> {
    (0..n)
        .map(|i| {
            let t = db.view(i % db.len());
            let len = (6 + i % 5).min(t.len());
            t.to_points()[..len].to_vec()
        })
        .collect()
}

fn wire(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

fn query_line(query: &[Point], extra: &str) -> String {
    let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    format!(
        "{{\"query\":[{}],\"algo\":\"exact\",\"measure\":\"dtw\",\"k\":2{extra}}}",
        points.join(",")
    )
}

/// Concurrent recording into one shared histogram loses no samples and
/// keeps quantiles within one power-of-two bucket of the truth.
#[test]
fn histogram_concurrent_recording_is_lossless() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 1_000;
    let hist = Arc::new(Histogram::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for v in 1..=PER_THREAD {
                    hist.record(v);
                }
            });
        }
    });
    let snap = hist.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    // Every thread recorded 1..=1000, so the true p50 is 500 and the true
    // p99 is 990. Power-of-two buckets report the bucket upper bound:
    // within [true, 2*true).
    let p50 = snap.quantile(0.5);
    assert!((500..1_000).contains(&p50), "p50 bucket bound: {p50}");
    let p99 = snap.quantile(0.99);
    assert!((990..1_980).contains(&p99), "p99 bucket bound: {p99}");
    assert_eq!(hist.sum(), THREADS * PER_THREAD * (PER_THREAD + 1) / 2);
}

/// Cross-worker merge is bucket-wise addition: merging in any grouping
/// yields identical buckets, counts, and quantiles (associativity is
/// what lets per-worker histograms fold into one scrape).
#[test]
fn histogram_merge_is_associative_and_exact() {
    let parts: Vec<Histogram> = (0..3)
        .map(|p| {
            let h = Histogram::new();
            for v in 0..200u64 {
                h.record(v * (p + 1));
            }
            h
        })
        .collect();

    // ((a + b) + c) vs (a + (b + c)), both against a flat re-recording.
    let left = Histogram::new();
    left.merge_from(&parts[0]);
    left.merge_from(&parts[1]);
    left.merge_from(&parts[2]);
    let right = Histogram::new();
    let bc = Histogram::new();
    bc.merge_from(&parts[1]);
    bc.merge_from(&parts[2]);
    right.merge_from(&parts[0]);
    right.merge_from(&bc);
    let flat = Histogram::new();
    for (p, part) in parts.iter().enumerate() {
        let _ = part;
        for v in 0..200u64 {
            flat.record(v * (p as u64 + 1));
        }
    }

    let (l, r, f) = (left.snapshot(), right.snapshot(), flat.snapshot());
    assert_eq!(l.count, 600);
    assert_eq!(l.nonzero_buckets(), r.nonzero_buckets());
    assert_eq!(l.nonzero_buckets(), f.nonzero_buckets());
    assert_eq!(l.sum, f.sum);
    for q in [0.5, 0.9, 0.99, 0.999] {
        assert_eq!(l.quantile(q), f.quantile(q), "quantile {q} diverged");
    }
}

/// `{"cmd":"metrics"}` returns the full Prometheus-style exposition with
/// every documented series present, and the counters in it reflect the
/// traffic just served.
#[test]
fn metrics_exposition_over_the_wire() {
    let db = shared_db(16);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        }
        .with(Knob::CacheCapacity, 64),
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);

    let queries = queries_from(&db, 3);
    for q in &queries {
        assert!(send(&query_line(q, "")).contains("\"ok\":true"));
    }
    // One repeat for a cache hit.
    assert!(send(&query_line(&queries[0], "")).contains("\"cached\":true"));

    let response = send("{\"cmd\":\"metrics\",\"v\":2}");
    assert!(response.contains("\"ok\":true"), "metrics: {response}");
    let counts = Count::ALL.map(Count::series);
    for series in counts.into_iter().chain([
        "simsub_cache_entries",
        "simsub_cache_capacity",
        "simsub_queue_depth",
        "simsub_inflight",
        "simsub_open_connections",
        "simsub_request_latency_us",
        "simsub_worker_busy_ns_total",
        "simsub_ns_per_cell",
        "simsub_epoch",
        "simsub_audit_ar",
        "simsub_audit_mr",
        "simsub_audit_rr",
        "simsub_faults_armed",
        "simsub_fault_injections_total",
    ]) {
        assert!(
            response.contains(series),
            "exposition missing {series}: {response}"
        );
    }
    // The exposition travels as one JSON string; the escaped newlines and
    // HELP/TYPE comments prove it's the text format, not a JSON mirror.
    assert!(response.contains("# HELP") && response.contains("# TYPE"));
    assert!(
        response.contains("simsub_requests_total 4"),
        "served 4 requests, exposition disagrees: {response}"
    );
    assert!(
        response.contains("simsub_cache_hits_total 1"),
        "served 1 hit, exposition disagrees: {response}"
    );
    // Histograms expose cumulative buckets plus sum/count.
    assert!(
        response.contains("simsub_request_latency_us_bucket")
            && response.contains("le=\\\"+Inf\\\"")
            && response.contains("simsub_request_latency_us_count 4"),
        "latency histogram malformed: {response}"
    );

    let bye = send("{\"cmd\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"));
    server.wait();
}

/// `"trace":true` on a wire-v2 request echoes the per-stage breakdown;
/// cache hits trace as cached with zero scan work; v1 and untraced v2
/// responses never carry it (asserted in `service_engine.rs`).
#[test]
fn trace_is_a_wire_v2_opt_in_with_stage_breakdown() {
    let db = shared_db(16);
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }
        .with(Knob::CacheCapacity, 64),
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let (mut stream, mut reader) = wire(server.local_addr());
    let mut send = |line: &str| send_line(&mut stream, &mut reader, line);

    let query = queries_from(&db, 1).remove(0);
    let cold = send(&query_line(&query, ",\"v\":2,\"trace\":true"));
    assert!(cold.contains("\"ok\":true"), "cold: {cold}");
    assert!(cold.contains("\"trace\":{"), "no trace object: {cold}");
    for stage in [
        "admit_us",
        "queue_us",
        "batch_us",
        "scan_us",
        "bound_us",
        "kernel_us",
        "merge_us",
        "serialize_us",
        "parse_us",
        "scanned",
        "pruned_by_points",
        "abandoned",
        "searched_cells",
        "batch_size",
    ] {
        assert!(
            cold.contains(&format!("\"{stage}\":")),
            "trace missing {stage}: {cold}"
        );
    }
    assert!(cold.contains("\"cached\":false"), "cold trace: {cold}");
    // No batch is formed: the batch fields are constants kept for shape.
    assert!(
        cold.contains("\"batch_us\":0,") && cold.contains("\"batch_size\":1,"),
        "cold trace batch fields: {cold}"
    );
    // The cold scan did real work: at least one index-surviving candidate
    // was considered (the r-tree prefilter may retire the rest).
    let scanned: f64 = cold
        .split("\"scanned\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|num| num.parse().ok())
        .expect("scanned counter in trace");
    assert!(scanned >= 1.0, "cold scan counters: {cold}");

    // A cached replay still traces — with `cached:true` and no scan work.
    // It was answered at admission, so it never queued.
    let warm = send(&query_line(&query, ",\"v\":2,\"trace\":true"));
    assert!(
        warm.contains("\"trace\":{") && warm.contains("\"cached\":true"),
        "warm trace: {warm}"
    );
    assert!(warm.contains("\"scanned\":0"), "warm scan work: {warm}");
    assert!(
        warm.contains("\"queue_us\":0,\"batch_us\":0,") && warm.contains("\"batch_size\":1,"),
        "admission hit trace: {warm}"
    );

    server.stop();
    drop(stream);
    server.wait();
}

/// Lowering the slow-query threshold to 1µs turns every request into an
/// outlier: the ring log captures latency + full stage trace + epoch, and
/// the counter lands in both stats and the exposition.
#[test]
fn slow_query_log_captures_outliers() {
    let db = shared_db(12);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }
        .with(Knob::CacheCapacity, 0)
        .with(Knob::SlowQueryUs, 1),
    );
    for q in queries_from(&db, 4) {
        engine.query(request(q, AlgoSpec::Exact, 2)).expect("query");
    }
    let slow = engine.slow_queries();
    assert_eq!(slow.len(), 4, "every query crosses a 1µs threshold");
    for record in &slow {
        assert!(record.latency_us >= 1);
        assert_eq!(record.epoch, 1);
        assert!(!record.trace.cached);
        assert!(record.trace.prune.scanned > 0);
        let line = record.to_line();
        assert!(
            line.contains("\"slow_query\":true") && line.contains("\"scan_us\":"),
            "log line: {line}"
        );
    }
    assert_eq!(engine.stats().get(Count::SlowQueries), 4);

    // Raising the threshold back live stops the logging.
    engine
        .configure(ConfigUpdate::default().with(Knob::SlowQueryUs, u64::MAX as f64))
        .expect("configure");
    for q in queries_from(&db, 2) {
        engine.query(request(q, AlgoSpec::Pss, 2)).expect("query");
    }
    assert_eq!(
        engine.stats().get(Count::SlowQueries),
        4,
        "threshold raise ignored"
    );
    engine.shutdown();
}

/// The `stats` key and exposition series of every count, in table order.
/// Spelled out here so a renamed, added or dropped row fails a test.
const COUNT_WIRE_NAMES: [(&str, &str); 23] = [
    ("requests", "simsub_requests_total"),
    ("cache_hits", "simsub_cache_hits_total"),
    ("scan_candidates", "simsub_scan_candidates_total"),
    ("scan_searched", "simsub_scan_searched_total"),
    ("swaps", "simsub_swaps_total"),
    (
        "cache_evicted_on_swap",
        "simsub_cache_evicted_on_swap_total",
    ),
    ("cache_evictions", "simsub_cache_evictions_total"),
    ("slow_queries", "simsub_slow_queries_total"),
    ("scan_pruned_kim", "simsub_scan_pruned_kim_total"),
    ("scan_pruned_mbr", "simsub_scan_pruned_mbr_total"),
    ("scan_pruned_points", "simsub_scan_pruned_points_total"),
    ("scan_abandoned", "simsub_scan_abandoned_total"),
    ("scan_searched_cells", "simsub_scan_searched_cells_total"),
    ("scan_ns", "simsub_scan_ns_total"),
    ("audit_samples", "simsub_audit_samples_total"),
    ("audit_dropped", "simsub_audit_dropped_total"),
    ("admitted", "simsub_admitted_total"),
    ("shed", "simsub_shed_total"),
    ("deadline_expired", "simsub_deadline_expired_total"),
    ("internal_errors", "simsub_internal_errors_total"),
    ("worker_panics", "simsub_worker_panics_total"),
    ("worker_restarts", "simsub_worker_restarts_total"),
    ("accept_errors", "simsub_accept_errors_total"),
];

#[test]
fn every_count_keeps_its_wire_names() {
    let table = Count::ALL.map(|c| (c.key(), c.series()));
    assert_eq!(table, COUNT_WIRE_NAMES);
}

/// Every count reads the same in the `stats` reply and the `metrics`
/// exposition, under exactly one `# HELP` line (the table's text) and one
/// `# TYPE` line, after traffic that moves the counts: misses, a hit, an
/// LRU eviction, an expired deadline, a shed, slow queries and a swap.
#[test]
fn every_count_reads_the_same_in_stats_and_metrics() {
    let db = shared_db(12);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 1,
            // Every scan sleeps 20ms, so queued work can expire or be shed.
            faults: Some("slow_scan=n:1:20".into()),
            ..EngineConfig::default()
        }
        .with(Knob::CacheCapacity, 2)
        .with(Knob::MaxQueueDepth, 2)
        .with(Knob::SlowQueryUs, 1),
    );
    let queries = queries_from(&db, 8);
    let ask = |i: usize| request(queries[i].clone(), AlgoSpec::Exact, 2);
    // Three misses through a two-entry cache (one eviction), then a hit.
    for i in [0, 1, 2, 2] {
        engine.query(ask(i)).expect("query");
    }
    // Occupy the worker, queue one request whose deadline passes while it
    // waits, then burst past the two-deep admission gate.
    let occupier = engine.submit(ask(3)).expect("occupier");
    std::thread::sleep(Duration::from_millis(5));
    let (tx, expired) = std::sync::mpsc::channel();
    engine
        .submit_with_completion(
            ask(4),
            SubmitOptions {
                deadline: Some(Duration::from_millis(1)),
                ..SubmitOptions::default()
            },
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        )
        .expect("admitted");
    let mut pending = Vec::new();
    for i in 5..8 {
        match engine.submit(ask(i)) {
            Ok(p) => pending.push(p),
            Err(ServiceError::Overloaded { .. }) => {}
            Err(other) => panic!("submission {i}: {other:?}"),
        }
    }
    occupier.wait().expect("occupier answered");
    assert_eq!(
        expired.recv().expect("completion").unwrap_err(),
        ServiceError::DeadlineExceeded
    );
    for p in pending {
        p.wait().expect("admitted requests are answered");
    }
    engine.swap_snapshot(CorpusSnapshot::new(Arc::clone(&db)));

    let snap = engine.stats();
    for count in [
        Count::Requests,
        Count::CacheHits,
        Count::ScanCandidates,
        Count::ScanNs,
        Count::Swaps,
        Count::CacheEvictedOnSwap,
        Count::CacheEvictions,
        Count::SlowQueries,
        Count::Admitted,
        Count::Shed,
        Count::DeadlineExpired,
    ] {
        assert!(snap.get(count) > 0, "{count:?} did not move");
    }
    let Json::Obj(stats) = snap.to_json() else {
        panic!("stats must serialize to an object")
    };
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
    let keys: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys[..frozen.len()], frozen, "frozen stats prefix moved");

    let text = engine.metrics_exposition();
    let lines: Vec<&str> = text.lines().collect();
    let matching = |prefix: &str| -> Vec<&str> {
        lines
            .iter()
            .copied()
            .filter(|l| l.starts_with(prefix))
            .collect()
    };
    for count in Count::ALL {
        let series = count.series();
        let in_stats: Vec<Option<f64>> = stats
            .iter()
            .filter(|(k, _)| k == count.key())
            .map(|(_, v)| v.as_f64())
            .collect();
        assert_eq!(in_stats, [Some(snap.get(count) as f64)], "{count:?}");
        let samples = matching(&format!("{series} "));
        assert_eq!(samples, [format!("{series} {}", snap.get(count))]);
        assert_eq!(
            matching(&format!("# HELP {series} ")),
            [format!("# HELP {series} {}", count.help())]
        );
        assert_eq!(
            matching(&format!("# TYPE {series} ")),
            [format!("# TYPE {series} counter")]
        );
    }
    engine.shutdown();
}

/// The acceptance check for live quality auditing: with `audit_sample=1`
/// every cold answer is re-ranked exhaustively in the background, and the
/// AR gauge lands at ≥ 1.0 (= the paper's approximation-ratio floor; PSS
/// can only match or exceed the exact optimum it's measured against).
#[test]
fn auditor_reports_ar_at_least_one_for_live_pss() {
    let db = shared_db(16);
    let engine = QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        }
        .with(Knob::CacheCapacity, 0) // every answer is cold, hence auditable
        .with(Knob::AuditSample, 1.0),
    );
    let queries = queries_from(&db, 6);
    for q in &queries {
        engine
            .query(request(q.clone(), AlgoSpec::Pss, 3))
            .expect("query");
    }

    // The auditor is asynchronous; wait for every sample to be resolved
    // (folded in or counted dropped).
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let stats = engine.stats();
        if stats.get(Count::AuditSamples) + stats.get(Count::AuditDropped) >= queries.len() as u64 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "auditor stalled: {} samples + {} dropped of {}",
            stats.get(Count::AuditSamples),
            stats.get(Count::AuditDropped),
            queries.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        stats.get(Count::AuditSamples) >= 1,
        "nothing audited: {stats:?}-ish ({} dropped)",
        stats.get(Count::AuditDropped)
    );
    let audit = stats.audit_means();
    assert!(
        audit.ar >= 1.0 - 1e-9,
        "AR below the approximation floor: {}",
        audit.ar
    );
    assert!(audit.mr >= 1.0 - 1e-9, "MR floor: {}", audit.mr);
    assert!(
        audit.rr > 0.0 && audit.rr <= 1.0 + 1e-9,
        "RR out of range: {}",
        audit.rr
    );
    engine.shutdown();
}
