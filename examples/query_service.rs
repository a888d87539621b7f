//! Embedding the query-serving subsystem in-process: start a
//! [`QueryEngine`] over a corpus snapshot, fire a burst of concurrent
//! queries, and read the serving stats. Answers are byte-identical to the
//! offline database search (checked below).
//!
//! Run with `cargo run --release --example query_service`.

use simsub::core::Pss;
use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::measures::Dtw;
use simsub::service::{
    AlgoSpec, CorpusSnapshot, Count, EngineConfig, MeasureSpec, QueryEngine, QueryRequest,
};
use std::sync::Arc;

fn main() {
    // An immutable corpus snapshot shared by all workers: one database
    // with one R-tree over the whole corpus.
    let corpus = generate(&DatasetSpec::porto(), 200, 7);
    let db = TrajectoryDb::build(corpus).into_shared();
    let engine = Arc::new(QueryEngine::start(
        CorpusSnapshot::new(Arc::clone(&db)),
        EngineConfig {
            workers: 4,
            cache_capacity: 1024,
            ..EngineConfig::default()
        },
    ));
    println!(
        "engine up: {} trajectories, {} points, 4 workers",
        db.len(),
        db.total_points()
    );

    // A client burst: 32 threads, half of them asking the same question.
    let handles: Vec<_> = (0..32)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let source = db.view(if i % 2 == 0 { 0 } else { i % db.len() });
                let request = QueryRequest {
                    query: source.to_points()[..12.min(source.len())].to_vec(),
                    algo: AlgoSpec::Pss,
                    measure: MeasureSpec::Dtw,
                    k: 5,
                    use_index: true,
                };
                let response = engine.query(request).expect("engine answered");
                (i, response)
            })
        })
        .collect();

    for handle in handles {
        let (i, response) = handle.join().expect("client thread");
        // The engine's answer equals the offline search, bit for bit.
        let source = db.view(if i % 2 == 0 { 0 } else { i % db.len() });
        let offline = db.top_k(
            &Pss,
            &Dtw,
            &source.to_points()[..12.min(source.len())],
            5,
            true,
        );
        assert_eq!(*response.results, offline, "served answer diverged");
        let best = response.results.first().expect("k >= 1");
        println!(
            "client {i:>2}: best trajectory {:>3} [{}..{}] dist {:.4} \
             (cached: {}, {} µs)",
            best.trajectory_id,
            best.result.range.start,
            best.result.range.end,
            best.result.distance,
            response.cached,
            response.latency.as_micros()
        );
    }

    let stats = engine.stats();
    println!(
        "served {} requests — hit rate {:.0}%, p50 {} µs, p99 {} µs; \
         cold scans pruned {}/{} candidate evaluations ({:.0}%) via the bound cascade",
        stats.get(Count::Requests),
        stats.hit_rate() * 100.0,
        stats.latency_hist.quantile(0.50),
        stats.latency_hist.quantile(0.99),
        stats.scan_pruned(),
        stats.get(Count::ScanCandidates),
        stats.prune_ratio() * 100.0
    );

    // Live reload: hot-swap the serving snapshot to a *fresh corpus*
    // without restarting the engine. In-flight queries would finish
    // against the old epoch; everything admitted from here on sees the
    // new snapshot — and the epoch-keyed result cache never replays a
    // stale answer.
    let fresh = generate(&DatasetSpec::porto(), 120, 8);
    let fresh_db = TrajectoryDb::build(fresh).into_shared();
    let report = engine.swap_snapshot(CorpusSnapshot::new(Arc::clone(&fresh_db)));
    println!(
        "hot-swapped to {} trajectories: epoch {} -> {}, {} stale cache entries purged",
        report.trajectories, report.previous_epoch, report.epoch, report.cache_evicted
    );
    let query = fresh_db.view(0).to_points()[..10].to_vec();
    let response = engine
        .query(QueryRequest {
            query: query.clone(),
            algo: AlgoSpec::Pss,
            measure: MeasureSpec::Dtw,
            k: 3,
            use_index: true,
        })
        .expect("post-swap query");
    assert_eq!(response.epoch, report.epoch);
    assert_eq!(
        *response.results,
        fresh_db.top_k(&Pss, &Dtw, &query, 3, true),
        "post-swap answer diverged from the offline search on the new corpus"
    );
    println!(
        "post-swap query answered from epoch {} — byte-identical to the offline search",
        response.epoch
    );
    engine.shutdown();
}
