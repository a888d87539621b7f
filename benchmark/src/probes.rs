//! Per-layer micro-probes of the traced run: each calls a layer's public
//! functions on the workload's own corpus and queries and reports the
//! layer's self-time from outside. Every workload runs the same probes,
//! so a layer's number can be compared across working sets.

use crate::client::{Op, Pace};
use crate::metrics::{metric, Metric};
use crate::trace::Tracer;
use crate::util::{derive_seed, median};
use crate::workloads::{serving_snapshot, Sut, K};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub_core::{
    scan_timing_scope, ExactS, MdpConfig, PruneStats, Pss, Rls, RlsTrainConfig, SearchResult,
    SubtrajSearch, TopKHeap, TopKResult,
};
use simsub_data::{
    generate, read_bin_file, read_csv_file, write_bin_file, write_csv_file, DatasetSpec,
};
use simsub_index::{RTree, TrajectoryDb};
use simsub_measures::{CoordNormalizer, DpScratch, Dtw, Frechet, Measure, T2Vec, T2VecConfig};
use simsub_nn::GruCell;
use simsub_rl::{DqnAgent, DqnConfig};
use simsub_service::cache::Cache;
use simsub_service::json::Json;
use simsub_service::{AlgoSpec, MeasureSpec, QueryRequest, QueryResponse};
use simsub_trajectory::{CorpusArena, Mbr, Point, SubtrajRange, TrajView};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median wall time of `reps` runs of `f`, ns.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// [`time_ns`] for a fallible `f`: the first error ends the measurement.
fn try_time_ns<E>(reps: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let mut failed = None;
    let ns = time_ns(reps, || {
        if failed.is_none() {
            failed = f().err();
        }
    });
    failed.map_or(Ok(ns), Err)
}

struct Sizes {
    queries: usize,
    unpruned: usize,
    learned: usize,
    views: usize,
    reps: usize,
    train_steps: usize,
    episodes: usize,
    wire: usize,
}

/// One pruned scan per query under a scan-timing scope: per-query times
/// (µs) and the merged counters.
fn timed_scans(
    db: &TrajectoryDb,
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    queries: &[Vec<Point>],
    prune: bool,
) -> (Vec<f64>, PruneStats) {
    let mut merged = PruneStats::default();
    let times = queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            let (hits, stats) = db.top_k_with_stats(algo, measure, q, K, true, prune);
            let us = t.elapsed().as_secs_f64() * 1e6;
            black_box(hits);
            merged.merge(&stats);
            us
        })
        .collect();
    (times, merged)
}

/// ns per DP cell of running `per_view` over `views` (cells = data
/// length × query length, the repo's own cost-model denominator).
fn ns_per_cell(
    views: &[TrajView<'_>],
    m: usize,
    reps: usize,
    mut per_view: impl FnMut(TrajView<'_>),
) -> f64 {
    let cells: usize = views.iter().map(|v| v.len() * m).sum();
    time_ns(reps, || views.iter().for_each(|&v| per_view(v))) / cells as f64
}

pub fn run(
    sut: &mut Sut,
    seed: u64,
    quick: bool,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let s = if quick {
        Sizes {
            queries: 4,
            unpruned: 2,
            learned: 1,
            views: 40,
            reps: 2,
            train_steps: 2,
            episodes: 3,
            wire: 20,
        }
    } else {
        Sizes {
            queries: 16,
            unpruned: 4,
            learned: 2,
            views: 200,
            reps: 3,
            train_steps: 10,
            episodes: 20,
            wire: 200,
        }
    };
    let io = |e: std::io::Error| e.to_string();
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64| out.push(metric(name, value));
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 900));
    let picks = sut.draw_queries(&mut rng, s.queries);
    let queries: Vec<Vec<Point>> = picks.iter().map(|&i| sut.queries[i].clone()).collect();
    let db = Arc::clone(&sut.dbs[0]);
    let arena = db.arena();
    let points = arena.total_points() as f64;
    let out_dir = Path::new(crate::run::OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(io)?;

    // trajectory + data: what set-up and every reload pay.
    let trajs = db.to_trajectories();
    tracer.scope("trajectory.arena_build", || {
        push(
            "trajectory.arena_build_ms",
            time_ns(s.reps, || {
                drop(black_box(CorpusArena::from_trajectories(&trajs)))
            }) / 1e6,
        );
    });
    let table_bytes = arena.len() * (8 + std::mem::size_of::<Mbr>()) + arena.offsets().len() * 8;
    push(
        "trajectory.arena_bytes_per_point",
        24.0 + table_bytes as f64 / points,
    );
    tracer.scope("data.generate", || {
        let porto = DatasetSpec::porto();
        push(
            "data.generate_ms",
            time_ns(s.reps, || {
                drop(black_box(generate(&porto, trajs.len(), seed)))
            }) / 1e6,
        );
    });
    let bin = out_dir.join("probe.ssb");
    let csv = out_dir.join("probe.csv");
    tracer.scope("data.bin_io", || -> Result<(), String> {
        let write = try_time_ns(s.reps, || write_bin_file(&bin, arena))
            .map_err(|e| format!("writing {}: {e}", bin.display()))?;
        push("data.bin_write_ms", write / 1e6);
        let read = try_time_ns(s.reps, || read_bin_file(&bin).map(drop))
            .map_err(|e| format!("reading {}: {e}", bin.display()))?;
        push("data.bin_read_ms", read / 1e6);
        let bytes = std::fs::metadata(&bin).map_err(io)?.len();
        push("data.bin_bytes_per_point", bytes as f64 / points);
        write_csv_file(&csv, &trajs).map_err(io)?;
        let t = Instant::now();
        let parsed = read_csv_file(&csv).map_err(|e| format!("reading {}: {e}", csv.display()))?;
        push("data.csv_read_ms", crate::util::ms_since(t));
        if parsed.len() != trajs.len() {
            return Err("csv round trip lost trajectories".into());
        }
        Ok(())
    })?;

    // index: the R-tree behind the candidate sets.
    tracer.scope("index.rtree", || {
        let mut height = 0;
        let build = time_ns(s.reps, || {
            let mut tree = RTree::new();
            for slot in 0..arena.len() {
                tree.insert(*arena.mbr(slot), arena.id(slot));
            }
            height = tree.height();
        });
        push("index.build_ms", build / 1e6);
        push("index.rtree_height", height as f64);
        let mut candidates = 0usize;
        let lookups: Vec<f64> = queries
            .iter()
            .map(|q| {
                let mbr = Mbr::of_points(q);
                candidates += db.candidate_ids(&mbr).len();
                time_ns(s.reps, || drop(black_box(db.candidate_ids(&mbr)))) / 1e3
            })
            .collect();
        push("index.candidates_us", median(&lookups));
        push(
            "index.candidate_ratio",
            candidates as f64 / (queries.len() * db.len()) as f64,
        );
    });

    // core: the pruned scan, its cascade and its kernels.
    let learned_t2vec;
    let learned_rls;
    let (rls, t2vec): (&Rls, &T2Vec) = match &sut.models {
        Some(learned) => (&learned.rls, &learned.t2vec),
        // Untrained models cost what trained ones cost; only the
        // decisions differ, and no probe reads those.
        None => {
            learned_t2vec = T2Vec::random(seed, 16, CoordNormalizer::from_corpus(&trajs));
            let mdp = MdpConfig {
                skip_actions: 0,
                use_suffix: false,
            };
            let policy = DqnAgent::new(DqnConfig::paper(mdp.state_dim(), mdp.n_actions())).policy();
            learned_rls = Rls::new(policy, mdp);
            (&learned_rls, &learned_t2vec)
        }
    };
    tracer.scope("core.scans", || {
        let (plain, stats) = timed_scans(&db, &ExactS, &Dtw, &queries, true);
        push("core.scan_exact_us", median(&plain));
        let n = queries.len() as f64;
        let scanned = stats.scanned.max(1) as f64;
        push("core.prune_ratio", stats.prune_ratio());
        push(
            "core.pruned_by_kim_ratio",
            stats.pruned_by_kim as f64 / scanned,
        );
        push(
            "core.pruned_by_mbr_ratio",
            stats.pruned_by_mbr as f64 / scanned,
        );
        push("core.searched_per_query", stats.searched as f64 / n);
        push("core.cells_per_query", stats.searched_cells as f64 / n);
        let (unpruned, _) = timed_scans(&db, &ExactS, &Dtw, &queries[..s.unpruned], false);
        push("core.scan_unpruned_us", median(&unpruned));
        let _timing = scan_timing_scope();
        let (_, timed) = timed_scans(&db, &ExactS, &Dtw, &queries, true);
        push(
            "core.bound_ns_per_candidate",
            timed.bound_ns as f64 / timed.scanned.max(1) as f64,
        );
        push(
            "core.exact_ns_per_cell",
            timed.kernel_ns as f64 / timed.searched_cells.max(1) as f64,
        );
        let (pss, timed) = timed_scans(&db, &Pss, &Dtw, &queries, true);
        push("core.scan_pss_us", median(&pss));
        push(
            "core.pss_ns_per_cell",
            timed.kernel_ns as f64 / timed.searched_cells.max(1) as f64,
        );
        let few = &queries[..s.learned];
        let scanned_points: usize = few
            .iter()
            .map(|q| {
                db.candidates(&Mbr::of_points(q))
                    .iter()
                    .map(|v| v.len())
                    .sum::<usize>()
            })
            .sum();
        let (learned, _) = timed_scans(&db, rls, t2vec, few, false);
        push("core.scan_rls_us", median(&learned));
        push(
            "core.rls_ns_per_point",
            learned.iter().sum::<f64>() * 1e3 / scanned_points.max(1) as f64,
        );
    });
    tracer.scope("core.topk_push", || {
        let hits: Vec<TopKResult> = (0..10_000u64)
            .map(|id| TopKResult {
                trajectory_id: id,
                result: SearchResult::from_distance(
                    SubtrajRange::new(0, 1),
                    rng.gen::<f64>() * 10.0,
                ),
            })
            .collect();
        let ns = time_ns(s.reps, || {
            let mut heap = TopKHeap::new(K);
            hits.iter().for_each(|&hit| heap.push(hit));
            black_box(heap.len());
        });
        push("core.topk_push_ns", ns / hits.len() as f64);
    });

    // measures: the DP kernels and the learned measure, per cell / point.
    let views: Vec<TrajView<'_>> = (0..s.views.min(db.len()))
        .map(|slot| db.view(slot))
        .collect();
    let data_points: usize = views.iter().map(|v| v.len()).sum();
    let q = &queries[0];
    tracer.scope("measures.kernels", || {
        let mut scratch = DpScratch::default();
        push(
            "measures.exact_best_ns_per_cell",
            ns_per_cell(&views, q.len(), s.reps, |v| {
                black_box(Dtw.exact_best(v, q, &mut scratch));
            }),
        );
        let mut dtw = Dtw.make_workspace(q);
        push(
            "measures.dtw_run_ns_per_cell",
            ns_per_cell(&views, q.len(), s.reps, |v| {
                dtw.init(v.point(0));
                black_box(dtw.extend_run(&v.xs()[1..], &v.ys()[1..], &v.ts()[1..]));
            }),
        );
        let mut frechet = Frechet.make_workspace(q);
        push(
            "measures.frechet_run_ns_per_cell",
            ns_per_cell(&views, q.len(), s.reps, |v| {
                frechet.init(v.point(0));
                black_box(frechet.extend_run(&v.xs()[1..], &v.ys()[1..], &v.ts()[1..]));
            }),
        );
        push(
            "measures.dtw_point_ns_per_cell",
            ns_per_cell(&views, q.len(), s.reps, |v| {
                dtw.init(v.point(0));
                for i in 1..v.len() {
                    black_box(dtw.extend(v.point(i)));
                }
            }),
        );
        let mut incremental = t2vec.make_workspace(q);
        let extend = time_ns(s.reps, || {
            for v in &views {
                incremental.init(v.point(0));
                for i in 1..v.len() {
                    black_box(incremental.extend(v.point(i)));
                }
            }
        });
        push(
            "measures.t2vec_extend_ns_per_point",
            extend / data_points as f64,
        );
        let subset = &trajs[..views.len()];
        let encode = time_ns(s.reps, || {
            subset
                .iter()
                .for_each(|t| drop(black_box(t2vec.encode(t.points()))))
        });
        push(
            "measures.t2vec_encode_us",
            encode / 1e3 / subset.len() as f64,
        );
    });
    let train_set = &trajs[..trajs.len().min(48)];
    tracer.scope("measures.t2vec_train", || {
        let cfg = T2VecConfig {
            steps: s.train_steps,
            seed,
            ..T2VecConfig::default()
        };
        let t = Instant::now();
        black_box(T2Vec::train(train_set, &cfg));
        push(
            "measures.t2vec_train_ms_per_step",
            crate::util::ms_since(t) / s.train_steps as f64,
        );
    });

    // nn + rl: the policy network, the encoder cell and DQN training.
    tracer.scope("nn.forward", || {
        let policy = rls.policy();
        let state = vec![0.4; policy.state_dim()];
        push(
            "nn.mlp_forward_ns",
            time_ns(s.reps, || {
                (0..10_000).for_each(|_| drop(black_box(policy.q_values(black_box(&state)))))
            }) / 1e4,
        );
        let cell = GruCell::new(&mut rng, 2, t2vec.embedding_dim());
        let mut h = cell.initial_state();
        push(
            "nn.gru_step_ns",
            time_ns(s.reps, || {
                (0..10_000).for_each(|_| cell.step(black_box(&mut h), &[0.1, 0.2]))
            }) / 1e4,
        );
    });
    tracer.scope("rl.train", || {
        let mdp = rls.config();
        let mut cfg = RlsTrainConfig::paper(mdp, s.episodes);
        cfg.validation_pairs = 0;
        cfg.seed = seed;
        let t = Instant::now();
        let report = simsub_core::train_rls(sut.measure(), train_set, train_set, &cfg);
        push(
            "rl.train_ms_per_episode",
            crate::util::ms_since(t) / s.episodes as f64,
        );
        push("rl.transitions", report.transitions as f64);
    });

    // service, bottom-up: codec, key, cache, engine, wire.
    let line = format!("{{\"v\":2,\"id\":1{}", sut.bodies[picks[0]]);
    let json = Json::parse(&line).map_err(|e| e.to_string())?;
    let request = QueryRequest::from_json(&json)?;
    let hits: Vec<TopKResult> = db.top_k(sut.algo(), sut.measure(), &request.query, K, true);
    tracer.scope("service.codec", || {
        push(
            "service.json_parse_us",
            time_ns(s.wire, || drop(black_box(Json::parse(&line)))) / 1e3,
        );
        push(
            "service.request_decode_us",
            time_ns(s.wire, || drop(black_box(QueryRequest::from_json(&json)))) / 1e3,
        );
        push(
            "service.canonical_key_ns",
            time_ns(s.reps, || {
                for _ in 0..1000 {
                    black_box(black_box(&request).canonical_key());
                }
            }) / 1e3,
        );
        let response = QueryResponse {
            results: Arc::new(hits.clone()),
            cached: true,
            latency: Duration::from_micros(20),
            batch_size: 1,
            epoch: 1,
            trace: None,
        };
        push(
            "service.response_encode_us",
            time_ns(s.wire, || drop(black_box(response.to_json().dump()))) / 1e3,
        );
    });
    tracer.scope("service.cache", || {
        const ENTRIES: u64 = 4096;
        let value = Arc::new(hits.clone());
        let mut cache: Cache<u64, Arc<Vec<TopKResult>>> = Cache::new(ENTRIES as usize);
        let key = |i: u64| derive_seed(seed, i);
        for i in 0..ENTRIES {
            cache.insert(key(i), Arc::clone(&value), 1);
        }
        let get = time_ns(s.reps, || {
            (0..ENTRIES).for_each(|i| drop(black_box(cache.get(&key(i)))))
        });
        push("service.cache_get_ns", get / ENTRIES as f64);
        let mut next = ENTRIES;
        let insert = time_ns(s.reps, || {
            for i in next..next + ENTRIES {
                cache.insert(key(i), Arc::clone(&value), 1);
            }
            next += ENTRIES;
        });
        push("service.cache_insert_ns", insert / ENTRIES as f64);
        let t = Instant::now();
        let purged = cache.purge_below_epoch(2);
        push("service.cache_purge_us", t.elapsed().as_secs_f64() * 1e6);
        black_box(purged);
    });
    let engine = Arc::clone(&sut.engine);
    // Queries nudged off every cached key: guaranteed misses.
    let nudged = |i: usize| {
        let mut request = request.clone();
        request.query = queries[i % queries.len()].clone();
        request.query[0].x += 1e-7 * (i + 1) as f64;
        request
    };
    tracer.scope("service.engine", || -> Result<(), String> {
        engine.query(request.clone()).map_err(|e| e.to_string())?;
        let hit = try_time_ns(s.wire, || engine.query(request.clone()).map(drop))
            .map_err(|e| format!("engine hit: {e}"))?;
        push("service.engine_hit_us", hit / 1e3);
        let mut overheads = Vec::new();
        for i in 0..s.queries {
            let request = nudged(i);
            let t = Instant::now();
            let direct = db.top_k(sut.algo(), sut.measure(), &request.query, K, true);
            let direct_us = t.elapsed().as_secs_f64() * 1e6;
            black_box(direct);
            let t = Instant::now();
            engine
                .query(request)
                .map_err(|e| format!("engine miss: {e}"))?;
            overheads.push(t.elapsed().as_secs_f64() * 1e6 - direct_us);
        }
        push("service.engine_miss_overhead_us", median(&overheads));
        Ok(())
    })?;
    tracer.scope("service.wire", || -> Result<(), String> {
        let mut pings = Vec::new();
        let mut served = Vec::new();
        let warm = format!("{line}\n");
        for _ in 0..s.wire {
            pings.push(sut.client.ping().map_err(io)?.as_secs_f64() * 1e6);
            let (rtt, response) = sut.client.roundtrip(&warm).map_err(io)?;
            if response.get("cached").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "warm wire query missed the cache: {}",
                    response.dump()
                ));
            }
            served.push(rtt.as_secs_f64() * 1e6);
        }
        push("service.wire_ping_us", median(&pings));
        push("service.wire_hit_us", median(&served));
        Ok(())
    })?;

    // Last, because they replace the serving snapshot: swap and reload.
    tracer.scope("service.reload", || -> Result<(), String> {
        push(
            "service.swap_ms",
            time_ns(s.reps, || {
                black_box(engine.swap_snapshot(serving_snapshot(&db, &sut.models)));
            }) / 1e6,
        );
        sut.reload_paths.push(bin.clone());
        let probe_file = sut.reload_paths.len() - 1;
        let mut evicted = Vec::new();
        let mut reloads = Vec::new();
        for rep in 0..s.reps {
            // Ten fresh entries for the reload to evict. PSS + DTW whatever
            // the workload: the first reload leaves no model to serve RLS.
            for i in 0..K {
                let mut fill = nudged(100 + rep * K + i);
                (fill.algo, fill.measure) = (AlgoSpec::Pss, MeasureSpec::Dtw);
                engine.query(fill).map_err(|e| e.to_string())?;
            }
            let out = sut.phase(&[Op::Reload(probe_file)], Pace::Closed, false, 0, None);
            if out.failed > 0 {
                return Err(format!("probe reload failed: {:?}", out.first_error));
            }
            reloads.extend(out.reload_ms);
            evicted.extend(out.obs.evicted);
        }
        push("service.reload_ms", median(&reloads));
        push(
            "service.cache_evicted_per_reload",
            crate::util::mean(&evicted),
        );
        Ok(())
    })?;
    Ok(out)
}
