//! Property harness for the sharded-corpus contract: for any corpus, any
//! query, any shard count in 1..8, and either partitioner,
//! `ShardedDb::top_k` must be **byte-identical** — same ids, same score
//! bit patterns, same order — to `TrajectoryDb::top_k` over the same
//! corpus. Covers every similarity measure wired into the search path
//! (DTW, discrete Frechet, and a trained t2vec model), both search
//! algorithms the service dispatches by default paths (ExactS, PSS),
//! indexed and full-scan modes, the parallel fan-out, and batches — whose
//! hits *and* prune counters must be exactly the sum of their
//! single-query calls.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::core::{pruning_enabled, ExactS, PruneStats, Pss, SubtrajSearch, TopKResult};
use simsub::index::{PartitionerKind, ShardedDb, TrajectoryDb};
use simsub::measures::{Dtw, Frechet, Measure, T2Vec, T2VecConfig};
use simsub::service::{
    AlgoSpec, CorpusSnapshot, EngineConfig, MeasureSpec, QueryEngine, QueryRequest,
};
use simsub::trajectory::{Mbr, Point, Trajectory};

const SHARD_COUNTS: std::ops::RangeInclusive<usize> = 1..=8;
const PARTITIONERS: [PartitionerKind; 2] = [PartitionerKind::Hash, PartitionerKind::Grid];

fn walk(seed: u64, len: usize, origin: (f64, f64)) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut x, mut y) = origin;
    (0..len)
        .map(|i| {
            x += rng.gen_range(-1.5..1.5);
            y += rng.gen_range(-1.5..1.5);
            Point::new(x, y, i as f64)
        })
        .collect()
}

/// A random corpus with mixed spatial layout: some trajectories cluster,
/// some spread, so grid shards range from crowded to empty.
fn random_corpus(seed: u64, count: usize) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    (0..count)
        .map(|i| {
            let origin = if i % 3 == 0 {
                (0.0, 0.0) // cluster near the origin
            } else {
                (rng.gen_range(-80.0..80.0), rng.gen_range(-80.0..80.0))
            };
            let len = rng.gen_range(6usize..20);
            Trajectory::new_unchecked(i as u64, walk(seed.wrapping_add(i as u64), len, origin))
        })
        .collect()
}

/// Byte-level equality: ids, subtrajectory ranges, and the exact bit
/// patterns of distance and similarity. `assert_eq!` on `TopKResult`
/// would accept `-0.0 == 0.0`; the acceptance bar is stricter.
fn assert_identical(got: &[TopKResult], want: &[TopKResult], context: &str) {
    assert_eq!(got.len(), want.len(), "hit count differs: {context}");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.trajectory_id, w.trajectory_id, "rank {rank}: {context}");
        assert_eq!(g.result.range, w.result.range, "rank {rank}: {context}");
        assert_eq!(
            g.result.distance.to_bits(),
            w.result.distance.to_bits(),
            "rank {rank} distance bits: {context}"
        );
        assert_eq!(
            g.result.similarity.to_bits(),
            w.result.similarity.to_bits(),
            "rank {rank} similarity bits: {context}"
        );
    }
}

/// Asserts the full contract for one corpus/query/measure/algorithm
/// combination across all shard counts and partitioners.
fn check_equivalence(
    corpus: &[Trajectory],
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    query: &[Point],
    k: usize,
) {
    let single = TrajectoryDb::build(corpus.to_vec());
    for use_index in [false, true] {
        let want = single.top_k(algo, measure, query, k, use_index);
        for shards in SHARD_COUNTS {
            for kind in PARTITIONERS {
                let sharded = ShardedDb::build(corpus.to_vec(), shards, kind);
                for threads in [1, 4] {
                    let (got, _) = sharded.top_k(
                        algo,
                        measure,
                        &[query],
                        k,
                        use_index,
                        pruning_enabled(),
                        threads,
                    );
                    let context = format!(
                        "shards={shards} kind={} index={use_index} threads={threads} \
                         measure={} algo={} k={k}",
                        kind.name(),
                        measure.name(),
                        algo.name(),
                    );
                    assert_identical(&got[0], &want, &context);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: random corpora and queries, every shard
    /// count in 1..8, both partitioners, DTW and Frechet (the built-in
    /// measures on the search path; the learned t2vec measure has its
    /// own trained-model case below), ExactS and PSS.
    #[test]
    fn sharded_topk_is_byte_identical(
        seed in 0u64..10_000,
        count in 1usize..36,
        k in 1usize..7,
        qlen in 3usize..10,
    ) {
        let corpus = random_corpus(seed, count);
        let query = walk(seed ^ 0x9e37, qlen, (0.0, 0.0));
        for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
            check_equivalence(&corpus, &ExactS, measure, &query, k);
            check_equivalence(&corpus, &Pss, measure, &query, k);
        }
    }

    /// Candidate sets agree with the single R-tree as *sets* (the sharded
    /// surface sorts, the single tree returns traversal order).
    #[test]
    fn sharded_candidates_equal_single_tree(
        seed in 0u64..10_000,
        count in 1usize..50,
        qlen in 2usize..12,
    ) {
        let corpus = random_corpus(seed, count);
        let single = TrajectoryDb::build(corpus.clone());
        let qmbr = Mbr::of_points(&walk(seed ^ 0x51ab, qlen, (0.0, 0.0)));
        let mut want = single.candidate_ids(&qmbr);
        want.sort_unstable();
        for shards in SHARD_COUNTS {
            for kind in PARTITIONERS {
                let sharded = ShardedDb::build(corpus.clone(), shards, kind);
                prop_assert_eq!(
                    sharded.candidate_ids(&qmbr),
                    want.clone(),
                    "shards={} kind={}", shards, kind.name()
                );
            }
        }
    }

    /// A batch is exactly the sum of its single-query calls: same hits
    /// per query and the same summed `PruneStats`, with queries of
    /// different lengths sharing one call. (With a parallel fan-out and
    /// pruning on, which worker raises the shared floor first decides
    /// *how* a candidate is rejected, so only `scanned` and consistency
    /// are pinned there; every other combination is deterministic and
    /// compared whole.)
    #[test]
    fn batch_equals_the_sum_of_single_query_calls(
        seed in 0u64..10_000,
        count in 2usize..30,
        k in 1usize..5,
    ) {
        let corpus = random_corpus(seed, count);
        let queries: Vec<Vec<Point>> = (0..4)
            .map(|i| walk(seed.wrapping_mul(31).wrapping_add(i), 4 + i as usize, (0.0, 0.0)))
            .collect();
        let refs: Vec<&[Point]> = queries.iter().map(Vec::as_slice).collect();
        for shards in [1, 3, 4] {
            for kind in PARTITIONERS {
                let sharded = ShardedDb::build(corpus.clone(), shards, kind);
                for (use_index, prune, threads) in [
                    (false, true, 1), (true, true, 1), (false, false, 1),
                    (false, true, 2), (true, true, 2), (true, false, 2),
                ] {
                    let context = format!(
                        "shards={shards} kind={} index={use_index} prune={prune} threads={threads}",
                        kind.name()
                    );
                    let (batched, batch_stats) =
                        sharded.top_k(&ExactS, &Dtw, &refs, k, use_index, prune, threads);
                    let mut summed = PruneStats::default();
                    for (got, q) in batched.iter().zip(&refs) {
                        let (want, stats) =
                            sharded.top_k(&ExactS, &Dtw, &[q], k, use_index, prune, threads);
                        assert_identical(got, &want[0], &context);
                        summed.merge(&stats);
                    }
                    prop_assert!(batch_stats.is_consistent(), "{}", context);
                    prop_assert_eq!(batch_stats.scanned, summed.scanned, "{}", context);
                    if threads == 1 || !prune {
                        prop_assert_eq!(batch_stats, summed, "{}", context);
                    }
                }
            }
        }
    }
}

/// A single database *is* the 1-shard corpus: `CorpusSnapshot::new(db)`
/// and an explicit 1-shard layout under either partitioner key the cache
/// identically and serve identical answers.
#[test]
fn single_database_is_the_one_shard_layout() {
    let corpus = random_corpus(5, 24);
    let db = TrajectoryDb::build(corpus.clone()).into_shared();
    let request = QueryRequest {
        query: walk(0x51, 7, (0.0, 0.0)),
        algo: AlgoSpec::Pss,
        measure: MeasureSpec::Dtw,
        k: 4,
        use_index: true,
    };
    let want = db.top_k(&Pss, &Dtw, &request.query, request.k, true);
    let single = CorpusSnapshot::new(db);
    assert_eq!(single.corpus().layout_version(), 0);
    for kind in PARTITIONERS {
        let explicit =
            CorpusSnapshot::sharded(ShardedDb::build(corpus.clone(), 1, kind).into_shared());
        assert_eq!(
            explicit.cache_key(&request),
            single.cache_key(&request),
            "1-shard {} layout keys differently",
            kind.name()
        );
        let engine = QueryEngine::start(explicit, EngineConfig::default());
        let got = engine.query(request.clone()).expect("served");
        assert_identical(&got.results, &want, kind.name());
        engine.shutdown();
    }
    let engine = QueryEngine::start(single, EngineConfig::default());
    let got = engine.query(request).expect("served");
    assert_identical(&got.results, &want, "CorpusSnapshot::new");
    engine.shutdown();
}

/// The learned measure: a t2vec model trained once (deterministic seed)
/// and shared across layouts. Embedding distances are float-heavy, so
/// bitwise equality here is a strong signal the merge never re-derives
/// scores.
#[test]
fn sharded_topk_identical_under_trained_t2vec() {
    let corpus = random_corpus(77, 24);
    let cfg = T2VecConfig {
        steps: 40,
        hidden_dim: 8,
        seed: 7,
        ..Default::default()
    };
    let (model, _sep) = T2Vec::train(&corpus, &cfg);
    let query = walk(0x72ec, 8, (0.0, 0.0));
    check_equivalence(&corpus, &ExactS, &model, &query, 4);
    check_equivalence(&corpus, &Pss, &model, &query, 3);
}

/// Regression: clustered corpora leave grid shards empty; the fan-out
/// must treat an empty shard's R-tree as "no candidates", not panic.
#[test]
fn empty_grid_shards_do_not_break_equivalence() {
    // Everything piles into two far-apart clusters: most of the 8 grid
    // shards end up empty.
    let mut corpus = Vec::new();
    for i in 0..8u64 {
        let origin = if i % 2 == 0 {
            (0.0, 0.0)
        } else {
            (400.0, 400.0)
        };
        corpus.push(Trajectory::new_unchecked(i, walk(i, 12, origin)));
    }
    let sharded = ShardedDb::build(corpus.clone(), 8, PartitionerKind::Grid);
    assert!(
        sharded.shards().iter().any(|s| s.is_empty()),
        "test must actually produce an empty shard"
    );
    check_equivalence(&corpus, &ExactS, &Dtw, &walk(99, 6, (400.0, 400.0)), 3);
    check_equivalence(&corpus, &Pss, &Frechet, &walk(98, 5, (0.0, 0.0)), 2);
}
