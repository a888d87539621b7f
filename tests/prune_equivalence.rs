//! Property harness for the prune-first scan contract: for any corpus,
//! any query, any measure on the search path (DTW, discrete Frechet, a
//! trained t2vec model), either service-default algorithm (ExactS, PSS),
//! the library entry and the threaded entry at 1..4 threads, the pruned
//! scan must be
//! **byte-identical** — same ids, same score bit patterns, same order —
//! to the unpruned reference scan, with consistent [`PruneStats`]
//! (`scanned == pruned + searched`) and admissible bounds
//! (`bound >= true best subtrajectory similarity` for every trajectory).
//! The reference never prunes, never abandons and never sees a floor; and
//! because it still runs the library's own evaluators, ExactS under DTW
//! and Frechet is additionally held — pruned and unpruned — to the
//! independent full-matrix oracle of `tests/common/oracle.rs`. The
//! threaded entry, `TrajectoryDb::top_k_with_threads`, answers exactly
//! like the library call, hits and counters, at every thread count.

mod common;

use common::assert_bitwise_topk;
use common::oracle::{self, OracleMeasure};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::core::{
    scan_prunes, BoundCascade, ExactS, Pos, PosD, PruneStats, Pss, SearchWorkspace, SizeS, Spring,
    SubtrajSearch, TopKResult,
};
use simsub::index::TrajectoryDb;
use simsub::measures::{Dtw, Frechet, Measure, T2Vec, T2VecConfig};
use simsub::trajectory::{CorpusArena, Point, Trajectory};

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

/// Mixed spatial layout (clustered near the origin + spread far away) so
/// both "prunes almost everything" and "prunes nothing" regimes occur.
/// Every other clustered trajectory is a point-for-point copy of the one
/// before it under a new id: the likeliest hits come in pairs with
/// bit-equal scores, so the running k-th similarity is routinely *equal*
/// to the best a later candidate can reach — the case where a floor that
/// abandoned one ulp early, or a tie broken the wrong way, changes the
/// answer.
fn random_corpus(seed: u64, count: usize) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
    let mut corpus: Vec<Trajectory> = Vec::with_capacity(count);
    for i in 0..count {
        let origin = if i % 3 == 0 {
            (0.0, 0.0)
        } else {
            (rng.gen_range(-90.0..90.0), rng.gen_range(-90.0..90.0))
        };
        let len = rng.gen_range(5usize..18);
        let points = if i % 6 == 3 {
            corpus[i - 3].points().to_vec()
        } else {
            walk(seed.wrapping_add(i as u64), len, origin)
        };
        corpus.push(Trajectory::new_unchecked(i as u64, points));
    }
    corpus
}

/// Byte-level equality with the independent oracle's top-k.
fn assert_matches_oracle(got: &[TopKResult], want: &[oracle::OracleHit], context: &str) {
    assert_eq!(got.len(), want.len(), "hit count vs oracle: {context}");
    for (rank, (g, &(id, start, end, similarity))) in got.iter().zip(want).enumerate() {
        assert_eq!(g.trajectory_id, id, "rank {rank} id vs oracle: {context}");
        assert_eq!(
            (g.result.range.start, g.result.range.end),
            (start, end),
            "rank {rank} range vs oracle: {context}"
        );
        assert_eq!(
            g.result.similarity.to_bits(),
            similarity.to_bits(),
            "rank {rank} similarity bits vs oracle: {context}"
        );
    }
}

fn assert_stats(stats: &PruneStats, candidates: u64, context: &str) {
    assert!(
        stats.is_consistent(),
        "scanned != pruned + searched: {stats:?} ({context})"
    );
    assert_eq!(stats.scanned, candidates, "scanned everything: {context}");
}

/// One full (unindexed) scan of `corpus` as a single database: every
/// trajectory is a candidate, so `scanned` is pinned to the corpus size.
fn full_scan(
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    corpus: &[Trajectory],
    query: &[Point],
    k: usize,
    prune: bool,
) -> (Vec<TopKResult>, PruneStats) {
    TrajectoryDb::build(corpus.to_vec()).top_k_with_stats(algo, measure, query, k, false, prune)
}

/// The threaded entry's contract for each query of one scan plan: at
/// `threads` 1..=4 its hits and [`PruneStats`] equal the query's
/// `top_k_with_stats` call. Returns those calls' hits and their summed
/// counters.
#[allow(clippy::too_many_arguments)] // the whole scan plan, spelled once
fn check_threaded_entry(
    db: &TrajectoryDb,
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    queries: &[&[Point]],
    k: usize,
    use_index: bool,
    prune: bool,
    context: &str,
) -> (Vec<Vec<TopKResult>>, PruneStats) {
    let mut summed = PruneStats::default();
    let mut singles = Vec::with_capacity(queries.len());
    for (q, query) in queries.iter().enumerate() {
        let (want, want_stats) = db.top_k_with_stats(algo, measure, query, k, use_index, prune);
        for threads in 1..=4 {
            let context =
                format!("{context} query={q} index={use_index} prune={prune} threads={threads}");
            let (got, stats) =
                db.top_k_with_threads(algo, measure, query, k, use_index, prune, threads);
            assert_bitwise_topk(&got, &want, &format!("threads vs library call: {context}"));
            assert_eq!(stats, want_stats, "counters vs library call: {context}");
        }
        summed.merge(&want_stats);
        singles.push(want);
    }
    (singles, summed)
}

/// Pruned == unpruned across the library and threaded scan entries for
/// one combination.
fn check_prune_equivalence(
    corpus: &[Trajectory],
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    query: &[Point],
    k: usize,
) {
    let n = corpus.len() as u64;
    let context_base = format!("measure={} algo={} k={k}", measure.name(), algo.name());

    // Full scans: the reference never prunes, the pruned scan still
    // accounts for every trajectory.
    let (want, ref_stats) = full_scan(algo, measure, corpus, query, k, false);
    assert_stats(&ref_stats, n, &context_base);
    assert_eq!(ref_stats.pruned(), 0, "reference never prunes");
    assert_eq!(ref_stats.abandoned, 0, "reference never abandons");
    let (pruned, stats) = full_scan(algo, measure, corpus, query, k, true);
    assert_bitwise_topk(&pruned, &want, &format!("sequential {context_base}"));
    assert_stats(&stats, n, &context_base);
    // ExactS has an oracle that shares no code with it.
    let exact_oracle = (algo.name() == ExactS.name())
        .then(|| OracleMeasure::named(measure.name()))
        .flatten()
        .map(|m| oracle::top_k(m, corpus, query, k));
    if let Some(oracle_hits) = &exact_oracle {
        assert_matches_oracle(&want, oracle_hits, &format!("unpruned {context_base}"));
        assert_matches_oracle(&pruned, oracle_hits, &format!("pruned {context_base}"));
    }

    // Indexed database and the threaded entry, both index modes.
    let db = TrajectoryDb::build(corpus.to_vec());
    for use_index in [false, true] {
        let (want_db, _) = db.top_k_with_stats(algo, measure, query, k, use_index, false);
        let (got_db, db_stats) = db.top_k_with_stats(algo, measure, query, k, use_index, true);
        let context = format!("{context_base} index={use_index}");
        assert_bitwise_topk(&got_db, &want_db, &format!("db {context}"));
        assert!(db_stats.is_consistent(), "db stats: {context}");
        for prune in [false, true] {
            let (got, stats) =
                check_threaded_entry(&db, algo, measure, &[query], k, use_index, prune, &context);
            let context = format!("{context} prune={prune}");
            assert_bitwise_topk(&got[0], &want_db, &format!("threaded {context}"));
            if let (Some(oracle_hits), false) = (&exact_oracle, use_index) {
                assert_matches_oracle(&got[0], oracle_hits, &format!("threaded {context}"));
            }
            assert!(stats.is_consistent(), "threaded stats: {context}");
            if !use_index {
                assert_stats(&stats, n, &format!("threaded {context}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: pruned scans are byte-identical to the
    /// unpruned reference across measures × every algorithm the wire
    /// serves through the pruning branch × index modes × the library and
    /// threaded entries at 1..4 threads, with consistent counters. Spring
    /// is DTW's DP whatever the measure, so it is served under DTW only.
    #[test]
    fn pruned_scan_is_byte_identical(
        seed in 0u64..10_000,
        count in 1usize..30,
        k in 1usize..6,
        qlen in 3usize..9,
    ) {
        let corpus = random_corpus(seed, count);
        let query = walk(seed ^ 0x5eed, qlen, (0.0, 0.0));
        let (pos_d, sizes) = (PosD::default(), SizeS::default());
        for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
            for algo in [&ExactS as &dyn SubtrajSearch, &Pss, &Pos, &pos_d, &sizes] {
                check_prune_equivalence(&corpus, algo, measure, &query, k);
            }
        }
        check_prune_equivalence(&corpus, &Spring::new(), &Dtw, &query, k);
    }

    /// Admissibility: all three cascade stages upper-bound the true best
    /// subtrajectory similarity (ExactS) for every trajectory of a
    /// random corpus, and each is never looser than the one before it.
    #[test]
    fn bounds_are_admissible_on_random_corpora(
        seed in 0u64..10_000,
        count in 1usize..20,
        qlen in 2usize..8,
    ) {
        let corpus = random_corpus(seed, count);
        let query = walk(seed ^ 0xb0bd, qlen, (0.0, 0.0));
        let arena = CorpusArena::from_trajectories(&corpus);
        for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
            let mut cascade = BoundCascade::new(measure, &query);
            prop_assert!(scan_prunes(&ExactS, measure, true));
            prop_assert!(SearchWorkspace::new(measure, &query).factors_cell_rows());
            for (slot, t) in corpus.iter().enumerate() {
                let best = ExactS.search(measure, t.points(), &query).similarity;
                let coarse = cascade.coarse_bound(&t.mbr());
                let envelope = cascade.envelope_bound(&t.mbr());
                let view = arena.view(slot);
                let points = cascade.point_bound(view.xs(), view.ys(), |_| true);
                prop_assert!(points <= envelope,
                    "point bound looser than envelope: traj {} {}", t.id, measure.name());
                prop_assert!(points >= best,
                    "point bound {} < best {} for traj {} under {}",
                    points, best, t.id, measure.name());
                prop_assert!(envelope <= coarse + 1e-12,
                    "envelope looser than coarse: traj {} {}", t.id, measure.name());
                prop_assert!(coarse >= best - 1e-12,
                    "coarse bound {} < best {} for traj {} under {}",
                    coarse, best, t.id, measure.name());
                prop_assert!(envelope >= best - 1e-12,
                    "envelope bound {} < best {} for traj {} under {}",
                    envelope, best, t.id, measure.name());
            }
        }
    }

    /// Queries of different lengths over one database: pruned and
    /// unpruned answers match the unpruned full-scan reference under both
    /// measures and both algorithms, and at `threads` 1..4 equal the
    /// library call, hits and counters.
    #[test]
    fn pruned_queries_of_several_lengths_match_the_reference(
        seed in 0u64..10_000,
        count in 2usize..24,
        k in 1usize..5,
    ) {
        let corpus = random_corpus(seed, count);
        let queries: Vec<Vec<Point>> = (0..3)
            .map(|i| walk(seed.wrapping_mul(17).wrapping_add(i), 3 + i as usize, (0.0, 0.0)))
            .collect();
        let refs: Vec<&[Point]> = queries.iter().map(Vec::as_slice).collect();
        for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
            for algo in [&ExactS as &dyn SubtrajSearch, &Pss] {
                let wants: Vec<Vec<TopKResult>> = queries
                    .iter()
                    .map(|q| full_scan(algo, measure, &corpus, q, k, false).0)
                    .collect();
                let db = TrajectoryDb::build(corpus.clone());
                let context = format!("{} {}", measure.name(), algo.name());
                for (use_index, prune) in [(false, true), (false, false), (true, true)] {
                    let (answers, stats) = check_threaded_entry(
                        &db, algo, measure, &refs, k, use_index, prune, &context,
                    );
                    prop_assert!(stats.is_consistent());
                    if use_index {
                        continue;
                    }
                    prop_assert_eq!(stats.scanned, (corpus.len() * queries.len()) as u64);
                    for (got, want) in answers.iter().zip(&wants) {
                        assert_bitwise_topk(got, want, &format!(
                            "db vs unpruned full scan: {context} prune={prune}"));
                    }
                }
            }
        }
    }
}

/// The learned measure admits no bound (`distance_aggregate` is `None`):
/// the scan must never prune under t2vec, and pruned == unpruned holds
/// trivially but is still asserted bitwise with a trained model.
#[test]
fn t2vec_is_never_pruned_and_stays_identical() {
    let corpus = random_corpus(42, 18);
    let cfg = T2VecConfig {
        steps: 40,
        hidden_dim: 8,
        seed: 11,
        ..Default::default()
    };
    let (model, _sep) = T2Vec::train(&corpus, &cfg);
    let query = walk(0xabcd, 7, (0.0, 0.0));
    for algo in [&ExactS as &dyn SubtrajSearch, &Pss] {
        let (want, _) = full_scan(algo, &model, &corpus, &query, 4, false);
        let (pruned, stats) = full_scan(algo, &model, &corpus, &query, 4, true);
        assert_bitwise_topk(&pruned, &want, "t2vec pruned vs unpruned");
        assert_eq!(stats.pruned(), 0, "no admissible bound exists for t2vec");
        assert_eq!(stats.pruned_by_points, 0, "the point-level stage never ran");
        assert_eq!(stats.abandoned, 0, "no floor reaches a t2vec search");
        assert_eq!(stats.searched, corpus.len() as u64);
    }
    // And the library and threaded entries for both algorithms.
    check_prune_equivalence(&corpus, &ExactS, &model, &query, 3);
    check_prune_equivalence(&corpus, &Pss, &model, &query, 3);
}

/// RLS is marked non-admissible (`reported_similarity_is_admissible` is
/// false), so even under DTW the scan must search every candidate.
#[test]
fn rls_disables_pruning() {
    use simsub::core::{train_rls, MdpConfig, Rls, RlsTrainConfig};
    let corpus = random_corpus(7, 10);
    let cfg = RlsTrainConfig::paper(MdpConfig::rls(), 6);
    let report = train_rls(&Dtw, &corpus, &corpus, &cfg);
    let rls = Rls::new(report.policy, MdpConfig::rls());
    assert!(!rls.reported_similarity_is_admissible());
    let query = walk(0x715, 6, (0.0, 0.0));
    let (want, _) = full_scan(&rls, &Dtw, &corpus, &query, 3, false);
    let (got, stats) = full_scan(&rls, &Dtw, &corpus, &query, 3, true);
    assert_bitwise_topk(&got, &want, "rls pruned vs unpruned");
    assert_eq!(stats.pruned(), 0, "non-admissible algorithms never prune");
    assert_eq!(stats.pruned_by_points, 0, "the point-level stage never ran");
    assert_eq!(stats.abandoned, 0, "no floor reaches an RLS search");
}

/// The clustered regime the serving corpus actually looks like: a tight
/// query against far-away clusters must prune most of the corpus *and*
/// stay byte-identical — the end-to-end shape of the acceptance bar,
/// in miniature.
#[test]
fn clustered_corpus_prunes_most_of_the_scan() {
    let mut corpus = Vec::new();
    for i in 0..40u64 {
        let origin = ((i % 8) as f64 * 60.0, (i / 8) as f64 * 60.0);
        corpus.push(Trajectory::new_unchecked(i, walk(i + 1, 14, origin)));
    }
    let query = corpus[0].points()[2..8].to_vec();
    let (want, _) = full_scan(&Pss, &Dtw, &corpus, &query, 3, false);
    let (got, stats) = full_scan(&Pss, &Dtw, &corpus, &query, 3, true);
    assert_bitwise_topk(&got, &want, "clustered corpus");
    assert!(stats.is_consistent());
    assert!(
        stats.prune_ratio() >= 0.5,
        "expected at least half the corpus pruned, got {:?}",
        stats
    );
}

/// The regime behind an R-tree lookup: every candidate's MBR contains the
/// query, so the two MBR stages are blind and only the point-level bound
/// and the kernel's free-start DP can save work. Both must fire here —
/// the DP settling some searched candidates below the k-th, and letting
/// the rest into the heap with their range pending — otherwise the
/// byte-identity proptests above would pass vacuously; and the answer,
/// ranges resolved, must still be the oracle's.
#[test]
fn overlapping_corpus_prunes_on_points_and_abandons() {
    // Long walks from one origin: overlapping MBRs, distinct points.
    let corpus: Vec<Trajectory> = (0..48u64)
        .map(|i| Trajectory::new_unchecked(i, walk(900 + i, 40, (0.0, 0.0))))
        .collect();
    let query = corpus[17].points()[10..18].to_vec();
    for (measure, oracle_measure) in [
        (&Dtw as &dyn Measure, OracleMeasure::Dtw),
        (&Frechet as &dyn Measure, OracleMeasure::Frechet),
    ] {
        let (want, _) = full_scan(&ExactS, measure, &corpus, &query, 3, false);
        let (got, stats) = full_scan(&ExactS, measure, &corpus, &query, 3, true);
        assert_bitwise_topk(&got, &want, measure.name());
        assert_matches_oracle(
            &got,
            &oracle::top_k(oracle_measure, &corpus, &query, 3),
            measure.name(),
        );
        assert!(stats.is_consistent(), "{stats:?}");
        assert!(stats.pruned_by_points > 0, "{}: {stats:?}", measure.name());
        assert!(stats.abandoned > 0, "{}: {stats:?}", measure.name());
        // At least the first k entered the heap unconditionally (no floor
        // yet), each with its range pending.
        assert!(
            stats.searched - stats.abandoned >= 3,
            "{}: {stats:?}",
            measure.name()
        );
    }
}

/// A clustered corpus large enough that the reference path splits at
/// every thread count up to 4: ExactS and PSS under DTW and Frechet,
/// several queries in different clusters, with and without the index.
/// Hits and counters equal the library calls, and the pruned answers
/// equal the unpruned ones.
#[test]
fn clustered_queries_answer_identically_at_every_thread_count() {
    let corpus: Vec<Trajectory> = (0..40u64)
        .map(|i| {
            let origin = ((i % 5) as f64 * 40.0, (i / 5) as f64 * 40.0);
            Trajectory::new_unchecked(i, walk(i + 60, 12, origin))
        })
        .collect();
    let db = TrajectoryDb::build(corpus.clone());
    let queries: Vec<Vec<Point>> = [0usize, 7, 13, 26, 39]
        .iter()
        .map(|&i| corpus[i].points()[3..9].to_vec())
        .collect();
    let refs: Vec<&[Point]> = queries.iter().map(Vec::as_slice).collect();
    for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
        for algo in [&ExactS as &dyn SubtrajSearch, &Pss] {
            for use_index in [false, true] {
                let context = format!("{} / {}", algo.name(), measure.name());
                let (want, want_stats) =
                    check_threaded_entry(&db, algo, measure, &refs, 4, use_index, false, &context);
                let (got, stats) =
                    check_threaded_entry(&db, algo, measure, &refs, 4, use_index, true, &context);
                for (g, w) in got.iter().zip(&want) {
                    assert_bitwise_topk(g, w, &format!("pruned: {context}"));
                }
                assert_eq!(stats.scanned, want_stats.scanned, "{context}");
                if !use_index {
                    assert_eq!(stats.scanned, (corpus.len() * queries.len()) as u64);
                }
            }
        }
    }
}

/// RLS never prunes, so every scan of it takes the split reference path:
/// at 1..4 threads it answers like the library call, for a policy with
/// and without skip actions.
#[test]
fn rls_answers_identically_at_every_thread_count() {
    use simsub::core::{MdpConfig, Rls};
    use simsub::rl::{DqnAgent, DqnConfig};
    let corpus = random_corpus(23, 36);
    let db = TrajectoryDb::build(corpus);
    let queries: Vec<Vec<Point>> = (0..3).map(|i| walk(0x5151 + i, 6, (0.0, 0.0))).collect();
    let refs: Vec<&[Point]> = queries.iter().map(Vec::as_slice).collect();
    for mdp in [MdpConfig::rls(), MdpConfig::rls_skip(2)] {
        let dqn = DqnConfig::paper(mdp.state_dim(), mdp.n_actions());
        let rls = Rls::new(DqnAgent::new(dqn).policy(), mdp);
        assert!(!scan_prunes(&rls, &Dtw, true));
        for use_index in [false, true] {
            let (_, stats) =
                check_threaded_entry(&db, &rls, &Dtw, &refs, 3, use_index, true, &rls.name());
            assert_eq!(stats.pruned(), 0, "RLS never prunes");
            assert_eq!(stats.scanned, stats.searched);
        }
    }
}
