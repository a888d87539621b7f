//! Property harness for the columnar-layout contract: arena-backed scans
//! (SoA slabs, precomputed MBR tables, slice DP kernels, zero-copy
//! `TrajView`s) must be **byte-identical** — same ids, same ranges, same
//! score bit patterns, same order — to the pre-arena `Vec<Point>` path
//! (the scalar oracle of `tests/common/scalar.rs` per trajectory over
//! AoS points, ranked through `sort_hits_and_truncate`), across measures
//! on the search path (DTW, discrete Frechet, a trained t2vec model),
//! both service-default algorithms (ExactS, PSS), and prune on/off. The learned walks (RLS, RLS-Skip, RLS+, RLS-Skip+) join
//! through one workspace reused across every candidate and re-targeted
//! across queries, against a fresh scalar walk per candidate. The packed
//! binary corpus format must round-trip the arena bit-exactly and reject
//! corrupt or truncated files.

mod common;

use common::assert_bitwise_topk;
use common::scalar::{reference_top_k, rls_walk, Scalar};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::core::{ExactS, MdpConfig, Rls, ScanStats, SearchWorkspace, TopKResult};
use simsub::data::{read_bin, read_csv, write_bin, write_csv, BinCorpusError};
use simsub::index::TrajectoryDb;
use simsub::measures::{Dtw, Frechet, Measure, T2Vec, T2VecConfig};
use simsub::rl::{DqnAgent, DqnConfig};
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
/// both pruning regimes occur.
fn random_corpus(seed: u64, count: usize) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01d_cafe);
    (0..count)
        .map(|i| {
            let origin = if i % 3 == 0 {
                (0.0, 0.0)
            } else {
                (rng.gen_range(-90.0..90.0), rng.gen_range(-90.0..90.0))
            };
            let len = rng.gen_range(5usize..18);
            Trajectory::new_unchecked(i as u64, walk(seed.wrapping_add(i as u64), len, origin))
        })
        .collect()
}

/// Arena-backed scans across every path must equal the pre-arena
/// reference bit for bit.
fn check_layout_equivalence(
    corpus: &[Trajectory],
    which: Scalar<'_>,
    measure: &dyn Measure,
    query: &[Point],
    k: usize,
) {
    let algo = which.product();
    let algo = algo.as_ref();
    let context_base = format!("measure={} algo={} k={k}", measure.name(), algo.name());
    let want = reference_top_k(which, measure, corpus, query, k);

    let db = TrajectoryDb::build(corpus.to_vec());
    for prune in [false, true] {
        let context = format!("{context_base} prune={prune}");
        let (got, stats) = db.top_k_with_stats(algo, measure, query, k, false, prune);
        assert_bitwise_topk(&got, &want, &format!("db full scan {context}"));
        assert!(stats.is_consistent(), "db stats: {context}");
    }

    // Indexed scans agree with the indexed pre-arena filter: reference
    // restricted to R-tree candidates equals the indexed arena scan.
    let qmbr = simsub::trajectory::Mbr::of_points(query);
    let filtered: Vec<Trajectory> = corpus
        .iter()
        .filter(|t| t.mbr().intersects(&qmbr))
        .cloned()
        .collect();
    let want_indexed = reference_top_k(which, measure, &filtered, query, k);
    let got_indexed = db.top_k(algo, measure, query, k, true);
    assert_bitwise_topk(
        &got_indexed,
        &want_indexed,
        &format!("indexed {context_base}"),
    );
}

/// Pack → load must reproduce the arena bit-exactly, and a database
/// reloaded from the packed form must answer byte-identically.
fn check_pack_round_trip(corpus: &[Trajectory], query: &[Point], k: usize) {
    let arena = CorpusArena::from_trajectories(corpus);
    let mut buf = Vec::new();
    write_bin(&mut buf, &arena).expect("pack");
    let back = read_bin(std::io::Cursor::new(&buf)).expect("load packed corpus");
    assert_eq!(back.ids(), arena.ids(), "id table");
    assert_eq!(back.offsets(), arena.offsets(), "offsets table");
    for (slabs, name) in [
        ((back.xs(), arena.xs()), "xs"),
        ((back.ys(), arena.ys()), "ys"),
        ((back.ts(), arena.ts()), "ts"),
    ] {
        assert_eq!(slabs.0.len(), slabs.1.len(), "{name} length");
        for (a, b) in slabs.0.iter().zip(slabs.1) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name} slab bits");
        }
    }
    for s in 0..arena.len() {
        assert_eq!(back.mbr(s), arena.mbr(s), "recomputed MBR table");
    }
    if !corpus.is_empty() {
        let from_csv_path = TrajectoryDb::build(corpus.to_vec());
        let from_packed = TrajectoryDb::from_arena(back);
        let want = from_csv_path.top_k(&ExactS, &Dtw, query, k, false);
        let got = from_packed.top_k(&ExactS, &Dtw, query, k, false);
        assert_bitwise_topk(&got, &want, "packed reload answers");

        // A CSV reload of the same corpus ranks the same trajectories.
        let mut csv = Vec::new();
        write_csv(&mut csv, corpus).expect("write csv");
        let from_csv = TrajectoryDb::build(read_csv(std::io::Cursor::new(csv)).expect("read csv"));
        let ids = |hits: &[TopKResult]| hits.iter().map(|h| h.trajectory_id).collect::<Vec<_>>();
        assert_eq!(
            ids(&from_csv.top_k(&ExactS, &Dtw, query, k, false)),
            ids(&got),
            "csv vs packed reload ids"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: arena-backed scans are byte-identical to
    /// the pre-arena `Vec<Point>` path across DTW/Frechet × ExactS/PSS ×
    /// prune on/off.
    #[test]
    fn arena_scan_is_byte_identical_to_prearena_path(
        seed in 0u64..10_000,
        count in 1usize..24,
        k in 1usize..6,
        qlen in 3usize..9,
    ) {
        let corpus = random_corpus(seed, count);
        let query = walk(seed ^ 0xa7e4a, qlen, (0.0, 0.0));
        for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
            check_layout_equivalence(&corpus, Scalar::ExactS, measure, &query, k);
            check_layout_equivalence(&corpus, Scalar::Pss, measure, &query, k);
        }
    }

    /// Pack → load round-trip: slabs, tables, and reloaded answers are
    /// bit-exact for arbitrary corpora.
    #[test]
    fn packed_corpus_round_trips_bit_exactly(
        seed in 0u64..10_000,
        count in 0usize..20,
        k in 1usize..5,
    ) {
        let corpus = random_corpus(seed, count);
        let query = walk(seed ^ 0xb17, 6, (0.0, 0.0));
        check_pack_round_trip(&corpus, &query, k);
    }

    /// Any single flipped payload byte (or truncation point) must be
    /// rejected — never silently load different data.
    #[test]
    fn corrupt_and_truncated_packed_corpora_are_rejected(
        seed in 0u64..10_000,
        flip in 8usize..10_000,
        cut in 0usize..10_000,
    ) {
        let corpus = random_corpus(seed, 6);
        let arena = CorpusArena::from_trajectories(&corpus);
        let mut buf = Vec::new();
        write_bin(&mut buf, &arena).expect("pack");

        let cut = cut % buf.len();
        if cut < buf.len() {
            let err = read_bin(std::io::Cursor::new(&buf[..cut]));
            prop_assert!(err.is_err(), "truncation at {cut} must fail");
        }

        let flip = 8 + flip % (buf.len() - 8); // keep the magic intact
        let mut corrupted = buf.clone();
        corrupted[flip] ^= 0x20;
        match read_bin(std::io::Cursor::new(&corrupted)) {
            Err(_) => {}
            Ok(loaded) => {
                // The flip landed in a checksummed byte, so reaching here
                // is impossible; spell the failure out if it ever happens.
                prop_assert!(
                    false,
                    "flipped byte {flip} loaded silently ({} trajectories)",
                    loaded.len()
                );
            }
        }
    }
}

/// A database loaded from a packed corpus answers like the one built
/// from the trajectories it was packed from: same hits, same counters, at
/// every thread count, pruned or not.
#[test]
fn packed_corpus_answers_like_the_built_corpus() {
    let corpus = random_corpus(77, 30);
    let mut buf = Vec::new();
    write_bin(&mut buf, &CorpusArena::from_trajectories(&corpus)).expect("pack");
    let packed =
        TrajectoryDb::from_arena(read_bin(std::io::Cursor::new(&buf)).expect("load packed corpus"));
    let built = TrajectoryDb::build(corpus);
    let queries: Vec<Vec<Point>> = (0..4).map(|i| walk(0xba7c + i, 6, (0.0, 0.0))).collect();
    for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
        for prune in [false, true] {
            for threads in 1..=4 {
                for (q, query) in queries.iter().enumerate() {
                    let context = format!(
                        "{} prune={prune} threads={threads} query={q}",
                        measure.name()
                    );
                    let (want, want_stats) =
                        built.top_k_with_threads(&ExactS, measure, query, 3, false, prune, threads);
                    let (got, stats) = packed
                        .top_k_with_threads(&ExactS, measure, query, 3, false, prune, threads);
                    assert_bitwise_topk(&got, &want, &context);
                    assert_eq!(stats, want_stats, "{context}");
                }
            }
        }
    }
}

/// The learned measure takes the staged fallback path (no slice kernel,
/// no bounds): arena scans must still match the pre-arena reference with
/// a trained model.
#[test]
fn t2vec_arena_scans_match_prearena_path() {
    let corpus = random_corpus(21, 14);
    let cfg = T2VecConfig {
        steps: 40,
        hidden_dim: 8,
        seed: 5,
        ..Default::default()
    };
    let (model, _sep) = T2Vec::train(&corpus, &cfg);
    let query = walk(0xfeed, 7, (0.0, 0.0));
    check_layout_equivalence(&corpus, Scalar::ExactS, &model, &query, 3);
    check_layout_equivalence(&corpus, Scalar::Pss, &model, &query, 3);
}

/// The learned walks borrow what the scan's workspace holds — the prefix
/// evaluator targeted at the query once, the bulk suffix buffer, the
/// Q-network scratch — so one workspace is walked over every candidate and
/// `reset` across queries, and each walk must equal, in range, similarity
/// bits and `ScanStats`, a scalar walk on a fresh evaluator and a fresh
/// suffix pass. Untrained policies from several seeds stand in for a
/// trained one: between them every action of every MDP is taken.
#[test]
fn rls_workspace_walks_match_fresh_scalar_walks() {
    let corpus = random_corpus(33, 12);
    let arena = CorpusArena::from_trajectories(&corpus);
    let cfg = T2VecConfig {
        steps: 30,
        hidden_dim: 8,
        seed: 9,
        ..Default::default()
    };
    let (t2vec, _sep) = T2Vec::train(&corpus, &cfg);
    let queries = [
        walk(0xa11, 7, (0.0, 0.0)),
        walk(0xa12, 3, (20.0, -10.0)),
        walk(0xa13, 11, (-5.0, 5.0)),
    ];
    let no_suffix = |skip_actions| MdpConfig {
        skip_actions,
        use_suffix: false,
    };
    for measure in [&Dtw as &dyn Measure, &Frechet, &t2vec] {
        for mdp in [
            MdpConfig::rls(),
            MdpConfig::rls_skip(3),
            no_suffix(0),
            no_suffix(3),
        ] {
            let mut total = ScanStats::default();
            for seed in 0..6 {
                let mut dqn = DqnConfig::paper(mdp.state_dim(), mdp.n_actions());
                dqn.seed = seed;
                let rls = Rls::new(DqnAgent::new(dqn).policy(), mdp);
                let mut ws = SearchWorkspace::new(measure, &queries[0]);
                for query in &queries {
                    ws.reset(query);
                    for (slot, t) in corpus.iter().enumerate() {
                        let context = format!(
                            "{} {} seed {seed} |q| {} trajectory {}",
                            measure.name(),
                            mdp.algorithm_name(),
                            query.len(),
                            t.id
                        );
                        let (want, want_stats) =
                            rls_walk(rls.policy(), mdp, measure, t.points(), query);
                        let walks = [
                            rls.scan_with_stats(&mut ws, arena.view(slot)),
                            rls.search_with_stats(measure, t.points(), query),
                        ];
                        for (got, got_stats) in walks {
                            assert_eq!(got.range, want.range, "{context}");
                            assert_eq!(
                                got.similarity.to_bits(),
                                want.similarity.to_bits(),
                                "{context}"
                            );
                            assert_eq!(got_stats, want_stats, "{context}");
                        }
                        total.scanned += want_stats.scanned;
                        total.skipped += want_stats.skipped;
                        total.splits += want_stats.splits;
                    }
                    check_layout_equivalence(&corpus, Scalar::Rls(&rls), measure, query, 3);
                }
            }
            let context = format!("{} {}: {total:?}", measure.name(), mdp.algorithm_name());
            assert!(
                total.splits > 0 && total.splits < total.scanned,
                "{context}"
            );
            assert_eq!(total.skipped > 0, mdp.skip_actions > 0, "{context}");
        }
    }
}

/// Bad magic and trailing garbage are typed errors, not panics.
#[test]
fn packed_corpus_rejects_foreign_files() {
    assert!(matches!(
        read_bin(std::io::Cursor::new(b"id,x,y,t\n0,1,2,3\n".to_vec())),
        Err(BinCorpusError::BadMagic)
    ));
    let corpus = random_corpus(3, 4);
    let mut buf = Vec::new();
    write_bin(&mut buf, &CorpusArena::from_trajectories(&corpus)).unwrap();
    buf.extend_from_slice(b"extra");
    assert!(matches!(
        read_bin(std::io::Cursor::new(&buf)),
        Err(BinCorpusError::TrailingBytes)
    ));
}

/// A packed corpus with duplicate ids decodes but must fail arena
/// validation (the `from_arena` builders would otherwise panic later).
#[test]
fn packed_corpus_rejects_duplicate_ids() {
    let t = Trajectory::new_unchecked(9, walk(1, 5, (0.0, 0.0)));
    let arena_ok = CorpusArena::from_trajectories(&[t]);
    // Hand-craft slabs with a duplicated id through the public raw-slab
    // constructor to mimic a malicious file.
    let ids = vec![9, 9];
    let mut offsets = arena_ok.offsets().to_vec();
    offsets.push(arena_ok.total_points() * 2);
    let double =
        |s: &[f64]| -> Vec<f64> { s.iter().chain(s.iter()).copied().collect::<Vec<f64>>() };
    let err = CorpusArena::from_raw_slabs(
        ids,
        offsets,
        double(arena_ok.xs()),
        double(arena_ok.ys()),
        double(arena_ok.ts()),
    )
    .unwrap_err();
    assert_eq!(err, simsub::trajectory::ArenaError::DuplicateId(9));
}
