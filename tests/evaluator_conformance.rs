//! Conformance harness for the bulk evaluator kernels: for **every**
//! measure's `PrefixEvaluator`, the slice `extend_run` /
//! `extend_run_into` APIs must be bitwise-indistinguishable from the
//! scalar point-by-point `extend` chain — same final similarity bits,
//! same per-point similarity bits, invariant under chunk boundaries
//! (`extend_run(a); extend_run(b)` ≡ `extend_run(a ++ b)`, including
//! empty chunks), and unchanged after `reset`. On top of the kernel
//! contract, differential tests pin the *search-path* consequence: the
//! bulk-kernel scan bodies of all five scan algorithms (ExactS's
//! evaluator-driven sweep, SizeS, PSS, POS, POS-D) must pick the
//! identical winner as the scalar oracle (`tests/common/scalar.rs`) on
//! tie-heavy duplicated-point corpora. Finally, the scan's ExactS kernel
//! under DTW and Fréchet — a free-start DP over the point-distance matrix
//! that leaves the range pending, and the floored sweep that resolves it
//! — is held to the independent full-matrix oracle
//! (`tests/common/oracle.rs`) at every floor that decides its path.

mod common;

use common::assert_bitwise_topk;
use common::oracle::{self, OracleMeasure};
use common::scalar::{reference_top_k, Scalar};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::index::TrajectoryDb;
use simsub::measures::{CoordNormalizer, DpScratch, Dtw, Frechet, Measure, T2Vec};
use simsub::trajectory::{Point, TrajView, Trajectory};

/// The paper's three measures, all under conformance: the two with slice
/// DP kernels and cell-row factoring, and the learned one without either.
/// The t2vec instance is a deterministic untrained encoder — the kernel
/// contract is about arithmetic, not model quality.
fn all_measures() -> [Box<dyn Measure>; 3] {
    [
        Box::new(Dtw),
        Box::new(Frechet),
        Box::new(T2Vec::random(7, 6, CoordNormalizer::identity())),
    ]
}

fn pts(v: &[(f64, f64)]) -> Vec<Point> {
    v.iter()
        .enumerate()
        .map(|(i, &(x, y))| Point::new(x, y, i as f64))
        .collect()
}

fn soa(data: &[Point]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        data.iter().map(|p| p.x).collect(),
        data.iter().map(|p| p.y).collect(),
        data.iter().map(|p| p.t).collect(),
    )
}

/// Continuous coordinates (generic case).
fn arb_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..max_len).prop_map(|v| pts(&v))
}

/// Adversarial coordinates on a tiny integer grid: heavy point
/// duplication produces equal distances (and therefore DP ties) all over
/// the matrix, the regime where an order-of-evaluation slip in a bulk
/// kernel would change a winner.
fn arb_grid_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0u8..3, 0u8..3), 1..max_len).prop_map(|v| {
        pts(&v
            .iter()
            .map(|&(x, y)| (x as f64, y as f64))
            .collect::<Vec<_>>())
    })
}

/// The full conformance battery for one (measure, query, data) triple.
fn check_conformance(measure: &dyn Measure, query: &[Point], data: &[Point], split: usize) {
    // Scalar reference: init at p0, then one virtual `extend` per point,
    // recording every intermediate similarity.
    let mut reference = measure.make_workspace(query);
    reference.init(data[0]);
    let mut ref_sims = Vec::with_capacity(data.len() - 1);
    for &p in &data[1..] {
        ref_sims.push(reference.extend(p));
    }
    let ref_final = reference.similarity();
    let name = measure.name();

    let (xs, ys, ts) = soa(data);

    // (a) One bulk run over the whole tail (empty when |data| = 1).
    let mut eval = measure.make_workspace(query);
    eval.init(data[0]);
    let got = eval.extend_run(&xs[1..], &ys[1..], &ts[1..]);
    assert_eq!(got.to_bits(), ref_final.to_bits(), "{name}: full-slab run");
    assert_eq!(
        eval.similarity().to_bits(),
        ref_final.to_bits(),
        "{name}: state after full-slab run"
    );

    // (b) Per-point readout variant.
    let mut eval = measure.make_workspace(query);
    eval.init(data[0]);
    let mut sims = vec![0.0; data.len() - 1];
    let got = eval.extend_run_into(&xs[1..], &ys[1..], &ts[1..], &mut sims);
    assert_eq!(got.to_bits(), ref_final.to_bits(), "{name}: run_into final");
    for (i, (s, r)) in sims.iter().zip(&ref_sims).enumerate() {
        assert_eq!(s.to_bits(), r.to_bits(), "{name}: run_into point {i}");
    }

    // (c) Chunking invariance: split the tail at an arbitrary cut (either
    // side may be empty) — two runs must equal the one-run chain.
    let cut = 1 + split % data.len();
    let mut eval = measure.make_workspace(query);
    eval.init(data[0]);
    eval.extend_run(&xs[1..cut], &ys[1..cut], &ts[1..cut]);
    let got = eval.extend_run(&xs[cut..], &ys[cut..], &ts[cut..]);
    assert_eq!(
        got.to_bits(),
        ref_final.to_bits(),
        "{name}: chunked run (cut at {cut})"
    );

    // (d) Reuse after `reset` re-targets the same buffers: the bulk chain
    // must reproduce the fresh-evaluator bits.
    eval.reset(query);
    eval.init(data[0]);
    let got = eval.extend_run(&xs[1..], &ys[1..], &ts[1..]);
    assert_eq!(
        got.to_bits(),
        ref_final.to_bits(),
        "{name}: run after reset"
    );

    // (e) Cell-row factoring, where supported: a coordinate-only
    // `fill_cell_rows` pass plus rows-fed `extend_run_rows_into` runs
    // must reproduce the scalar bits too — whole tail, per point, and
    // across an arbitrary chunk cut (the prefix stream refills in
    // chunks). Measures without the factoring return `None` and are
    // covered by (a)-(d) alone.
    let mut eval = measure.make_workspace(query);
    let mut rows = Vec::new();
    if let Some(m) = eval.fill_cell_rows(&xs, &ys, &ts, &mut rows) {
        assert_eq!(rows.len(), data.len() * m, "{name}: cell-rows shape");
        eval.init(data[0]);
        let mut sims = vec![0.0; data.len() - 1];
        let got = eval.extend_run_rows_into(&rows[m..], &mut sims);
        assert_eq!(got.to_bits(), ref_final.to_bits(), "{name}: rows run final");
        for (i, (s, r)) in sims.iter().zip(&ref_sims).enumerate() {
            assert_eq!(s.to_bits(), r.to_bits(), "{name}: rows run point {i}");
        }
        eval.init(data[0]);
        eval.extend_run_rows_into(&rows[m..cut * m], &mut sims[..cut - 1]);
        let got = eval.extend_run_rows_into(&rows[cut * m..], &mut sims[cut - 1..]);
        assert_eq!(
            got.to_bits(),
            ref_final.to_bits(),
            "{name}: chunked rows run (cut at {cut})"
        );
        for (i, (s, r)) in sims.iter().zip(&ref_sims).enumerate() {
            assert_eq!(s.to_bits(), r.to_bits(), "{name}: chunked rows point {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline contract, continuous coordinates: for all three
    /// evaluators, bulk == scalar bitwise (final value, per-point values,
    /// chunked calls, after reset).
    #[test]
    fn bulk_extend_run_matches_scalar_chain(
        data in arb_traj(16),
        query in arb_traj(8),
        split in 0usize..16,
    ) {
        for measure in all_measures() {
            check_conformance(measure.as_ref(), &query, &data, split);
        }
    }

    /// The same contract under adversarial tie-heavy grid inputs
    /// (duplicated points, equal distances everywhere).
    #[test]
    fn bulk_extend_run_matches_scalar_chain_on_duplicated_grid(
        data in arb_grid_traj(16),
        query in arb_grid_traj(6),
        split in 0usize..16,
    ) {
        for measure in all_measures() {
            check_conformance(measure.as_ref(), &query, &data, split);
        }
    }
}

/// Tie-heavy corpus: every trajectory walks the same 3×3 grid, so split
/// candidates collide in score constantly — across positions within a
/// trajectory and across trajectories in the ranking.
fn grid_corpus(seed: u64, count: usize) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71e5);
    (0..count)
        .map(|i| {
            let len = rng.gen_range(3usize..14);
            let coords: Vec<(f64, f64)> = (0..len)
                .map(|_| (rng.gen_range(0u8..3) as f64, rng.gen_range(0u8..3) as f64))
                .collect();
            Trajectory::new_unchecked(i as u64, pts(&coords))
        })
        .collect()
}

/// Continuous counterpart of [`grid_corpus`]: seeded random walks, where
/// ties are rare and every comparison is decided by low-order bits.
fn walk_corpus(seed: u64, count: usize) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0a7);
    (0..count)
        .map(|i| {
            let len = rng.gen_range(1usize..16);
            let (mut x, mut y) = (0.0, 0.0);
            let coords: Vec<(f64, f64)> = (0..len)
                .map(|_| {
                    x += rng.gen_range(-1.5..1.5);
                    y += rng.gen_range(-1.5..1.5);
                    (x, y)
                })
                .collect();
            Trajectory::new_unchecked(i as u64, pts(&coords))
        })
        .collect()
}

/// Query on the same 3×3 grid as [`grid_corpus`].
fn grid_query(seed: u64, qlen: usize) -> Vec<Point> {
    let seed = seed as usize;
    pts(&(0..qlen)
        .map(|i| (((seed + i) % 3) as f64, ((seed + 2 * i) % 3) as f64))
        .collect::<Vec<_>>())
}

const SPLITTERS_WITH_SUFFIX_OR_WINDOW: [Scalar; 4] = [
    Scalar::Pss,
    Scalar::SizeS { xi: 0 },
    Scalar::SizeS { xi: 2 },
    Scalar::SizeS { xi: 5 },
];

const PREFIX_ONLY_AND_EXACT: [Scalar; 5] = [
    Scalar::Pos,
    Scalar::PosD { delay: 0 },
    Scalar::PosD { delay: 3 },
    Scalar::PosD { delay: 5 },
    Scalar::ExactS,
];

/// The search-path differential for one corpus: every `(measure,
/// algorithm)` pair's arena scan — the product's one scan body — must
/// equal the scalar oracle's ranking bit for bit.
fn check_scan_winners(
    corpus: &[Trajectory],
    query: &[Point],
    k: usize,
    measures: &[Box<dyn Measure>],
    algos: &[Scalar],
) {
    let db = TrajectoryDb::build(corpus.to_vec());
    for measure in measures {
        for &which in algos {
            let algo = which.product();
            let want = reference_top_k(which, measure.as_ref(), corpus, query, k);
            let got = db.top_k(algo.as_ref(), measure.as_ref(), query, k, false);
            assert_bitwise_topk(
                &got,
                &want,
                &format!("measure={} algo={} k={k}", measure.name(), algo.name()),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential tie-breaking pin: the bulk-kernel view scans behind
    /// `search_with` (PSS's speculative prefix stream + bulk suffix pass,
    /// SizeS's windowed bulk scoring) must report the *identical* winner
    /// (trajectory, split, score bits) as the scalar oracle on corpora
    /// engineered for score ties.
    #[test]
    fn pss_and_sizes_split_winners_match_scalar_on_ties(
        seed in 0u64..5_000,
        count in 1usize..12,
        k in 1usize..5,
        qlen in 1usize..6,
    ) {
        check_scan_winners(
            &grid_corpus(seed, count),
            &grid_query(seed, qlen),
            k,
            &all_measures(),
            &SPLITTERS_WITH_SUFFIX_OR_WINDOW,
        );
    }

    /// The same pin for the prefix-only splitters — POS and POS-D at
    /// delay 0, 3 and 5, whose lookahead argmax must keep the earliest
    /// index on ties — and for ExactS, both through the free-start DP
    /// and its range resolver (DTW, Fréchet) and, under t2vec, which has
    /// no `exact_best` kernel, through the evaluator-driven bulk sweep.
    #[test]
    fn pos_posd_and_exact_winners_match_scalar_on_ties(
        seed in 0u64..5_000,
        count in 1usize..12,
        k in 1usize..5,
        qlen in 1usize..6,
    ) {
        check_scan_winners(
            &grid_corpus(seed, count),
            &grid_query(seed, qlen),
            k,
            &all_measures(),
            &PREFIX_ONLY_AND_EXACT,
        );
    }

    /// All five scan bodies against the oracle on continuous corpora,
    /// where winners are decided by low-order score bits, not ties.
    #[test]
    fn scan_bodies_match_scalar_on_continuous_corpora(
        seed in 0u64..5_000,
        count in 1usize..12,
        k in 1usize..5,
        query in arb_traj(8),
    ) {
        let corpus = walk_corpus(seed, count);
        for algos in [&SPLITTERS_WITH_SUFFIX_OR_WINDOW[..], &PREFIX_ONLY_AND_EXACT[..]] {
            check_scan_winners(&corpus, &query, k, &all_measures(), algos);
        }
    }
}

/// The with-matrix path of `Measure::exact_best_above` (what a pruning
/// scan runs) for DTW and Fréchet against the oracle, at floors `-∞`, the
/// best itself, one ulp either side of it and `probe`. Reaching the floor,
/// the answer is the oracle's Θ bit for bit with the range pending, and
/// the resolution a scan runs for a kept hit — the same call without the
/// matrix, floored at that Θ — is the oracle's `(start, end, Θ)`, ties
/// included; missing it, the kernel settles for a real subtrajectory
/// below the floor and says so.
fn check_free_start_kernel(data: &[Point], query: &[Point], probe: f64) {
    let (xs, ys, ts) = soa(data);
    let view = TrajView::new(0, &xs, &ys, &ts);
    let mut scratch = DpScratch::default();
    for (measure, which) in [
        (&Dtw as &dyn Measure, OracleMeasure::Dtw),
        (&Frechet, OracleMeasure::Frechet),
    ] {
        let (start, end, best) = oracle::best_subtrajectory(which, data, query);
        let mut rows = Vec::new();
        measure
            .make_workspace(query)
            .fill_cell_rows(&xs, &ys, &ts, &mut rows)
            .expect("DTW and Fréchet factor cell rows");
        for floor in [
            f64::NEG_INFINITY,
            best,
            best.next_down(),
            best.next_up(),
            probe,
        ] {
            let context = format!(
                "{} floor {floor:e} best {best:e} n {} m {}",
                measure.name(),
                data.len(),
                query.len()
            );
            let got = measure
                .exact_best_above(view, query, floor, Some(&rows), &mut scratch)
                .expect("kernel measure");
            if best >= floor {
                assert_eq!(got.similarity.to_bits(), best.to_bits(), "{context}");
                assert!(!got.abandoned && got.range_pending, "{context}: {got:?}");
                let resolved = measure
                    .exact_best_above(view, query, got.similarity, None, &mut scratch)
                    .expect("kernel measure");
                assert_eq!(
                    (resolved.start, resolved.end, resolved.similarity.to_bits()),
                    (start, end, best.to_bits()),
                    "{context}"
                );
                assert!(!resolved.abandoned && !resolved.range_pending, "{context}");
            } else {
                assert!(
                    got.abandoned && !got.range_pending && got.similarity < floor,
                    "{context}: {got:?}"
                );
                let real = 1.0 / (1.0 + which.distance(&data[got.start..=got.end], query));
                assert_eq!(got.similarity.to_bits(), real.to_bits(), "{context}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random walks: winners decided by low-order bits.
    #[test]
    fn free_start_kernel_matches_the_oracle_at_every_floor(
        data in arb_traj(16),
        query in arb_traj(8),
        probe in 0.0..1.0f64,
    ) {
        check_free_start_kernel(&data, &query, probe);
    }

    /// The 3×3 grid: equal Θ everywhere, so the resolved range must be
    /// the first in the sweep's order, not just any range reaching Θ*.
    #[test]
    fn free_start_kernel_matches_the_oracle_on_ties(
        data in arb_grid_traj(16),
        query in arb_grid_traj(8),
        probe in 0.0..1.0f64,
    ) {
        check_free_start_kernel(&data, &query, probe);
    }

    /// Queries cut from the data: Θ = 1, the top of the floor range.
    #[test]
    fn free_start_kernel_matches_the_oracle_on_exact_matches(
        data in arb_traj(16),
        from in 0usize..16,
        len in 1usize..8,
        probe in 0.0..1.0f64,
    ) {
        let from = from % data.len();
        let query = data[from..(from + len).min(data.len())].to_vec();
        check_free_start_kernel(&data, &query, probe);
    }
}
