//! Dynamic Time Warping (Yi et al., ICDE 1998) — Equation (1) of the paper.
//!
//! `D_{i,j}` is the DTW distance between `T[1, i]` and `Tq[1, j]`:
//!
//! ```text
//! D_{i,j} = Σ_{h=1..i} d(p_h, q_1)                      if j = 1
//!         = Σ_{k=1..j} d(p_1, q_k)                      if i = 1
//!         = d(p_i, q_j) + min(D_{i-1,j-1}, D_{i-1,j}, D_{i,j-1})  otherwise
//! ```
//!
//! The incremental evaluator is the crate's row evaluator with cells
//! combined by a sum (Frechet's takes a max). It keeps the last DP row
//! (length `m`), so `Φini = Φinc = O(m)` exactly as Table 1 requires.

use crate::kernel::{self, DpScratch, ExactBest, RowEvaluator, SumOp};
use crate::{DistanceAggregate, Measure, PrefixEvaluator};
use simsub_trajectory::{Point, TrajView};

/// The DTW measure. Stateless; one instance can serve any number of
/// queries and threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dtw;

/// Full DTW distance via the row-rolling DP. `O(|a| · |b|)` time,
/// `O(|b|)` space. Returns `INFINITY` when either input is empty.
pub fn dtw_distance(a: &[Point], b: &[Point]) -> f64 {
    kernel::row_distance::<SumOp>(a, b)
}

impl Measure for Dtw {
    fn name(&self) -> &'static str {
        "dtw"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        dtw_distance(a, b)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(RowEvaluator::<SumOp>::new(query))
    }

    fn distance_aggregate(&self) -> Option<DistanceAggregate> {
        Some(DistanceAggregate::Sum)
    }

    fn exact_best_above(
        &self,
        data: TrajView<'_>,
        query: &[Point],
        floor: f64,
        cell_rows: Option<&[f64]>,
        scratch: &mut DpScratch,
    ) -> Option<ExactBest> {
        Some(kernel::exact_best_above::<SumOp>(
            data.xs(),
            data.ys(),
            query,
            floor,
            cell_rows,
            scratch,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity_from_distance;
    use proptest::prelude::*;

    /// Naive full-matrix DTW, the reference for all tests.
    fn dtw_naive(a: &[Point], b: &[Point]) -> f64 {
        let (n, m) = (a.len(), b.len());
        let mut d = vec![vec![0.0f64; m]; n];
        for i in 0..n {
            for j in 0..m {
                let cost = a[i].dist(b[j]);
                d[i][j] = if i == 0 && j == 0 {
                    cost
                } else if i == 0 {
                    cost + d[i][j - 1]
                } else if j == 0 {
                    cost + d[i - 1][j]
                } else {
                    cost + d[i - 1][j - 1].min(d[i - 1][j]).min(d[i][j - 1])
                };
            }
        }
        d[n - 1][m - 1]
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    /// The pre-kernel scalar row evaluator (AoS query, distances computed
    /// inline): the bitwise reference for the vectorized rewrite.
    struct ScalarDtwReference {
        query: Vec<Point>,
        row: Vec<f64>,
        distance: f64,
    }

    impl ScalarDtwReference {
        fn new(query: &[Point]) -> Self {
            Self {
                query: query.to_vec(),
                row: vec![0.0; query.len()],
                distance: f64::INFINITY,
            }
        }

        fn init(&mut self, p: Point) -> f64 {
            let mut acc = 0.0;
            for (j, q) in self.query.iter().enumerate() {
                acc += p.dist(*q);
                self.row[j] = acc;
            }
            self.distance = *self.row.last().unwrap();
            similarity_from_distance(self.distance)
        }

        fn extend(&mut self, p: Point) -> f64 {
            let mut diag = self.row[0];
            self.row[0] += p.dist(self.query[0]);
            for j in 1..self.query.len() {
                let up = self.row[j];
                let left = self.row[j - 1];
                self.row[j] = p.dist(self.query[j]) + diag.min(up).min(left);
                diag = up;
            }
            self.distance = *self.row.last().unwrap();
            similarity_from_distance(self.distance)
        }
    }

    fn arb_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..max_len)
            .prop_map(|v| pts(&v))
    }

    /// Points on a tiny integer grid: duplicated points and bitwise-equal
    /// distances are the norm, stressing tie-breaking.
    fn arb_grid_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((0u8..3, 0u8..3), 1..max_len).prop_map(|v| {
            v.iter()
                .map(|&(x, y)| Point::xy(x as f64, y as f64))
                .collect()
        })
    }

    #[test]
    fn known_value_identical_trajectories() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(dtw_distance(&a, &a), 0.0);
        assert_eq!(Dtw.similarity(&a, &a), 1.0);
    }

    #[test]
    fn known_value_hand_computed() {
        // a = (0,0), (2,0); b = (1,0):
        // D = d(a1,b1) + d(a2,b1) = 1 + 1 = 2.
        let a = pts(&[(0.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(1.0, 0.0)]);
        assert_eq!(dtw_distance(&a, &b), 2.0);
    }

    #[test]
    fn empty_inputs_are_infinite() {
        let a = pts(&[(0.0, 0.0)]);
        assert!(dtw_distance(&a, &[]).is_infinite());
        assert!(dtw_distance(&[], &a).is_infinite());
        assert_eq!(Dtw.similarity(&a, &[]), 0.0);
    }

    #[test]
    fn paper_figure1_example() {
        // The running example of Figure 1 / Table 3: similarity is the
        // inverse of DTW; the paper reports Θ(T[2,4], Tq) = 1/3 ≈ 0.333.
        // Reconstruct a consistent instance: data trajectory p1..p5 and
        // query q1..q3 below give DTW(T[2,4], Tq) = 3 when each matched
        // pair is 1 apart.
        let t = pts(&[(0.0, 3.0), (0.0, 1.0), (2.0, 1.0), (4.0, 1.0), (4.0, 3.0)]);
        let q = pts(&[(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]);
        let sub = &t[1..4];
        assert!((dtw_distance(sub, &q) - 3.0).abs() < 1e-9);
        // Paper-style similarity 1/d would be 0.333; our total transform is
        // 1/(1+d) = 0.25 — a monotone re-scaling that preserves the argmax.
        assert!((Dtw.similarity(sub, &q) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn single_points_are_their_euclidean_distance() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(3.0, 4.0)]);
        assert_eq!(dtw_distance(&a, &b), 5.0);
        assert_eq!(Dtw.similarity(&a, &b), 1.0 / 6.0);
    }

    #[test]
    fn opposite_directions_pay_at_both_ends() {
        // Both endpoint pairs are always matched, so the same segment
        // walked the other way costs the distance at each end.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(1.0, 0.0), (0.0, 0.0)]);
        assert_eq!(dtw_distance(&a, &b), 2.0);
    }

    #[test]
    fn warping_absorbs_repeated_points() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(dtw_distance(&a, &b), 0.0);
        assert_eq!(dtw_distance(&b, &a), 0.0);
    }

    #[test]
    fn reports_its_name_and_sum_aggregate() {
        assert_eq!(Dtw.name(), "dtw");
        assert_eq!(Dtw.distance_aggregate(), Some(DistanceAggregate::Sum));
    }

    #[test]
    fn workspace_is_infinite_until_init_and_after_reset() {
        let q = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let mut ws = Dtw.make_workspace(&q);
        assert!(ws.distance().is_infinite());
        assert_eq!(ws.similarity(), 0.0);
        assert_eq!(ws.init(Point::xy(0.0, 0.0)), 0.5);
        assert_eq!(ws.distance(), 1.0);
        ws.reset(&q);
        assert!(ws.distance().is_infinite());
    }

    #[test]
    #[should_panic(expected = "extend before init")]
    fn extend_before_init_panics() {
        let mut ws = Dtw.make_workspace(&pts(&[(0.0, 0.0)]));
        ws.extend(Point::xy(1.0, 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn evaluator_matches_naive(a in arb_traj(12), b in arb_traj(10)) {
            // Incremental evaluation from every start index equals naive DP.
            for i in 0..a.len() {
                let mut eval = RowEvaluator::<SumOp>::new(&b);
                eval.init(a[i]);
                for j in i..a.len() {
                    if j > i {
                        eval.extend(a[j]);
                    }
                    let expect = dtw_naive(&a[i..=j], &b);
                    prop_assert!((eval.distance() - expect).abs() < 1e-6,
                        "i={i} j={j}: {} vs {}", eval.distance(), expect);
                }
            }
        }

        #[test]
        fn symmetric(a in arb_traj(12), b in arb_traj(12)) {
            prop_assert!((dtw_distance(&a, &b) - dtw_distance(&b, &a)).abs() < 1e-6);
        }

        #[test]
        fn reversal_invariant(a in arb_traj(12), b in arb_traj(12)) {
            // DTW(Aᴿ, Bᴿ) == DTW(A, B): the property PSS exploits for
            // suffix similarities (Section 4.3).
            let ar: Vec<Point> = a.iter().rev().copied().collect();
            let br: Vec<Point> = b.iter().rev().copied().collect();
            prop_assert!((dtw_distance(&a, &b) - dtw_distance(&ar, &br)).abs() < 1e-6);
        }

        #[test]
        fn nonnegative_and_zero_on_self(a in arb_traj(12)) {
            prop_assert!(dtw_distance(&a, &a).abs() < 1e-9);
        }

        #[test]
        fn reset_equals_fresh_evaluator(a in arb_traj(12), b in arb_traj(10), c in arb_traj(10)) {
            // One evaluator reset from query c to query b must track a
            // fresh evaluator over b bit for bit.
            let mut reused = RowEvaluator::<SumOp>::new(&c);
            reused.init(a[0]);
            reused.reset(&b);
            let mut fresh = RowEvaluator::<SumOp>::new(&b);
            prop_assert_eq!(reused.init(a[0]).to_bits(), fresh.init(a[0]).to_bits());
            for &p in &a[1..] {
                prop_assert_eq!(reused.extend(p).to_bits(), fresh.extend(p).to_bits());
            }
        }

        #[test]
        fn vectorized_evaluator_is_bit_identical_to_scalar(a in arb_traj(14), b in arb_traj(12)) {
            // The slice-kernel evaluator (SoA query + hoisted distance
            // row) must track the scalar AoS formulation bit for bit.
            let mut fast = RowEvaluator::<SumOp>::new(&b);
            let mut slow = ScalarDtwReference::new(&b);
            prop_assert_eq!(fast.init(a[0]).to_bits(), slow.init(a[0]).to_bits());
            for &p in &a[1..] {
                prop_assert_eq!(fast.extend(p).to_bits(), slow.extend(p).to_bits());
                prop_assert_eq!(fast.distance().to_bits(), slow.distance.to_bits());
            }
        }

        #[test]
        fn exact_best_kernel_is_bit_identical_to_scalar_sweep(
            a in arb_traj(18), b in arb_traj(9),
        ) {
            let (xs, ys): (Vec<f64>, Vec<f64>) = a.iter().map(|p| (p.x, p.y)).unzip();
            let ts = vec![0.0; a.len()];
            let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
            let mut scratch = DpScratch::default();
            let (start, end, sim) = Dtw.exact_best(view, &b, &mut scratch).expect("dtw kernel");
            let (want_start, want_end, want_sim) = crate::kernel::scalar_exact_sweep(&Dtw, &a, &b);
            prop_assert_eq!(sim.to_bits(), want_sim.to_bits());
            prop_assert_eq!((start, end), (want_start, want_end), "tie-breaking must match");
        }

        #[test]
        fn wavefront_run_is_bit_identical_to_extend_loop(
            a in arb_traj(24), b in arb_traj(12), split in 0usize..24,
        ) {
            let (xs, ys): (Vec<f64>, Vec<f64>) = a[1..].iter().map(|p| (p.x, p.y)).unzip();
            let ts = vec![0.0; xs.len()];
            // Stepwise reference.
            let mut stepwise = RowEvaluator::<SumOp>::new(&b);
            stepwise.init(a[0]);
            let want: Vec<f64> = a[1..].iter().map(|&p| stepwise.extend(p)).collect();
            // One bulk call with per-point readout.
            let mut bulk = RowEvaluator::<SumOp>::new(&b);
            bulk.init(a[0]);
            let mut sims = vec![0.0; xs.len()];
            let last = bulk.extend_run_into(&xs, &ys, &ts, &mut sims);
            for (i, (&got, &expect)) in sims.iter().zip(&want).enumerate() {
                prop_assert_eq!(got.to_bits(), expect.to_bits(), "per-point sim {i}");
            }
            prop_assert_eq!(last.to_bits(), stepwise.similarity().to_bits());
            prop_assert_eq!(bulk.distance().to_bits(), stepwise.distance().to_bits());
            // Two chunked calls at an arbitrary split point.
            let mut chunked = RowEvaluator::<SumOp>::new(&b);
            chunked.init(a[0]);
            let s = split.min(xs.len());
            chunked.extend_run(&xs[..s], &ys[..s], &ts[..s]);
            chunked.extend_run(&xs[s..], &ys[s..], &ts[s..]);
            prop_assert_eq!(chunked.distance().to_bits(), stepwise.distance().to_bits());
        }

        #[test]
        fn exact_best_above_honours_the_floor_contract(
            a in arb_traj(22), b in arb_traj(9), probe in 0.0..1.0f64,
        ) {
            crate::kernel::assert_floor_contract(&Dtw, &a, &b, probe);
        }

        #[test]
        fn exact_best_above_honours_the_floor_contract_on_ties(
            a in arb_grid_traj(18), b in arb_grid_traj(8), probe in 0.0..1.0f64,
        ) {
            // Duplicated points: many subtrajectories share the best Θ
            // bit for bit, so a floor equal to it must keep the first.
            crate::kernel::assert_floor_contract(&Dtw, &a, &b, probe);
        }

        #[test]
        fn exact_best_tie_breaking_on_duplicated_points(
            a in arb_grid_traj(16), b in arb_grid_traj(8),
        ) {
            // Tiny integer coordinate alphabet → many duplicated points and
            // bitwise-equal candidate scores: the kernel's winner must
            // still be the scalar sweep's winner (ascending start, then
            // ascending end, strict improvement).
            let (xs, ys): (Vec<f64>, Vec<f64>) = a.iter().map(|p| (p.x, p.y)).unzip();
            let ts = vec![0.0; a.len()];
            let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
            let mut scratch = DpScratch::default();
            let (start, end, sim) = Dtw.exact_best(view, &b, &mut scratch).expect("dtw kernel");
            let (want_start, want_end, want_sim) = crate::kernel::scalar_exact_sweep(&Dtw, &a, &b);
            prop_assert_eq!(sim.to_bits(), want_sim.to_bits());
            prop_assert_eq!((start, end), (want_start, want_end), "tie-breaking must match");
        }

        #[test]
        fn workspace_prefix_distances_are_the_measure_bit_for_bit(
            a in arb_traj(12), b in arb_traj(10),
        ) {
            // The boxed workspace a scan drives and `Φ` from scratch agree
            // on every prefix.
            let mut ws = Dtw.make_workspace(&b);
            for j in 0..a.len() {
                let sim = if j == 0 { ws.init(a[0]) } else { ws.extend(a[j]) };
                prop_assert_eq!(ws.distance().to_bits(), dtw_distance(&a[..=j], &b).to_bits());
                prop_assert_eq!(sim.to_bits(), Dtw.similarity(&a[..=j], &b).to_bits());
            }
        }

        #[test]
        fn lower_bounded_by_nearest_point_sums(a in arb_traj(12), b in arb_traj(12)) {
            // Every point of either side is matched at least once, to a
            // point no closer than its nearest on the other side: the
            // `Sum` bound the corpus scan's pruning cascade relies on.
            let nearest_sum = |xs: &[Point], ys: &[Point]| -> f64 {
                xs.iter()
                    .map(|p| ys.iter().map(|q| p.dist(*q)).fold(f64::INFINITY, f64::min))
                    .sum()
            };
            let d = dtw_distance(&a, &b);
            prop_assert!(d + 1e-9 >= nearest_sum(&a, &b));
            prop_assert!(d + 1e-9 >= nearest_sum(&b, &a));
        }

        #[test]
        fn upper_bounded_by_the_boundary_path(a in arb_traj(12), b in arb_traj(12)) {
            // All of `a` against `b`'s first point, then the rest of `b`
            // against `a`'s last point: one of the warping paths DTW
            // minimises over.
            let last = a[a.len() - 1];
            let path: f64 = a.iter().map(|p| p.dist(b[0])).sum::<f64>()
                + b[1..].iter().map(|q| last.dist(*q)).sum::<f64>();
            prop_assert!(dtw_distance(&a, &b) <= path + 1e-9);
        }

        #[test]
        fn endpoints_are_always_matched(a in arb_traj(12), b in arb_traj(12)) {
            let d = dtw_distance(&a, &b);
            let first = a[0].dist(b[0]);
            let last = a[a.len() - 1].dist(b[b.len() - 1]);
            if a.len() == 1 && b.len() == 1 {
                prop_assert_eq!(d, first);
            } else {
                // Two distinct cells of every path.
                prop_assert!(d + 1e-9 >= first + last);
            }
        }

        #[test]
        fn translation_invariant(
            a in arb_traj(12), b in arb_traj(12), dx in -100.0..100.0f64, dy in -100.0..100.0f64,
        ) {
            let shift = |t: &[Point]| -> Vec<Point> {
                t.iter().map(|p| Point::xy(p.x + dx, p.y + dy)).collect()
            };
            let d = dtw_distance(&a, &b);
            let moved = dtw_distance(&shift(&a), &shift(&b));
            prop_assert!((moved - d).abs() <= 1e-9 * (1.0 + d), "{moved} vs {d}");
        }

        #[test]
        fn scales_linearly(a in arb_traj(12), b in arb_traj(12), c in 0.01..100.0f64) {
            let scale = |t: &[Point]| -> Vec<Point> {
                t.iter().map(|p| Point::xy(p.x * c, p.y * c)).collect()
            };
            let want = c * dtw_distance(&a, &b);
            let got = dtw_distance(&scale(&a), &scale(&b));
            prop_assert!((got - want).abs() <= 1e-9 * (1.0 + want), "{got} vs {want}");
        }

        #[test]
        fn repeating_a_point_never_lowers_the_distance(
            a in arb_traj(12), b in arb_traj(12), at in 0usize..12,
        ) {
            // A path over the stuttered input folds onto one over `a`
            // whose cells are a subset of its own.
            let i = at % a.len();
            let mut stutter = a.clone();
            stutter.insert(i, a[i]);
            prop_assert!(dtw_distance(&stutter, &b) + 1e-9 >= dtw_distance(&a, &b));
        }

        #[test]
        fn single_point_query_sums_the_point_distances(a in arb_traj(12), q in arb_traj(2)) {
            let want: f64 = a.iter().map(|p| p.dist(q[0])).sum();
            let got = dtw_distance(&a, &q);
            prop_assert!((got - want).abs() <= 1e-9 * (1.0 + want), "{got} vs {want}");
        }

        #[test]
        fn timestamps_are_ignored(
            a in arb_traj(12), b in arb_traj(12), t0 in -1e6..1e6f64, dt in 0.0..100.0f64,
        ) {
            let stamp = |t: &[Point]| -> Vec<Point> {
                t.iter()
                    .enumerate()
                    .map(|(i, p)| Point::new(p.x, p.y, t0 + dt * i as f64))
                    .collect()
            };
            prop_assert_eq!(
                dtw_distance(&stamp(&a), &stamp(&b)).to_bits(),
                dtw_distance(&a, &b).to_bits()
            );
        }
    }
}
