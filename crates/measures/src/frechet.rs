//! Discrete Frechet distance (Alt & Godau, 1995) — Equation (2) of the
//! paper:
//!
//! ```text
//! F_{i,j} = max_{h<=i} d(p_h, q_1)                       if j = 1
//!         = max_{k<=j} d(p_1, q_k)                       if i = 1
//!         = max(d(p_i, q_j), min(F_{i-1,j-1}, F_{i-1,j}, F_{i,j-1}))
//! ```
//!
//! The same row evaluator as DTW with cells combined by a max instead of
//! a sum, so `Φini = Φinc = O(m)`.

use crate::kernel::{self, DpScratch, ExactBest, MaxOp, RowEvaluator};
use crate::{DistanceAggregate, Measure, PrefixEvaluator};
use simsub_trajectory::{Point, TrajView};

/// The discrete Frechet measure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Frechet;

/// Full discrete Frechet distance; `O(|a| · |b|)` time, `O(|b|)` space.
/// Returns `INFINITY` when either input is empty.
pub fn frechet_distance(a: &[Point], b: &[Point]) -> f64 {
    kernel::row_distance::<MaxOp>(a, b)
}

impl Measure for Frechet {
    fn name(&self) -> &'static str {
        "frechet"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        frechet_distance(a, b)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(RowEvaluator::<MaxOp>::new(query))
    }

    fn distance_aggregate(&self) -> Option<DistanceAggregate> {
        Some(DistanceAggregate::Max)
    }

    fn exact_best_above(
        &self,
        data: TrajView<'_>,
        query: &[Point],
        floor: f64,
        cell_rows: Option<&[f64]>,
        scratch: &mut DpScratch,
    ) -> Option<ExactBest> {
        Some(kernel::exact_best_above::<MaxOp>(
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

    /// Naive full-matrix discrete Frechet, the reference for all tests.
    fn frechet_naive(a: &[Point], b: &[Point]) -> f64 {
        let (n, m) = (a.len(), b.len());
        let mut f = vec![vec![0.0f64; m]; n];
        for i in 0..n {
            for j in 0..m {
                let cost = a[i].dist(b[j]);
                f[i][j] = if i == 0 && j == 0 {
                    cost
                } else if i == 0 {
                    cost.max(f[i][j - 1])
                } else if j == 0 {
                    cost.max(f[i - 1][j])
                } else {
                    cost.max(f[i - 1][j - 1].min(f[i - 1][j]).min(f[i][j - 1]))
                };
            }
        }
        f[n - 1][m - 1]
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    /// The pre-kernel scalar row evaluator: the bitwise reference for
    /// the vectorized rewrite.
    struct ScalarFrechetReference {
        query: Vec<Point>,
        row: Vec<f64>,
        distance: f64,
    }

    impl ScalarFrechetReference {
        fn new(query: &[Point]) -> Self {
            Self {
                query: query.to_vec(),
                row: vec![0.0; query.len()],
                distance: f64::INFINITY,
            }
        }

        fn init(&mut self, p: Point) -> f64 {
            let mut acc: f64 = 0.0;
            for (j, q) in self.query.iter().enumerate() {
                acc = acc.max(p.dist(*q));
                self.row[j] = acc;
            }
            self.distance = *self.row.last().unwrap();
            similarity_from_distance(self.distance)
        }

        fn extend(&mut self, p: Point) -> f64 {
            let mut diag = self.row[0];
            self.row[0] = self.row[0].max(p.dist(self.query[0]));
            for j in 1..self.query.len() {
                let up = self.row[j];
                let left = self.row[j - 1];
                self.row[j] = p.dist(self.query[j]).max(diag.min(up).min(left));
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
    fn zero_on_identical() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(frechet_distance(&a, &a), 0.0);
    }

    #[test]
    fn known_value_parallel_lines() {
        // Two parallel horizontal lines distance 1 apart: Frechet = 1.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        assert!((frechet_distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frechet_is_max_not_sum() {
        // Unlike DTW, a single far excursion dominates.
        let a = pts(&[(0.0, 0.0), (0.0, 10.0), (0.0, 0.0)]);
        let b = pts(&[(0.0, 0.0)]);
        assert_eq!(frechet_distance(&a, &b), 10.0);
        // DTW of the same input would be 10 as well (sum of 0 + 10 + 0),
        // but doubling the excursion count changes DTW, not Frechet.
        let a2 = pts(&[(0.0, 0.0), (0.0, 10.0), (0.0, 0.0), (0.0, 10.0), (0.0, 0.0)]);
        assert_eq!(frechet_distance(&a2, &b), 10.0);
        assert_eq!(crate::dtw_distance(&a2, &b), 20.0);
    }

    #[test]
    fn empty_inputs_are_infinite() {
        let a = pts(&[(0.0, 0.0)]);
        assert!(frechet_distance(&a, &[]).is_infinite());
        assert!(frechet_distance(&[], &a).is_infinite());
    }

    #[test]
    fn single_points_are_their_euclidean_distance() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(3.0, 4.0)]);
        assert_eq!(frechet_distance(&a, &b), 5.0);
        assert_eq!(Frechet.similarity(&a, &b), 1.0 / 6.0);
    }

    #[test]
    fn opposite_directions_pay_the_larger_end() {
        // Both endpoint pairs are always matched; the max keeps the worse.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(1.0, 0.0), (-1.0, 0.0)]);
        assert_eq!(frechet_distance(&a, &b), 2.0);
        assert_eq!(crate::dtw_distance(&a, &b), 3.0);
    }

    #[test]
    fn reports_its_name_and_max_aggregate() {
        assert_eq!(Frechet.name(), "frechet");
        assert_eq!(Frechet.distance_aggregate(), Some(DistanceAggregate::Max));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn evaluator_matches_naive(a in arb_traj(12), b in arb_traj(10)) {
            for i in 0..a.len() {
                let mut eval = RowEvaluator::<MaxOp>::new(&b);
                eval.init(a[i]);
                for j in i..a.len() {
                    if j > i {
                        eval.extend(a[j]);
                    }
                    let expect = frechet_naive(&a[i..=j], &b);
                    prop_assert!((eval.distance() - expect).abs() < 1e-6,
                        "i={i} j={j}: {} vs {}", eval.distance(), expect);
                }
            }
        }

        #[test]
        fn symmetric(a in arb_traj(12), b in arb_traj(12)) {
            prop_assert!(
                (frechet_distance(&a, &b) - frechet_distance(&b, &a)).abs() < 1e-6
            );
        }

        #[test]
        fn reversal_invariant(a in arb_traj(12), b in arb_traj(12)) {
            let ar: Vec<Point> = a.iter().rev().copied().collect();
            let br: Vec<Point> = b.iter().rev().copied().collect();
            prop_assert!(
                (frechet_distance(&a, &b) - frechet_distance(&ar, &br)).abs() < 1e-6
            );
        }

        #[test]
        fn lower_bounded_by_endpoint_distances(a in arb_traj(12), b in arb_traj(12)) {
            // Any coupling must match the first and last points.
            let f = frechet_distance(&a, &b);
            let first = a[0].dist(b[0]);
            let last = a[a.len() - 1].dist(b[b.len() - 1]);
            prop_assert!(f + 1e-9 >= first.max(last));
        }

        #[test]
        fn dominated_by_dtw(a in arb_traj(12), b in arb_traj(12)) {
            // Frechet (max over coupling) <= DTW (sum over coupling).
            prop_assert!(frechet_distance(&a, &b) <= crate::dtw_distance(&a, &b) + 1e-9);
        }

        #[test]
        fn vectorized_evaluator_is_bit_identical_to_scalar(a in arb_traj(14), b in arb_traj(12)) {
            // The slice-kernel evaluator must track the scalar AoS
            // formulation bit for bit.
            let mut fast = RowEvaluator::<MaxOp>::new(&b);
            let mut slow = ScalarFrechetReference::new(&b);
            prop_assert_eq!(fast.init(a[0]).to_bits(), slow.init(a[0]).to_bits());
            for &p in &a[1..] {
                prop_assert_eq!(fast.extend(p).to_bits(), slow.extend(p).to_bits());
                prop_assert_eq!(fast.distance().to_bits(), slow.distance.to_bits());
            }
        }

        #[test]
        fn wavefront_run_is_bit_identical_to_extend_loop(
            a in arb_traj(24), b in arb_traj(12), split in 0usize..24,
        ) {
            let (xs, ys): (Vec<f64>, Vec<f64>) = a[1..].iter().map(|p| (p.x, p.y)).unzip();
            let ts = vec![0.0; xs.len()];
            let mut stepwise = RowEvaluator::<MaxOp>::new(&b);
            stepwise.init(a[0]);
            let want: Vec<f64> = a[1..].iter().map(|&p| stepwise.extend(p)).collect();
            let mut bulk = RowEvaluator::<MaxOp>::new(&b);
            bulk.init(a[0]);
            let mut sims = vec![0.0; xs.len()];
            let last = bulk.extend_run_into(&xs, &ys, &ts, &mut sims);
            for (i, (&got, &expect)) in sims.iter().zip(&want).enumerate() {
                prop_assert_eq!(got.to_bits(), expect.to_bits(), "per-point sim {i}");
            }
            prop_assert_eq!(last.to_bits(), stepwise.similarity().to_bits());
            prop_assert_eq!(bulk.distance().to_bits(), stepwise.distance().to_bits());
            let mut chunked = RowEvaluator::<MaxOp>::new(&b);
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
            crate::kernel::assert_floor_contract(&Frechet, &a, &b, probe);
        }

        #[test]
        fn exact_best_above_honours_the_floor_contract_on_ties(
            a in arb_grid_traj(18), b in arb_grid_traj(8), probe in 0.0..1.0f64,
        ) {
            // Duplicated points: many subtrajectories share the best Θ
            // bit for bit, so a floor equal to it must keep the first.
            crate::kernel::assert_floor_contract(&Frechet, &a, &b, probe);
        }

        #[test]
        fn exact_best_tie_breaking_on_duplicated_points(
            a in arb_grid_traj(16), b in arb_grid_traj(8),
        ) {
            let (xs, ys): (Vec<f64>, Vec<f64>) = a.iter().map(|p| (p.x, p.y)).unzip();
            let ts = vec![0.0; a.len()];
            let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
            let mut scratch = DpScratch::default();
            let (start, end, sim) =
                Frechet.exact_best(view, &b, &mut scratch).expect("frechet kernel");
            let (want_start, want_end, want_sim) =
                crate::kernel::scalar_exact_sweep(&Frechet, &a, &b);
            prop_assert_eq!(sim.to_bits(), want_sim.to_bits());
            prop_assert_eq!((start, end), (want_start, want_end), "tie-breaking must match");
        }

        #[test]
        fn exact_best_kernel_is_bit_identical_to_scalar_sweep(
            a in arb_traj(18), b in arb_traj(9),
        ) {
            let (xs, ys): (Vec<f64>, Vec<f64>) = a.iter().map(|p| (p.x, p.y)).unzip();
            let ts = vec![0.0; a.len()];
            let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
            let mut scratch = DpScratch::default();
            let (start, end, sim) =
                Frechet.exact_best(view, &b, &mut scratch).expect("frechet kernel");
            let (want_start, want_end, want_sim) =
                crate::kernel::scalar_exact_sweep(&Frechet, &a, &b);
            prop_assert_eq!(sim.to_bits(), want_sim.to_bits());
            prop_assert_eq!((start, end), (want_start, want_end), "tie-breaking must match");
        }

        #[test]
        fn workspace_prefix_distances_are_the_measure_bit_for_bit(
            a in arb_traj(12), b in arb_traj(10),
        ) {
            // The boxed workspace a scan drives and `Φ` from scratch agree
            // on every prefix.
            let mut ws = Frechet.make_workspace(&b);
            for j in 0..a.len() {
                let sim = if j == 0 { ws.init(a[0]) } else { ws.extend(a[j]) };
                prop_assert_eq!(
                    ws.distance().to_bits(),
                    frechet_distance(&a[..=j], &b).to_bits()
                );
                prop_assert_eq!(sim.to_bits(), Frechet.similarity(&a[..=j], &b).to_bits());
            }
        }

        #[test]
        fn lower_bounded_by_nearest_point_maxima(a in arb_traj(12), b in arb_traj(12)) {
            // Every point of either side is coupled to some point of the
            // other (the directed Hausdorff distances): the `Max` bound
            // the corpus scan's pruning cascade relies on.
            let farthest_nearest = |xs: &[Point], ys: &[Point]| -> f64 {
                xs.iter()
                    .map(|p| ys.iter().map(|q| p.dist(*q)).fold(f64::INFINITY, f64::min))
                    .fold(0.0, f64::max)
            };
            let f = frechet_distance(&a, &b);
            prop_assert!(f >= farthest_nearest(&a, &b));
            prop_assert!(f >= farthest_nearest(&b, &a));
        }

        #[test]
        fn upper_bounded_by_the_boundary_coupling(a in arb_traj(12), b in arb_traj(12)) {
            // All of `a` against `b`'s first point, then the rest of `b`
            // against `a`'s last point: one of the couplings Frechet
            // minimises over.
            let last = a[a.len() - 1];
            let coupling = a
                .iter()
                .map(|p| p.dist(b[0]))
                .chain(b[1..].iter().map(|q| last.dist(*q)))
                .fold(0.0, f64::max);
            prop_assert!(frechet_distance(&a, &b) <= coupling);
        }

        #[test]
        fn translation_invariant(
            a in arb_traj(12), b in arb_traj(12), dx in -100.0..100.0f64, dy in -100.0..100.0f64,
        ) {
            let shift = |t: &[Point]| -> Vec<Point> {
                t.iter().map(|p| Point::xy(p.x + dx, p.y + dy)).collect()
            };
            let f = frechet_distance(&a, &b);
            let moved = frechet_distance(&shift(&a), &shift(&b));
            prop_assert!((moved - f).abs() <= 1e-9 * (1.0 + f), "{moved} vs {f}");
        }

        #[test]
        fn scales_linearly(a in arb_traj(12), b in arb_traj(12), c in 0.01..100.0f64) {
            let scale = |t: &[Point]| -> Vec<Point> {
                t.iter().map(|p| Point::xy(p.x * c, p.y * c)).collect()
            };
            let want = c * frechet_distance(&a, &b);
            let got = frechet_distance(&scale(&a), &scale(&b));
            prop_assert!((got - want).abs() <= 1e-9 * (1.0 + want), "{got} vs {want}");
        }

        #[test]
        fn repeating_a_point_leaves_the_distance_unchanged(
            a in arb_traj(12), b in arb_traj(12), at in 0usize..12,
        ) {
            // Couplings lift onto the stuttered input and fold back off it
            // with the same set of pair distances, so the max is the same
            // value bit for bit (unlike DTW, which may grow).
            let i = at % a.len();
            let mut stutter = a.clone();
            stutter.insert(i, a[i]);
            prop_assert_eq!(
                frechet_distance(&stutter, &b).to_bits(),
                frechet_distance(&a, &b).to_bits()
            );
        }

        #[test]
        fn triangle_inequality(a in arb_traj(10), b in arb_traj(10), c in arb_traj(10)) {
            let (ab, bc, ac) = (
                frechet_distance(&a, &b),
                frechet_distance(&b, &c),
                frechet_distance(&a, &c),
            );
            prop_assert!(ac <= ab + bc + 1e-9, "{ac} > {ab} + {bc}");
        }

        #[test]
        fn single_point_query_is_the_farthest_point(a in arb_traj(12), q in arb_traj(2)) {
            let want = a.iter().map(|p| p.dist(q[0])).fold(0.0, f64::max);
            prop_assert_eq!(frechet_distance(&a, &q).to_bits(), want.to_bits());
        }
    }
}
