//! Discrete Frechet distance (Alt & Godau, 1995) — Equation (2) of the
//! paper:
//!
//! ```text
//! F_{i,j} = max_{h<=i} d(p_h, q_1)                       if j = 1
//!         = max_{k<=j} d(p_1, q_k)                       if i = 1
//!         = max(d(p_i, q_j), min(F_{i-1,j-1}, F_{i-1,j}, F_{i,j-1}))
//! ```
//!
//! Same row-rolling structure as DTW, so `Φini = Φinc = O(m)`.

use crate::kernel::{self, fill_point_dists, load_query_soa, DpScratch, ExactBest};
use crate::{similarity_from_distance, DistanceAggregate, Measure, PrefixEvaluator};
use simsub_trajectory::{Point, TrajView};

/// The discrete Frechet measure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Frechet;

/// Full discrete Frechet distance; `O(|a| · |b|)` time, `O(|b|)` space.
/// Returns `INFINITY` when either input is empty.
pub fn frechet_distance(a: &[Point], b: &[Point]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let mut eval = FrechetEvaluator::new(b);
    eval.init(a[0]);
    for &p in &a[1..] {
        eval.extend(p);
    }
    eval.distance()
}

impl Measure for Frechet {
    fn name(&self) -> &'static str {
        "frechet"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        frechet_distance(a, b)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(FrechetEvaluator::new(query))
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
        Some(kernel::exact_best_above::<kernel::MaxOp>(
            data.xs(),
            data.ys(),
            query,
            floor,
            cell_rows,
            scratch,
        ))
    }
}

/// Incremental Frechet row, mirroring [`crate::DtwEvaluator`]: SoA query
/// slices, the point-distance row hoisted into a reused buffer through
/// the auto-vectorizable [`fill_point_dists`] kernel, then the serial DP
/// recurrence — bit-identical to the scalar formulation (property-tested
/// below).
#[derive(Debug, Clone)]
pub struct FrechetEvaluator {
    qx: Vec<f64>,
    qy: Vec<f64>,
    row: Vec<f64>,
    dist: Vec<f64>,
    /// Scratch for the bulk wavefront kernel (`extend_run`): per-lane
    /// precomputed distance rows; sized on first bulk call.
    bulk_dist: Vec<f64>,
    initialized: bool,
}

impl FrechetEvaluator {
    /// Creates an evaluator for the given (non-empty) query.
    pub fn new(query: &[Point]) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        let (mut qx, mut qy) = (Vec::new(), Vec::new());
        load_query_soa(query, &mut qx, &mut qy);
        Self {
            qx,
            qy,
            row: vec![0.0; query.len()],
            dist: vec![0.0; query.len()],
            bulk_dist: Vec::new(),
            initialized: false,
        }
    }
}

impl PrefixEvaluator for FrechetEvaluator {
    fn init(&mut self, p: Point) -> f64 {
        // Boundary i = 1: F_{1,j} = max_{k<=j} d(p, q_k).
        fill_point_dists(&self.qx, &self.qy, p.x, p.y, &mut self.dist);
        let mut acc: f64 = 0.0;
        for (r, &d) in self.row.iter_mut().zip(&self.dist) {
            acc = acc.max(d);
            *r = acc;
        }
        self.initialized = true;
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        fill_point_dists(&self.qx, &self.qy, p.x, p.y, &mut self.dist);
        // Boundary j = 1: F_{i,1} = max_{h<=i} d(p_h, q_1).
        let mut diag = self.row[0];
        let mut left = self.row[0].max(self.dist[0]); // register-carried
        self.row[0] = left;
        for (r, &d) in self.row[1..].iter_mut().zip(&self.dist[1..]) {
            let up = *r;
            *r = d.max(diag.min(up).min(left));
            diag = up;
            left = *r;
        }
        self.similarity()
    }

    fn similarity(&self) -> f64 {
        similarity_from_distance(self.distance())
    }

    fn distance(&self) -> f64 {
        if self.initialized {
            *self.row.last().expect("non-empty query")
        } else {
            f64::INFINITY
        }
    }

    fn reset(&mut self, query: &[Point]) {
        assert!(!query.is_empty(), "query must be non-empty");
        load_query_soa(query, &mut self.qx, &mut self.qy);
        self.row.clear();
        self.row.resize(query.len(), 0.0);
        self.dist.clear();
        self.dist.resize(query.len(), 0.0);
        self.initialized = false;
    }

    fn extend_run(&mut self, xs: &[f64], ys: &[f64], ts: &[f64]) -> f64 {
        let _ = ts; // point distances are planar; timestamps never enter the DP
        if xs.is_empty() {
            return self.similarity();
        }
        assert!(self.initialized, "extend_run before init");
        kernel::extend_run_wavefront::<kernel::MaxOp>(
            &mut self.row,
            &self.qx,
            &self.qy,
            xs,
            ys,
            &mut self.bulk_dist,
            |_, _| {},
        );
        self.similarity()
    }

    fn extend_run_into(&mut self, xs: &[f64], ys: &[f64], ts: &[f64], sims: &mut [f64]) -> f64 {
        let _ = ts;
        if xs.is_empty() {
            return self.similarity();
        }
        assert!(self.initialized, "extend_run before init");
        kernel::extend_run_wavefront::<kernel::MaxOp>(
            &mut self.row,
            &self.qx,
            &self.qy,
            xs,
            ys,
            &mut self.bulk_dist,
            |i, d| sims[i] = similarity_from_distance(d),
        );
        self.similarity()
    }

    fn fill_cell_rows(
        &self,
        xs: &[f64],
        ys: &[f64],
        ts: &[f64],
        rows: &mut Vec<f64>,
    ) -> Option<usize> {
        let _ = ts;
        let m = self.qx.len();
        rows.clear();
        rows.resize(xs.len() * m, 0.0);
        for (k, out) in rows.chunks_exact_mut(m).enumerate() {
            fill_point_dists(&self.qx, &self.qy, xs[k], ys[k], out);
        }
        Some(m)
    }

    fn extend_run_rows_into(&mut self, rows: &[f64], sims: &mut [f64]) -> f64 {
        if rows.is_empty() {
            return self.similarity();
        }
        assert!(self.initialized, "extend_run before init");
        kernel::extend_run_wavefront_rows::<kernel::MaxOp, false>(&mut self.row, rows, |i, d| {
            sims[i] = similarity_from_distance(d)
        });
        self.similarity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn evaluator_matches_naive(a in arb_traj(12), b in arb_traj(10)) {
            for i in 0..a.len() {
                let mut eval = FrechetEvaluator::new(&b);
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
            prop_assert!(f + 1e-9 >= first.max(last) .min(f + 1.0));
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
            let mut fast = FrechetEvaluator::new(&b);
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
            let mut stepwise = FrechetEvaluator::new(&b);
            stepwise.init(a[0]);
            let want: Vec<f64> = a[1..].iter().map(|&p| stepwise.extend(p)).collect();
            let mut bulk = FrechetEvaluator::new(&b);
            bulk.init(a[0]);
            let mut sims = vec![0.0; xs.len()];
            let last = bulk.extend_run_into(&xs, &ys, &ts, &mut sims);
            for (i, (&got, &expect)) in sims.iter().zip(&want).enumerate() {
                prop_assert_eq!(got.to_bits(), expect.to_bits(), "per-point sim {i}");
            }
            prop_assert_eq!(last.to_bits(), stepwise.similarity().to_bits());
            prop_assert_eq!(bulk.distance().to_bits(), stepwise.distance().to_bits());
            let mut chunked = FrechetEvaluator::new(&b);
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
    }
}
