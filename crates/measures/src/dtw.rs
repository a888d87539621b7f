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
//! The incremental evaluator keeps the last DP row (length `m`), so
//! `Φini = Φinc = O(m)` exactly as Table 1 requires.

use crate::kernel::{self, fill_point_dists, load_query_soa, DpScratch, ExactBest};
use crate::{similarity_from_distance, DistanceAggregate, Measure, PrefixEvaluator};
use simsub_trajectory::{Point, TrajView};

/// The DTW measure. Stateless; one instance can serve any number of
/// queries and threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dtw;

/// Full DTW distance via the row-rolling DP. `O(|a| · |b|)` time,
/// `O(|b|)` space. Returns `INFINITY` when either input is empty.
pub fn dtw_distance(a: &[Point], b: &[Point]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let mut eval = DtwEvaluator::new(b);
    eval.init(a[0]);
    for &p in &a[1..] {
        eval.extend(p);
    }
    eval.distance()
}

/// Banded (Sakoe-Chiba) DTW used by the UCR and Spring comparisons
/// (Section 6.2(9)): point `a_i` may only align with `b_j` for
/// `|i - j| <= band` after rescaling index ranges to equal lengths.
/// `band` is in *b*-index units. Cells outside the band are `+∞`.
/// With `band >= max(|a|, |b|)` this equals unconstrained DTW.
///
/// Allocates a fresh [`BandedDtwWorkspace`] per call; hot loops that
/// compute many banded distances should hold a workspace and call
/// [`BandedDtwWorkspace::distance`] instead.
pub fn dtw_distance_banded(a: &[Point], b: &[Point], band: usize) -> f64 {
    BandedDtwWorkspace::new().distance(a, b, band)
}

/// Reusable row buffers for banded DTW: one allocation serves any number
/// of `distance` calls (rows grow to the largest `|b|` seen and are then
/// reused). The DP tracks each row's valid band window explicitly instead
/// of resetting whole rows to `+∞`, so per-row work is `O(band)` writes,
/// not `O(m)` — the difference dominates at small bands.
#[derive(Debug, Clone, Default)]
pub struct BandedDtwWorkspace {
    prev: Vec<f64>,
    cur: Vec<f64>,
}

impl BandedDtwWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Banded DTW distance; semantics identical to [`dtw_distance_banded`]
    /// (property-tested), buffers reused across calls.
    #[allow(clippy::needless_range_loop)] // lockstep band-window indexing
    pub fn distance(&mut self, a: &[Point], b: &[Point], band: usize) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        let (n, m) = (a.len(), b.len());
        if self.prev.len() < m {
            self.prev.resize(m, f64::INFINITY);
            self.cur.resize(m, f64::INFINITY);
        }
        let (prev, cur) = (&mut self.prev, &mut self.cur);
        // Map row i to the band center on the b axis so unequal lengths
        // warp proportionally (the classic Sakoe-Chiba generalization).
        let center = |i: usize| -> isize {
            if n <= 1 {
                0
            } else {
                ((i as f64) * ((m - 1) as f64) / ((n - 1) as f64)).round() as isize
            }
        };
        // Valid band window of the previous row; cells outside it read as
        // +∞ (initially empty: row 0 reads no previous row).
        let (mut plo, mut phi) = (1usize, 0usize);
        for i in 0..n {
            let c = center(i);
            let lo = (c - band as isize).max(0) as usize;
            let hi = ((c + band as isize) as usize).min(m - 1);
            for j in lo..=hi {
                let d = a[i].dist(b[j]);
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    let mut best = f64::INFINITY;
                    if (plo..=phi).contains(&j) {
                        best = best.min(prev[j]); // D_{i-1, j}
                    }
                    if j > 0 && (plo..=phi).contains(&(j - 1)) {
                        best = best.min(prev[j - 1]); // D_{i-1, j-1}
                    }
                    if j > lo {
                        best = best.min(cur[j - 1]); // D_{i, j-1}
                    }
                    best
                };
                cur[j] = d + best;
            }
            std::mem::swap(prev, cur);
            (plo, phi) = (lo, hi);
        }
        if (plo..=phi).contains(&(m - 1)) {
            prev[m - 1]
        } else {
            // The last row's band never reached column m-1 (possible only
            // in degenerate n=1 cases): no admissible path exists.
            f64::INFINITY
        }
    }
}

impl Measure for Dtw {
    fn name(&self) -> &'static str {
        "dtw"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        dtw_distance(a, b)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(DtwEvaluator::new(query))
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
        Some(kernel::exact_best_above::<kernel::SumOp>(
            data.xs(),
            data.ys(),
            query,
            floor,
            cell_rows,
            scratch,
        ))
    }
}

/// Incremental DTW row: after `init(p_i)` and `k` calls to `extend`, holds
/// `D_{i+k, ·}` — the DP row for the subtrajectory `T[i, i+k]` against the
/// full query.
///
/// The query is stored as SoA coordinate slices and every step first
/// fills the point-distance vector `d[j] = d(p, q_j)` through the
/// auto-vectorizable [`fill_point_dists`] kernel, then runs the serial DP
/// recurrence over that buffer. Per-element arithmetic and the DP order
/// match the scalar formulation exactly, so results are bit-identical
/// (property-tested against a scalar reference below).
#[derive(Debug, Clone)]
pub struct DtwEvaluator {
    qx: Vec<f64>,
    qy: Vec<f64>,
    row: Vec<f64>,
    dist: Vec<f64>,
    /// Scratch for the bulk wavefront kernel (`extend_run`): per-lane
    /// precomputed distance rows; sized on first bulk call.
    bulk_dist: Vec<f64>,
    initialized: bool,
}

impl DtwEvaluator {
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

impl PrefixEvaluator for DtwEvaluator {
    fn init(&mut self, p: Point) -> f64 {
        // Boundary i = 1: D_{1,j} = Σ_{k<=j} d(p, q_k).
        fill_point_dists(&self.qx, &self.qy, p.x, p.y, &mut self.dist);
        let mut acc = 0.0;
        for (r, &d) in self.row.iter_mut().zip(&self.dist) {
            acc += d;
            *r = acc;
        }
        self.initialized = true;
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        fill_point_dists(&self.qx, &self.qy, p.x, p.y, &mut self.dist);
        // Boundary j = 1: D_{i,1} = Σ_{h<=i} d(p_h, q_1).
        let mut diag = self.row[0]; // D_{i-1, j-1} for the next column
        let mut left = self.row[0] + self.dist[0]; // D_{i, j-1}, register-carried
        self.row[0] = left;
        for (r, &d) in self.row[1..].iter_mut().zip(&self.dist[1..]) {
            let up = *r; // D_{i-1, j}
            *r = d + diag.min(up).min(left);
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
        kernel::extend_run_wavefront::<kernel::SumOp>(
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
        kernel::extend_run_wavefront::<kernel::SumOp>(
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
        kernel::extend_run_wavefront_rows::<kernel::SumOp, false>(&mut self.row, rows, |i, d| {
            sims[i] = similarity_from_distance(d)
        });
        self.similarity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn banded_with_full_band_equals_unbanded() {
        let a = pts(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0), (4.0, 4.0)]);
        let b = pts(&[(0.5, 0.5), (2.0, 2.0), (4.0, 3.5)]);
        let full = dtw_distance(&a, &b);
        let banded = dtw_distance_banded(&a, &b, 10);
        assert!((full - banded).abs() < 1e-9);
    }

    #[test]
    fn banded_is_lower_bounded_by_unbanded() {
        // Restricting alignments can only increase the optimum.
        let a = pts(&[(0.0, 0.0), (5.0, 0.0), (0.0, 0.0), (5.0, 0.0), (0.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (0.0, 0.0), (5.0, 0.0)]);
        let un = dtw_distance(&a, &b);
        for band in 0..4 {
            assert!(dtw_distance_banded(&a, &b, band) >= un - 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn evaluator_matches_naive(a in arb_traj(12), b in arb_traj(10)) {
            // Incremental evaluation from every start index equals naive DP.
            for i in 0..a.len() {
                let mut eval = DtwEvaluator::new(&b);
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
            let mut reused = DtwEvaluator::new(&c);
            reused.init(a[0]);
            reused.reset(&b);
            let mut fresh = DtwEvaluator::new(&b);
            prop_assert_eq!(reused.init(a[0]).to_bits(), fresh.init(a[0]).to_bits());
            for &p in &a[1..] {
                prop_assert_eq!(reused.extend(p).to_bits(), fresh.extend(p).to_bits());
            }
        }

        #[test]
        fn workspace_reuse_matches_fresh_banded(
            a in arb_traj(10), b in arb_traj(10), c in arb_traj(10), band in 0usize..6,
        ) {
            // A reused workspace (dirty buffers from an unrelated call)
            // must reproduce the allocating entry point exactly.
            let mut ws = BandedDtwWorkspace::new();
            let _ = ws.distance(&c, &b, band); // dirty the buffers
            let reused = ws.distance(&a, &b, band);
            let fresh = dtw_distance_banded(&a, &b, band);
            prop_assert_eq!(reused.to_bits(), fresh.to_bits());
        }

        #[test]
        fn vectorized_evaluator_is_bit_identical_to_scalar(a in arb_traj(14), b in arb_traj(12)) {
            // The slice-kernel evaluator (SoA query + hoisted distance
            // row) must track the scalar AoS formulation bit for bit.
            let mut fast = DtwEvaluator::new(&b);
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
            let mut stepwise = DtwEvaluator::new(&b);
            stepwise.init(a[0]);
            let want: Vec<f64> = a[1..].iter().map(|&p| stepwise.extend(p)).collect();
            // One bulk call with per-point readout.
            let mut bulk = DtwEvaluator::new(&b);
            bulk.init(a[0]);
            let mut sims = vec![0.0; xs.len()];
            let last = bulk.extend_run_into(&xs, &ys, &ts, &mut sims);
            for (i, (&got, &expect)) in sims.iter().zip(&want).enumerate() {
                prop_assert_eq!(got.to_bits(), expect.to_bits(), "per-point sim {i}");
            }
            prop_assert_eq!(last.to_bits(), stepwise.similarity().to_bits());
            prop_assert_eq!(bulk.distance().to_bits(), stepwise.distance().to_bits());
            // Two chunked calls at an arbitrary split point.
            let mut chunked = DtwEvaluator::new(&b);
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
        fn banded_monotone_in_band(a in arb_traj(10), b in arb_traj(10)) {
            // Wider bands can only improve (decrease) the distance.
            let mut prev = f64::INFINITY;
            for band in 0..b.len() + 2 {
                let d = dtw_distance_banded(&a, &b, band);
                prop_assert!(d <= prev + 1e-9);
                prev = d;
            }
            let full = dtw_distance(&a, &b);
            prop_assert!((prev - full).abs() < 1e-6);
        }
    }
}
