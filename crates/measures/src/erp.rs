//! ERP — Edit distance with Real Penalty (Chen & Ng, VLDB 2004). One of
//! the measures the paper reviews in Section 2 and names as future work
//! for SimSub in Section 7.
//!
//! ERP aligns two sequences allowing *gaps*; a gap is penalized by the
//! distance to a fixed reference point `g`:
//!
//! ```text
//! D(i, j) = min( D(i-1, j)   + d(a_i, g),      — gap opposite a_i
//!                D(i,   j-1) + d(b_j, g),      — gap opposite b_j
//!                D(i-1, j-1) + d(a_i, b_j) )   — match
//! D(i, 0) = Σ_{h<=i} d(a_h, g),   D(0, j) = Σ_{k<=j} d(b_k, g)
//! ```
//!
//! Unlike DTW, ERP is a *metric* (triangle inequality holds), which the
//! property tests exercise. Same row-rolling structure as DTW, so
//! `Φini = Φinc = O(m)`.

use crate::{similarity_from_distance, Measure, PrefixEvaluator};
use simsub_trajectory::Point;

/// The ERP measure with a configurable gap reference point.
#[derive(Debug, Clone, Copy)]
pub struct Erp {
    /// The gap element `g`. The classic formulation uses the origin; for
    /// data living far from the origin, pass the corpus centroid so gap
    /// penalties stay commensurate with point distances.
    pub gap: Point,
}

impl Erp {
    /// ERP with the origin as the gap element (the classic choice).
    pub fn new() -> Self {
        Self {
            gap: Point::xy(0.0, 0.0),
        }
    }

    /// ERP with an explicit gap reference.
    pub fn with_gap(gap: Point) -> Self {
        Self { gap }
    }
}

impl Default for Erp {
    fn default() -> Self {
        Self::new()
    }
}

/// Full ERP distance; `O(|a| · |b|)` time, `O(|b|)` space.
pub fn erp_distance(a: &[Point], b: &[Point], gap: Point) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let mut eval = ErpEvaluator::new(b, gap);
    eval.init(a[0]);
    for &p in &a[1..] {
        eval.extend(p);
    }
    eval.distance()
}

impl Measure for Erp {
    fn name(&self) -> &'static str {
        "erp"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        erp_distance(a, b, self.gap)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(ErpEvaluator::new(query, self.gap))
    }
}

/// Incremental ERP row. `row[j]` holds `D(i, j+1)`; the virtual column
/// `D(i, 0)` (all-gaps prefix) is tracked separately in `col0`.
#[derive(Debug, Clone)]
pub(crate) struct ErpEvaluator {
    query: Vec<Point>,
    /// Gap penalty per query point, precomputed.
    query_gap: Vec<f64>,
    gap: Point,
    row: Vec<f64>,
    /// `D(i, 0)` — cumulative gap cost of the data prefix.
    col0: f64,
    initialized: bool,
}

impl ErpEvaluator {
    /// Creates an evaluator for the given (non-empty) query.
    pub(crate) fn new(query: &[Point], gap: Point) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        Self {
            query_gap: query.iter().map(|q| q.dist(gap)).collect(),
            query: query.to_vec(),
            gap,
            row: vec![0.0; query.len()],
            col0: 0.0,
            initialized: false,
        }
    }
}

impl PrefixEvaluator for ErpEvaluator {
    fn init(&mut self, p: Point) -> f64 {
        let m = self.query.len();
        // D(1, 0) = d(p, g).
        self.col0 = p.dist(self.gap);
        // D(0, j) = Σ gap costs of the query prefix (virtual row above).
        let mut up_row_prev = 0.0; // D(0, j-1)
        let mut left = self.col0; // D(1, j-1), starts at D(1, 0)
        for j in 0..m {
            let up = up_row_prev + self.query_gap[j]; // D(0, j)
            let diag = up_row_prev; // D(0, j-1)
            let cell = (up + p.dist(self.gap))
                .min(left + self.query_gap[j])
                .min(diag + p.dist(self.query[j]));
            self.row[j] = cell;
            up_row_prev = up;
            left = cell;
        }
        self.initialized = true;
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        let gap_cost = p.dist(self.gap);
        let mut diag = self.col0; // D(i-1, 0)
        self.col0 += gap_cost; // D(i, 0)
        let mut left = self.col0;
        for j in 0..self.query.len() {
            let up = self.row[j]; // D(i-1, j)
            let cell = (up + gap_cost)
                .min(left + self.query_gap[j])
                .min(diag + p.dist(self.query[j]));
            self.row[j] = cell;
            diag = up;
            left = cell;
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
        self.query_gap.clear();
        self.query_gap
            .extend(query.iter().map(|q| q.dist(self.gap)));
        self.query.clear();
        self.query.extend_from_slice(query);
        self.row.clear();
        self.row.resize(query.len(), 0.0);
        self.col0 = 0.0;
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive full-matrix ERP, the reference for all tests.
    fn erp_naive(a: &[Point], b: &[Point], gap: Point) -> f64 {
        let (n, m) = (a.len(), b.len());
        let mut d = vec![vec![0.0f64; m + 1]; n + 1];
        for i in 1..=n {
            d[i][0] = d[i - 1][0] + a[i - 1].dist(gap);
        }
        for j in 1..=m {
            d[0][j] = d[0][j - 1] + b[j - 1].dist(gap);
        }
        for i in 1..=n {
            for j in 1..=m {
                d[i][j] = (d[i - 1][j] + a[i - 1].dist(gap))
                    .min(d[i][j - 1] + b[j - 1].dist(gap))
                    .min(d[i - 1][j - 1] + a[i - 1].dist(b[j - 1]));
            }
        }
        d[n][m]
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    fn arb_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 1..max_len)
            .prop_map(|v| pts(&v))
    }

    #[test]
    fn zero_on_identical() {
        let a = pts(&[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(erp_distance(&a, &a, Point::xy(0.0, 0.0)), 0.0);
    }

    #[test]
    fn known_value_single_gap() {
        // a = <(0,0), (3,0)>, b = <(0,0)>, gap at origin:
        // match (0,0)-(0,0) costs 0; (3,0) must gap → d((3,0), g) = 3.
        let a = pts(&[(0.0, 0.0), (3.0, 0.0)]);
        let b = pts(&[(0.0, 0.0)]);
        assert_eq!(erp_distance(&a, &b, Point::xy(0.0, 0.0)), 3.0);
    }

    #[test]
    fn custom_gap_changes_result() {
        let a = pts(&[(10.0, 0.0), (11.0, 0.0)]);
        let b = pts(&[(10.0, 0.0)]);
        let origin = erp_distance(&a, &b, Point::xy(0.0, 0.0));
        let near = erp_distance(&a, &b, Point::xy(11.0, 0.0));
        assert!(near < origin);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn evaluator_matches_naive(a in arb_traj(10), b in arb_traj(8)) {
            let gap = Point::xy(0.0, 0.0);
            for i in 0..a.len() {
                let mut eval = ErpEvaluator::new(&b, gap);
                eval.init(a[i]);
                for j in i..a.len() {
                    if j > i {
                        eval.extend(a[j]);
                    }
                    let expect = erp_naive(&a[i..=j], &b, gap);
                    prop_assert!((eval.distance() - expect).abs() < 1e-6,
                        "i={i} j={j}: {} vs {}", eval.distance(), expect);
                }
            }
        }

        #[test]
        fn symmetric(a in arb_traj(10), b in arb_traj(10)) {
            let gap = Point::xy(0.0, 0.0);
            prop_assert!((erp_distance(&a, &b, gap) - erp_distance(&b, &a, gap)).abs() < 1e-6);
        }

        #[test]
        fn triangle_inequality(a in arb_traj(6), b in arb_traj(6), c in arb_traj(6)) {
            // ERP is a metric (Chen & Ng 2004, Theorem 1).
            let gap = Point::xy(0.0, 0.0);
            let ab = erp_distance(&a, &b, gap);
            let bc = erp_distance(&b, &c, gap);
            let ac = erp_distance(&a, &c, gap);
            prop_assert!(ac <= ab + bc + 1e-6, "ERP triangle violated: {ac} > {ab} + {bc}");
        }

        #[test]
        fn reversal_invariant(a in arb_traj(10), b in arb_traj(10)) {
            let gap = Point::xy(0.0, 0.0);
            let ar: Vec<Point> = a.iter().rev().copied().collect();
            let br: Vec<Point> = b.iter().rev().copied().collect();
            prop_assert!(
                (erp_distance(&a, &b, gap) - erp_distance(&ar, &br, gap)).abs() < 1e-6
            );
        }
    }
}
