//! EDR — Edit Distance on Real sequences (Chen, Özsu & Oria, SIGMOD
//! 2005). Reviewed in Section 2 of the paper; robust to noise because a
//! point pair only contributes 0 or 1 depending on a match threshold ε:
//!
//! ```text
//! subcost(a_i, b_j) = 0 if d(a_i, b_j) <= ε else 1
//! D(i, j) = min( D(i-1, j-1) + subcost, D(i-1, j) + 1, D(i, j-1) + 1 )
//! D(i, 0) = i,   D(0, j) = j
//! ```
//!
//! Integer-valued; same row structure as DTW (`Φini = Φinc = O(m)`).

use crate::{similarity_from_distance, Measure, PrefixEvaluator};
use simsub_trajectory::Point;

/// The EDR measure with match threshold ε.
#[derive(Debug, Clone, Copy)]
pub struct Edr {
    /// Match tolerance ε in coordinate units; pairs within ε count as
    /// exact matches.
    pub epsilon: f64,
}

impl Edr {
    /// Creates EDR with the given match threshold.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self { epsilon }
    }
}

/// Full EDR distance; `O(|a| · |b|)` time, `O(|b|)` space.
pub fn edr_distance(a: &[Point], b: &[Point], epsilon: f64) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let mut eval = EdrEvaluator::new(b, epsilon);
    eval.init(a[0]);
    for &p in &a[1..] {
        eval.extend(p);
    }
    eval.distance()
}

impl Measure for Edr {
    fn name(&self) -> &'static str {
        "edr"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        edr_distance(a, b, self.epsilon)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(EdrEvaluator::new(query, self.epsilon))
    }
}

/// Incremental EDR row; `row[j] = D(i, j+1)`, virtual column `D(i,0) = i`.
#[derive(Debug, Clone)]
pub(crate) struct EdrEvaluator {
    query: Vec<Point>,
    epsilon: f64,
    row: Vec<f64>,
    /// Number of data points consumed so far (= `D(i, 0)`).
    i: usize,
    initialized: bool,
}

impl EdrEvaluator {
    /// Creates an evaluator for the given (non-empty) query.
    pub(crate) fn new(query: &[Point], epsilon: f64) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self {
            query: query.to_vec(),
            epsilon,
            row: vec![0.0; query.len()],
            i: 0,
            initialized: false,
        }
    }

    #[inline]
    fn subcost(&self, p: Point, j: usize) -> f64 {
        if p.dist(self.query[j]) <= self.epsilon {
            0.0
        } else {
            1.0
        }
    }
}

impl PrefixEvaluator for EdrEvaluator {
    fn init(&mut self, p: Point) -> f64 {
        self.i = 1;
        // Row above is D(0, j) = j; D(1, 0) = 1.
        let mut left = 1.0; // D(1, j), starts at D(1, 0)
        for j in 0..self.query.len() {
            let up = (j + 1) as f64; // D(0, j+1)
            let diag = j as f64; // D(0, j)
            let cell = (diag + self.subcost(p, j)).min(up + 1.0).min(left + 1.0);
            self.row[j] = cell;
            left = cell;
        }
        self.initialized = true;
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        self.i += 1;
        let mut diag = (self.i - 1) as f64; // D(i-1, 0)
        let mut left = self.i as f64; // D(i, 0)
        for j in 0..self.query.len() {
            let up = self.row[j]; // D(i-1, j+1)
            let cell = (diag + self.subcost(p, j)).min(up + 1.0).min(left + 1.0);
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
        self.query.clear();
        self.query.extend_from_slice(query);
        self.row.clear();
        self.row.resize(query.len(), 0.0);
        self.i = 0;
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive full-matrix EDR, the reference for all tests.
    fn edr_naive(a: &[Point], b: &[Point], eps: f64) -> f64 {
        let (n, m) = (a.len(), b.len());
        let mut d = vec![vec![0.0f64; m + 1]; n + 1];
        for (i, row) in d.iter_mut().enumerate() {
            row[0] = i as f64;
        }
        for (j, cell) in d[0].iter_mut().enumerate() {
            *cell = j as f64;
        }
        for i in 1..=n {
            for j in 1..=m {
                let sub = if a[i - 1].dist(b[j - 1]) <= eps {
                    0.0
                } else {
                    1.0
                };
                d[i][j] = (d[i - 1][j - 1] + sub)
                    .min(d[i - 1][j] + 1.0)
                    .min(d[i][j - 1] + 1.0);
            }
        }
        d[n][m]
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    fn arb_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..max_len)
            .prop_map(|v| pts(&v))
    }

    #[test]
    fn zero_on_identical_and_on_within_epsilon() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(edr_distance(&a, &a, 0.0), 0.0);
        let b = pts(&[(0.05, 0.0), (1.05, 0.0)]);
        assert_eq!(edr_distance(&a, &b, 0.1), 0.0);
        // Below the threshold the mismatch costs show up.
        assert_eq!(edr_distance(&a, &b, 0.01), 2.0);
    }

    #[test]
    fn counts_length_differences() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 0.0)]);
        // Two deletions required.
        assert_eq!(edr_distance(&a, &b, 0.1), 2.0);
    }

    #[test]
    fn robust_to_single_outlier_unlike_dtw() {
        // One far-out noise spike costs exactly 1 for EDR; DTW pays the
        // full magnitude.
        let clean = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let noisy = pts(&[(0.0, 0.0), (1.0, 500.0), (2.0, 0.0)]);
        assert_eq!(edr_distance(&clean, &noisy, 0.1), 1.0);
        assert!(crate::dtw_distance(&clean, &noisy) > 100.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn evaluator_matches_naive(a in arb_traj(10), b in arb_traj(8), eps in 0.0..5.0f64) {
            for i in 0..a.len() {
                let mut eval = EdrEvaluator::new(&b, eps);
                eval.init(a[i]);
                for j in i..a.len() {
                    if j > i {
                        eval.extend(a[j]);
                    }
                    let expect = edr_naive(&a[i..=j], &b, eps);
                    prop_assert!((eval.distance() - expect).abs() < 1e-9,
                        "i={i} j={j}: {} vs {}", eval.distance(), expect);
                }
            }
        }

        #[test]
        fn symmetric(a in arb_traj(10), b in arb_traj(10), eps in 0.0..5.0f64) {
            prop_assert_eq!(edr_distance(&a, &b, eps), edr_distance(&b, &a, eps));
        }

        #[test]
        fn bounded_by_max_length(a in arb_traj(10), b in arb_traj(10), eps in 0.0..5.0f64) {
            let d = edr_distance(&a, &b, eps);
            prop_assert!(d >= (a.len().abs_diff(b.len())) as f64 - 1e-9);
            prop_assert!(d <= a.len().max(b.len()) as f64 + 1e-9);
        }

        #[test]
        fn monotone_in_epsilon(a in arb_traj(8), b in arb_traj(8)) {
            // A larger tolerance can only lower the edit cost.
            let mut prev = f64::INFINITY;
            for eps in [0.0, 0.5, 1.0, 2.0, 5.0, 50.0] {
                let d = edr_distance(&a, &b, eps);
                prop_assert!(d <= prev + 1e-9);
                prev = d;
            }
        }

        #[test]
        fn reversal_invariant(a in arb_traj(10), b in arb_traj(10), eps in 0.0..5.0f64) {
            let ar: Vec<Point> = a.iter().rev().copied().collect();
            let br: Vec<Point> = b.iter().rev().copied().collect();
            prop_assert_eq!(edr_distance(&a, &b, eps), edr_distance(&ar, &br, eps));
        }
    }
}
