//! LCSS — Longest Common SubSequence similarity for trajectories
//! (Vlachos, Kollios & Gunopulos, ICDE 2002). Reviewed in Section 2 of
//! the paper. Two points "match" when within ε; the distance is the
//! normalized complement of the LCS length:
//!
//! ```text
//! L(i, j) = L(i-1, j-1) + 1            if d(a_i, b_j) <= ε
//!         = max(L(i-1, j), L(i, j-1))  otherwise
//! dist(a, b) = 1 − L(n, m) / min(n, m)     ∈ [0, 1]
//! ```
//!
//! Same row structure as DTW (`Φini = Φinc = O(m)`).

use crate::{similarity_from_distance, Measure, PrefixEvaluator};
use simsub_trajectory::Point;

/// The LCSS measure with match threshold ε.
#[derive(Debug, Clone, Copy)]
pub struct Lcss {
    /// Match tolerance ε in coordinate units.
    pub epsilon: f64,
}

impl Lcss {
    /// Creates LCSS with the given match threshold.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self { epsilon }
    }
}

/// Raw LCS length between two point sequences under tolerance ε.
pub fn lcss_length(a: &[Point], b: &[Point], epsilon: f64) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut eval = LcssEvaluator::new(b, epsilon);
    eval.init(a[0]);
    for &p in &a[1..] {
        eval.extend(p);
    }
    eval.length()
}

/// Normalized LCSS distance `1 − L / min(|a|, |b|)`; `INFINITY` on empty
/// inputs.
pub fn lcss_distance(a: &[Point], b: &[Point], epsilon: f64) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    1.0 - lcss_length(a, b, epsilon) as f64 / a.len().min(b.len()) as f64
}

impl Measure for Lcss {
    fn name(&self) -> &'static str {
        "lcss"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        lcss_distance(a, b, self.epsilon)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(LcssEvaluator::new(query, self.epsilon))
    }
}

/// Incremental LCSS row: `row[j] = L(i, j+1)`.
#[derive(Debug, Clone)]
pub(crate) struct LcssEvaluator {
    query: Vec<Point>,
    epsilon: f64,
    row: Vec<usize>,
    /// Data points consumed so far.
    i: usize,
    initialized: bool,
}

impl LcssEvaluator {
    /// Creates an evaluator for the given (non-empty) query.
    pub(crate) fn new(query: &[Point], epsilon: f64) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self {
            query: query.to_vec(),
            epsilon,
            row: vec![0; query.len()],
            i: 0,
            initialized: false,
        }
    }

    /// Current LCS length `L(i, m)`.
    pub(crate) fn length(&self) -> usize {
        if self.initialized {
            *self.row.last().expect("non-empty query")
        } else {
            0
        }
    }
}

impl PrefixEvaluator for LcssEvaluator {
    fn init(&mut self, p: Point) -> f64 {
        self.i = 1;
        // L(0, ·) = 0; first row is a running OR of matches.
        let mut best = 0usize;
        for j in 0..self.query.len() {
            if p.dist(self.query[j]) <= self.epsilon {
                best = 1;
            }
            self.row[j] = best;
        }
        self.initialized = true;
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        self.i += 1;
        let mut diag = 0usize; // L(i-1, j)
        let mut left = 0usize; // L(i, j)
        for j in 0..self.query.len() {
            let up = self.row[j]; // L(i-1, j+1)
            let cell = if p.dist(self.query[j]) <= self.epsilon {
                diag + 1
            } else {
                up.max(left)
            };
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
            1.0 - self.length() as f64 / self.i.min(self.query.len()) as f64
        } else {
            f64::INFINITY
        }
    }

    fn reset(&mut self, query: &[Point]) {
        assert!(!query.is_empty(), "query must be non-empty");
        self.query.clear();
        self.query.extend_from_slice(query);
        self.row.clear();
        self.row.resize(query.len(), 0);
        self.i = 0;
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive full-matrix LCS length, the reference for all tests.
    fn lcss_naive(a: &[Point], b: &[Point], eps: f64) -> usize {
        let (n, m) = (a.len(), b.len());
        let mut l = vec![vec![0usize; m + 1]; n + 1];
        for i in 1..=n {
            for j in 1..=m {
                l[i][j] = if a[i - 1].dist(b[j - 1]) <= eps {
                    l[i - 1][j - 1] + 1
                } else {
                    l[i - 1][j].max(l[i][j - 1])
                };
            }
        }
        l[n][m]
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    fn arb_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..max_len)
            .prop_map(|v| pts(&v))
    }

    #[test]
    fn full_match_gives_zero_distance() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(lcss_length(&a, &a, 0.0), 3);
        assert_eq!(lcss_distance(&a, &a, 0.0), 0.0);
    }

    #[test]
    fn subsequence_match() {
        // b is a with one extra point; LCS = |a| so distance is 0
        // (normalized by the shorter length — LCSS's signature behavior).
        let a = pts(&[(0.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (1.0, 7.0), (2.0, 0.0)]);
        assert_eq!(lcss_length(&a, &b, 0.1), 2);
        assert_eq!(lcss_distance(&a, &b, 0.1), 0.0);
    }

    #[test]
    fn no_match_gives_distance_one() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(100.0, 100.0)]);
        assert_eq!(lcss_distance(&a, &b, 1.0), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn evaluator_matches_naive(a in arb_traj(10), b in arb_traj(8), eps in 0.0..5.0f64) {
            for i in 0..a.len() {
                let mut eval = LcssEvaluator::new(&b, eps);
                eval.init(a[i]);
                for j in i..a.len() {
                    if j > i {
                        eval.extend(a[j]);
                    }
                    let expect = lcss_naive(&a[i..=j], &b, eps);
                    prop_assert_eq!(eval.length(), expect, "i={} j={}", i, j);
                    let expect_d = 1.0 - expect as f64 / (j - i + 1).min(b.len()) as f64;
                    prop_assert!((eval.distance() - expect_d).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn symmetric(a in arb_traj(10), b in arb_traj(10), eps in 0.0..5.0f64) {
            prop_assert_eq!(lcss_length(&a, &b, eps), lcss_length(&b, &a, eps));
        }

        #[test]
        fn distance_in_unit_interval(a in arb_traj(10), b in arb_traj(10), eps in 0.0..5.0f64) {
            let d = lcss_distance(&a, &b, eps);
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn length_monotone_in_epsilon(a in arb_traj(8), b in arb_traj(8)) {
            let mut prev = 0;
            for eps in [0.0, 0.5, 1.0, 2.0, 5.0, 50.0] {
                let l = lcss_length(&a, &b, eps);
                prop_assert!(l >= prev);
                prev = l;
            }
        }

        #[test]
        fn reversal_invariant(a in arb_traj(10), b in arb_traj(10), eps in 0.0..5.0f64) {
            let ar: Vec<Point> = a.iter().rev().copied().collect();
            let br: Vec<Point> = b.iter().rev().copied().collect();
            prop_assert_eq!(lcss_length(&a, &b, eps), lcss_length(&ar, &br, eps));
        }
    }
}
