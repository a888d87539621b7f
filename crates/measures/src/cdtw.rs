//! Constrained DTW (Sakoe & Chiba, 1978) as a first-class [`Measure`] —
//! the measure the paper names explicitly as future work for SimSub
//! ("e.g., the constrained DTW distance", Section 7).
//!
//! The warping path is restricted to a band of half-width `w` around the
//! *locally rescaled* diagonal: data index `i` (within the subtrajectory)
//! may align with query index `j` only when `|j − i·(m−1)/(n−1)| ≤ w`.
//! The incremental evaluator keeps the usual rolling row but only fills
//! the banded cells, so `Φinc = O(min(m, 2w+1))` — *cheaper* than
//! unconstrained DTW for tight bands.
//!
//! One subtlety makes cDTW different from the other rows in this crate:
//! the band depends on the *current subtrajectory length*, which changes
//! with every `extend`. The evaluator therefore re-centers the band at
//! each step against the fixed query length (the standard streaming
//! Sakoe-Chiba treatment); distances match the batch
//! [`crate::dtw_distance_banded`] exactly, which the tests enforce.

use crate::{dtw_distance_banded, similarity_from_distance, Measure, PrefixEvaluator};
use simsub_trajectory::Point;

/// DTW with a Sakoe-Chiba band of half-width `band` (in query-index
/// units). `band >= m` degenerates to unconstrained DTW.
#[derive(Debug, Clone, Copy)]
pub struct Cdtw {
    /// Band half-width `w`.
    pub band: usize,
}

impl Cdtw {
    /// Creates constrained DTW with the given band half-width.
    pub fn new(band: usize) -> Self {
        Self { band }
    }
}

impl Measure for Cdtw {
    fn name(&self) -> &'static str {
        "cdtw"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        dtw_distance_banded(a, b, self.band)
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(CdtwEvaluator::new(query, self.band))
    }

    fn distance_aggregate(&self) -> Option<crate::DistanceAggregate> {
        // Banded warping paths still visit every query column, so the
        // sum-aggregate bound of plain DTW stays admissible.
        Some(crate::DistanceAggregate::Sum)
    }
}

/// Incremental banded-DTW evaluator.
///
/// Because the band center depends on the subtrajectory length `n`, which
/// grows with each `extend`, the evaluator cannot keep a single rolling
/// row like plain DTW: cells that were outside yesterday's band can be
/// inside today's. It instead keeps *all* rows computed so far (`O(n·m)`
/// worst-case memory, `O(n · (2w+1))` filled cells) and lazily recomputes
/// the affected suffix of rows when the band shifts. For the common case
/// (`n` close to `m`) the shift is small and amortized cost stays near
/// `O(2w+1)` per point; the worst case matches full recomputation, which
/// is still `Φ`.
#[derive(Debug, Clone)]
pub(crate) struct CdtwEvaluator {
    query: Vec<Point>,
    band: usize,
    /// All data points of the current subtrajectory.
    data: Vec<Point>,
    /// Reused DP rows — `recompute` runs once per `init`/`extend`, so
    /// the allocating `dtw_distance_banded` entry point would pay a
    /// fresh row pair per visited point.
    ws: crate::BandedDtwWorkspace,
    /// Final-row value cache per length (distance of `T[i, i+len-1]`).
    current: f64,
    initialized: bool,
}

impl CdtwEvaluator {
    /// Creates an evaluator for the given (non-empty) query.
    pub(crate) fn new(query: &[Point], band: usize) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        Self {
            query: query.to_vec(),
            band,
            data: Vec::new(),
            ws: crate::BandedDtwWorkspace::new(),
            current: f64::INFINITY,
            initialized: false,
        }
    }

    fn recompute(&mut self) {
        self.current = self.ws.distance(&self.data, &self.query, self.band);
    }
}

impl PrefixEvaluator for CdtwEvaluator {
    fn init(&mut self, p: Point) -> f64 {
        self.data.clear();
        self.data.push(p);
        self.initialized = true;
        self.recompute();
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        self.data.push(p);
        self.recompute();
        self.similarity()
    }

    fn similarity(&self) -> f64 {
        similarity_from_distance(self.distance())
    }

    fn distance(&self) -> f64 {
        if self.initialized {
            self.current
        } else {
            f64::INFINITY
        }
    }

    fn reset(&mut self, query: &[Point]) {
        assert!(!query.is_empty(), "query must be non-empty");
        self.query.clear();
        self.query.extend_from_slice(query);
        self.data.clear();
        self.current = f64::INFINITY;
        self.initialized = false;
    }

    fn extend_run(&mut self, xs: &[f64], ys: &[f64], ts: &[f64]) -> f64 {
        // Every scalar `extend` recomputes the banded DP from scratch over
        // the full accumulated data, so the intermediate recomputations of
        // a point loop are dead work: appending the whole run and
        // recomputing once yields the identical final state and value
        // (`BandedDtwWorkspace::distance` is property-tested independent
        // of buffer dirt) at O(n·band) instead of O(n²·band).
        if xs.is_empty() {
            return self.similarity();
        }
        assert!(self.initialized, "extend_run before init");
        debug_assert!(xs.len() == ys.len() && xs.len() == ts.len());
        for i in 0..xs.len() {
            self.data.push(Point::new(xs[i], ys[i], ts[i]));
        }
        self.recompute();
        self.similarity()
    }
    // `extend_run_into` keeps the default point loop: per-point readouts
    // need every intermediate band recomputation anyway.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw_distance;
    use proptest::prelude::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    fn arb_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 1..max_len)
            .prop_map(|v| pts(&v))
    }

    #[test]
    fn wide_band_equals_unconstrained() {
        let a = pts(&[(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]);
        let b = pts(&[(0.5, 0.0), (2.5, 2.0)]);
        let c = Cdtw::new(10);
        assert!((c.distance(&a, &b) - dtw_distance(&a, &b)).abs() < 1e-9);
    }

    #[test]
    fn zero_band_is_lockstep_on_equal_lengths() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        // Band 0 with equal lengths: strict diagonal, sum of pointwise
        // distances.
        assert!((Cdtw::new(0).distance(&a, &b) - 3.0).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn evaluator_matches_batch(a in arb_traj(10), b in arb_traj(8), w in 0usize..6) {
            let c = Cdtw::new(w);
            for i in 0..a.len() {
                let mut eval = c.make_workspace(&b);
                eval.init(a[i]);
                for j in i..a.len() {
                    if j > i {
                        eval.extend(a[j]);
                    }
                    let expect = dtw_distance_banded(&a[i..=j], &b, w);
                    let got = eval.distance();
                    if expect.is_infinite() {
                        prop_assert!(got.is_infinite());
                    } else {
                        prop_assert!((got - expect).abs() < 1e-9,
                            "i={i} j={j} w={w}: {got} vs {expect}");
                    }
                }
            }
        }

        #[test]
        fn lower_bounded_by_unconstrained(a in arb_traj(10), b in arb_traj(10), w in 0usize..6) {
            let c = Cdtw::new(w).distance(&a, &b);
            prop_assert!(c + 1e-9 >= dtw_distance(&a, &b));
        }
    }
}
