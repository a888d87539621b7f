//! Effectiveness metrics of Section 6.1:
//!
//! - **AR** (approximation ratio): dissimilarity of the returned solution
//!   over that of the exact optimum (≥ 1; smaller is better);
//! - **MR** (mean rank): the 1-based rank of the returned subtrajectory
//!   among *all* subtrajectories sorted by ascending dissimilarity;
//! - **RR** (relative rank): MR normalized by `n(n+1)/2`.

use crate::exact::ExhaustiveRanking;
use simsub_trajectory::SubtrajRange;

/// Below this, the optimal distance is treated as exactly zero (under DTW
/// and Frechet, whenever the query is literally embedded in the data
/// trajectory).
const ZERO_OPT: f64 = 1e-9;

/// Per-query effectiveness numbers (or their means, via
/// [`MetricsAccumulator`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectivenessMetrics {
    /// Approximation ratio (≥ 1).
    pub ar: f64,
    /// (Mean) rank, 1-based.
    pub mr: f64,
    /// Relative rank in `[0, 1]`.
    pub rr: f64,
}

impl EffectivenessMetrics {
    /// Evaluates a returned range against the exhaustive ranking of its
    /// data/query pair. The range's *exact* distance is looked up in the
    /// ranking (approximate algorithms may carry approximate internal
    /// similarities, e.g. RLS-Skip's simplified prefix).
    pub fn evaluate(ranking: &ExhaustiveRanking, returned: SubtrajRange) -> Self {
        let d = ranking.distance_of(returned);
        let (_, d_opt) = ranking.best();
        let rank = ranking.rank_of(returned);
        // AR per §6.1 is the dissimilarity ratio d / d_opt. When the
        // optimum is (numerically) zero the ratio is undefined, so fall
        // back to the similarity-space ratio Θ_opt / Θ = (1+d)/(1+d_opt),
        // which agrees with the intent (1 when d == d_opt, grows with d)
        // and stays finite.
        let ar = if d_opt > ZERO_OPT {
            d / d_opt
        } else {
            (1.0 + d) / (1.0 + d_opt)
        };
        EffectivenessMetrics {
            ar,
            mr: rank as f64,
            rr: rank as f64 / ranking.total() as f64,
        }
    }
}

/// Streaming mean of metrics over many query pairs — Figure 3 reports
/// means over 10,000 pairs.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    sum_ar: f64,
    sum_mr: f64,
    sum_rr: f64,
    count: usize,
}

impl MetricsAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one query's metrics.
    pub fn add(&mut self, m: EffectivenessMetrics) {
        self.sum_ar += m.ar;
        self.sum_mr += m.mr;
        self.sum_rr += m.rr;
        self.count += 1;
    }

    /// Number of queries accumulated.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean metrics; panics if nothing was accumulated.
    pub fn mean(&self) -> EffectivenessMetrics {
        assert!(self.count > 0, "no metrics accumulated");
        EffectivenessMetrics {
            ar: self.sum_ar / self.count as f64,
            mr: self.sum_mr / self.count as f64,
            rr: self.sum_rr / self.count as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exhaustive_ranking;
    use crate::test_util::walk;
    use crate::{ExactS, Pss, SimTra, SubtrajSearch};
    use proptest::prelude::*;
    use simsub_measures::Dtw;

    #[test]
    fn exact_solution_scores_perfectly() {
        let t = walk(1, 10);
        let q = walk(2, 4);
        let ranking = exhaustive_ranking(&Dtw, &t, &q);
        let res = ExactS.search(&Dtw, &t, &q);
        let m = EffectivenessMetrics::evaluate(&ranking, res.range);
        assert!((m.ar - 1.0).abs() < 1e-9);
        assert_eq!(m.mr, 1.0);
        assert!(m.rr <= 1.0 / ranking.total() as f64 + 1e-12);
    }

    #[test]
    fn accumulator_means() {
        let mut acc = MetricsAccumulator::new();
        acc.add(EffectivenessMetrics {
            ar: 1.0,
            mr: 1.0,
            rr: 0.1,
        });
        acc.add(EffectivenessMetrics {
            ar: 3.0,
            mr: 5.0,
            rr: 0.3,
        });
        let m = acc.mean();
        assert_eq!(acc.count(), 2);
        assert!((m.ar - 2.0).abs() < 1e-12);
        assert!((m.mr - 3.0).abs() < 1e-12);
        assert!((m.rr - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no metrics accumulated")]
    fn empty_accumulator_panics() {
        let _ = MetricsAccumulator::new().mean();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn metrics_are_well_formed(seed in 0u64..200, n in 1usize..12, m in 1usize..6) {
            let t = walk(seed, n);
            let q = walk(seed + 29, m);
            let ranking = exhaustive_ranking(&Dtw, &t, &q);
            for algo in [&Pss as &dyn SubtrajSearch, &SimTra] {
                let res = algo.search(&Dtw, &t, &q);
                let metrics = EffectivenessMetrics::evaluate(&ranking, res.range);
                prop_assert!(metrics.ar >= 1.0 - 1e-9);
                prop_assert!(metrics.mr >= 1.0);
                prop_assert!(metrics.rr > 0.0 && metrics.rr <= 1.0);
            }
        }
    }
}
