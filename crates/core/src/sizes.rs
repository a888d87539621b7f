//! SizeS (Section 4.2): restricts the search to subtrajectories whose size
//! lies within `[m - ξ, m + ξ]`, following subsequence-matching practice.
//! `ξ` trades efficiency for effectiveness; the paper shows SizeS can be
//! arbitrarily worse than optimal (Appendix A) and evaluates ξ in Fig. 7.

use crate::{SearchResult, SearchWorkspace, SubtrajSearch};
use simsub_measures::Measure;
use simsub_trajectory::{Point, SubtrajRange, TrajView};

/// The size-bounded approximate algorithm, `O(n·(Φini + (m+ξ)·Φinc))`.
#[derive(Debug, Clone, Copy)]
pub struct SizeS {
    /// Soft margin ξ on the subtrajectory size (paper default: 5).
    pub xi: usize,
}

impl SizeS {
    /// Creates SizeS with the given soft margin.
    pub fn new(xi: usize) -> Self {
        Self { xi }
    }
}

impl Default for SizeS {
    fn default() -> Self {
        Self { xi: 5 }
    }
}

/// Algorithm 1's sweep restricted to subtrajectory sizes in
/// `[min_len, max_len]` (`1 <= min_len`, `max_len <= n`) — SizeS's window,
/// and ExactS's evaluator path at `[1, n]`. Per start point, one `init`
/// plus **one** bulk [`simsub_measures::PrefixEvaluator::extend_run_into`]
/// call over the window — `extend_run_rows_into` over the window's rows
/// while the workspace holds the candidate's cell-row matrix
/// ([`SearchWorkspace::rows_prepared`]: a pruning scan under DTW or
/// Frechet), so the window reads the distances the scan already computed
/// — then a scalar in-order pass over the buffered per-length
/// similarities: the same strict-`>` comparisons against the same values
/// in the same order as the scalar `init`/`extend` sweep (chunking
/// invariance), with no per-candidate AoS staging copy. Sizes below
/// `min_len` are computed (to reach the window incrementally) but are not
/// candidates; when no size is reachable (`n < min_len`) the whole
/// trajectory is the answer.
pub(crate) fn window_sweep(
    ws: &mut SearchWorkspace<'_>,
    data: TrajView<'_>,
    min_len: usize,
    max_len: usize,
) -> SearchResult {
    let n = data.len();
    let (xs, ys, ts) = (data.xs(), data.ys(), data.ts());
    let mut best_range = SubtrajRange::new(0, 0);
    let mut best_sim = f64::NEG_INFINITY;
    {
        let (eval, _, sims, rows) = ws.scan_parts();
        for i in 0..n {
            let sim = eval.init(Point::new(xs[i], ys[i], ts[i]));
            if 1 >= min_len && sim > best_sim {
                best_sim = sim;
                best_range = SubtrajRange::new(i, i);
            }
            // Prefixes grow while len <= max_len: the window covers data
            // indices i+1 ..= i+max_len-1, clamped to the end.
            let end = (i + max_len - 1).min(n - 1);
            if end > i {
                sims.clear();
                sims.resize(end - i, 0.0);
                match rows {
                    Some((rows, m)) => {
                        eval.extend_run_rows_into(&rows[(i + 1) * m..(end + 1) * m], sims)
                    }
                    None => eval.extend_run_into(
                        &xs[i + 1..=end],
                        &ys[i + 1..=end],
                        &ts[i + 1..=end],
                        sims,
                    ),
                };
                for (k, &sim) in sims.iter().enumerate() {
                    let len = k + 2;
                    if len >= min_len && sim > best_sim {
                        best_sim = sim;
                        best_range = SubtrajRange::new(i, i + 1 + k);
                    }
                }
            }
        }
    }
    // Cold path (SizeS only: ExactS's window admits every size), so the
    // one-off staging copy is fine here.
    if best_sim == f64::NEG_INFINITY {
        let (measure, staged, query) = ws.staged(data);
        best_sim = measure.similarity(staged, query);
        best_range = SubtrajRange::new(0, n - 1);
    }
    SearchResult {
        range: best_range,
        similarity: best_sim,
        distance: simsub_measures::distance_from_similarity(best_sim),
    }
}

impl SubtrajSearch for SizeS {
    fn name(&self) -> String {
        format!("SizeS(xi={})", self.xi)
    }

    fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        crate::search_via_view(self, measure, data, query)
    }

    fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
        assert!(!data.is_empty(), "inputs must be non-empty");
        let m = ws.query().len();
        let min_len = m.saturating_sub(self.xi).max(1);
        let max_len = m.saturating_add(self.xi).min(data.len());
        window_sweep(ws, data, min_len, max_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{pts, walk};
    use crate::ExactS;
    use proptest::prelude::*;
    use simsub_measures::Dtw;

    #[test]
    fn xi_large_enough_equals_exact() {
        let t = walk(11, 12);
        let q = walk(12, 5);
        // ξ = n covers every size.
        let sizes = SizeS::new(t.len());
        let exact = ExactS.search(&Dtw, &t, &q);
        let approx = sizes.search(&Dtw, &t, &q);
        assert!((approx.distance - exact.distance).abs() < 1e-9);
    }

    #[test]
    fn xi_zero_considers_only_query_length() {
        let t = walk(21, 10);
        let q = walk(22, 4);
        let res = SizeS::new(0).search(&Dtw, &t, &q);
        assert_eq!(res.range.len(), 4);
    }

    #[test]
    fn respects_size_window() {
        let t = walk(31, 15);
        let q = walk(32, 6);
        let xi = 2;
        let res = SizeS::new(xi).search(&Dtw, &t, &q);
        assert!(res.range.len() >= 4 && res.range.len() <= 8);
    }

    #[test]
    fn data_shorter_than_window_falls_back() {
        // n = 2, m = 10, ξ = 0: no subtrajectory has size 10; the
        // fallback returns the whole trajectory.
        let t = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let q = walk(41, 10);
        let res = SizeS::new(0).search(&Dtw, &t, &q);
        assert_eq!(res.range, SubtrajRange::new(0, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn never_better_than_exact(seed in 0u64..300, n in 2usize..12, m in 1usize..7, xi in 0usize..6) {
            let t = walk(seed, n);
            let q = walk(seed + 999, m);
            let exact = ExactS.search(&Dtw, &t, &q).distance;
            let approx = SizeS::new(xi).search(&Dtw, &t, &q).distance;
            prop_assert!(approx + 1e-9 >= exact);
        }

        #[test]
        fn monotone_in_xi(seed in 0u64..200, n in 4usize..12, m in 2usize..6) {
            // Growing ξ can only improve (or keep) the result.
            let t = walk(seed, n);
            let q = walk(seed + 500, m);
            let mut prev = f64::INFINITY;
            for xi in 0..n {
                let d = SizeS::new(xi).search(&Dtw, &t, &q).distance;
                prop_assert!(d <= prev + 1e-9, "xi={xi}: {d} > {prev}");
                prev = d;
            }
        }
    }
}
