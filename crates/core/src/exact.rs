//! ExactS (Algorithm 1): exhaustive search over all `n(n+1)/2`
//! subtrajectories, computing similarities *incrementally* per start point
//! — `O(n·(Φini + n·Φinc))` instead of the naive `O(n²·Φ)`.

use crate::{SearchResult, SearchWorkspace, SubtrajSearch};
use simsub_measures::Measure;
use simsub_trajectory::{subtrajectory_count, Point, SubtrajRange, TrajView};

/// The exact algorithm: returns the globally most similar subtrajectory.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactS;

impl SubtrajSearch for ExactS {
    fn name(&self) -> String {
        "ExactS".to_string()
    }

    fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        crate::search_via_view(self, measure, data, query)
    }

    fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
        assert!(!data.is_empty(), "inputs must be non-empty");
        // The measure's multi-start slice kernel when it has one (DTW,
        // discrete Frechet) — bit-identical to the scalar sweep by its
        // contract (property-tested per measure and end-to-end by
        // tests/layout_equivalence.rs) — else the evaluator-driven bulk
        // sweep straight off the view's slabs.
        if let Some(result) = ws.exact_best(data) {
            return result;
        }
        exact_sweep_view(ws, data)
    }
}

/// The arena-backed exhaustive sweep for measures without a multi-start
/// slice kernel: per start point, one `init` plus **one** bulk
/// [`simsub_measures::PrefixEvaluator::extend_run_into`] call over the
/// entire tail, then a scalar in-order argmax over the buffered
/// similarities — the same strict-`>` comparisons in the same order as
/// the scalar `init`/`extend` sweep of Algorithm 1 (chunking invariance),
/// with no per-candidate AoS staging copy.
fn exact_sweep_view(ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
    let n = data.len();
    let (xs, ys, ts) = (data.xs(), data.ys(), data.ts());
    let mut best_range = SubtrajRange::new(0, 0);
    let mut best_sim = f64::NEG_INFINITY;
    let (eval, _, sims) = ws.scan_parts();
    for i in 0..n {
        let sim = eval.init(Point::new(xs[i], ys[i], ts[i]));
        if sim > best_sim {
            best_sim = sim;
            best_range = SubtrajRange::new(i, i);
        }
        if i + 1 < n {
            sims.clear();
            sims.resize(n - 1 - i, 0.0);
            eval.extend_run_into(&xs[i + 1..], &ys[i + 1..], &ts[i + 1..], sims);
            for (k, &sim) in sims.iter().enumerate() {
                if sim > best_sim {
                    best_sim = sim;
                    best_range = SubtrajRange::new(i, i + 1 + k);
                }
            }
        }
    }
    SearchResult {
        range: best_range,
        similarity: best_sim,
        distance: simsub_measures::distance_from_similarity(best_sim),
    }
}

/// The full distance table over all subtrajectories, used by the
/// effectiveness metrics (MR/RR need the rank of a returned solution among
/// *all* subtrajectories, §6.1) and by brute-force oracles in tests.
#[derive(Debug, Clone)]
pub struct ExhaustiveRanking {
    /// `(range, distance)` for every subtrajectory.
    entries: Vec<(SubtrajRange, f64)>,
    /// All distances, sorted ascending.
    sorted: Vec<f64>,
}

/// Enumerates every subtrajectory's distance to the query, incrementally —
/// the same `O(n·(Φini + n·Φinc))` sweep as ExactS, but retaining the full
/// table.
pub fn exhaustive_ranking(
    measure: &dyn Measure,
    data: &[Point],
    query: &[Point],
) -> ExhaustiveRanking {
    assert!(
        !data.is_empty() && !query.is_empty(),
        "inputs must be non-empty"
    );
    let n = data.len();
    let mut entries = Vec::with_capacity(subtrajectory_count(n));
    let mut eval = measure.make_workspace(query);
    for i in 0..n {
        eval.init(data[i]);
        entries.push((SubtrajRange::new(i, i), eval.distance()));
        for j in i + 1..n {
            eval.extend(data[j]);
            entries.push((SubtrajRange::new(i, j), eval.distance()));
        }
    }
    let mut sorted: Vec<f64> = entries.iter().map(|&(_, d)| d).collect();
    sorted.sort_by(f64::total_cmp);
    ExhaustiveRanking { entries, sorted }
}

impl ExhaustiveRanking {
    /// Total number of subtrajectories (`n(n+1)/2`).
    pub fn total(&self) -> usize {
        self.entries.len()
    }

    /// The optimal subtrajectory and its distance.
    pub fn best(&self) -> (SubtrajRange, f64) {
        self.entries
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty ranking")
    }

    /// Exact distance of a specific subtrajectory.
    pub fn distance_of(&self, range: SubtrajRange) -> f64 {
        // Entries are laid out start-major, end-ascending:
        // index(i, j) = Σ_{s<i} (n - s) + (j - i).
        let n = self.trajectory_len();
        debug_assert!(range.end < n);
        let i = range.start;
        let before = if i == 0 { 0 } else { i * n - i * (i - 1) / 2 };
        let offset = before + (range.end - range.start);
        let (r, d) = self.entries[offset];
        debug_assert_eq!(r, range);
        d
    }

    /// 1-based rank of a subtrajectory among all, ordered by ascending
    /// distance. Ties share the best (smallest) rank:
    /// `rank = 1 + #{entries with strictly smaller distance}`.
    pub fn rank_of(&self, range: SubtrajRange) -> usize {
        let d = self.distance_of(range);
        self.rank_of_distance(d)
    }

    /// Rank a raw distance value would receive.
    pub fn rank_of_distance(&self, d: f64) -> usize {
        self.sorted.partition_point(|&x| x < d - 1e-12) + 1
    }

    /// Number of points of the underlying data trajectory.
    pub fn trajectory_len(&self) -> usize {
        // entries.len() = n(n+1)/2 → n from the quadratic formula.
        let m = self.entries.len();
        let n = ((((8 * m + 1) as f64).sqrt() - 1.0) / 2.0).round() as usize;
        debug_assert_eq!(n * (n + 1) / 2, m);
        n
    }

    /// Iterates over all `(range, distance)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (SubtrajRange, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The `k` most similar subtrajectories, ascending by distance — the
    /// top-k generalization of Section 3.1 ("maintaining the k most
    /// similar subtrajectories ... is straightforward"). Ties break by
    /// range order for determinism.
    pub fn top_k(&self, k: usize) -> Vec<(SubtrajRange, f64)> {
        let mut all: Vec<(SubtrajRange, f64)> = self.entries.clone();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Like [`ExhaustiveRanking::top_k`], but greedily skipping
    /// subtrajectories that overlap an already-selected one — the variant
    /// downstream applications (e.g. play retrieval) usually want, since
    /// the plain top-k is dominated by ±1-point shifts of the optimum.
    pub fn top_k_disjoint(&self, k: usize) -> Vec<(SubtrajRange, f64)> {
        let mut all: Vec<(SubtrajRange, f64)> = self.entries.clone();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut picked: Vec<(SubtrajRange, f64)> = Vec::with_capacity(k);
        for (r, d) in all {
            if picked.len() == k {
                break;
            }
            let overlaps = picked
                .iter()
                .any(|(p, _)| r.start <= p.end && p.start <= r.end);
            if !overlaps {
                picked.push((r, d));
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{figure1, pts, walk};
    use proptest::prelude::*;
    use simsub_measures::{Dtw, Frechet};

    /// Brute force oracle: recompute every subtrajectory from scratch.
    fn brute_force_best(
        measure: &dyn Measure,
        data: &[Point],
        query: &[Point],
    ) -> (SubtrajRange, f64) {
        SubtrajRange::enumerate_all(data.len())
            .map(|r| (r, measure.distance(r.slice(data), query)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
    }

    #[test]
    fn figure1_optimum_is_t24() {
        let (t, q) = figure1();
        let res = ExactS.search(&Dtw, &t, &q);
        // Paper (1-based): T[2, 4]; here 0-based [1, 3] with DTW = 3.
        assert_eq!(res.range, SubtrajRange::new(1, 3));
        assert!((res.distance - 3.0).abs() < 1e-9);
    }

    #[test]
    fn single_point_data() {
        let t = pts(&[(1.0, 1.0)]);
        let q = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let res = ExactS.search(&Dtw, &t, &q);
        assert_eq!(res.range, SubtrajRange::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_query_panics() {
        let t = pts(&[(0.0, 0.0)]);
        let _ = ExactS.search(&Dtw, &t, &[]);
    }

    #[test]
    fn ranking_layout_and_lookup() {
        let t = walk(3, 9);
        let q = walk(4, 5);
        let ranking = exhaustive_ranking(&Dtw, &t, &q);
        assert_eq!(ranking.total(), 45);
        assert_eq!(ranking.trajectory_len(), 9);
        for (r, d) in ranking.entries() {
            assert_eq!(ranking.distance_of(r), d);
            let expect = Dtw.distance(r.slice(&t), &q);
            assert!((d - expect).abs() < 1e-9);
        }
        // Best entry gets rank 1.
        let (best_range, _) = ranking.best();
        assert_eq!(ranking.rank_of(best_range), 1);
    }

    #[test]
    fn top_k_is_sorted_prefix_of_ranking() {
        let t = walk(5, 10);
        let q = walk(6, 4);
        let ranking = exhaustive_ranking(&Dtw, &t, &q);
        let top = ranking.top_k(5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(top[0].1, ranking.best().1);
        // Asking for more than exist returns everything.
        assert_eq!(ranking.top_k(10_000).len(), ranking.total());
    }

    #[test]
    fn top_k_disjoint_has_no_overlaps() {
        let t = walk(7, 12);
        let q = walk(8, 4);
        let ranking = exhaustive_ranking(&Dtw, &t, &q);
        let picked = ranking.top_k_disjoint(4);
        assert!(!picked.is_empty());
        for (i, (a, _)) in picked.iter().enumerate() {
            for (b, _) in &picked[i + 1..] {
                assert!(
                    a.end < b.start || b.end < a.start,
                    "overlap between {a} and {b}"
                );
            }
        }
        // First pick is still the global optimum.
        assert_eq!(picked[0].1, ranking.best().1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn exacts_matches_brute_force_dtw(seed in 0u64..500, n in 2usize..10, m in 1usize..6) {
            let t = walk(seed, n);
            let q = walk(seed.wrapping_add(1000), m);
            let res = ExactS.search(&Dtw, &t, &q);
            let (_, best_d) = brute_force_best(&Dtw, &t, &q);
            prop_assert!((res.distance - best_d).abs() < 1e-6,
                "ExactS {} vs brute {}", res.distance, best_d);
        }

        #[test]
        fn exacts_matches_brute_force_frechet(seed in 0u64..500, n in 2usize..10, m in 1usize..6) {
            let t = walk(seed, n);
            let q = walk(seed.wrapping_add(2000), m);
            let res = ExactS.search(&Frechet, &t, &q);
            let (_, best_d) = brute_force_best(&Frechet, &t, &q);
            prop_assert!((res.distance - best_d).abs() < 1e-6);
        }

        #[test]
        fn ranking_rank_bounds(seed in 0u64..200, n in 2usize..9) {
            let t = walk(seed, n);
            let q = walk(seed + 7, 4);
            let ranking = exhaustive_ranking(&Dtw, &t, &q);
            for (r, _) in ranking.entries() {
                let rank = ranking.rank_of(r);
                prop_assert!(rank >= 1 && rank <= ranking.total());
            }
        }
    }
}
