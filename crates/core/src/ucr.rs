//! Adaptation of the UCR suite (Rakthanmanon et al., KDD 2012) to 2-D
//! trajectories, following Appendix C of the SimSub paper.
//!
//! UCR enumerates all subsequences of the *same length as the query*
//! (which is why it cannot return exact SimSub answers even at `R = 1`)
//! and prunes them with a cascade of lower bounds before computing a
//! banded DTW:
//!
//! 1. `LB_KimFL`: distance of the first + last aligned point pairs — O(1);
//! 2. `LB_Keogh`: per-point distance to the MBR envelope of the query
//!    band window (the appendix's 2-D adaptation), early-abandoning;
//! 3. reversed `LB_Keogh` with the roles of data and query swapped;
//! 4. early-abandoning Sakoe-Chiba-banded DTW (band `⌊R·m⌋`).
//!
//! The "reordering early abandoning" optimization is adapted as: accumulate
//! `LB_Keogh` in descending order of each query point's distance from the
//! query centroid (the 2-D analogue of "distance to the y-axis" for
//! z-normalized series). Just-in-time z-normalization is not applicable to
//! 2-D trajectories, per the appendix.

use crate::{SearchResult, SubtrajSearch};
use simsub_measures::Measure;
use simsub_trajectory::{Mbr, Point, SubtrajRange};

/// The UCR-suite baseline. DTW-specific: the [`SubtrajSearch`] impl
/// ignores the `measure` argument and always evaluates banded DTW.
#[derive(Debug, Clone, Copy)]
pub struct Ucr {
    /// Warping-band ratio `R ∈ [0, 1]`: band half-width is `⌊R·m⌋`.
    pub band_ratio: f64,
}

/// Counters exposing how much the LB cascade pruned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UcrStats {
    pub windows: usize,
    pub pruned_kim: usize,
    pub pruned_keogh: usize,
    pub pruned_keogh_reversed: usize,
    pub dtw_computed: usize,
    pub dtw_abandoned: usize,
}

impl Ucr {
    /// Creates the baseline with warping-band ratio `R`.
    pub fn new(band_ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&band_ratio), "R must be in [0, 1]");
        Self { band_ratio }
    }

    fn band(&self, m: usize) -> usize {
        ((self.band_ratio * m as f64).floor() as usize).min(m.saturating_sub(1))
    }

    /// Full search with pruning statistics.
    pub fn search_with_stats(&self, data: &[Point], query: &[Point]) -> (SearchResult, UcrStats) {
        assert!(
            !data.is_empty() && !query.is_empty(),
            "inputs must be non-empty"
        );
        let n = data.len();
        let m = query.len();
        let w = self.band(m);
        let mut stats = UcrStats::default();

        if n < m {
            // No window of length m exists; degrade to the whole
            // trajectory (the closest length-constrained candidate).
            let d = banded_dtw_early_abandon(data, query, w.max(n.abs_diff(m)), f64::INFINITY)
                .unwrap_or(f64::INFINITY);
            stats.windows = 1;
            stats.dtw_computed = 1;
            return (
                SearchResult::from_distance(SubtrajRange::new(0, n - 1), d),
                stats,
            );
        }

        // Envelope MBRs of the query band windows (for LB_Keogh) and of
        // the data band windows (for the reversed bound).
        let query_env = envelopes(query, w);
        let data_env = envelopes(data, w);
        // Reordering: descending distance from the query centroid.
        let order = reorder_indices(query);

        let mut bsf = f64::INFINITY;
        let mut best_start = 0usize;
        for s in 0..=n - m {
            stats.windows += 1;
            let window = &data[s..s + m];

            // Cascade 1: LB_KimFL.
            let lb_kim = window[0].dist(query[0]) + window[m - 1].dist(query[m - 1]);
            if lb_kim >= bsf {
                stats.pruned_kim += 1;
                continue;
            }

            // Cascade 2: LB_Keogh (data point vs query envelope),
            // reordered + early abandoning.
            let mut lb = 0.0;
            let mut pruned = false;
            for &i in &order {
                lb += query_env[i].min_dist(window[i]);
                if lb >= bsf {
                    pruned = true;
                    break;
                }
            }
            if pruned {
                stats.pruned_keogh += 1;
                continue;
            }

            // Cascade 3: reversed LB_Keogh (query point vs data envelope).
            // The data envelope is indexed globally; window index i maps
            // to data index s + i, and the global envelope is a superset
            // of the window envelope, so the bound stays valid.
            let mut lb_rev = 0.0;
            let mut pruned = false;
            for &i in &order {
                lb_rev += data_env[s + i].min_dist(query[i]);
                if lb_rev >= bsf {
                    pruned = true;
                    break;
                }
            }
            if pruned {
                stats.pruned_keogh_reversed += 1;
                continue;
            }

            // Cascade 4: early-abandoning banded DTW.
            stats.dtw_computed += 1;
            match banded_dtw_early_abandon(window, query, w, bsf) {
                Some(d) => {
                    if d < bsf {
                        bsf = d;
                        best_start = s;
                    }
                }
                None => stats.dtw_abandoned += 1,
            }
        }

        // bsf can remain INFINITY only if every window was abandoned
        // against an infinite threshold, which cannot happen: the first
        // window always computes fully.
        let range = SubtrajRange::new(best_start, best_start + m - 1);
        (SearchResult::from_distance(range, bsf), stats)
    }
}

impl SubtrajSearch for Ucr {
    fn name(&self) -> String {
        format!("UCR(R={:.2})", self.band_ratio)
    }

    /// DTW-specific: `measure` is ignored (documented trait-level caveat).
    fn search(&self, _measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        self.search_with_stats(data, query).0
    }
}

/// MBR envelope per index: `env[i] = MBR(points[i-w ..= i+w])`.
fn envelopes(points: &[Point], w: usize) -> Vec<Mbr> {
    let n = points.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(w);
            let hi = (i + w).min(n - 1);
            Mbr::of_points(&points[lo..=hi])
        })
        .collect()
}

/// Indices of `query` sorted by descending distance from its centroid —
/// points far from the centroid contribute large envelope distances first,
/// making early abandoning trigger sooner.
fn reorder_indices(query: &[Point]) -> Vec<usize> {
    let cx = query.iter().map(|p| p.x).sum::<f64>() / query.len() as f64;
    let cy = query.iter().map(|p| p.y).sum::<f64>() / query.len() as f64;
    let c = Point::xy(cx, cy);
    let mut idx: Vec<usize> = (0..query.len()).collect();
    idx.sort_by(|&a, &b| query[b].dist(c).total_cmp(&query[a].dist(c)));
    idx
}

/// Sakoe-Chiba-banded DTW between equal-attention sequences with early
/// abandoning: returns `None` as soon as every cell of a row exceeds
/// `threshold` (the accumulated distance can then never come back under).
fn banded_dtw_early_abandon(a: &[Point], b: &[Point], w: usize, threshold: f64) -> Option<f64> {
    let (n, m) = (a.len(), b.len());
    let mut prev = vec![f64::INFINITY; m];
    let mut cur = vec![f64::INFINITY; m];
    let center = |i: usize| -> isize {
        if n <= 1 {
            0
        } else {
            ((i as f64) * ((m - 1) as f64) / ((n - 1) as f64)).round() as isize
        }
    };
    for i in 0..n {
        cur.iter_mut().for_each(|v| *v = f64::INFINITY);
        let c = center(i);
        let lo = (c - w as isize).max(0) as usize;
        let hi = ((c + w as isize) as usize).min(m - 1);
        let mut row_min = f64::INFINITY;
        for j in lo..=hi {
            let d = a[i].dist(b[j]);
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let mut best = f64::INFINITY;
                if i > 0 {
                    best = best.min(prev[j]);
                    if j > 0 {
                        best = best.min(prev[j - 1]);
                    }
                }
                if j > 0 {
                    best = best.min(cur[j - 1]);
                }
                best
            };
            cur[j] = d + best;
            row_min = row_min.min(cur[j]);
        }
        if row_min >= threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Some(prev[m - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{pts, walk};
    use proptest::prelude::*;

    /// Oracle: banded DTW over every window, no pruning.
    fn naive_best(data: &[Point], query: &[Point], w: usize) -> f64 {
        let m = query.len();
        (0..=data.len() - m)
            .map(|s| banded_dtw_early_abandon(&data[s..s + m], query, w, f64::INFINITY).unwrap())
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn finds_embedded_match() {
        let q = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let t = pts(&[(9.0, 9.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (-5.0, 3.0)]);
        let (res, _) = Ucr::new(1.0).search_with_stats(&t, &q);
        assert_eq!(res.range, SubtrajRange::new(1, 3));
        assert!(res.distance.abs() < 1e-12);
    }

    #[test]
    fn data_shorter_than_query_degrades_gracefully() {
        let t = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let q = walk(1, 6);
        let (res, stats) = Ucr::new(0.5).search_with_stats(&t, &q);
        assert_eq!(res.range, SubtrajRange::new(0, 1));
        assert_eq!(stats.windows, 1);
    }

    #[test]
    fn window_length_equals_query_length() {
        let t = walk(5, 30);
        let q = walk(6, 7);
        let (res, _) = Ucr::new(1.0).search_with_stats(&t, &q);
        assert_eq!(res.range.len(), q.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn pruned_search_matches_naive(seed in 0u64..300, n in 4usize..24, m in 2usize..8, rq in 0usize..5) {
            prop_assume!(n >= m);
            let t = walk(seed, n);
            let q = walk(seed + 41, m);
            let r = rq as f64 / 4.0;
            let ucr = Ucr::new(r);
            let w = ucr.band(m);
            let (res, _) = ucr.search_with_stats(&t, &q);
            let naive = naive_best(&t, &q, w);
            prop_assert!((res.distance - naive).abs() < 1e-6,
                "UCR {} vs naive {naive}", res.distance);
        }

        #[test]
        fn lb_kim_is_lower_bound(seed in 0u64..200, m in 2usize..10, rq in 0usize..5) {
            let a = walk(seed, m);
            let b = walk(seed + 17, m);
            let w = ((rq as f64 / 4.0) * m as f64).floor() as usize;
            let lb = a[0].dist(b[0]) + a[m-1].dist(b[m-1]);
            let d = banded_dtw_early_abandon(&a, &b, w, f64::INFINITY).unwrap();
            prop_assert!(lb <= d + 1e-9, "LB_Kim {lb} > DTW {d}");
        }

        #[test]
        fn lb_keogh_is_lower_bound(seed in 0u64..200, m in 2usize..10, rq in 0usize..5) {
            let a = walk(seed, m);
            let b = walk(seed + 23, m);
            let w = ((rq as f64 / 4.0) * m as f64).floor() as usize;
            let env = envelopes(&b, w);
            let lb: f64 = (0..m).map(|i| env[i].min_dist(a[i])).sum();
            let d = banded_dtw_early_abandon(&a, &b, w, f64::INFINITY).unwrap();
            prop_assert!(lb <= d + 1e-9, "LB_Keogh {lb} > banded DTW {d}");
        }

        #[test]
        fn early_abandon_never_misses_better(seed in 0u64..200, m in 2usize..10) {
            // If early abandoning triggers at threshold τ, the true
            // distance must be >= τ.
            let a = walk(seed, m);
            let b = walk(seed + 31, m);
            let full = banded_dtw_early_abandon(&a, &b, m, f64::INFINITY).unwrap();
            for frac in [0.25, 0.5, 0.75, 1.0, 1.5] {
                let tau = full * frac;
                match banded_dtw_early_abandon(&a, &b, m, tau) {
                    Some(d) => prop_assert!((d - full).abs() < 1e-9),
                    None => prop_assert!(full >= tau - 1e-9),
                }
            }
        }
    }
}
