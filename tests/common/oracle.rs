//! An ExactS oracle that owes nothing to the code it judges.
//!
//! Algorithm 1 of the paper, read literally: enumerate every `(i, j)` in
//! ascending `i`, then ascending `j`, score `T[i, j]` *whole* against the
//! query, keep the first strictly best. The scorer is a textbook
//! full-matrix DP over an `(n+1) × (m+1)` table with an infinite border —
//! no `PrefixEvaluator`, no `kernel.rs`, no `Measure`, no row rolling, no
//! `sort_hits_and_truncate`; the only things it takes from the library
//! are the `Point`/`Trajectory` containers.
//!
//! Both recurrences fix every cell as one rounding of a function of its
//! three neighbours (`d + min(..)`, `max(d, min(..))`) and `min`/`max` are
//! exact, so any correct implementation produces the same bits whatever
//! its evaluation order. The harnesses therefore hold the pruned scans to
//! this oracle bit for bit, not within a tolerance.

use simsub::trajectory::{Point, Trajectory};

/// The measures the oracle can score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMeasure {
    /// Dynamic time warping (Eq. 1): pair distances sum along the path.
    Dtw,
    /// Discrete Fréchet (Eq. 2): the largest pair distance on the path.
    Frechet,
}

impl OracleMeasure {
    /// The oracle for a library measure, by its reported name.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "dtw" => Some(Self::Dtw),
            "frechet" => Some(Self::Frechet),
            _ => None,
        }
    }

    /// Whole-trajectory distance, full matrix.
    pub fn distance(self, a: &[Point], b: &[Point]) -> f64 {
        let (n, m) = (a.len(), b.len());
        let w = m + 1;
        let mut table = vec![f64::INFINITY; (n + 1) * w];
        table[0] = 0.0;
        for i in 1..=n {
            for j in 1..=m {
                let (dx, dy) = (a[i - 1].x - b[j - 1].x, a[i - 1].y - b[j - 1].y);
                let pair = (dx * dx + dy * dy).sqrt();
                let reach = table[(i - 1) * w + j - 1]
                    .min(table[(i - 1) * w + j])
                    .min(table[i * w + j - 1]);
                table[i * w + j] = match self {
                    Self::Dtw => pair + reach,
                    Self::Frechet => pair.max(reach),
                };
            }
        }
        table[n * w + m]
    }
}

/// One oracle hit: `(trajectory id, start, end, similarity)`.
pub type OracleHit = (u64, usize, usize, f64);

/// The most similar subtrajectory of `data` — first strictly best in
/// `(start, end)` order — as `(start, end, similarity)`.
pub fn best_subtrajectory(
    measure: OracleMeasure,
    data: &[Point],
    query: &[Point],
) -> (usize, usize, f64) {
    let mut best = (0, 0, f64::NEG_INFINITY);
    for i in 0..data.len() {
        for j in i..data.len() {
            let similarity = 1.0 / (1.0 + measure.distance(&data[i..=j], query));
            if similarity > best.2 {
                best = (i, j, similarity);
            }
        }
    }
    best
}

/// The top-`k` of `corpus`: every trajectory's best subtrajectory, ranked
/// by descending similarity, ties by ascending trajectory id.
pub fn top_k(
    measure: OracleMeasure,
    corpus: &[Trajectory],
    query: &[Point],
    k: usize,
) -> Vec<OracleHit> {
    let mut hits: Vec<OracleHit> = corpus
        .iter()
        .map(|t| {
            let (start, end, similarity) = best_subtrajectory(measure, t.points(), query);
            (t.id, start, end, similarity)
        })
        .collect();
    hits.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}
