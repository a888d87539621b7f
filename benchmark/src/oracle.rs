//! Brute-force subtrajectory oracle behind `quality_ar`,
//! `core.quality_mr` and `core.quality_rr`.
//!
//! It enumerates every `(i, j)` and scores the subtrajectory as a whole:
//! DTW with its own full-matrix DP, t2vec through nothing but
//! `T2Vec::encode`. It shares no code with `ExactS`, the incremental
//! evaluators or `exhaustive_ranking`, so it can fail independently of
//! them — which is what makes agreeing with it evidence.

use simsub_measures::T2Vec;
use simsub_trajectory::Point;

pub enum OracleMeasure<'a> {
    Dtw,
    T2Vec(&'a T2Vec),
}

fn dist(a: Point, b: Point) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    (dx * dx + dy * dy).sqrt()
}

/// Whole-trajectory DTW, textbook full-matrix recurrence.
fn dtw(a: &[Point], b: &[Point]) -> f64 {
    let (n, m) = (a.len(), b.len());
    let mut d = vec![f64::INFINITY; (n + 1) * (m + 1)];
    d[0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let best = d[(i - 1) * (m + 1) + j]
                .min(d[i * (m + 1) + j - 1])
                .min(d[(i - 1) * (m + 1) + j - 1]);
            d[i * (m + 1) + j] = dist(a[i - 1], b[j - 1]) + best;
        }
    }
    d[n * (m + 1) + m]
}

impl OracleMeasure<'_> {
    fn distance(&self, sub: &[Point], query: &[Point], query_embedding: &[f64]) -> f64 {
        match self {
            OracleMeasure::Dtw => dtw(sub, query),
            OracleMeasure::T2Vec(model) => model
                .encode(sub)
                .iter()
                .zip(query_embedding)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
        }
    }
}

/// The paper's effectiveness numbers for one returned range (§6.1).
pub struct Verdict {
    /// Returned distance over optimal distance (≥ 1).
    pub ar: f64,
    /// 1-based rank of the returned range among all subtrajectories.
    pub rank: f64,
    /// `rank` over the number of subtrajectories.
    pub rr: f64,
}

/// Scores the range `[start, end]` (inclusive) that some algorithm
/// returned for `(data, query)`.
pub fn judge(
    measure: &OracleMeasure<'_>,
    data: &[Point],
    query: &[Point],
    start: usize,
    end: usize,
) -> Verdict {
    let embedding = match measure {
        OracleMeasure::Dtw => Vec::new(),
        OracleMeasure::T2Vec(model) => model.encode(query),
    };
    let returned = measure.distance(&data[start..=end], query, &embedding);
    let (mut best, mut better, mut total) = (f64::INFINITY, 0u64, 0u64);
    for i in 0..data.len() {
        for j in i..data.len() {
            let d = measure.distance(&data[i..=j], query, &embedding);
            best = best.min(d);
            better += u64::from(d < returned);
            total += 1;
        }
    }
    // An optimum of (numerically) zero makes the ratio undefined; the
    // similarity-space ratio agrees with it at 1 and stays finite.
    let ar = if best > 1e-9 {
        returned / best
    } else {
        (1.0 + returned) / (1.0 + best)
    };
    let rank = (better + 1) as f64;
    Verdict {
        ar,
        rank,
        rr: rank / total as f64,
    }
}
