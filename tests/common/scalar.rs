//! Scalar reference implementations of the five scan algorithms — the
//! paper's definitions spelled point by point (Algorithm 1 ExactS, §4.2
//! SizeS, Algorithm 2 PSS, §4.3 POS / POS-D), written only against the
//! public `Measure::prefix_evaluator` / `init` / `extend` API.
//!
//! `crates/core` keeps exactly one scan body per algorithm (the view
//! body behind `SubtrajSearch::search_with`; `search(&[Point])` is an
//! adapter over it), built on bulk `extend_run` kernels, a speculative
//! prefix stream, shared cell-row matrices and multi-start slice kernels.
//! None of that is used here: one fresh evaluator per trajectory, one
//! virtual call per point. The equivalence harnesses compare the product
//! bodies with these bit for bit — range, score bits, winner order.
// Index loops keep each body aligned with the paper's pseudocode, which
// walks positions `i`, `j`, `h`, not items.
#![allow(clippy::needless_range_loop)]

use simsub::core::{
    sort_hits_and_truncate, ExactS, Pos, PosD, Pss, SearchResult, SizeS, SubtrajSearch, TopKResult,
};
use simsub::measures::{distance_from_similarity, Measure};
use simsub::trajectory::{Point, SubtrajRange, Trajectory};

/// One of the five scan algorithms, by its scalar definition.
#[derive(Debug, Clone, Copy)]
pub enum Scalar {
    ExactS,
    SizeS { xi: usize },
    Pss,
    Pos,
    PosD { delay: usize },
}

impl Scalar {
    /// The product algorithm this oracle pins.
    pub fn product(self) -> Box<dyn SubtrajSearch + Sync> {
        match self {
            Scalar::ExactS => Box::new(ExactS),
            Scalar::SizeS { xi } => Box::new(SizeS::new(xi)),
            Scalar::Pss => Box::new(Pss),
            Scalar::Pos => Box::new(Pos),
            Scalar::PosD { delay } => Box::new(PosD::new(delay)),
        }
    }

    /// The scalar search over non-empty `data` and `query`.
    pub fn search(self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        let (range, similarity) = match self {
            Scalar::ExactS => exact_sweep(measure, data, query),
            Scalar::SizeS { xi } => sizes_scan(xi, measure, data, query),
            Scalar::Pss => pss_scan(measure, data, query),
            Scalar::Pos => pos_d_scan(0, measure, data, query),
            Scalar::PosD { delay } => pos_d_scan(delay, measure, data, query),
        };
        SearchResult {
            range,
            similarity,
            distance: distance_from_similarity(similarity),
        }
    }
}

/// Reference ranking: the scalar search per trajectory, ranked through
/// the shared comparator. Touches neither the arena, the workspace
/// reuse, the bulk kernels, nor the bound cascade.
pub fn reference_top_k(
    which: Scalar,
    measure: &dyn Measure,
    corpus: &[Trajectory],
    query: &[Point],
    k: usize,
) -> Vec<TopKResult> {
    let mut hits: Vec<TopKResult> = corpus
        .iter()
        .map(|t| TopKResult {
            trajectory_id: t.id,
            result: which.search(measure, t.points(), query),
        })
        .collect();
    sort_hits_and_truncate(&mut hits, k);
    hits
}

/// Algorithm 1: every start point, `Φini` then `Φinc` along the tail;
/// the first strictly better similarity wins.
fn exact_sweep(measure: &dyn Measure, data: &[Point], query: &[Point]) -> (SubtrajRange, f64) {
    let mut eval = measure.prefix_evaluator(query);
    let mut best = (SubtrajRange::new(0, 0), f64::NEG_INFINITY);
    for i in 0..data.len() {
        let mut sim = eval.init(data[i]);
        if sim > best.1 {
            best = (SubtrajRange::new(i, i), sim);
        }
        for j in i + 1..data.len() {
            sim = eval.extend(data[j]);
            if sim > best.1 {
                best = (SubtrajRange::new(i, j), sim);
            }
        }
    }
    best
}

/// §4.2: the exact sweep restricted to sizes in `[m - ξ, m + ξ]`.
/// Prefixes shorter than the window are still computed (to reach it
/// incrementally) but are not candidates; when no size is reachable
/// (`n < m - ξ`) the whole trajectory is the answer.
fn sizes_scan(
    xi: usize,
    measure: &dyn Measure,
    data: &[Point],
    query: &[Point],
) -> (SubtrajRange, f64) {
    let n = data.len();
    let min_len = query.len().saturating_sub(xi).max(1);
    let max_len = (query.len() + xi).min(n);
    let mut eval = measure.prefix_evaluator(query);
    let mut best = (SubtrajRange::new(0, 0), f64::NEG_INFINITY);
    for i in 0..n {
        let mut sim = eval.init(data[i]);
        if 1 >= min_len && sim > best.1 {
            best = (SubtrajRange::new(i, i), sim);
        }
        for j in i + 1..n {
            let len = j - i + 1;
            if len > max_len {
                break;
            }
            sim = eval.extend(data[j]);
            if len >= min_len && sim > best.1 {
                best = (SubtrajRange::new(i, j), sim);
            }
        }
    }
    if best.1 == f64::NEG_INFINITY {
        return (SubtrajRange::new(0, n - 1), measure.similarity(data, query));
    }
    best
}

/// Algorithm 2: one backward pass of a reversed-query evaluator fills
/// the suffix similarities, then the forward walk splits whenever the
/// running prefix or the suffix at `i` beats the best so far (the prefix
/// wins only when strictly better than the suffix).
fn pss_scan(measure: &dyn Measure, data: &[Point], query: &[Point]) -> (SubtrajRange, f64) {
    let n = data.len();
    let reversed_query: Vec<Point> = query.iter().rev().copied().collect();
    let mut suffix_eval = measure.prefix_evaluator(&reversed_query);
    let mut suffix = vec![0.0; n];
    suffix[n - 1] = suffix_eval.init(data[n - 1]);
    for t in (0..n - 1).rev() {
        suffix[t] = suffix_eval.extend(data[t]);
    }

    let mut eval = measure.prefix_evaluator(query);
    let mut best: Option<SubtrajRange> = None;
    let mut best_sim = 0.0f64;
    let mut h = 0;
    for i in 0..n {
        let pre = if i == h {
            eval.init(data[i])
        } else {
            eval.extend(data[i])
        };
        let suf = suffix[i];
        if pre.max(suf) > best_sim {
            best_sim = pre.max(suf);
            best = Some(if pre > suf {
                SubtrajRange::new(h, i)
            } else {
                SubtrajRange::new(i, n - 1)
            });
            h = i + 1;
        }
    }
    (best.expect("similarities are positive"), best_sim)
}

/// §4.3 POS-D (POS is `delay = 0`): prefix-only splitting; when a prefix
/// beats the best so far, keep extending up to `delay` more points and
/// split at the most similar of those positions, earliest on ties.
fn pos_d_scan(
    delay: usize,
    measure: &dyn Measure,
    data: &[Point],
    query: &[Point],
) -> (SubtrajRange, f64) {
    let n = data.len();
    let mut eval = measure.prefix_evaluator(query);
    let mut best: Option<SubtrajRange> = None;
    let mut best_sim = 0.0f64;
    let mut h = 0;
    let mut i = 0;
    while i < n {
        let pre = if i == h {
            eval.init(data[i])
        } else {
            eval.extend(data[i])
        };
        if pre > best_sim {
            let (mut split_at, mut split_sim) = (i, pre);
            for j in i + 1..=(i + delay).min(n - 1) {
                let s = eval.extend(data[j]);
                if s > split_sim {
                    (split_at, split_sim) = (j, s);
                }
            }
            best_sim = split_sim;
            best = Some(SubtrajRange::new(h, split_at));
            h = split_at + 1;
            i = split_at + 1;
        } else {
            i += 1;
        }
    }
    (best.expect("similarities are positive"), best_sim)
}
