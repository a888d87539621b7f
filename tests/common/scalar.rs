//! Scalar reference implementations of the five scan algorithms — the
//! paper's definitions spelled point by point (Algorithm 1 ExactS, §4.2
//! SizeS, Algorithm 2 PSS, §4.3 POS / POS-D), written only against the
//! public `Measure::prefix_evaluator` / `init` / `extend` API — plus the
//! learned path's two: the greedy splitting-MDP walk of RLS / RLS-Skip
//! ([`rls_walk`], §5.1 and §5.4) and the row-major GRU step
//! ([`ScalarGru`]) that `crates/nn` computed before its forward pass was
//! gate-stacked.
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
    sort_hits_and_truncate, ExactS, MdpConfig, Pos, PosD, Pss, Rls, ScanStats, SearchResult, SizeS,
    SubtrajSearch, TopKResult,
};
use simsub::measures::{distance_from_similarity, Measure};
use simsub::rl::Policy;
use simsub::trajectory::{Point, SubtrajRange, Trajectory};

/// One of the scan algorithms, by its scalar definition.
#[derive(Debug, Clone, Copy)]
pub enum Scalar<'a> {
    ExactS,
    SizeS {
        xi: usize,
    },
    Pss,
    Pos,
    PosD {
        delay: usize,
    },
    /// The learned walk under this instance's policy and MDP.
    Rls(&'a Rls),
}

impl Scalar<'_> {
    /// The product algorithm this oracle pins.
    pub fn product(self) -> Box<dyn SubtrajSearch + Sync> {
        match self {
            Scalar::ExactS => Box::new(ExactS),
            Scalar::SizeS { xi } => Box::new(SizeS::new(xi)),
            Scalar::Pss => Box::new(Pss),
            Scalar::Pos => Box::new(Pos),
            Scalar::PosD { delay } => Box::new(PosD::new(delay)),
            Scalar::Rls(rls) => Box::new(rls.clone()),
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
            Scalar::Rls(rls) => {
                return rls_walk(rls.policy(), rls.config(), measure, data, query).0;
            }
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
    which: Scalar<'_>,
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

/// `Θ(T[t, n]ᴿ, Tqᴿ)` for every `t`: one backward pass of a fresh
/// reversed-query evaluator (Algorithm 2, lines 2-3).
fn suffix_pass(measure: &dyn Measure, data: &[Point], query: &[Point]) -> Vec<f64> {
    let n = data.len();
    let reversed_query: Vec<Point> = query.iter().rev().copied().collect();
    let mut suffix_eval = measure.prefix_evaluator(&reversed_query);
    let mut suffix = vec![0.0; n];
    suffix[n - 1] = suffix_eval.init(data[n - 1]);
    for t in (0..n - 1).rev() {
        suffix[t] = suffix_eval.extend(data[t]);
    }
    suffix
}

/// Algorithm 2: one backward pass of a reversed-query evaluator fills
/// the suffix similarities, then the forward walk splits whenever the
/// running prefix or the suffix at `i` beats the best so far (the prefix
/// wins only when strictly better than the suffix).
fn pss_scan(measure: &dyn Measure, data: &[Point], query: &[Point]) -> (SubtrajRange, f64) {
    let n = data.len();
    let suffix = suffix_pass(measure, data, query);
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

/// §5.1 / §5.4: the splitting MDP walked under a frozen policy's greedy
/// actions, on a fresh evaluator and a fresh suffix pass. State
/// `(Θbest, Θpre[, Θsuf])`; action 0 continues, 1 splits after the
/// current point, `1 + j` skips the next `j` points, which then never
/// reach the prefix evaluator. Shares nothing with `SplitEnv`, the
/// workspace or `Policy::greedy_action` (it reads `q_values` and takes the
/// first maximum itself).
pub fn rls_walk(
    policy: &Policy,
    cfg: MdpConfig,
    measure: &dyn Measure,
    data: &[Point],
    query: &[Point],
) -> (SearchResult, ScanStats) {
    let n = data.len();
    let suffix = if cfg.use_suffix {
        suffix_pass(measure, data, query)
    } else {
        Vec::new()
    };
    let mut eval = measure.prefix_evaluator(query);
    let (mut t, mut h) = (0, 0);
    let mut pre = eval.init(data[0]);
    let mut best: Option<SubtrajRange> = None;
    let mut best_sim = 0.0f64;
    let mut stats = ScanStats {
        scanned: 1,
        ..ScanStats::default()
    };
    loop {
        let mut state = vec![best_sim, pre];
        if cfg.use_suffix {
            state.push(suffix[t]);
        }
        let q = policy.q_values(&state);
        let mut action = 0;
        for a in 1..q.len() {
            if q[a] > q[action] {
                action = a;
            }
        }

        let prefix_start = h;
        if action == 1 {
            h = t + 1;
            stats.splits += 1;
        }
        if pre > best_sim {
            best_sim = pre;
            best = Some(SubtrajRange::new(prefix_start, t));
        }
        if cfg.use_suffix && suffix[t] > best_sim {
            best_sim = suffix[t];
            best = Some(SubtrajRange::new(t, n - 1));
        }
        if t == n - 1 {
            break;
        }
        let next = (t + 1 + action.saturating_sub(1)).min(n - 1);
        stats.skipped += next - t - 1;
        stats.scanned += 1;
        t = next;
        pre = if t == h {
            eval.init(data[t])
        } else {
            eval.extend(data[t])
        };
    }
    let result = SearchResult {
        range: best.expect("similarities are positive"),
        similarity: best_sim,
        distance: distance_from_similarity(best_sim),
    };
    (result, stats)
}

/// The GRU step as three row-major matvec pairs: every pre-activation is
/// `(W x + U h) + b` with each product a strict left-to-right dot product
/// (`f64::sum`, so seeded with `-0.0`). Built from
/// `GruCell::flat_params` — `W_z W_r W_h U_z U_r U_h b_z b_r b_h`, the
/// on-disk order — so it reads the cell's parameters, not its layout.
pub struct ScalarGru {
    in_dim: usize,
    hidden_dim: usize,
    /// `[W_z, W_r, W_h]`, each row-major `(hidden_dim, in_dim)`.
    w: [Vec<f64>; 3],
    /// `[U_z, U_r, U_h]`, each row-major `(hidden_dim, hidden_dim)`.
    u: [Vec<f64>; 3],
    /// `[b_z, b_r, b_h]`.
    b: [Vec<f64>; 3],
}

impl ScalarGru {
    pub fn from_flat(in_dim: usize, hidden_dim: usize, flat: &[f64]) -> Self {
        let (wi, wu) = (hidden_dim * in_dim, hidden_dim * hidden_dim);
        assert_eq!(flat.len(), 3 * (wi + wu + hidden_dim));
        let mut rest = flat;
        let mut take = |len: usize| {
            let (head, tail) = rest.split_at(len);
            rest = tail;
            head.to_vec()
        };
        Self {
            in_dim,
            hidden_dim,
            w: [take(wi), take(wi), take(wi)],
            u: [take(wu), take(wu), take(wu)],
            b: [take(hidden_dim), take(hidden_dim), take(hidden_dim)],
        }
    }

    /// `h ← (1 − z) ⊙ h + z ⊙ ĥ`.
    pub fn step(&self, h: &mut [f64], x: &[f64]) {
        let d = self.hidden_dim;
        let sigmoid = |v: f64| 1.0 / (1.0 + (-v).exp());
        let wx = |g: usize| matvec(&self.w[g], d, self.in_dim, x);
        let uh = |g: usize, v: &[f64]| matvec(&self.u[g], d, d, v);

        let (zx, zh) = (wx(0), uh(0, h));
        let z: Vec<f64> = (0..d)
            .map(|i| sigmoid(zx[i] + zh[i] + self.b[0][i]))
            .collect();
        let (rx, rh) = (wx(1), uh(1, h));
        let r: Vec<f64> = (0..d)
            .map(|i| sigmoid(rx[i] + rh[i] + self.b[1][i]))
            .collect();
        let gated: Vec<f64> = (0..d).map(|i| r[i] * h[i]).collect();
        let (cx, ch) = (wx(2), uh(2, &gated));
        for i in 0..d {
            let hhat = (cx[i] + ch[i] + self.b[2][i]).tanh();
            h[i] = (1.0 - z[i]) * h[i] + z[i] * hhat;
        }
    }
}

/// `W x` for row-major `W` of shape `(rows, cols)`, one dot product a row.
pub fn matvec(w: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
    (0..rows)
        .map(|r| {
            w[r * cols..(r + 1) * cols]
                .iter()
                .zip(x)
                .map(|(a, b)| a * b)
                .sum()
        })
        .collect()
}
