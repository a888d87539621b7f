//! Scalar reference implementations of the five scan algorithms — the
//! paper's definitions spelled point by point (Algorithm 1 ExactS, §4.2
//! SizeS, Algorithm 2 PSS, §4.3 POS / POS-D), written only against the
//! public `Measure::make_workspace` / `init` / `extend` API — plus the
//! learned path's: the greedy splitting-MDP walk of RLS / RLS-Skip
//! ([`rls_walk`], §5.1 and §5.4), the row-major GRU step ([`ScalarGru`])
//! that `crates/nn` computed before its forward pass was gate-stacked, and
//! the DQN training step of Algorithm 3 one transition at a time
//! ([`ScalarDqn`], over [`mlp_layers`] and [`mlp_backward`]) as it ran
//! before training went minibatch-major.
//!
//! `crates/core` runs the five through two scan bodies behind
//! `SubtrajSearch::search_with` (`search(&[Point])` is an adapter over
//! it): one windowed sweep for SizeS and ExactS's evaluator path (the
//! window `[1, n]`; DTW and Fréchet take their free-start DP kernel and
//! its range resolver instead) and one split walk for PSS, POS and POS-D
//! — built on bulk `extend_run` kernels, a speculative prefix stream and
//! shared cell-row matrices. None of that is used here: one body per
//! algorithm (POS is `pos_d_scan` at `delay = 0`, as the paper defines
//! it), one fresh evaluator per trajectory, one virtual call per point.
//! The equivalence harnesses compare the product bodies with these bit
//! for bit — range, score bits, winner order.
// Index loops keep each body aligned with the paper's pseudocode, which
// walks positions `i`, `j`, `h`, not items.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::core::{
    sort_hits_and_truncate, ExactS, MdpConfig, Pos, PosD, Pss, Rls, ScanStats, SearchResult, SizeS,
    SubtrajSearch, TopKResult,
};
use simsub::measures::{distance_from_similarity, Measure};
use simsub::nn::{Activation, Mlp, MlpGrads};
use simsub::rl::{DqnConfig, Policy};
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
    pub fn product(self) -> Box<dyn SubtrajSearch> {
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
    let mut eval = measure.make_workspace(query);
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
    let max_len = query.len().saturating_add(xi).min(n);
    let mut eval = measure.make_workspace(query);
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
    let mut suffix_eval = measure.make_workspace(&reversed_query);
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
    let mut eval = measure.make_workspace(query);
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
    let mut eval = measure.make_workspace(query);
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
            for j in i + 1..=i.saturating_add(delay).min(n - 1) {
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
    let mut eval = measure.make_workspace(query);
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

/// The activation `Activation` names.
fn activate(act: Activation, v: f64) -> f64 {
    match act {
        Activation::Relu => v.max(0.0),
        Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        Activation::Tanh => v.tanh(),
        Activation::Identity => v,
    }
}

/// The activation's derivative at the output `y` it produced.
fn activation_slope(act: Activation, y: f64) -> f64 {
    match act {
        Activation::Relu => {
            if y > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Activation::Sigmoid => y * (1.0 - y),
        Activation::Tanh => 1.0 - y * y,
        Activation::Identity => 1.0,
    }
}

/// `W[r][c]` of a layer's column-major weights `w`, as row-major: the
/// order `Mlp::flat_params` and the file use.
pub fn rows_of(w: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    (0..rows * cols)
        .map(|i| w[(i % cols) * rows + i / cols])
        .collect()
}

/// Every layer's output of `net` at `x`, from its public parts: each a
/// left-to-right dot product (`f64::sum`, so seeded with `-0.0`) plus the
/// bias, through the activation.
pub fn mlp_layers(net: &Mlp, x: &[f64]) -> Vec<Vec<f64>> {
    let (layers, activations) = net.parts();
    let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(layers.len());
    for (layer, &act) in layers.iter().zip(activations) {
        let input = outputs.last().map_or(x, Vec::as_slice);
        let (rows, cols) = (layer.out_dim, layer.in_dim);
        let out = matvec(&rows_of(&layer.w, rows, cols), rows, cols, input)
            .into_iter()
            .zip(&layer.b)
            .map(|(v, b)| activate(act, v + b))
            .collect();
        outputs.push(out);
    }
    outputs
}

/// One sample's backward pass, accumulated into `grads`: the per-sample
/// `Mlp::backward` of before the minibatch passes. `δ = dout ⊙ f'(y)`
/// layer by layer; `gw[r][c] += δ[r] · x[c]`, `gb[r] += δ[r]`; the layer
/// below receives `Wᵀ δ`, summed over the rows in order from `+0.0`.
pub fn mlp_backward(
    net: &Mlp,
    x: &[f64],
    outputs: &[Vec<f64>],
    dout: &[f64],
    grads: &mut MlpGrads,
) {
    let (layers, activations) = net.parts();
    let mut delta = dout.to_vec();
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        let cols = layer.in_dim;
        for (d, &y) in delta.iter_mut().zip(&outputs[l]) {
            *d *= activation_slope(activations[l], y);
        }
        let input = if l == 0 { x } else { &outputs[l - 1] };
        let g = &mut grads.layers[l];
        let rows = layer.out_dim;
        let mut dx = vec![0.0; cols];
        for r in 0..rows {
            for c in 0..cols {
                // Both column-major: `W[r][c]` at `c * rows + r`.
                g.gw[c * rows + r] += delta[r] * input[c];
                dx[c] += delta[r] * layer.w[c * rows + r];
            }
            g.gb[r] += delta[r];
        }
        delta = dx;
    }
}

/// First index of the largest value.
fn first_argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..v.len() {
        if v[i] > v[best] {
            best = i;
        }
    }
    best
}

/// One stored experience, owned.
#[derive(Clone)]
struct OwnedTransition {
    state: Vec<f64>,
    action: usize,
    reward: f64,
    next_state: Vec<f64>,
    terminal: bool,
}

/// Algorithm 3's DQN agent one transition at a time, as `DqnAgent` ran it
/// before its minibatch pass: a ring of owned transitions, a batch drawn by
/// cloning `batch_size` of them, then per sample a target-network forward,
/// a main-network forward and one backward pass ([`mlp_layers`],
/// [`mlp_backward`]), and Adam element by element over
/// `Mlp::flat_params`. Uses `Mlp`'s public parts only.
pub struct ScalarDqn {
    cfg: DqnConfig,
    main: Mlp,
    target: Mlp,
    memory: Vec<OwnedTransition>,
    next: usize,
    rng: StdRng,
    epsilon: f64,
    /// Adam's moments over `flat_params`, and its step count.
    m: Vec<f64>,
    v: Vec<f64>,
    steps: i32,
}

impl ScalarDqn {
    /// The network and the random stream `DqnAgent::new(cfg)` starts from.
    pub fn new(cfg: DqnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let main = Mlp::new(
            &mut rng,
            &[cfg.state_dim, cfg.hidden_dim, cfg.n_actions],
            &[Activation::Relu, Activation::Sigmoid],
        );
        let params = main.param_count();
        Self {
            target: main.clone(),
            main,
            memory: Vec::new(),
            next: 0,
            rng,
            epsilon: cfg.epsilon_start,
            m: vec![0.0; params],
            v: vec![0.0; params],
            steps: 0,
            cfg,
        }
    }

    /// The main network.
    pub fn main(&self) -> &Mlp {
        &self.main
    }

    /// ε-greedy: one uniform draw against ε, then a uniform action or the
    /// first best Q-value.
    pub fn act(&mut self, state: &[f64]) -> usize {
        if self.rng.gen::<f64>() < self.epsilon {
            self.rng.gen_range(0..self.cfg.n_actions)
        } else {
            first_argmax(mlp_layers(&self.main, state).last().expect("a layer"))
        }
    }

    /// Stores a transition, overwriting the oldest once `replay_capacity`
    /// are held.
    pub fn remember(
        &mut self,
        state: &[f64],
        action: usize,
        reward: f64,
        next_state: &[f64],
        terminal: bool,
    ) {
        let t = OwnedTransition {
            state: state.to_vec(),
            action,
            reward,
            next_state: next_state.to_vec(),
            terminal,
        };
        if self.memory.len() < self.cfg.replay_capacity {
            self.memory.push(t);
        } else {
            self.memory[self.next] = t;
        }
        self.next = (self.next + 1) % self.cfg.replay_capacity;
    }

    /// One gradient step; the minibatch MSE loss, or `None` on an empty
    /// memory.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.memory.is_empty() {
            return None;
        }
        let batch: Vec<OwnedTransition> = (0..self.cfg.batch_size)
            .map(|_| self.memory[self.rng.gen_range(0..self.memory.len())].clone())
            .collect();
        let mut grads = MlpGrads::zeros(&self.main);
        let mut loss = 0.0;
        for t in &batch {
            let y = if t.terminal {
                t.reward
            } else {
                let layers = mlp_layers(&self.target, &t.next_state);
                let q_next = layers.last().expect("a layer");
                t.reward + self.cfg.gamma * q_next[first_argmax(q_next)]
            };
            let outputs = mlp_layers(&self.main, &t.state);
            let err = outputs.last().expect("a layer")[t.action] - y;
            loss += err * err;
            let mut dout = vec![0.0; self.cfg.n_actions];
            dout[t.action] = 2.0 * err;
            mlp_backward(&self.main, &t.state, &outputs, &dout, &mut grads);
        }
        let inv = 1.0 / batch.len() as f64;

        // `Adam::new`'s β₁, β₂ and ε.
        let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
        self.steps += 1;
        let bc1 = 1.0 - beta1.powi(self.steps);
        let bc2 = 1.0 - beta2.powi(self.steps);
        let mut params = self.main.flat_params();
        let (layers, _) = self.main.parts();
        let grads = layers.iter().zip(&grads.layers).flat_map(|(layer, g)| {
            rows_of(&g.gw, layer.out_dim, layer.in_dim)
                .into_iter()
                .chain(g.gb.iter().copied())
        });
        for (i, g) in grads.enumerate() {
            let g = g * inv;
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.cfg.learning_rate * m_hat / (v_hat.sqrt() + eps);
        }
        self.main.set_flat_params(&params);
        Some(loss * inv)
    }

    /// Copies the main network into the target network.
    pub fn sync_target(&mut self) {
        self.target = self.main.clone();
    }

    /// One multiplicative ε decay, floored.
    pub fn decay_epsilon(&mut self) {
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_min);
    }
}
