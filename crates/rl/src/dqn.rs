use crate::replay::{ReplayMemory, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simsub_nn::{Activation, Adam, Mlp, MlpBatch, MlpCache, MlpGrads};

/// Hyperparameters of the DQN agent. Defaults are exactly the paper's
/// Section 6.1 settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DqnConfig {
    /// State dimensionality (3 for RLS: `(Θbest, Θpre, Θsuf)`; 2 when the
    /// suffix component is dropped, as for t2vec and RLS-Skip+).
    pub state_dim: usize,
    /// Number of actions (2 for RLS; `2 + k` for RLS-Skip).
    pub n_actions: usize,
    /// Hidden layer width (paper: 20 ReLU neurons).
    pub hidden_dim: usize,
    /// Reward discount rate γ (paper: 0.95).
    pub gamma: f64,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f64,
    /// Initial exploration rate ε.
    pub epsilon_start: f64,
    /// Floor for ε (paper: 0.05).
    pub epsilon_min: f64,
    /// Multiplicative ε decay applied once per episode (paper: 0.99).
    pub epsilon_decay: f64,
    /// Replay memory capacity (paper: 2000).
    pub replay_capacity: usize,
    /// Minibatch size per gradient step.
    pub batch_size: usize,
    /// RNG seed: action sampling and minibatch sampling are deterministic
    /// given the seed.
    pub seed: u64,
}

impl DqnConfig {
    /// Paper defaults for a given state dimension and action count.
    pub fn paper(state_dim: usize, n_actions: usize) -> Self {
        Self {
            state_dim,
            n_actions,
            hidden_dim: 20,
            gamma: 0.95,
            learning_rate: 0.001,
            epsilon_start: 1.0,
            epsilon_min: 0.05,
            epsilon_decay: 0.99,
            replay_capacity: 2000,
            batch_size: 32,
            seed: 2020,
        }
    }
}

/// A frozen greedy policy: just the main network, whose one copy of the
/// weights is the column-major layout its forward pass reads. This is what
/// the RLS / RLS-Skip *search* algorithms carry at query time, and what
/// gets serialized for model persistence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Policy {
    net: Mlp,
}

impl simsub_nn::BinaryCodec for Policy {
    fn encode(&self, enc: &mut simsub_nn::Encoder) {
        self.net.encode(enc);
    }

    fn decode(dec: &mut simsub_nn::Decoder) -> Result<Self, simsub_nn::CodecError> {
        Ok(Policy {
            net: Mlp::decode(dec)?,
        })
    }
}

impl Policy {
    /// Greedy action `argmax_a Q(s, a)` (the first on a tie), evaluated on
    /// caller-owned activations so a walk of many states allocates once.
    /// The Q-values are [`Policy::q_values`]' bit for bit.
    pub fn greedy_action(&self, state: &[f64], scratch: &mut MlpCache) -> usize {
        argmax(self.net.forward_cached(state, scratch).iter().copied())
    }

    /// Raw Q-values for inspection.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.net.forward(state)
    }

    /// State dimensionality the policy expects.
    pub fn state_dim(&self) -> usize {
        self.net.in_dim()
    }

    /// Number of actions the policy chooses among.
    pub fn n_actions(&self) -> usize {
        self.net.out_dim()
    }
}

/// Index of the first largest value (0 when there is none).
fn argmax(values: impl IntoIterator<Item = f64>) -> usize {
    let mut values = values.into_iter().enumerate();
    let Some((_, mut top)) = values.next() else {
        return 0;
    };
    let mut best = 0;
    for (i, v) in values {
        if v > top {
            (best, top) = (i, v);
        }
    }
    best
}

/// Deep-Q-Network agent with experience replay and a periodically synced
/// target network (Algorithm 3 of the paper).
pub struct DqnAgent {
    cfg: DqnConfig,
    main: Mlp,
    target: Mlp,
    memory: ReplayMemory,
    adam: Adam,
    epsilon: f64,
    rng: StdRng,
    // Owned scratch: acting and training allocate nothing after the first
    // gradient step.
    cache: MlpCache,
    grads: MlpGrads,
    batch: Minibatch,
}

/// One gradient step's working set, feature-major like [`MlpBatch`]:
/// value `c` of sample `s` at `[c * batch_size + s]`.
#[derive(Default)]
struct Minibatch {
    /// Memory slot of each sample, in draw order.
    slots: Vec<usize>,
    states: Vec<f64>,
    next_states: Vec<f64>,
    /// TD target `y` of each sample.
    targets: Vec<f64>,
    /// Loss gradient w.r.t. the main network's outputs.
    dout: Vec<f64>,
    acts: MlpBatch,
}

impl DqnAgent {
    /// Creates an agent; the Q-network is `state_dim → hidden (ReLU) →
    /// n_actions (sigmoid)` per the paper's Section 6.1.
    pub fn new(cfg: DqnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let main = Mlp::new(
            &mut rng,
            &[cfg.state_dim, cfg.hidden_dim, cfg.n_actions],
            &[Activation::Relu, Activation::Sigmoid],
        );
        let target = main.clone();
        Self {
            memory: ReplayMemory::new(cfg.replay_capacity, cfg.state_dim),
            adam: Adam::new(cfg.learning_rate),
            epsilon: cfg.epsilon_start,
            grads: MlpGrads::zeros(&main),
            cache: MlpCache::default(),
            batch: Minibatch::default(),
            main,
            target,
            rng,
            cfg,
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configuration in use.
    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    /// ε-greedy action selection (Algorithm 3, line 10).
    pub fn act(&mut self, state: &[f64]) -> usize {
        if self.rng.gen::<f64>() < self.epsilon {
            self.rng.gen_range(0..self.cfg.n_actions)
        } else {
            self.act_greedy(state)
        }
    }

    /// Greedy action from the main network.
    pub fn act_greedy(&mut self, state: &[f64]) -> usize {
        argmax(
            self.main
                .forward_cached(state, &mut self.cache)
                .iter()
                .copied(),
        )
    }

    /// Q-values of the main network.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.main.forward(state)
    }

    /// Stores an experience in the replay memory (Algorithm 3, line 21),
    /// copying its states into the memory's ring.
    pub fn remember(&mut self, t: Transition<'_>) {
        debug_assert!(t.action < self.cfg.n_actions);
        self.memory.push(t);
    }

    /// One gradient step on a uniformly sampled minibatch
    /// (Algorithm 3, lines 22-23). Returns the minibatch MSE loss, or
    /// `None` when the memory is still empty.
    ///
    /// The batch's states are gathered into agent-owned buffers and run
    /// through each network once, layer by layer, for all samples at once;
    /// the TD targets, the loss and every gradient element still take the
    /// samples in draw order, so the step is bit for bit the per-sample
    /// loop over the same draws.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.memory.is_empty() {
            return None;
        }
        let (n, dim) = (self.cfg.batch_size, self.cfg.state_dim);
        let mb = &mut self.batch;
        mb.slots.clear();
        mb.states.resize(dim * n, 0.0);
        mb.next_states.resize(dim * n, 0.0);
        for s in 0..n {
            let slot = self.rng.gen_range(0..self.memory.len());
            let t = self.memory.get(slot);
            for c in 0..dim {
                mb.states[c * n + s] = t.state[c];
                mb.next_states[c * n + s] = t.next_state[c];
            }
            mb.slots.push(slot);
        }

        let q_next = self.target.forward_batch(&mb.next_states, n, &mut mb.acts);
        mb.targets.clear();
        for (s, &slot) in mb.slots.iter().enumerate() {
            let t = self.memory.get(slot);
            mb.targets.push(if t.terminal {
                t.reward
            } else {
                let best = argmax(q_next[s..].iter().step_by(n).copied());
                t.reward + self.cfg.gamma * q_next[best * n + s]
            });
        }

        let q = self.main.forward_batch(&mb.states, n, &mut mb.acts);
        mb.dout.clear();
        mb.dout.resize(self.cfg.n_actions * n, 0.0);
        let mut loss = 0.0;
        for (s, (&slot, &y)) in mb.slots.iter().zip(&mb.targets).enumerate() {
            let a = self.memory.get(slot).action;
            let err = q[a * n + s] - y;
            loss += err * err;
            // dL/dQ(s,a) = 2 (Q - y); zero elsewhere.
            mb.dout[a * n + s] = 2.0 * err;
        }
        self.grads.zero();
        self.main
            .backward_batch(&mb.states, &mut mb.acts, &mb.dout, &mut self.grads);
        let inv = 1.0 / n as f64;
        self.grads.scale(inv);
        self.main.apply_grads(&self.grads, &mut self.adam);
        Some(loss * inv)
    }

    /// Copies the main network into the target network
    /// (Algorithm 3, line 25 — end of each episode).
    pub fn sync_target(&mut self) {
        self.target.copy_from(&self.main);
    }

    /// Applies one ε decay step, flooring at `epsilon_min`.
    pub fn decay_epsilon(&mut self) {
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_min);
    }

    /// Freezes the current main network into a standalone greedy policy.
    pub fn policy(&self) -> Policy {
        Policy {
            net: self.main.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_decays_to_floor() {
        let mut agent = DqnAgent::new(DqnConfig::paper(2, 2));
        for _ in 0..1000 {
            agent.decay_epsilon();
        }
        assert_eq!(agent.epsilon(), 0.05);
    }

    #[test]
    fn greedy_action_matches_q_argmax() {
        let mut agent = DqnAgent::new(DqnConfig::paper(3, 4));
        let s = [0.3, 0.5, 0.1];
        let q = agent.q_values(&s);
        let a = agent.act_greedy(&s);
        assert!(q.iter().all(|&v| v <= q[a]));
    }

    #[test]
    fn policy_is_frozen_snapshot() {
        let mut agent = DqnAgent::new(DqnConfig::paper(2, 2));
        let policy = agent.policy();
        let s = [0.2, 0.8];
        let before = policy.q_values(&s);
        // Train the agent; the frozen policy must not change.
        for i in 0..50 {
            agent.remember(Transition {
                state: &s,
                action: i % 2,
                reward: if i % 2 == 0 { 1.0 } else { 0.0 },
                next_state: &s,
                terminal: true,
            });
        }
        for _ in 0..100 {
            agent.train_step();
        }
        assert_eq!(policy.q_values(&s), before);
        assert_ne!(agent.q_values(&s), before);
    }

    #[test]
    fn learns_contextual_bandit() {
        // State [x]; action 0 is rewarded iff x < 0.5, action 1 iff
        // x >= 0.5. One-step episodes. The greedy policy must recover the
        // rule after training.
        let mut agent = DqnAgent::new(DqnConfig {
            learning_rate: 0.01,
            ..DqnConfig::paper(1, 2)
        });
        let mut rng = StdRng::seed_from_u64(9);
        for episode in 0..600 {
            let x: f64 = rng.gen();
            let a = agent.act(&[x]);
            let correct = usize::from(x >= 0.5);
            let r = if a == correct { 1.0 } else { 0.0 };
            agent.remember(Transition {
                state: &[x],
                action: a,
                reward: r,
                next_state: &[x],
                terminal: true,
            });
            agent.train_step();
            if episode % 4 == 0 {
                agent.sync_target();
            }
            agent.decay_epsilon();
        }
        let policy = agent.policy();
        let mut scratch = MlpCache::default();
        let mut correct = 0;
        for i in 0..100 {
            let x = i as f64 / 100.0;
            if policy.greedy_action(&[x], &mut scratch) == usize::from(x >= 0.5) {
                correct += 1;
            }
        }
        assert!(correct >= 90, "bandit accuracy {correct}/100");
    }

    #[test]
    fn learns_two_step_credit_assignment() {
        // Chain MDP: states 0 → 1 → terminal. Only action 1 in state 0
        // followed by action 1 in state 1 yields reward 1 at the end.
        // Tests that the bootstrapped target propagates value backwards
        // through the target network.
        let mut agent = DqnAgent::new(DqnConfig {
            learning_rate: 0.01,
            ..DqnConfig::paper(1, 2)
        });
        // 2000 episodes: convergence on this chain depends on the ε-greedy
        // exploration stream, and the vendored StdRng (xoshiro256++) needs
        // a longer run than upstream's ChaCha12 did at 800.
        for episode in 0..2000 {
            let (s0, s1) = ([0.0], [1.0]);
            let a0 = agent.act(&s0);
            let a1 = agent.act(&s1);
            let r = if a0 == 1 && a1 == 1 { 1.0 } else { 0.0 };
            agent.remember(Transition {
                state: &s0,
                action: a0,
                reward: 0.0,
                next_state: &s1,
                terminal: false,
            });
            agent.remember(Transition {
                state: &s1,
                action: a1,
                reward: r,
                next_state: &[2.0],
                terminal: true,
            });
            agent.train_step();
            agent.train_step();
            if episode % 2 == 0 {
                agent.sync_target();
            }
            agent.decay_epsilon();
        }
        let policy = agent.policy();
        let mut scratch = MlpCache::default();
        assert_eq!(
            policy.greedy_action(&[0.0], &mut scratch),
            1,
            "state 0 action"
        );
        assert_eq!(
            policy.greedy_action(&[1.0], &mut scratch),
            1,
            "state 1 action"
        );
        // Q(s0, 1) should reflect discounted future reward ≈ γ·1.
        let q0 = policy.q_values(&[0.0])[1];
        assert!(q0 > 0.5, "bootstrapped value too low: {q0}");
    }

    #[test]
    fn policy_binary_roundtrip() {
        use simsub_nn::BinaryCodec;
        let agent = DqnAgent::new(DqnConfig::paper(3, 5));
        let policy = agent.policy();
        let bytes = policy.to_bytes();
        let back = Policy::from_bytes(&bytes).unwrap();
        let s = [0.1, 0.9, 0.4];
        assert_eq!(policy.q_values(&s), back.q_values(&s));
        assert_eq!(back.state_dim(), 3);
        assert_eq!(back.n_actions(), 5);
    }

    /// The Q-values of `policy` from `Mlp::flat_params` alone: each layer
    /// a row-major matrix whose outputs are row-by-row dot products
    /// (`f64::sum`, so seeded with `-0.0`) plus the bias, through the
    /// activation. Shares no code with the forward pass.
    fn row_major_q(policy: &Policy, state: &[f64]) -> Vec<f64> {
        let (layers, activations) = policy.net.parts();
        let flat = policy.net.flat_params();
        let mut params = flat.as_slice();
        let mut values = state.to_vec();
        for (layer, act) in layers.iter().zip(activations) {
            let (rows, cols) = (layer.out_dim, layer.in_dim);
            let (w, rest) = params.split_at(rows * cols);
            let (b, rest) = rest.split_at(rows);
            params = rest;
            values = (0..rows)
                .map(|r| {
                    let dot: f64 = w[r * cols..][..cols]
                        .iter()
                        .zip(&values)
                        .map(|(a, b)| a * b)
                        .sum();
                    let v = dot + b[r];
                    match act {
                        Activation::Relu => v.max(0.0),
                        Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
                        Activation::Tanh => v.tanh(),
                        Activation::Identity => v,
                    }
                })
                .collect();
        }
        values
    }

    /// The greedy walk's Q-values are a row-major reference's bit for bit,
    /// and its action is their first maximum. Checked for a fresh and a
    /// trained agent's policy, each also saved and loaded back, over 10k
    /// seeded states with exact `0.0`/`-0.0` coordinates and huge ones that
    /// saturate the sigmoid outputs into exact ties.
    #[test]
    fn greedy_action_decides_as_a_row_major_reference() {
        use simsub_nn::BinaryCodec;
        let fresh = DqnAgent::new(DqnConfig::paper(3, 4));
        let mut trained = DqnAgent::new(DqnConfig::paper(3, 4));
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..64 {
            let s: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let next: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            trained.remember(Transition {
                state: &s,
                action: rng.gen_range(0..4usize),
                reward: rng.gen(),
                next_state: &next,
                terminal: rng.gen::<f64>() < 0.5,
            });
        }
        for _ in 0..50 {
            trained.train_step();
        }
        let dir =
            std::env::temp_dir().join(format!("simsub-policy-columns-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut policies = Vec::new();
        for (name, agent) in [("fresh", &fresh), ("trained", &trained)] {
            let policy = agent.policy();
            let path = dir.join(format!("{name}.ssub"));
            policy.save(&path).unwrap();
            policies.push((format!("{name}, loaded"), Policy::load(&path).unwrap()));
            policies.push((name.to_string(), policy));
        }
        std::fs::remove_dir_all(&dir).ok();

        let bits = |q: &[f64]| -> Vec<u64> { q.iter().map(|v| v.to_bits()).collect() };
        let mut cache = MlpCache::default();
        for (name, policy) in &policies {
            let mut ties = 0;
            for s in 0..10_000 {
                let state: Vec<f64> = (0..3)
                    .map(|c| match (s + c) % 6 {
                        _ if s % 97 == 0 => [0.0, -0.0][(s / 97 + c) % 2],
                        0 => 0.0,
                        1 => -0.0,
                        2 => rng.gen_range(-1e4..1e4),
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect();
                let q = row_major_q(policy, &state);
                assert_eq!(
                    bits(&policy.q_values(&state)),
                    bits(&q),
                    "{name}, state {state:?}"
                );
                let cached = policy.net.forward_cached(&state, &mut cache);
                assert_eq!(bits(cached), bits(&q), "{name}, state {state:?}");
                let top = q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let first = q.iter().position(|&v| v == top).unwrap();
                ties += usize::from(q.iter().filter(|&&v| v == top).count() > 1);
                assert_eq!(
                    policy.greedy_action(&state, &mut cache),
                    first,
                    "{name}, state {state:?}, q {q:?}"
                );
            }
            assert!(ties > 0, "{name}: no tie was decided");
        }
    }

    /// A damaged policy file never panics: every truncation is
    /// `Truncated`, and every single-bit flip is a typed error or a policy
    /// that saves back to exactly the flipped bytes. (The decoder under
    /// it, `Mlp`'s, is also held to allocate no more than a small multiple
    /// of the file, in `simsub_nn`'s persistence tests.)
    #[test]
    fn every_truncation_and_bit_flip_of_a_saved_policy_is_caught() {
        use simsub_nn::{BinaryCodec, CodecError};
        let saved = DqnAgent::new(DqnConfig::paper(2, 2))
            .policy()
            .to_bytes()
            .to_vec();
        for len in 0..saved.len() {
            assert_eq!(
                Policy::from_bytes(&saved[..len]).err(),
                Some(CodecError::Truncated),
                "cut at {len}"
            );
        }
        let mut flipped = saved.clone();
        for byte in 0..saved.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                if let Ok(policy) = Policy::from_bytes(&flipped) {
                    assert_eq!(
                        policy.to_bytes().to_vec(),
                        flipped,
                        "bit {bit} of byte {byte}"
                    );
                    let state = vec![0.5; policy.state_dim()];
                    let q = policy.q_values(&state);
                    let bits = |q: &[f64]| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&row_major_q(&policy, &state)),
                        bits(&q),
                        "bit {bit} of byte {byte}"
                    );
                }
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut agent = DqnAgent::new(DqnConfig::paper(1, 2));
            let mut rng = StdRng::seed_from_u64(4);
            for _ in 0..50 {
                let x: f64 = rng.gen();
                let a = agent.act(&[x]);
                agent.remember(Transition {
                    state: &[x],
                    action: a,
                    reward: x,
                    next_state: &[x],
                    terminal: true,
                });
                agent.train_step();
            }
            agent.q_values(&[0.5])
        };
        assert_eq!(run(), run());
    }
}
