//! RLS and RLS-Skip (Sections 5.2-5.4): splitting-based search driven by a
//! DQN-learned policy instead of hand-crafted heuristics, plus the
//! training loop of Algorithm 3.

use crate::mdp::{episode_parts, MdpConfig, ScanStats, SplitEnv};
use crate::{SearchResult, SearchWorkspace, SubtrajSearch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub_measures::Measure;
use simsub_nn::MlpCache;
use simsub_rl::{DqnAgent, DqnConfig, Policy, Transition};
use simsub_trajectory::{Point, PointSeq, TrajView, Trajectory};

/// The reinforcement-learning based search algorithm. Carries a frozen
/// greedy [`Policy`] and the MDP configuration it was trained for:
/// `MdpConfig::rls()` gives RLS, `rls_skip(k)` gives RLS-Skip,
/// `rls_skip_plus(k)` gives RLS-Skip+.
#[derive(Debug, Clone)]
pub struct Rls {
    policy: Policy,
    cfg: MdpConfig,
}

impl Rls {
    /// Wraps a trained policy.
    ///
    /// # Panics
    /// Panics if the policy's input/output dimensions do not match the
    /// MDP configuration; [`Rls::try_new`] returns that as an error.
    pub fn new(policy: Policy, cfg: MdpConfig) -> Self {
        Self::try_new(policy, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Wraps a trained policy, or says why it does not fit `cfg`: a
    /// policy file loaded from outside the program may have been trained
    /// for another skip count or without the suffix feature.
    pub fn try_new(policy: Policy, cfg: MdpConfig) -> Result<Self, String> {
        let name = cfg.algorithm_name();
        if policy.state_dim() != cfg.state_dim() {
            return Err(format!(
                "policy state dim mismatch: the policy takes {} state features, {name} needs {}",
                policy.state_dim(),
                cfg.state_dim()
            ));
        }
        if policy.n_actions() != cfg.n_actions() {
            return Err(format!(
                "policy action count mismatch: the policy has {} actions, {name} needs {}",
                policy.n_actions(),
                cfg.n_actions()
            ));
        }
        Ok(Self { policy, cfg })
    }

    /// The MDP configuration.
    pub fn config(&self) -> MdpConfig {
        self.cfg
    }

    /// The underlying greedy policy (e.g. for persistence).
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Runs the greedy policy over the splitting MDP and returns both the
    /// result and the scan statistics (Table 5 reports the skipped-point
    /// percentage), on an evaluator and suffix similarities built for this
    /// one `(data, query)` pair.
    pub fn search_with_stats(
        &self,
        measure: &dyn Measure,
        data: &[Point],
        query: &[Point],
    ) -> (SearchResult, ScanStats) {
        let (mut eval, suffix) = episode_parts(measure, data, query, self.cfg);
        let env = SplitEnv::new(eval.as_mut(), &suffix, data, self.cfg);
        greedy_walk(&self.policy, env, &mut MlpCache::default())
    }

    /// [`Rls::search_with_stats`] for a corpus scan: the episode walks the
    /// columnar view directly (`SplitEnv` is generic over `PointSeq`) on
    /// what `ws` already holds — the evaluator targeted at the query once
    /// per scan, the suffix buffer, the Q-network's activations — so the
    /// query is not re-encoded and nothing is allocated per candidate.
    pub fn scan_with_stats(
        &self,
        ws: &mut SearchWorkspace<'_>,
        data: TrajView<'_>,
    ) -> (SearchResult, ScanStats) {
        assert!(!data.is_empty(), "inputs must be non-empty");
        if self.cfg.use_suffix {
            ws.compute_suffix_similarities_bulk(data);
        }
        let (eval, suffix, scratch) = ws.episode_parts();
        greedy_walk(
            &self.policy,
            SplitEnv::new(eval, suffix, data, self.cfg),
            scratch,
        )
    }
}

/// Walks `env` to its end under `policy`'s greedy actions — the one place
/// a frozen policy meets an episode.
fn greedy_walk<S: PointSeq>(
    policy: &Policy,
    mut env: SplitEnv<'_, S>,
    scratch: &mut MlpCache,
) -> (SearchResult, ScanStats) {
    while !env.step(policy.greedy_action(env.state(), scratch)).done {}
    (env.result(), env.stats())
}

impl SubtrajSearch for Rls {
    fn name(&self) -> String {
        self.cfg.algorithm_name()
    }

    fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        self.search_with_stats(measure, data, query).0
    }

    fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
        self.scan_with_stats(ws, data).0
    }

    fn reported_similarity_is_admissible(&self) -> bool {
        // RLS-Skip's simplified prefix (skipped points drop out of the DP)
        // can report a similarity *above* any true subtrajectory's, so the
        // corpus-scan bound cascade is not admissible against it. Returning
        // false disables pruning for RLS entirely (conservative for the
        // non-skip variant too), keeping scans byte-identical.
        false
    }
}

/// Training configuration for Algorithm 3.
#[derive(Debug, Clone)]
pub struct RlsTrainConfig {
    /// The MDP variant to train (RLS / RLS-Skip / RLS-Skip+).
    pub mdp: MdpConfig,
    /// Number of episodes, i.e. sampled `(T, Tq)` pairs (the paper trains
    /// on 25k pairs; the harness defaults are smaller but configurable).
    pub episodes: usize,
    /// DQN hyperparameters; `state_dim`/`n_actions` are overridden to
    /// match `mdp`.
    pub dqn: DqnConfig,
    /// Seed for episode sampling.
    pub seed: u64,
    /// Held-out pairs for periodic greedy validation; the returned policy
    /// is the best-validating snapshot, which guards against late-training
    /// DQN oscillation. 0 disables validation (the raw Algorithm 3).
    pub validation_pairs: usize,
    /// Validate every this many episodes (ignored when validation is off).
    pub validate_every: usize,
}

impl RlsTrainConfig {
    /// Paper-default hyperparameters for the given MDP variant, plus
    /// best-snapshot validation (a model-selection layer on top of
    /// Algorithm 3 that does not alter the learning itself).
    pub fn paper(mdp: MdpConfig, episodes: usize) -> Self {
        Self {
            dqn: DqnConfig::paper(mdp.state_dim(), mdp.n_actions()),
            mdp,
            episodes,
            seed: 2020,
            validation_pairs: 24,
            validate_every: 25,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The frozen greedy policy, ready for [`Rls::new`] — the
    /// best-validating snapshot when validation is enabled, otherwise the
    /// final policy.
    pub policy: Policy,
    /// Episodes actually run.
    pub episodes: usize,
    /// Total environment transitions stored.
    pub transitions: usize,
    /// Mean TD loss over the final 100 gradient steps (diagnostic).
    pub final_loss: f64,
    /// Mean greedy validation similarity of the returned policy
    /// (NaN when validation is disabled).
    pub validation_score: f64,
}

/// Deep-Q-Network learning with experience replay (Algorithm 3).
///
/// Samples a data and a query trajectory uniformly per episode, walks the
/// splitting MDP with ε-greedy actions, stores experiences, performs one
/// gradient step per transition, and syncs the target network at the end
/// of each episode.
pub fn train_rls(
    measure: &dyn Measure,
    data: &[Trajectory],
    queries: &[Trajectory],
    cfg: &RlsTrainConfig,
) -> TrainReport {
    assert!(
        !data.is_empty() && !queries.is_empty(),
        "empty training corpus"
    );
    let mut dqn_cfg = cfg.dqn.clone();
    dqn_cfg.state_dim = cfg.mdp.state_dim();
    dqn_cfg.n_actions = cfg.mdp.n_actions();
    let mut agent = DqnAgent::new(dqn_cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Fixed validation set for best-snapshot selection.
    let validation: Vec<(usize, usize)> = (0..cfg.validation_pairs)
        .map(|_| {
            (
                rng.gen_range(0..data.len()),
                rng.gen_range(0..queries.len()),
            )
        })
        .collect();
    let validate = |policy: &Policy| -> f64 {
        let mut scratch = MlpCache::default();
        let mut total = 0.0;
        for &(di, qi) in &validation {
            let (data, query) = (data[di].points(), queries[qi].points());
            let (mut eval, suffix) = episode_parts(measure, data, query, cfg.mdp);
            let env = SplitEnv::new(eval.as_mut(), &suffix, data, cfg.mdp);
            total += greedy_walk(policy, env, &mut scratch).0.similarity;
        }
        total / validation.len().max(1) as f64
    };
    let mut best_policy: Option<(f64, simsub_rl::Policy)> = None;

    let mut transitions = 0usize;
    let mut recent_losses = std::collections::VecDeque::with_capacity(100);
    // `s_t` while the environment steps to `s_{t+1}`.
    let mut state = Vec::with_capacity(cfg.mdp.state_dim());
    for episode in 0..cfg.episodes {
        let t = &data[rng.gen_range(0..data.len())];
        let tq = &queries[rng.gen_range(0..queries.len())];
        let (mut eval, suffix) = episode_parts(measure, t.points(), tq.points(), cfg.mdp);
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.points(), cfg.mdp);
        state.clear();
        state.extend_from_slice(env.state());
        loop {
            let action = agent.act(&state);
            let outcome = env.step(action);
            if outcome.done {
                // Algorithm 3 breaks at the last point without storing an
                // experience (lines 15-17).
                break;
            }
            agent.remember(Transition {
                state: &state,
                action,
                reward: outcome.reward,
                next_state: env.state(),
                terminal: env.at_last_point(),
            });
            transitions += 1;
            if let Some(loss) = agent.train_step() {
                if recent_losses.len() == 100 {
                    recent_losses.pop_front();
                }
                recent_losses.push_back(loss);
            }
            state.copy_from_slice(env.state());
        }
        agent.sync_target();
        agent.decay_epsilon();

        let is_last = episode + 1 == cfg.episodes;
        if !validation.is_empty() && (is_last || (episode + 1) % cfg.validate_every.max(1) == 0) {
            let policy = agent.policy();
            let score = validate(&policy);
            if best_policy.as_ref().is_none_or(|(best, _)| score > *best) {
                best_policy = Some((score, policy));
            }
        }
    }
    let final_loss = if recent_losses.is_empty() {
        f64::NAN
    } else {
        recent_losses.iter().sum::<f64>() / recent_losses.len() as f64
    };
    let (validation_score, policy) = match best_policy {
        Some((score, policy)) => (score, policy),
        None => (f64::NAN, agent.policy()),
    };
    TrainReport {
        policy,
        episodes: cfg.episodes,
        transitions,
        final_loss,
        validation_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::walk;
    use crate::{ExactS, Pss};
    use simsub_measures::Dtw;
    use simsub_trajectory::Trajectory;

    fn corpus(seed: u64, count: usize, len: usize) -> Vec<Trajectory> {
        (0..count)
            .map(|i| Trajectory::new_unchecked(i as u64, walk(seed + i as u64, len)))
            .collect()
    }

    fn trained_rls(mdp: MdpConfig, episodes: usize) -> Rls {
        let data = corpus(100, 12, 20);
        let queries = corpus(900, 12, 6);
        let report = train_rls(&Dtw, &data, &queries, &RlsTrainConfig::paper(mdp, episodes));
        Rls::new(report.policy, mdp)
    }

    #[test]
    fn training_produces_usable_policy() {
        let rls = trained_rls(MdpConfig::rls(), 30);
        let t = walk(7, 18);
        let q = walk(8, 5);
        let res = rls.search(&Dtw, &t, &q);
        assert!(res.range.end < t.len());
        assert!(res.similarity > 0.0 && res.similarity <= 1.0);
        // Sanity: never better than exact.
        let exact = ExactS.search(&Dtw, &t, &q);
        assert!(res.distance + 1e-9 >= exact.distance);
    }

    #[test]
    fn rls_effectiveness_is_competitive_with_pss() {
        // On a small benchmark, trained RLS should be at least roughly as
        // effective as the greedy heuristic on average (the paper's core
        // claim, Fig. 3). We allow slack: RLS mean distance ratio must be
        // within 15% of PSS's.
        let rls = trained_rls(MdpConfig::rls(), 150);
        let mut ratio_rls = 0.0;
        let mut ratio_pss = 0.0;
        let pairs = 30;
        for i in 0..pairs {
            let t = walk(5000 + i, 24);
            let q = walk(6000 + i, 6);
            let exact = ExactS.search(&Dtw, &t, &q).distance;
            let r = rls.search(&Dtw, &t, &q).distance;
            let p = Pss.search(&Dtw, &t, &q).distance;
            ratio_rls += r / exact.max(1e-12);
            ratio_pss += p / exact.max(1e-12);
        }
        ratio_rls /= pairs as f64;
        ratio_pss /= pairs as f64;
        assert!(
            ratio_rls <= ratio_pss * 1.15,
            "RLS AR {ratio_rls:.3} vs PSS AR {ratio_pss:.3}"
        );
    }

    #[test]
    fn rls_skip_skips_points() {
        let rls_skip = trained_rls(MdpConfig::rls_skip(3), 60);
        let mut total_skipped = 0usize;
        let mut total_points = 0usize;
        for i in 0..20 {
            let t = walk(3000 + i, 30);
            let q = walk(4000 + i, 5);
            let (_, stats) = rls_skip.search_with_stats(&Dtw, &t, &q);
            total_skipped += stats.skipped;
            total_points += t.len();
        }
        // The learned policy may or may not skip aggressively, but the
        // mechanics must stay consistent.
        assert!(total_skipped < total_points);
    }

    #[test]
    fn deterministic_training_given_seed() {
        let data = corpus(1, 6, 15);
        let queries = corpus(2, 6, 5);
        let cfg = RlsTrainConfig::paper(MdpConfig::rls(), 20);
        let a = train_rls(&Dtw, &data, &queries, &cfg);
        let b = train_rls(&Dtw, &data, &queries, &cfg);
        assert_eq!(a.transitions, b.transitions);
        let t = walk(50, 12);
        let q = walk(51, 4);
        let ra = Rls::new(a.policy, MdpConfig::rls()).search(&Dtw, &t, &q);
        let rb = Rls::new(b.policy, MdpConfig::rls()).search(&Dtw, &t, &q);
        assert_eq!(ra.range, rb.range);
    }

    #[test]
    #[should_panic(expected = "policy state dim mismatch")]
    fn mismatched_policy_rejected() {
        let data = corpus(1, 4, 10);
        let queries = corpus(2, 4, 4);
        let report = train_rls(
            &Dtw,
            &data,
            &queries,
            &RlsTrainConfig::paper(MdpConfig::rls(), 5),
        );
        // RLS policy (3-dim state) used with a suffix-free MDP (2-dim).
        let _ = Rls::new(report.policy, MdpConfig::rls_skip_plus(0));
    }
}
