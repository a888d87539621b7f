//! The trajectory-splitting Markov decision process of Sections 5.1 and
//! 5.4, shared by DQN training (Algorithm 3) and by the RLS / RLS-Skip
//! search algorithms at query time.
//!
//! - **States** `(Θbest, Θpre, Θsuf)`: the best similarity found so far,
//!   the similarity of the running prefix `T[h, t]`, and the similarity of
//!   the suffix `T[t, n]` (via reversed computation). The suffix component
//!   is optional: the paper drops it for t2vec and for RLS-Skip+.
//! - **Actions** `0` = continue, `1` = split at the current point,
//!   `1 + j` (j = 1..k) = skip the next `j` points (RLS-Skip, §5.4).
//! - **Rewards** `r_t = s_{t+1}.Θbest − s_t.Θbest`, which telescopes to the
//!   final best similarity (§5.1).
//!
//! RLS-Skip's state simplification is implemented faithfully: skipped
//! points are *omitted from the prefix evaluator*, so `Θpre` is the
//! similarity of the subtrajectory of non-skipped points — "a
//! simplification of that used in RLS" — while the reported best range
//! still uses real point indices.

use crate::splitting::suffix_similarities;
use crate::SearchResult;
use simsub_measures::{Measure, PrefixEvaluator};
use simsub_trajectory::{Point, PointSeq, SubtrajRange};

/// Configuration of the splitting MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdpConfig {
    /// Number of skip actions `k` (0 for plain RLS; paper default 3 for
    /// RLS-Skip).
    pub skip_actions: usize,
    /// Whether the state includes (and the candidates consider) the
    /// suffix similarity. Dropped for t2vec (§6.1) and RLS-Skip+ (§6.2(9)).
    pub use_suffix: bool,
}

impl MdpConfig {
    /// Plain RLS: two actions, full 3-component state.
    pub fn rls() -> Self {
        Self {
            skip_actions: 0,
            use_suffix: true,
        }
    }

    /// RLS-Skip with `k` skip actions.
    pub fn rls_skip(k: usize) -> Self {
        Self {
            skip_actions: k,
            use_suffix: true,
        }
    }

    /// RLS-Skip+ — skip actions, no suffix component (fastest variant,
    /// used for the UCR/Spring comparison).
    pub fn rls_skip_plus(k: usize) -> Self {
        Self {
            skip_actions: k,
            use_suffix: false,
        }
    }

    /// Dimensionality of the state vector.
    pub fn state_dim(&self) -> usize {
        if self.use_suffix {
            3
        } else {
            2
        }
    }

    /// Number of actions (`2 + k`).
    pub fn n_actions(&self) -> usize {
        2 + self.skip_actions
    }

    /// Display name of the induced algorithm.
    pub fn algorithm_name(&self) -> String {
        match (self.skip_actions, self.use_suffix) {
            (0, true) => "RLS".to_string(),
            (k, true) => format!("RLS-Skip(k={k})"),
            (0, false) => "RLS+".to_string(),
            (k, false) => format!("RLS-Skip+(k={k})"),
        }
    }
}

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// `s_{t+1}.Θbest − s_t.Θbest` (0 at termination in line with
    /// Algorithm 3, which stores no experience for the final point).
    pub reward: f64,
    /// True when the final point has been processed.
    pub done: bool,
}

/// Counters describing one episode/search, reported in Table 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Points actually scanned (states constructed).
    pub scanned: usize,
    /// Points skipped by skip actions.
    pub skipped: usize,
    /// Split operations performed.
    pub splits: usize,
}

/// One episode of the splitting MDP over a `(data, query)` pair.
/// Generic over [`PointSeq`] so AoS slices and columnar arena
/// [`simsub_trajectory::TrajView`]s drive the identical episode without a
/// staging copy.
///
/// The episode *borrows* what it walks: a prefix evaluator already
/// targeted at the query and (for the with-suffix MDPs) the suffix
/// similarities of `data`. A corpus scan lends the ones its
/// [`crate::SearchWorkspace`] keeps, so the query is encoded once per scan
/// and an episode allocates nothing; a caller without a workspace builds
/// them with [`episode_parts`].
pub struct SplitEnv<'e, S: PointSeq = &'e [Point]> {
    data: S,
    eval: &'e mut dyn PrefixEvaluator,
    suffix: &'e [f64],
    cfg: MdpConfig,
    n: usize,
    /// Index of the point currently being scanned.
    t: usize,
    /// Index of the first point after the last split (the paper's `h`).
    h: usize,
    /// `(Θbest, Θpre, Θsuf)`; the policy sees the first `state_dim`.
    state: [f64; 3],
    best: Option<(SubtrajRange, f64)>,
    stats: ScanStats,
    done: bool,
}

/// The owned halves of an episode for callers without a workspace: a
/// prefix evaluator targeted at `query` and the suffix similarities of
/// `data` (empty when `cfg` drops the suffix component).
pub fn episode_parts<'m, S: PointSeq>(
    measure: &'m dyn Measure,
    data: S,
    query: &[Point],
    cfg: MdpConfig,
) -> (Box<dyn PrefixEvaluator + 'm>, Vec<f64>) {
    let suffix = if cfg.use_suffix {
        suffix_similarities(measure, data, query)
    } else {
        Vec::new()
    };
    (measure.make_workspace(query), suffix)
}

/// Positions of `Θbest`, `Θpre`, `Θsuf` in the state vector.
const BEST: usize = 0;
const PRE: usize = 1;
const SUF: usize = 2;

impl<'e, S: PointSeq> SplitEnv<'e, S> {
    /// Starts an episode over `data`, anchoring `eval` (targeted at the
    /// query by the caller) at the first point. `suffix[t]` is the
    /// similarity of `data[t..]`; it is not read when `cfg` drops the
    /// suffix component.
    pub fn new(
        eval: &'e mut dyn PrefixEvaluator,
        suffix: &'e [f64],
        data: S,
        cfg: MdpConfig,
    ) -> Self {
        assert!(!data.seq_is_empty(), "inputs must be non-empty");
        let n = data.seq_len();
        assert!(
            !cfg.use_suffix || suffix.len() == n,
            "one suffix similarity per data point"
        );
        let theta_pre = eval.init(data.seq_point(0));
        let theta_suf = if cfg.use_suffix { suffix[0] } else { 0.0 };
        Self {
            data,
            eval,
            suffix,
            cfg,
            n,
            t: 0,
            h: 0,
            state: [0.0, theta_pre, theta_suf],
            best: None,
            stats: ScanStats {
                scanned: 1,
                ..Default::default()
            },
            done: false,
        }
    }

    /// The MDP configuration.
    pub fn config(&self) -> MdpConfig {
        self.cfg
    }

    /// Current state vector `(Θbest, Θpre[, Θsuf])`.
    pub fn state(&self) -> &[f64] {
        &self.state[..self.cfg.state_dim()]
    }

    /// True when the point being scanned is the last one, i.e. the episode
    /// terminates after the next [`SplitEnv::step`]. Used to flag stored
    /// transitions as terminal for the TD target (Equation (3)).
    pub fn at_last_point(&self) -> bool {
        self.t == self.n - 1
    }

    /// Episode counters.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Applies an action at the current point and advances the scan
    /// (Algorithm 3, lines 10-20).
    ///
    /// # Panics
    /// Panics if the episode is already done or `action >= n_actions`.
    pub fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.done, "episode already terminated");
        assert!(action < self.cfg.n_actions(), "invalid action {action}");
        let old_best = self.state[BEST];
        let prefix_start = self.h;

        // Lines 11-13: a split moves h past the current point.
        if action == 1 {
            self.h = self.t + 1;
            self.stats.splits += 1;
        }

        // Line 14: Θbest ← max{Θbest, Θpre, Θsuf}, tracking the achiever.
        if self.state[PRE] > self.state[BEST] {
            self.state[BEST] = self.state[PRE];
            self.best = Some((SubtrajRange::new(prefix_start, self.t), self.state[PRE]));
        }
        if self.cfg.use_suffix && self.state[SUF] > self.state[BEST] {
            self.state[BEST] = self.state[SUF];
            self.best = Some((SubtrajRange::new(self.t, self.n - 1), self.state[SUF]));
        }

        // Lines 15-17: terminate at the last point.
        if self.t == self.n - 1 {
            self.done = true;
            return StepOutcome {
                reward: self.state[BEST] - old_best,
                done: true,
            };
        }

        // Advance, applying the skip semantics of §5.4: action `1 + j`
        // skips points p_{t+1}..p_{t+j} and scans p_{t+j+1} next.
        let jump = action.saturating_sub(1);
        let next = (self.t + 1 + jump).min(self.n - 1);
        self.stats.skipped += next - self.t - 1;
        self.stats.scanned += 1;
        self.t = next;

        // Lines 18-19: refresh Θpre / Θsuf. Skipped points are omitted
        // from the evaluator (the RLS-Skip prefix simplification).
        self.state[PRE] = if self.t == self.h {
            self.eval.init(self.data.seq_point(self.t))
        } else {
            self.eval.extend(self.data.seq_point(self.t))
        };
        if self.cfg.use_suffix {
            self.state[SUF] = self.suffix[self.t];
        }

        StepOutcome {
            reward: self.state[BEST] - old_best,
            done: false,
        }
    }

    /// The best subtrajectory recorded during the episode. Valid once at
    /// least one step has been taken.
    pub fn result(&self) -> SearchResult {
        let (range, sim) = self
            .best
            .expect("at least one step must be taken before reading the result");
        SearchResult {
            range,
            similarity: sim,
            distance: simsub_measures::distance_from_similarity(sim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{figure1, walk};
    use crate::{Pss, SubtrajSearch};
    use simsub_measures::Dtw;

    #[test]
    fn config_dimensions() {
        assert_eq!(MdpConfig::rls().state_dim(), 3);
        assert_eq!(MdpConfig::rls().n_actions(), 2);
        assert_eq!(MdpConfig::rls_skip(3).n_actions(), 5);
        assert_eq!(MdpConfig::rls_skip_plus(3).state_dim(), 2);
        assert_eq!(MdpConfig::rls().algorithm_name(), "RLS");
        assert_eq!(MdpConfig::rls_skip(3).algorithm_name(), "RLS-Skip(k=3)");
        assert_eq!(
            MdpConfig::rls_skip_plus(2).algorithm_name(),
            "RLS-Skip+(k=2)"
        );
    }

    #[test]
    fn rewards_telescope_to_final_best() {
        // Σ r_t == final Θbest − initial Θbest (= 0), for any action
        // sequence (§5.1).
        let t = walk(5, 12);
        let q = walk(6, 4);
        for pattern in 0..8u64 {
            let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls());
            let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.as_slice(), MdpConfig::rls());
            let mut total = 0.0;
            let mut step = 0u64;
            loop {
                let action = ((pattern >> (step % 3)) & 1) as usize;
                let out = env.step(action);
                total += out.reward;
                step += 1;
                if out.done {
                    break;
                }
            }
            assert!(
                (total - env.result().similarity).abs() < 1e-9,
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn always_split_mimics_greedy_candidates() {
        // Splitting at every point makes every single point plus every
        // suffix a candidate; Θbest must then be at least PSS's best
        // single-point/suffix candidate value.
        let (t, q) = figure1();
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls());
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.as_slice(), MdpConfig::rls());
        loop {
            if env.step(1).done {
                break;
            }
        }
        let res = env.result();
        let pss = Pss.search(&Dtw, &t, &q);
        // PSS on this instance returns the best single point (T[2,2] in
        // 1-based terms); the always-split policy sees the same candidates.
        assert!(res.similarity + 1e-9 >= pss.similarity);
    }

    #[test]
    fn never_split_considers_full_prefixes() {
        let t = walk(9, 10);
        let q = walk(10, 4);
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls());
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.as_slice(), MdpConfig::rls());
        loop {
            if env.step(0).done {
                break;
            }
        }
        let res = env.result();
        // Candidates were all prefixes T[0, j] and suffixes T[j, n-1];
        // verify the result matches the best of those, computed directly.
        let mut best = 0.0f64;
        for j in 0..t.len() {
            best = best.max(Dtw.similarity(&t[0..=j], &q));
            best = best.max(Dtw.similarity(&t[j..], &q));
        }
        assert!((res.similarity - best).abs() < 1e-9);
    }

    #[test]
    fn skip_action_skips_points_and_counts() {
        let t = walk(13, 10);
        let q = walk(14, 3);
        let cfg = MdpConfig::rls_skip(3);
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, cfg);
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.as_slice(), cfg);
        // Skip 2 points at the first step: next scanned index is 3.
        env.step(3);
        assert_eq!(env.stats().skipped, 2);
        assert_eq!(env.stats().scanned, 2);
        // The prefix evaluator omitted p1, p2: Θpre equals the similarity
        // of <p0, p3> against the query.
        let expect = Dtw.similarity(&[t[0], t[3]], &q);
        assert!((env.state()[1] - expect).abs() < 1e-9);
    }

    #[test]
    fn skip_past_end_clamps_to_last_point() {
        let t = walk(15, 5);
        let q = walk(16, 3);
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls_skip(10));
        let mut env = SplitEnv::new(
            eval.as_mut(),
            &suffix,
            t.as_slice(),
            MdpConfig::rls_skip(10),
        );
        let out = env.step(11); // skip 10 points from p0 → clamped to p4
        assert!(!out.done);
        assert!(env.at_last_point());
        let out = env.step(0);
        assert!(out.done);
    }

    #[test]
    fn suffix_free_state_has_two_components() {
        let t = walk(17, 6);
        let q = walk(18, 3);
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls_skip_plus(2));
        let env = SplitEnv::new(
            eval.as_mut(),
            &suffix,
            t.as_slice(),
            MdpConfig::rls_skip_plus(2),
        );
        assert_eq!(env.state().len(), 2);
    }

    #[test]
    fn single_point_episode_terminates_immediately() {
        let t = walk(19, 1);
        let q = walk(20, 3);
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls());
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.as_slice(), MdpConfig::rls());
        assert!(env.at_last_point());
        let out = env.step(0);
        assert!(out.done);
        assert_eq!(env.result().range, SubtrajRange::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "episode already terminated")]
    fn step_after_done_panics() {
        let t = walk(21, 1);
        let q = walk(22, 2);
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls());
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.as_slice(), MdpConfig::rls());
        env.step(0);
        env.step(0);
    }

    #[test]
    #[should_panic(expected = "invalid action")]
    fn invalid_action_panics() {
        let t = walk(23, 4);
        let q = walk(24, 2);
        let (mut eval, suffix) = episode_parts(&Dtw, t.as_slice(), &q, MdpConfig::rls());
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, t.as_slice(), MdpConfig::rls());
        env.step(2); // k = 0 → only actions 0, 1
    }
}
