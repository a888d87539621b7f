//! Property-based invariants of the trajectory-splitting MDP (§5.1/§5.4),
//! exercised with arbitrary action sequences over generated data: the
//! learned policy can only be as good as the environment is correct.

use proptest::prelude::*;
use simsub::core::{episode_parts, ExactS, MdpConfig, SplitEnv, SubtrajSearch};
use simsub::data::{generate, DatasetSpec};
use simsub::measures::{Dtw, Measure};
use simsub::trajectory::Trajectory;

fn fixture(seed: u64) -> (Trajectory, Trajectory) {
    let spec = DatasetSpec {
        min_len: 4,
        max_len: 24,
        mean_len: 12,
        ..DatasetSpec::porto()
    };
    let trajs = generate(&spec, 2, seed);
    let qlen = trajs[1].len().min(6);
    let query = Trajectory::new_unchecked(99, trajs[1].points()[..qlen].to_vec());
    (trajs[0].clone(), query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rewards telescope: Σ r_t == final Θbest, for any action sequence
    /// and any skip budget (the §5.1 argument for the reward design).
    #[test]
    fn rewards_telescope(seed in 0u64..2000, k in 0usize..4, actions in proptest::collection::vec(0usize..6, 1..64)) {
        let (data, query) = fixture(seed);
        let cfg = MdpConfig { skip_actions: k, use_suffix: true };
        let (mut eval, suffix) = episode_parts(&Dtw, data.points(), query.points(), cfg);
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, data.points(), cfg);
        let mut total = 0.0;
        let mut i = 0;
        loop {
            let a = actions[i % actions.len()] % cfg.n_actions();
            let out = env.step(a);
            total += out.reward;
            i += 1;
            if out.done {
                break;
            }
        }
        let res = env.result();
        prop_assert!((total - res.similarity).abs() < 1e-9,
            "Σr = {total} vs Θbest = {}", res.similarity);
    }

    /// Every episode terminates within n steps and yields a valid range
    /// whose true distance never beats ExactS.
    #[test]
    fn episodes_terminate_and_are_sound(seed in 0u64..2000, k in 0usize..4, actions in proptest::collection::vec(0usize..6, 1..64)) {
        let (data, query) = fixture(seed);
        let cfg = MdpConfig { skip_actions: k, use_suffix: false };
        let (mut eval, suffix) = episode_parts(&Dtw, data.points(), query.points(), cfg);
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, data.points(), cfg);
        let mut steps = 0;
        loop {
            let a = actions[steps % actions.len()] % cfg.n_actions();
            if env.step(a).done {
                break;
            }
            steps += 1;
            prop_assert!(steps <= data.len(), "episode exceeded n steps");
        }
        let res = env.result();
        prop_assert!(res.range.end < data.len());
        let true_dist = Dtw.distance(res.range.slice(data.points()), query.points());
        let exact = ExactS.search(&Dtw, data.points(), query.points()).distance;
        prop_assert!(true_dist + 1e-9 >= exact);
        // Without suffix candidates, the recorded similarity is the true
        // prefix similarity only when no skips happened; with skips the
        // internal estimate is the simplified prefix, still in (0, 1].
        prop_assert!(res.similarity > 0.0 && res.similarity <= 1.0);
    }

    /// Scan statistics are consistent: scanned + skipped == points
    /// consumed, and skipped == 0 when k == 0.
    #[test]
    fn stats_are_consistent(seed in 0u64..2000, actions in proptest::collection::vec(0usize..2, 1..64)) {
        let (data, query) = fixture(seed);
        let (mut eval, suffix) = episode_parts(&Dtw, data.points(), query.points(), MdpConfig::rls());
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, data.points(), MdpConfig::rls());
        let mut i = 0;
        loop {
            if env.step(actions[i % actions.len()]).done {
                break;
            }
            i += 1;
        }
        let stats = env.stats();
        prop_assert_eq!(stats.skipped, 0);
        prop_assert_eq!(stats.scanned, data.len());
    }

    /// With skipping, scanned + skipped covers exactly the points up to
    /// the last scanned one.
    #[test]
    fn skip_accounting(seed in 0u64..2000, actions in proptest::collection::vec(0usize..5, 1..64)) {
        let (data, query) = fixture(seed);
        let cfg = MdpConfig::rls_skip(3);
        let (mut eval, suffix) = episode_parts(&Dtw, data.points(), query.points(), cfg);
        let mut env = SplitEnv::new(eval.as_mut(), &suffix, data.points(), cfg);
        let mut i = 0;
        loop {
            if env.step(actions[i % actions.len()]).done {
                break;
            }
            i += 1;
        }
        let stats = env.stats();
        // Every point is either scanned or skipped; the episode always
        // ends on the last point.
        prop_assert_eq!(stats.scanned + stats.skipped, data.len());
    }
}
