//! Property-based cross-crate invariants on the measure abstraction: the
//! incremental evaluators (`Φini`/`Φinc`) must agree with from-scratch
//! computation (`Φ`) for every measure, on realistic generated data — the
//! contract every search algorithm in `simsub-core` relies on.

use proptest::prelude::*;
use simsub::core::suffix_similarities;
use simsub::data::{generate, DatasetSpec};
use simsub::measures::{CoordNormalizer, Dtw, Frechet, Measure, T2Vec};

fn measures() -> Vec<Box<dyn Measure>> {
    vec![
        Box::new(Dtw),
        Box::new(Frechet),
        Box::new(T2Vec::random(5, 8, CoordNormalizer::identity())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_equals_from_scratch(seed in 0u64..10_000) {
        let spec = DatasetSpec {
            min_len: 6,
            max_len: 18,
            mean_len: 10,
            ..DatasetSpec::porto()
        };
        let trajs = generate(&spec, 2, seed);
        let data = trajs[0].points();
        let query = &trajs[1].points()[..6];
        for measure in measures() {
            let mut eval = measure.make_workspace(query);
            for i in (0..data.len()).step_by(3) {
                eval.init(data[i]);
                for j in i..data.len() {
                    if j > i {
                        eval.extend(data[j]);
                    }
                    let scratch = measure.distance(&data[i..=j], query);
                    prop_assert!(
                        (eval.distance() - scratch).abs() < 1e-6 * (1.0 + scratch),
                        "{}: i={i} j={j}: {} vs {}",
                        measure.name(), eval.distance(), scratch
                    );
                }
            }
        }
    }

    #[test]
    fn suffix_pass_equals_direct_for_reversal_invariant_measures(seed in 0u64..10_000) {
        let spec = DatasetSpec {
            min_len: 5,
            max_len: 14,
            mean_len: 8,
            ..DatasetSpec::porto()
        };
        let trajs = generate(&spec, 2, seed);
        let data = trajs[0].points();
        let query = &trajs[1].points()[..5];
        for measure in [&Dtw as &dyn Measure, &Frechet] {
            let suffix = suffix_similarities(measure, data, query);
            for (i, &s) in suffix.iter().enumerate() {
                let direct = measure.similarity(&data[i..], query);
                prop_assert!(
                    (s - direct).abs() < 1e-9,
                    "{} suffix {i}: {s} vs {direct}",
                    measure.name()
                );
            }
        }
    }

    #[test]
    fn similarity_and_distance_are_consistent(seed in 0u64..10_000) {
        let spec = DatasetSpec::porto();
        let trajs = generate(&spec, 2, seed);
        let a = &trajs[0].points()[..12];
        let b = &trajs[1].points()[..8];
        for measure in measures() {
            let d = measure.distance(a, b);
            let s = measure.similarity(a, b);
            prop_assert!((s - 1.0 / (1.0 + d)).abs() < 1e-12);
            // Identity of indiscernibles at the similarity level.
            prop_assert!(measure.similarity(a, a) > s || d == 0.0);
        }
    }
}
