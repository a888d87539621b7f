//! Cross-algorithm consistency: every algorithm in the suite, under every
//! measure, must return a valid range whose exact distance is no better
//! than ExactS's optimum; the DTW-specific exact baselines must agree
//! with ExactS exactly.

use simsub::core::{
    train_rls, ExactS, MdpConfig, Pos, PosD, Pss, RandomS, Rls, RlsTrainConfig, SimTra, SizeS,
    Spring, SubtrajSearch, Ucr,
};
use simsub::data::{generate, sample_pairs, DatasetSpec};
use simsub::measures::{CoordNormalizer, Dtw, Frechet, Measure, T2Vec};

fn quick_rls(
    corpus: &[simsub::trajectory::Trajectory],
    measure: &dyn Measure,
    mdp: MdpConfig,
) -> Rls {
    let report = train_rls(measure, corpus, corpus, &RlsTrainConfig::paper(mdp, 15));
    Rls::new(report.policy, mdp)
}

#[test]
fn no_algorithm_beats_exacts_under_any_measure() {
    let corpus = generate(&DatasetSpec::porto(), 30, 5);
    let pairs = sample_pairs(&corpus, 12, 15, 7);
    let t2vec = T2Vec::random(3, 8, CoordNormalizer::identity());
    let measures: [&dyn Measure; 3] = [&Dtw, &Frechet, &t2vec];

    for measure in measures {
        let rls = quick_rls(&corpus, measure, MdpConfig::rls());
        let rls_skip = quick_rls(&corpus, measure, MdpConfig::rls_skip(3));
        let algos: Vec<Box<dyn SubtrajSearch>> = vec![
            Box::new(SizeS::new(5)),
            Box::new(Pss),
            Box::new(Pos),
            Box::new(PosD::new(5)),
            Box::new(RandomS::new(20, 1)),
            Box::new(SimTra),
            Box::new(rls),
            Box::new(rls_skip),
        ];
        for pair in &pairs {
            let data = corpus[pair.data_idx].points();
            let query = pair.query.points();
            let exact = ExactS.search(measure, data, query);
            for algo in &algos {
                let res = algo.search(measure, data, query);
                assert!(res.range.end < data.len(), "{}: invalid range", algo.name());
                // Compare on the *recomputed* exact distance of the
                // returned range (internal similarity may be approximate,
                // e.g. RLS-Skip's simplified prefix, PSS's reversed t2vec
                // suffix).
                let true_dist = measure.distance(res.range.slice(data), query);
                assert!(
                    true_dist + 1e-9 >= exact.distance,
                    "{} under {} beat ExactS: {} < {}",
                    algo.name(),
                    measure.name(),
                    true_dist,
                    exact.distance
                );
            }
        }
    }
}

#[test]
fn spring_matches_exacts_exactly_under_dtw() {
    let corpus = generate(&DatasetSpec::harbin(), 12, 9);
    let pairs = sample_pairs(&corpus, 10, 12, 3);
    for pair in &pairs {
        let data = corpus[pair.data_idx].points();
        let query = pair.query.points();
        let exact = ExactS.search(&Dtw, data, query);
        let spring = Spring::new().search(&Dtw, data, query);
        assert!(
            (spring.distance - exact.distance).abs() < 1e-6,
            "spring {} vs exact {}",
            spring.distance,
            exact.distance
        );
    }
}

#[test]
fn ucr_is_optimal_among_query_length_windows() {
    // UCR can't beat ExactS (it only sees length-m windows), but among
    // those windows it must be optimal at R = 1 (full band).
    let corpus = generate(&DatasetSpec::porto(), 10, 21);
    let pairs = sample_pairs(&corpus, 8, 12, 5);
    for pair in &pairs {
        let data = corpus[pair.data_idx].points();
        let query = pair.query.points();
        if data.len() < query.len() {
            continue;
        }
        let res = Ucr::new(1.0).search(&Dtw, data, query);
        let m = query.len();
        let best_window = (0..=data.len() - m)
            .map(|s| Dtw.distance(&data[s..s + m], query))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (res.distance - best_window).abs() < 1e-6,
            "UCR {} vs best window {}",
            res.distance,
            best_window
        );
        let exact = ExactS.search(&Dtw, data, query);
        assert!(res.distance + 1e-9 >= exact.distance);
    }
}

#[test]
fn results_are_deterministic_across_runs() {
    let corpus = generate(&DatasetSpec::porto(), 20, 31);
    let pairs = sample_pairs(&corpus, 6, 15, 13);
    let algos: Vec<Box<dyn SubtrajSearch>> = vec![
        Box::new(ExactS),
        Box::new(SizeS::new(5)),
        Box::new(Pss),
        Box::new(RandomS::new(25, 77)),
        Box::new(Spring::new()),
        Box::new(Ucr::new(0.5)),
    ];
    for pair in &pairs {
        let data = corpus[pair.data_idx].points();
        let query = pair.query.points();
        for algo in &algos {
            let a = algo.search(&Dtw, data, query);
            let b = algo.search(&Dtw, data, query);
            assert_eq!(a.range, b.range, "{} nondeterministic", algo.name());
            assert_eq!(a.similarity, b.similarity);
        }
    }
}

#[test]
fn unbounded_window_and_delay_saturate_to_the_whole_trajectory() {
    // ξ = n already admits every size and D = n already looks ahead to the
    // end, so the largest values must answer the same, bit for bit — the
    // window's `m + ξ` and the lookahead's `i + D` saturate rather than
    // overflow (a debug build would panic, a release build would wrap).
    let corpus = generate(&DatasetSpec::porto(), 6, 41);
    let pairs = sample_pairs(&corpus, 6, 12, 43);
    let t2vec = T2Vec::random(45, 8, CoordNormalizer::from_corpus(&corpus));
    let measures: [&dyn Measure; 3] = [&Dtw, &Frechet, &t2vec];
    for measure in measures {
        for pair in &pairs {
            let data = corpus[pair.data_idx].points();
            let query = pair.query.points();
            let n = data.len();
            let twins: [(Box<dyn SubtrajSearch>, Box<dyn SubtrajSearch>); 2] = [
                (Box::new(SizeS::new(usize::MAX)), Box::new(SizeS::new(n))),
                (Box::new(PosD::new(usize::MAX)), Box::new(PosD::new(n))),
            ];
            for (unbounded, bounded) in &twins {
                let context = format!(
                    "{} vs {} under {}",
                    unbounded.name(),
                    bounded.name(),
                    measure.name()
                );
                let (unbounded, bounded) = (
                    unbounded.search(measure, data, query),
                    bounded.search(measure, data, query),
                );
                assert_eq!(unbounded.range, bounded.range, "{context}");
                assert_eq!(
                    unbounded.similarity.to_bits(),
                    bounded.similarity.to_bits(),
                    "{context}"
                );
                assert_eq!(
                    unbounded.distance.to_bits(),
                    bounded.distance.to_bits(),
                    "{context}"
                );
            }
        }
    }
}
