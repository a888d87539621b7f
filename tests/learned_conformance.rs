//! Frozen-seed conformance of the learned path: t2vec embeddings, DQN
//! training runs and RLS answers are pinned to constants recorded on the
//! commit *before* the GRU / Q-network / `SplitEnv` restructure, so any
//! change to `crates/nn`, `crates/rl`, `measures::t2vec` or
//! `core::{mdp, rls}` that moves a single bit of a forward pass, a
//! gradient step or a greedy walk fails here. Each constant is an FNV-1a
//! fold of `f64::to_bits()` (and the integers beside them); a mismatch
//! prints the value the tree produces.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simsub::core::{train_rls, MdpConfig, Rls, RlsTrainConfig, ScanStats, TopKResult, TrainReport};
use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::measures::{CoordNormalizer, Dtw, Measure, T2Vec, T2VecConfig};
use simsub::nn::{Activation, BinaryCodec, GruCell, Linear, Mlp};
use simsub::rl::{DqnAgent, DqnConfig};
use simsub::trajectory::Trajectory;

fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fold_f64(values: &[f64]) -> u64 {
    fold(values.iter().map(|v| v.to_bits()))
}

fn corpus() -> Vec<Trajectory> {
    generate(&DatasetSpec::porto(), 60, 24)
}

fn trained_t2vec(corpus: &[Trajectory]) -> T2Vec {
    let cfg = T2VecConfig {
        steps: 20,
        seed: 24,
        ..T2VecConfig::default()
    };
    T2Vec::train(&corpus[..24], &cfg).0
}

fn train(measure: &dyn Measure, corpus: &[Trajectory], mdp: MdpConfig) -> TrainReport {
    let mut cfg = RlsTrainConfig::paper(mdp, 20);
    cfg.seed = 24;
    cfg.validation_pairs = 6;
    cfg.validate_every = 5;
    // Queries are short slices so a with-suffix episode stays cheap.
    let queries: Vec<Trajectory> = corpus[24..36]
        .iter()
        .map(|t| Trajectory::new_unchecked(t.id, t.points()[..12].to_vec()))
        .collect();
    train_rls(measure, &corpus[..24], &queries, &cfg)
}

/// Q-values on a small grid of states plus the run's counters.
fn report_checksum(report: &TrainReport) -> u64 {
    let dim = report.policy.state_dim();
    let mut words = vec![report.transitions as u64, report.final_loss.to_bits()];
    for i in 0..5 {
        let state: Vec<f64> = (0..dim).map(|c| 0.1 + 0.2 * ((i + c) % 5) as f64).collect();
        words.extend(report.policy.q_values(&state).iter().map(|q| q.to_bits()));
    }
    fold(words)
}

fn hits_checksum(hits: &[TopKResult]) -> u64 {
    fold(hits.iter().flat_map(|h| {
        [
            h.trajectory_id,
            h.result.range.start as u64,
            h.result.range.end as u64,
            h.result.similarity.to_bits(),
        ]
    }))
}

#[track_caller]
fn pinned(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: tree produces {got:#018x}, recorded {want:#018x}"
    );
}

#[test]
fn t2vec_embeddings_are_pinned() {
    let corpus = corpus();
    let probe = corpus[40].points();
    let random = T2Vec::random(24, 16, CoordNormalizer::from_corpus(&corpus));
    pinned(
        "random t2vec embedding",
        fold_f64(&random.encode(probe)),
        0xf903_340b_462b_4ed3,
    );
    pinned(
        "20-step trained t2vec embedding",
        fold_f64(&trained_t2vec(&corpus).encode(probe)),
        0xa869_3d58_0fe4_1103,
    );
}

/// The saved bytes of seeded models, recorded before the networks' weights
/// moved to the column-major layout the forward pass reads: the file format
/// is row-major and must not follow the in-memory layout. A round trip
/// alone passes whatever the format is.
#[test]
fn saved_model_bytes_are_pinned() {
    let bytes = |saved: &[u8]| fold(saved.iter().map(|&b| u64::from(b)));
    let mut rng = StdRng::seed_from_u64(47);
    let linear = Linear::new(&mut rng, 3, 5);
    let mlp = Mlp::new(
        &mut rng,
        &[3, 20, 4],
        &[Activation::Relu, Activation::Sigmoid],
    );
    let cell = GruCell::new(&mut rng, 2, 5);
    pinned(
        "seeded Linear bytes",
        bytes(&linear.to_bytes()),
        0x921c_75db_3559_07d0,
    );
    pinned(
        "seeded Mlp bytes",
        bytes(&mlp.to_bytes()),
        0x57d6_a1d4_3e26_a372,
    );
    pinned(
        "seeded GruCell bytes",
        bytes(&cell.to_bytes()),
        0x2903_b30b_f12b_3aa6,
    );
    let policy = DqnAgent::new(DqnConfig::paper(3, 4)).policy();
    pinned(
        "seeded Policy bytes",
        bytes(&policy.to_bytes()),
        0x4fe7_9f65_2d21_88cd,
    );
    let corpus = corpus();
    let random = T2Vec::random(24, 16, CoordNormalizer::from_corpus(&corpus));
    pinned(
        "random T2Vec bytes",
        bytes(&random.to_bytes()),
        0x1b8d_f99b_31bb_517c,
    );
    pinned(
        "20-step trained T2Vec bytes",
        bytes(&trained_t2vec(&corpus).to_bytes()),
        0x8edc_1981_152b_9a2b,
    );
}

#[test]
fn rls_training_runs_are_pinned() {
    let corpus = corpus();
    let t2vec = trained_t2vec(&corpus);
    let no_suffix = MdpConfig {
        skip_actions: 0,
        use_suffix: false,
    };
    pinned(
        "t2vec RLS (no suffix) training",
        report_checksum(&train(&t2vec, &corpus, no_suffix)),
        0xc344_b848_7df7_fe9f,
    );
    pinned(
        "DTW RLS training",
        report_checksum(&train(&Dtw, &corpus, MdpConfig::rls())),
        0xc6e7_86c2_67f0_3a06,
    );
    pinned(
        "DTW RLS-Skip(3) training",
        report_checksum(&train(&Dtw, &corpus, MdpConfig::rls_skip(3))),
        0x2cfe_d18b_5a6b_03a6,
    );
}

#[test]
fn rls_top5_answers_are_pinned() {
    let corpus = corpus();
    let db = TrajectoryDb::build(corpus.clone());
    let outside = generate(&DatasetSpec::porto(), 1, 25);
    let query = &outside[0].points()[5..21];
    let t2vec = trained_t2vec(&corpus);
    let no_suffix = MdpConfig {
        skip_actions: 0,
        use_suffix: false,
    };

    // The trained policies of `rls_training_runs_are_pinned`.
    let cases: [(&dyn Measure, MdpConfig, u64); 3] = [
        (&t2vec, no_suffix, 0x2d3b_fe09_40e3_4a45),
        (&Dtw, MdpConfig::rls(), 0x229f_282b_a9d2_aab9),
        (&Dtw, MdpConfig::rls_skip(3), 0x229f_282b_a9d2_aab9),
    ];
    for (measure, mdp, want) in cases {
        let rls = Rls::new(train(measure, &corpus, mdp).policy, mdp);
        let hits = db.top_k(&rls, measure, query, 5, false);
        assert_eq!(hits.len(), 5);
        let name = format!("trained {} {} top-5", measure.name(), mdp.algorithm_name());
        pinned(&name, hits_checksum(&hits), want);
    }

    // Twenty episodes leave a policy that splits almost everywhere, so the
    // walk itself is pinned with untrained networks whose seeds were
    // picked for mixing every action the MDP has: continue, split and
    // (under RLS-Skip) skips all occur in each corpus walk below.
    let cases: [(&dyn Measure, MdpConfig, u64, u64); 3] = [
        (&t2vec, no_suffix, 19, 0xa497_32a5_e7ca_12d0),
        (&Dtw, MdpConfig::rls(), 4, 0x3ab4_a0aa_306a_17ca),
        (&Dtw, MdpConfig::rls_skip(3), 2, 0x2321_5893_3253_cfab),
    ];
    for (measure, mdp, seed, want) in cases {
        let mut dqn = DqnConfig::paper(mdp.state_dim(), mdp.n_actions());
        dqn.seed = seed;
        let rls = Rls::new(DqnAgent::new(dqn).policy(), mdp);
        let hits = db.top_k(&rls, measure, query, 5, false);
        assert_eq!(hits.len(), 5);
        let mut total = ScanStats::default();
        for t in &corpus {
            let stats = rls.search_with_stats(measure, t.points(), query).1;
            total.scanned += stats.scanned;
            total.skipped += stats.skipped;
            total.splits += stats.splits;
        }
        assert!(total.splits > 0 && total.splits < total.scanned);
        assert_eq!(total.skipped > 0, mdp.skip_actions > 0);
        let name = format!("untrained {} {} walk", measure.name(), mdp.algorithm_name());
        let counters = [total.scanned, total.skipped, total.splits].map(|c| c as u64);
        pinned(&name, fold([hits_checksum(&hits), fold(counters)]), want);
    }
}
