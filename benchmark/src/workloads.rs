//! The four workloads: their frozen constants, seeded inputs and set-up.
//!
//! `BENCHMARK.json` admits no free-form keys, so every constant a workload
//! is frozen at lives here. Changing one changes what the ledger measures:
//! it is a benchmark change, never part of a PR that claims a gain.

use crate::client::{run_phase, Client, Op, Pace, PhaseCtx, PhaseOut};
use crate::trace::Tracer;
use crate::util::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub_core::{ExactS, MdpConfig, Pss, Rls, RlsTrainConfig, SubtrajSearch};
use simsub_data::{generate, write_bin_file, DatasetSpec};
use simsub_index::TrajectoryDb;
use simsub_measures::{Dtw, Measure, T2Vec, T2VecConfig};
use simsub_service::{CorpusSnapshot, EngineConfig, IoModel, QueryEngine, Server};
use simsub_trajectory::{CorpusArena, Mbr, Point};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const QUERY_LEN: usize = 16;
pub const K: usize = 10;
/// Requests in flight in every closed-loop phase.
pub const WINDOW: usize = 8;
/// `(T, Tq)` pairs behind `quality_ar` / `core.quality_mr` / `core.quality_rr`.
pub const QUALITY_PAIRS: usize = 128;
/// Data-trajectory prefix length of a quality pair: the brute-force oracle
/// is cubic in it.
pub const QUALITY_DATA_LEN: usize = 40;
/// Responses compared bit-for-bit against the direct library call.
pub const EXACT_SAMPLES: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdScan,
    WarmRepeat,
    ReloadChurn,
    LearnedOffline,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Exact,
    Pss,
    Rls,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureKind {
    Dtw,
    T2Vec,
}

/// How a phase draws its queries from the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Draw {
    /// Every request of the run is a different query (cache never hits).
    Distinct,
    /// Seeded uniform draws (with a pre-warmed pool: every request hits).
    Uniform,
    /// Zipf(1.0) over the pool: a hot head plus a cold tail after each purge.
    Zipf,
}

#[derive(Clone, Copy, Debug)]
pub struct Train {
    pub corpus_n: usize,
    pub t2vec_steps: usize,
    pub episodes: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub corpus_n: usize,
    pub algo: Algo,
    pub measure: MeasureKind,
    /// Distinct queries generated.
    pub pool: usize,
    pub draw: Draw,
    /// Queries per closed-loop phase (library calls per round when
    /// `wire` is false).
    pub closed_ops: usize,
    /// Queries per open-loop phase.
    pub open_ops: usize,
    /// Offered open-loop rate at reference machine speed, requests/s.
    pub open_rate: f64,
    /// A reload precedes every `cycle` queries; 0 = the workload never reloads.
    pub cycle: usize,
    /// Served over the wire (true) or called as a library (false).
    pub wire: bool,
    pub train: Option<Train>,
    /// Queries sent once in set-up so the timed phases start warm.
    pub prewarm: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdScan,
        Workload::WarmRepeat,
        Workload::ReloadChurn,
        Workload::LearnedOffline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold_scan",
            Workload::WarmRepeat => "warm_repeat",
            Workload::ReloadChurn => "reload_churn",
            Workload::LearnedOffline => "learned_offline",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self, quick: bool) -> Spec {
        let full = match self {
            // Point slabs: 6000 × ~60 × 24 B ≈ 8.6 MiB, > 2× the 4 MiB L2.
            Workload::ColdScan => Spec {
                corpus_n: 6000,
                algo: Algo::Exact,
                measure: MeasureKind::Dtw,
                pool: 0, // sized below: every request distinct
                draw: Draw::Distinct,
                closed_ops: 48,
                open_ops: 32,
                open_rate: 29.0,
                cycle: 0,
                wire: true,
                train: None,
                prewarm: 8,
            },
            Workload::WarmRepeat => Spec {
                corpus_n: 5000,
                algo: Algo::Pss,
                measure: MeasureKind::Dtw,
                pool: 512,
                draw: Draw::Uniform,
                closed_ops: 24_000,
                open_ops: 6_000,
                open_rate: 6_000.0,
                cycle: 0,
                wire: true,
                train: None,
                prewarm: 512,
            },
            Workload::ReloadChurn => Spec {
                corpus_n: 5000,
                algo: Algo::Pss,
                measure: MeasureKind::Dtw,
                pool: 512,
                draw: Draw::Zipf,
                closed_ops: 240,
                open_ops: 160,
                open_rate: 180.0,
                cycle: 40,
                wire: true,
                train: None,
                prewarm: 8,
            },
            Workload::LearnedOffline => Spec {
                corpus_n: 1000,
                algo: Algo::Rls,
                measure: MeasureKind::T2Vec,
                pool: 0,
                draw: Draw::Distinct,
                closed_ops: 64,
                open_ops: 0,
                open_rate: 0.0,
                cycle: 0,
                wire: false,
                train: Some(Train {
                    corpus_n: 200,
                    t2vec_steps: 600,
                    episodes: 2000,
                }),
                prewarm: 4,
            },
        };
        let mut spec = if quick { full.quick() } else { full };
        if spec.draw == Draw::Distinct {
            // Ten rounds at most, plus the traced wire phases of a
            // library workload, the probes and the warm-up.
            spec.pool = 11 * (spec.closed_ops + spec.open_ops) + spec.prewarm + 128;
        }
        spec
    }
}

impl Spec {
    /// Tiny sizes for `--quick`: same code paths, seconds instead of minutes.
    fn quick(mut self) -> Spec {
        self.corpus_n = (self.corpus_n / 20).max(100);
        self.closed_ops = match self.draw {
            Draw::Uniform => 800,
            _ => (self.closed_ops / 4).max(self.cycle.max(16)),
        };
        self.open_ops = if self.wire {
            (self.open_ops / 8).max(self.cycle.max(16))
        } else {
            0
        };
        self.pool = self.pool.min(64);
        self.prewarm = self.prewarm.min(self.pool.max(4));
        if let Some(train) = &mut self.train {
            *train = Train {
                corpus_n: 40,
                t2vec_steps: 30,
                episodes: 60,
            };
        }
        self
    }

    pub fn algo_wire(&self) -> &'static str {
        match self.algo {
            Algo::Exact => "exact",
            Algo::Pss => "pss",
            Algo::Rls => "rls",
        }
    }

    pub fn measure_wire(&self) -> &'static str {
        match self.measure {
            MeasureKind::Dtw => "dtw",
            MeasureKind::T2Vec => "t2vec",
        }
    }
}

/// The learned measure and the policy trained against it.
pub struct Learned {
    pub t2vec: T2Vec,
    pub rls: Rls,
}

/// The system under test plus the inputs the timed phases draw from.
pub struct Sut {
    pub spec: Spec,
    /// Epoch `first_epoch + i` is served from `dbs[i % dbs.len()]`.
    pub dbs: Vec<Arc<TrajectoryDb>>,
    pub first_epoch: u64,
    /// `None` on the DTW workloads.
    pub models: Option<Learned>,
    pub queries: Vec<Vec<Point>>,
    /// Pre-rendered request bodies, one per query: everything after the id.
    pub bodies: Vec<String>,
    /// The two packed corpus files a reload alternates between.
    pub reload_paths: Vec<PathBuf>,
    pub quality: Vec<(Vec<Point>, Vec<Point>)>,
    pub engine: Arc<QueryEngine>,
    pub client: Client,
    /// Declared last: stopping the server joins the reactor, which needs
    /// the client's socket closed first.
    pub server: Server,
    /// Next unused query for `Draw::Distinct`.
    cursor: usize,
    reloads_sent: usize,
    zipf_cdf: Vec<f64>,
}

impl Sut {
    pub fn algo(&self) -> &dyn SubtrajSearch {
        match self.spec.algo {
            Algo::Exact => &ExactS,
            Algo::Pss => &Pss,
            Algo::Rls => &self.learned().rls,
        }
    }

    pub fn measure(&self) -> &dyn Measure {
        match self.spec.measure {
            MeasureKind::Dtw => &Dtw,
            MeasureKind::T2Vec => &self.learned().t2vec,
        }
    }

    /// # Panics
    /// Panics on a workload that trains nothing.
    pub fn learned(&self) -> &Learned {
        self.models
            .as_ref()
            .expect("the workload trains its models in set-up")
    }

    pub fn db_for_epoch(&self, epoch: u64) -> &TrajectoryDb {
        &self.dbs[(epoch.saturating_sub(self.first_epoch) as usize) % self.dbs.len()]
    }

    /// Draws the query indices of one phase.
    pub fn draw_queries(&mut self, rng: &mut StdRng, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| match self.spec.draw {
                Draw::Distinct => {
                    let i = self.cursor;
                    assert!(i < self.queries.len(), "distinct query pool exhausted");
                    self.cursor += 1;
                    i
                }
                Draw::Uniform => rng.gen_range(0..self.queries.len()),
                Draw::Zipf => {
                    let u: f64 = rng.gen();
                    self.zipf_cdf
                        .partition_point(|&c| c < u)
                        .min(self.queries.len() - 1)
                }
            })
            .collect()
    }

    /// The op sequence of one phase: `n` queries, a reload ahead of every
    /// `cycle` of them.
    pub fn plan(&mut self, rng: &mut StdRng, n: usize) -> Vec<Op> {
        let queries = self.draw_queries(rng, n);
        let mut ops = Vec::with_capacity(n + n / self.spec.cycle.max(1) + 1);
        for (i, q) in queries.into_iter().enumerate() {
            if self.spec.cycle > 0 && i % self.spec.cycle == 0 {
                self.reloads_sent += 1;
                ops.push(Op::Reload(self.reloads_sent % self.reload_paths.len()));
            }
            ops.push(Op::Query(q));
        }
        ops
    }

    /// Runs one wire phase over the connection.
    pub fn phase(
        &mut self,
        ops: &[Op],
        pace: Pace,
        traced: bool,
        sample_every: usize,
        tracer: Option<&mut Tracer>,
    ) -> PhaseOut {
        let ctx = PhaseCtx {
            bodies: &self.bodies,
            reload_paths: &self.reload_paths,
            dbs: &self.dbs,
            first_epoch: self.first_epoch,
        };
        run_phase(
            &mut self.client,
            &ctx,
            ops,
            pace,
            traced,
            sample_every,
            tracer,
        )
    }

    /// Stops the server and waits for every thread it owns.
    pub fn teardown(self) {
        let Sut { client, server, .. } = self;
        drop(client);
        server.stop();
        server.wait();
    }
}

fn render_body(spec: &Spec, query: &[Point]) -> String {
    let points: Vec<String> = query.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    format!(
        ",\"query\":[{}],\"algo\":\"{}\",\"measure\":\"{}\",\"k\":{K},\"index\":true}}",
        points.join(","),
        spec.algo_wire(),
        spec.measure_wire()
    )
}

/// Cuts `n` distinct `QUERY_LEN`-point windows out of donor trajectories
/// generated from another seed than the corpus, so no query is embedded
/// in a data trajectory.
fn cut_queries(n: usize, seed: u64) -> Vec<Vec<Point>> {
    let donors = generate(&DatasetSpec::porto(), n.clamp(64, 2048), seed);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let d = rng.gen_range(0..donors.len());
        let pts = donors[d].points();
        let start = rng.gen_range(0..=pts.len() - QUERY_LEN);
        if seen.insert((d, start)) {
            out.push(pts[start..start + QUERY_LEN].to_vec());
        }
    }
    out
}

/// Candidates cut per query kept, and strata a stretch of the pool spans.
const OVERSAMPLE: usize = 4;
const STRATA: usize = 16;

/// Picks `pool` of the `OVERSAMPLE × pool` candidate queries so that the
/// pool, and every stretch of `STRATA` consecutive queries in it, carries
/// the same mix of cheap and expensive queries under every seed.
///
/// A query's cost is set by how many data points its R-tree candidates
/// hold, and that varies several-fold between queries. Drawn at random,
/// the mean cost of a round's few dozen queries moved more between seeds
/// than the machine noise did. So the candidates are ranked by that
/// count, every `OVERSAMPLE`-th is kept (systematic sampling of the cost
/// distribution), and the kept ones are dealt round-robin over `STRATA`
/// cost strata. The queries stay what the workload says they are; only
/// which of them a seed gets is steadier.
fn balanced_pool(candidates: Vec<Vec<Point>>, db: &TrajectoryDb, pool: usize) -> Vec<Vec<Point>> {
    let mut ranked: Vec<(usize, Vec<Point>)> = candidates
        .into_iter()
        .map(|q| {
            let scanned = db
                .candidates(&Mbr::of_points(&q))
                .iter()
                .map(|v| v.len())
                .sum();
            (scanned, q)
        })
        .collect();
    ranked.sort_by_key(|(scanned, _)| *scanned);
    let mut kept: Vec<Option<Vec<Point>>> = ranked
        .into_iter()
        .step_by(OVERSAMPLE)
        .take(pool)
        .map(|(_, q)| Some(q))
        .collect();
    let per_stratum = kept.len().div_ceil(STRATA);
    (0..per_stratum * STRATA)
        .filter_map(|i| {
            kept.get_mut((i % STRATA) * per_stratum + i / STRATA)?
                .take()
        })
        .collect()
}

/// The learned models are a fixture: trained in every set-up (the time is
/// part of `setup_s`) but always on the same corpus from the same seeds.
/// DQN training this short is a lottery over initialisations — across run
/// seeds the approximate ratio ranged from 1.04 to 1.76 — so a policy
/// that follows the run seed would make `quality_ar` noise. Frozen, it
/// moves only when the training or search code does.
const TRAINING_SEED: u64 = 2020;

fn train_models(train: Train) -> Learned {
    let seed = TRAINING_SEED;
    let corpus = generate(&DatasetSpec::porto(), train.corpus_n, derive_seed(seed, 4));
    let (t2vec, _) = T2Vec::train(
        &corpus,
        &T2VecConfig {
            steps: train.t2vec_steps,
            seed: derive_seed(seed, 5),
            ..T2VecConfig::default()
        },
    );
    // The paper drops the suffix component of the state under t2vec.
    let mdp = MdpConfig {
        skip_actions: 0,
        use_suffix: false,
    };
    let mut cfg = RlsTrainConfig::paper(mdp, train.episodes);
    cfg.seed = derive_seed(seed, 6);
    cfg.dqn.seed = derive_seed(seed, 7);
    let report = simsub_core::train_rls(&t2vec, &corpus, &corpus, &cfg);
    Learned {
        rls: Rls::new(report.policy, mdp),
        t2vec,
    }
}

/// The snapshot an engine serves `db` from, with the models when the
/// workload has them.
pub fn serving_snapshot(db: &Arc<TrajectoryDb>, models: &Option<Learned>) -> CorpusSnapshot {
    let snapshot = CorpusSnapshot::new(Arc::clone(db));
    match models {
        Some(Learned { rls, t2vec }) => snapshot
            .with_rls(Rls::new(rls.policy().clone(), rls.config()))
            .with_t2vec(t2vec.clone()),
        None => snapshot,
    }
}

/// Everything from the seed to ready-to-time: generate, pack, build,
/// train, bind, connect, warm.
pub fn setup(workload: Workload, spec: Spec, seed: u64, out_dir: &Path) -> Sut {
    let porto = DatasetSpec::porto();
    let corpus_a = generate(&porto, spec.corpus_n, derive_seed(seed, 1));
    let corpus_b = (spec.cycle > 0).then(|| generate(&porto, spec.corpus_n, derive_seed(seed, 2)));
    let arena_a = CorpusArena::from_trajectories(&corpus_a);
    let db_a = TrajectoryDb::from_arena(arena_a).into_shared();
    let candidates = cut_queries(OVERSAMPLE * spec.pool, derive_seed(seed, 3));
    let queries = balanced_pool(candidates, &db_a, spec.pool);
    let bodies: Vec<String> = queries.iter().map(|q| render_body(&spec, q)).collect();

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 8));
    let quality = (0..QUALITY_PAIRS)
        .map(|_| {
            let t = corpus_a[rng.gen_range(0..corpus_a.len())].points();
            let q = &queries[rng.gen_range(0..queries.len())];
            (t[..t.len().min(QUALITY_DATA_LEN)].to_vec(), q.clone())
        })
        .collect();

    let models = spec.train.map(train_models);

    let mut reload_paths = Vec::new();
    let mut dbs = vec![db_a];
    if let Some(corpus_b) = &corpus_b {
        std::fs::create_dir_all(out_dir).expect("creating the benchmark out directory");
        dbs.push(TrajectoryDb::build(corpus_b.clone()).into_shared());
        for (tag, db) in ["a", "b"].into_iter().zip(&dbs) {
            let path = out_dir.join(format!("{}.{tag}.ssb", workload.name()));
            write_bin_file(&path, db.arena()).expect("writing a packed corpus");
            reload_paths.push(path);
        }
    }
    // The AoS corpora are construction currency only; holding them would
    // double the resident set the ledger reports.
    drop((corpus_a, corpus_b));

    let snapshot = serving_snapshot(&dbs[0], &models);
    // One worker: the box has two cores, so the system under test and the
    // load generator get one each (2 workers + 2 connections was unstable).
    let engine = Arc::new(QueryEngine::start(
        snapshot,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    ));
    let first_epoch = engine.epoch();
    let server = Server::bind_with(Arc::clone(&engine), "127.0.0.1:0", IoModel::Reactor)
        .expect("binding the in-process server");
    let client = Client::connect(server.local_addr()).expect("connecting to the in-process server");

    let weights: Vec<f64> = (0..queries.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let zipf_cdf = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    let mut sut = Sut {
        spec,
        dbs,
        first_epoch,
        models,
        queries,
        bodies,
        reload_paths,
        quality,
        engine,
        client,
        server,
        cursor: 0,
        reloads_sent: 0,
        zipf_cdf,
    };
    sut.warm();
    sut
}

impl Sut {
    /// Faults in threads, buffers and (for a pre-warmed pool) the cache.
    fn warm(&mut self) {
        self.client.ping().expect("warm-up ping");
        let n = self.spec.prewarm;
        let ops: Vec<Op> = if self.spec.draw == Draw::Distinct {
            let mut rng = StdRng::seed_from_u64(0);
            self.draw_queries(&mut rng, n)
                .into_iter()
                .map(Op::Query)
                .collect()
        } else {
            (0..n.min(self.queries.len())).map(Op::Query).collect()
        };
        let out = self.phase(&ops, Pace::Closed, false, 0, None);
        assert_eq!(
            out.failed, 0,
            "warm-up request failed: {:?}",
            out.first_error
        );
    }
}
