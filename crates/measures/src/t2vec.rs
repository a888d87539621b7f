//! A learned, data-driven trajectory similarity measure in the spirit of
//! t2vec (Li et al., ICDE 2018), built on the from-scratch GRU of
//! `simsub-nn`.
//!
//! # Substitution note
//!
//! The original t2vec trains a GRU seq2seq autoencoder over discretized
//! grid-cell tokens with a spatially-smoothed NLL, in PyTorch on a GPU.
//! Neither a tensor library nor the authors' pretrained weights are
//! available offline, so this module implements the closest synthetic
//! equivalent that preserves everything the SimSub algorithms observe:
//!
//! - an **encoder** mapping a trajectory to a fixed-size vector in `O(n)`,
//! - **O(1) incremental extension** (`Φinc`): appending one point is one GRU
//!   step from the cached hidden state — the property Table 1 relies on,
//! - similarity as a monotone transform of the **Euclidean distance between
//!   embedding vectors**,
//! - the **robustness-to-resampling** training signal t2vec targets: the
//!   encoder is trained with a triplet loss that pulls a trajectory and its
//!   downsampled/noised variant together and pushes random other
//!   trajectories apart.
//!
//! An untrained (randomly initialized) encoder is also usable — a random
//! GRU is a nonlinear random projection that already separates
//! trajectories — which keeps unit tests fast; experiment harnesses train
//! a real model.

use crate::{similarity_from_distance, Measure, PrefixEvaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simsub_nn::{squared_distance, Adam, GruCache, GruCell, GruGrads, GruScratch};
use simsub_trajectory::{Mbr, Point, Trajectory};

/// Affine normalization of raw coordinates into roughly `[-1, 1]²`, fitted
/// on the training corpus. GRUs need bounded inputs; city coordinates are
/// in arbitrary metric units.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CoordNormalizer {
    /// Center of the fitted extent (x).
    pub center_x: f64,
    /// Center of the fitted extent (y).
    pub center_y: f64,
    /// Uniform scale mapping the extent into `[-1, 1]`.
    pub scale: f64,
}

impl CoordNormalizer {
    /// Identity normalization (inputs already in unit scale).
    pub fn identity() -> Self {
        Self {
            center_x: 0.0,
            center_y: 0.0,
            scale: 1.0,
        }
    }

    /// Fits the normalizer on a bounding rectangle.
    pub fn from_mbr(mbr: Mbr) -> Self {
        if mbr.is_empty() {
            return Self::identity();
        }
        let w = (mbr.max_x - mbr.min_x).max(1e-9);
        let h = (mbr.max_y - mbr.min_y).max(1e-9);
        Self {
            center_x: (mbr.min_x + mbr.max_x) / 2.0,
            center_y: (mbr.min_y + mbr.max_y) / 2.0,
            scale: 2.0 / w.max(h),
        }
    }

    /// Fits on the union MBR of a corpus.
    pub fn from_corpus(corpus: &[Trajectory]) -> Self {
        let mbr = corpus.iter().fold(Mbr::EMPTY, |acc, t| acc.union(t.mbr()));
        Self::from_mbr(mbr)
    }

    /// Normalized GRU input features for one point.
    #[inline]
    pub fn features(&self, p: Point) -> [f64; 2] {
        [
            (p.x - self.center_x) * self.scale,
            (p.y - self.center_y) * self.scale,
        ]
    }
}

/// Training hyperparameters for the learned measure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T2VecConfig {
    /// GRU hidden size (= embedding dimensionality).
    pub hidden_dim: usize,
    /// Number of triplet gradient steps.
    pub steps: usize,
    /// Triplets per gradient step (minibatch size).
    pub batch_size: usize,
    /// Adam learning rate (paper's default 0.001).
    pub learning_rate: f64,
    /// Triplet margin on squared embedding distances.
    pub margin: f64,
    /// Probability of dropping each interior point of the positive variant.
    pub downsample_rate: f64,
    /// Gaussian noise (in normalized coordinate units) added to positives.
    pub noise_std: f64,
    /// RNG seed; the whole training run is deterministic given the seed.
    pub seed: u64,
}

impl Default for T2VecConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 16,
            steps: 400,
            batch_size: 8,
            learning_rate: 0.001,
            margin: 0.5,
            downsample_rate: 0.3,
            noise_std: 0.01,
            seed: 2020,
        }
    }
}

/// The learned measure: a GRU encoder plus coordinate normalization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T2Vec {
    cell: GruCell,
    norm: CoordNormalizer,
}

impl simsub_nn::BinaryCodec for T2Vec {
    fn encode(&self, enc: &mut simsub_nn::Encoder) {
        // Fully qualified: `GruCell::encode` is the sequence encoder.
        simsub_nn::BinaryCodec::encode(&self.cell, enc);
        enc.put_f64(self.norm.center_x);
        enc.put_f64(self.norm.center_y);
        enc.put_f64(self.norm.scale);
    }

    fn decode(dec: &mut simsub_nn::Decoder) -> Result<Self, simsub_nn::CodecError> {
        let cell = <GruCell as simsub_nn::BinaryCodec>::decode(dec)?;
        // Every step feeds the cell one normalized (x, y) pair; a cell of
        // another width would load, then fail its first embedding.
        if cell.in_dim() != 2 {
            return Err(simsub_nn::CodecError::DimensionMismatch {
                expected: 2,
                found: cell.in_dim() as u64,
            });
        }
        let norm = CoordNormalizer {
            center_x: dec.get_f64()?,
            center_y: dec.get_f64()?,
            scale: dec.get_f64()?,
        };
        Ok(Self { cell, norm })
    }
}

impl T2Vec {
    /// Randomly initialized encoder (untrained nonlinear random
    /// projection). Deterministic for a given seed.
    pub fn random(seed: u64, hidden_dim: usize, norm: CoordNormalizer) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            cell: GruCell::new(&mut rng, 2, hidden_dim),
            norm,
        }
    }

    /// Trains an encoder on a corpus with the triplet objective described
    /// in the module docs. Returns the trained measure and the final
    /// training diagnostic (fraction of triplets already separated by the
    /// margin, measured on the last 100 sampled triplets).
    pub fn train(corpus: &[Trajectory], cfg: &T2VecConfig) -> (Self, f64) {
        assert!(
            corpus.len() >= 2,
            "need at least two trajectories to form triplets"
        );
        let norm = CoordNormalizer::from_corpus(corpus);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut cell = GruCell::new(&mut rng, 2, cfg.hidden_dim);
        let mut adam = Adam::new(cfg.learning_rate);
        let mut grads = GruGrads::zeros(&cell);

        // Pre-extract normalized feature sequences once.
        let feats: Vec<Vec<[f64; 2]>> = corpus
            .iter()
            .map(|t| t.points().iter().map(|&p| norm.features(p)).collect())
            .collect();
        // Held across triplets and sized for the longest sequence up front,
        // so a gradient step allocates nothing.
        let longest = feats.iter().map(Vec::len).max().unwrap_or(0);
        let mut positive = Vec::with_capacity(longest);
        let mut caches: [GruCache; 3] = Default::default();
        for cache in &mut caches {
            cache.reserve(&cell, longest);
        }
        let [ca, cp, cn] = &mut caches;
        let (mut ha, mut hp, mut hn) = (
            cell.initial_state(),
            cell.initial_state(),
            cell.initial_state(),
        );
        let mut dh = cell.initial_state();

        let mut recent_ok = std::collections::VecDeque::with_capacity(100);
        for _ in 0..cfg.steps {
            grads.zero();
            let mut batch_used = 0usize;
            for _ in 0..cfg.batch_size {
                let ai = rng.gen_range(0..feats.len());
                let mut ni = rng.gen_range(0..feats.len());
                if ni == ai {
                    ni = (ni + 1) % feats.len();
                }
                let anchor = &feats[ai];
                distort_into(anchor, cfg, &mut rng, &mut positive);
                let negative = &feats[ni];

                encode_cached(&cell, anchor, &mut ha, ca);
                encode_cached(&cell, &positive, &mut hp, cp);
                encode_cached(&cell, negative, &mut hn, cn);

                let d_ap = squared_distance(&ha, &hp);
                let d_an = squared_distance(&ha, &hn);
                let separated = d_ap + cfg.margin <= d_an;
                if recent_ok.len() == 100 {
                    recent_ok.pop_front();
                }
                recent_ok.push_back(separated);
                if separated {
                    continue; // loss is zero; no gradient
                }
                batch_used += 1;
                // L = d_ap - d_an + margin (active branch).
                for i in 0..dh.len() {
                    dh[i] = 2.0 * (hn[i] - hp[i]);
                }
                cell.backward(ca, &dh, &mut grads);
                for i in 0..dh.len() {
                    dh[i] = -2.0 * (ha[i] - hp[i]);
                }
                cell.backward(cp, &dh, &mut grads);
                for i in 0..dh.len() {
                    dh[i] = 2.0 * (ha[i] - hn[i]);
                }
                cell.backward(cn, &dh, &mut grads);
            }
            if batch_used > 0 {
                grads.scale(1.0 / batch_used as f64);
                cell.apply_grads(&grads, &mut adam);
            }
        }
        let sep = if recent_ok.is_empty() {
            0.0
        } else {
            recent_ok.iter().filter(|&&b| b).count() as f64 / recent_ok.len() as f64
        };
        (Self { cell, norm }, sep)
    }

    /// Encodes a trajectory into its embedding vector in `O(n)`.
    pub fn encode(&self, points: &[Point]) -> Vec<f64> {
        let mut h = self.cell.initial_state();
        self.encode_into(points, &mut h, &mut GruScratch::default());
        h
    }

    /// Rolls `h` forward over `points`, one GRU step each.
    fn encode_into(&self, points: &[Point], h: &mut [f64], scratch: &mut GruScratch) {
        for &p in points {
            self.cell.step_with(h, &self.norm.features(p), scratch);
        }
    }

    /// Embedding dimensionality.
    pub fn embedding_dim(&self) -> usize {
        self.cell.hidden_dim()
    }

    /// The coordinate normalizer in use.
    pub fn normalizer(&self) -> CoordNormalizer {
        self.norm
    }
}

/// Rolls `h` from the zero state over `feats`, recording every step in
/// `cache` (emptied first) for BPTT.
fn encode_cached(cell: &GruCell, feats: &[[f64; 2]], h: &mut [f64], cache: &mut GruCache) {
    h.fill(0.0);
    cache.clear();
    for f in feats {
        cell.step_cached(h, f, cache);
    }
}

/// Downsamples and perturbs a feature sequence into `out`: the "positive"
/// variant of the triplet objective, mirroring t2vec's
/// robustness-to-sampling-rate training signal. First and last points are
/// always kept so the variant covers the same extent.
fn distort_into(feats: &[[f64; 2]], cfg: &T2VecConfig, rng: &mut StdRng, out: &mut Vec<[f64; 2]>) {
    out.clear();
    let last = feats.len() - 1;
    for (i, f) in feats.iter().enumerate() {
        let keep = i == 0 || i == last || rng.gen::<f64>() >= cfg.downsample_rate;
        if keep {
            let noise = |rng: &mut StdRng| {
                // Box-Muller for a cheap normal sample.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen::<f64>();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            out.push([
                f[0] + cfg.noise_std * noise(rng),
                f[1] + cfg.noise_std * noise(rng),
            ]);
        }
    }
}

impl Measure for T2Vec {
    fn name(&self) -> &'static str {
        "t2vec"
    }

    fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        squared_distance(&self.encode(a), &self.encode(b)).sqrt()
    }

    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_> {
        Box::new(T2VecEvaluator::new(self, query))
    }
    // `distance_aggregate` stays `None`: embedding distance is not a
    // monotone function of pointwise distances, so no admissible MBR
    // bound exists and the corpus scan never prunes under t2vec.
}

/// Incremental t2vec evaluator: caches the query embedding once
/// (amortized, per Section 3.2) and extends the data-side hidden state one
/// GRU step per point — `Φini = Φinc = O(1)` in the trajectory length,
/// on activations it owns, so neither allocates.
pub(crate) struct T2VecEvaluator<'a> {
    measure: &'a T2Vec,
    /// Pre-computed query embedding.
    query_embedding: Vec<f64>,
    /// Hidden state of the current subtrajectory.
    h: Vec<f64>,
    scratch: GruScratch,
    initialized: bool,
}

impl<'a> T2VecEvaluator<'a> {
    /// Creates an evaluator, paying the `O(m)` query encoding once.
    pub(crate) fn new(measure: &'a T2Vec, query: &[Point]) -> Self {
        let mut eval = Self {
            measure,
            query_embedding: measure.cell.initial_state(),
            h: measure.cell.initial_state(),
            scratch: GruScratch::default(),
            initialized: false,
        };
        eval.reset(query);
        eval
    }

    /// Appends `p` to the current subtrajectory.
    fn advance(&mut self, p: Point) {
        self.measure
            .encode_into(&[p], &mut self.h, &mut self.scratch);
    }
}

impl PrefixEvaluator for T2VecEvaluator<'_> {
    fn init(&mut self, p: Point) -> f64 {
        self.h.fill(0.0);
        self.advance(p);
        self.initialized = true;
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        self.advance(p);
        self.similarity()
    }

    fn similarity(&self) -> f64 {
        similarity_from_distance(self.distance())
    }

    fn distance(&self) -> f64 {
        if self.initialized {
            squared_distance(&self.h, &self.query_embedding).sqrt()
        } else {
            f64::INFINITY
        }
    }

    fn reset(&mut self, query: &[Point]) {
        assert!(!query.is_empty(), "query must be non-empty");
        // Re-encode the new query into the existing embedding buffer.
        self.query_embedding.fill(0.0);
        self.measure
            .encode_into(query, &mut self.query_embedding, &mut self.scratch);
        self.h.fill(0.0);
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn traj(id: u64, coords: &[(f64, f64)]) -> Trajectory {
        let points = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(x, y, i as f64))
            .collect();
        Trajectory::new(id, points).unwrap()
    }

    fn wiggle(seed: u64, len: usize, offset: f64) -> Trajectory {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = offset;
        let mut y = offset;
        let pts: Vec<(f64, f64)> = (0..len)
            .map(|_| {
                x += rng.gen_range(-1.0..1.0);
                y += rng.gen_range(-1.0..1.0);
                (x, y)
            })
            .collect();
        traj(seed, &pts)
    }

    #[test]
    fn normalizer_maps_corpus_into_unit_box() {
        let corpus = vec![wiggle(1, 30, 0.0), wiggle(2, 30, 100.0)];
        let norm = CoordNormalizer::from_corpus(&corpus);
        for t in &corpus {
            for &p in t.points() {
                let f = norm.features(p);
                assert!(f[0].abs() <= 1.0 + 1e-9 && f[1].abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn distance_zero_on_self_and_symmetric() {
        let m = T2Vec::random(3, 8, CoordNormalizer::identity());
        let a = traj(0, &[(0.0, 0.0), (0.5, 0.5), (1.0, 0.2)]);
        let b = traj(1, &[(0.2, -0.3), (0.9, 0.1)]);
        assert_eq!(m.distance(a.points(), a.points()), 0.0);
        let ab = m.distance(a.points(), b.points());
        let ba = m.distance(b.points(), a.points());
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0);
    }

    #[test]
    fn evaluator_matches_full_encoding() {
        let m = T2Vec::random(5, 8, CoordNormalizer::identity());
        let a = traj(0, &[(0.1, 0.2), (0.3, -0.1), (-0.2, 0.4), (0.0, 0.0)]);
        let q = traj(1, &[(0.0, 0.1), (0.2, 0.2)]);
        let mut eval = T2VecEvaluator::new(&m, q.points());
        for start in 0..a.len() {
            eval.init(a.points()[start]);
            for end in start..a.len() {
                if end > start {
                    eval.extend(a.points()[end]);
                }
                let full = m.distance(&a.points()[start..=end], q.points());
                assert!(
                    (eval.distance() - full).abs() < 1e-9,
                    "start={start} end={end}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let corpus: Vec<Trajectory> = (0..6).map(|i| wiggle(i, 20, i as f64)).collect();
        let cfg = T2VecConfig {
            steps: 20,
            ..Default::default()
        };
        let (m1, s1) = T2Vec::train(&corpus, &cfg);
        let (m2, s2) = T2Vec::train(&corpus, &cfg);
        assert_eq!(s1, s2);
        let probe = wiggle(99, 15, 2.0);
        assert_eq!(m1.encode(probe.points()), m2.encode(probe.points()));
    }

    #[test]
    fn trained_measure_separates_variants_without_collapsing() {
        // After training, a trajectory must be closer to its heavily
        // downsampled variant than to a random other trajectory, and the
        // embedding space must not collapse (anchor-negative distances
        // stay well above anchor-positive distances on average).
        let corpus: Vec<Trajectory> = (0..24).map(|i| wiggle(i, 40, 0.0)).collect();

        let stats = |m: &T2Vec| -> (f64, f64, f64) {
            let mut rng = StdRng::seed_from_u64(777);
            let mut ok = 0;
            let (mut sum_ap, mut sum_an) = (0.0, 0.0);
            let trials = 200;
            for _ in 0..trials {
                let ai = rng.gen_range(0..corpus.len());
                let mut ni = rng.gen_range(0..corpus.len());
                if ni == ai {
                    ni = (ni + 1) % corpus.len();
                }
                // Positive: keep every third point (aggressive resampling).
                let pos: Vec<Point> = corpus[ai].points().iter().step_by(3).copied().collect();
                let d_ap = m.distance(corpus[ai].points(), &pos);
                let d_an = m.distance(corpus[ai].points(), corpus[ni].points());
                sum_ap += d_ap;
                sum_an += d_an;
                if d_ap < d_an {
                    ok += 1;
                }
            }
            (
                ok as f64 / trials as f64,
                sum_ap / trials as f64,
                sum_an / trials as f64,
            )
        };

        let cfg = T2VecConfig {
            steps: 250,
            ..Default::default()
        };
        let (trained, final_sep) = T2Vec::train(&corpus, &cfg);
        let (acc, mean_ap, mean_an) = stats(&trained);
        assert!(acc >= 0.9, "triplet accuracy too low after training: {acc}");
        assert!(
            mean_an > 2.0 * mean_ap,
            "embedding space collapsed: d_ap={mean_ap}, d_an={mean_an}"
        );
        assert!(
            final_sep >= 0.5,
            "training separation diagnostic too low: {final_sep}"
        );
    }

    #[test]
    fn binary_roundtrip_preserves_distances() {
        use simsub_nn::BinaryCodec;
        let corpus = vec![wiggle(1, 20, 0.0), wiggle(2, 25, 5.0)];
        let norm = CoordNormalizer::from_corpus(&corpus);
        let m = T2Vec::random(9, 12, norm);
        let back = T2Vec::from_bytes(&m.to_bytes()).unwrap();
        let d1 = m.distance(corpus[0].points(), corpus[1].points());
        let d2 = back.distance(corpus[0].points(), corpus[1].points());
        assert_eq!(d1, d2);
        assert_eq!(back.embedding_dim(), 12);
    }

    #[test]
    fn model_file_with_a_hostile_gru_header_fails_to_load() {
        use simsub_nn::BinaryCodec;
        // A GRU header whose two in-range dimensions describe a cell of
        // 2^44 parameters, none of them present, then a normalizer.
        let mut enc = simsub_nn::Encoder::new();
        enc.put_u64(1);
        enc.put_u64(1 << 22);
        enc.put_f64_slice(&[]);
        for v in [0.0, 0.0, 1.0] {
            enc.put_f64(v);
        }
        let bytes = enc.finish();
        assert_eq!(
            T2Vec::from_bytes(&bytes).err(),
            Some(simsub_nn::CodecError::InvalidDimension(0))
        );
        let dir = std::env::temp_dir().join(format!("simsub-t2vec-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.t2v");
        std::fs::write(&path, &bytes).unwrap();
        let err = T2Vec::load(&path).expect_err("a hostile header must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_t2vec_file_is_not_a_gru_file() {
        use simsub_nn::{BinaryCodec, CodecError};
        // The cell's record is a prefix of the file; the normalizer's three
        // values behind it must not be dropped silently.
        let m = T2Vec::random(5, 4, CoordNormalizer::identity());
        let saved = m.to_bytes();
        assert_eq!(
            GruCell::from_bytes(&saved).err(),
            Some(CodecError::TrailingBytes(24))
        );
        let mut appended = saved.to_vec();
        appended.push(0);
        assert_eq!(
            T2Vec::from_bytes(&appended).err(),
            Some(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn model_file_whose_gru_is_not_two_wide_fails_to_load() {
        use simsub_nn::{BinaryCodec, CodecError};
        // Each step feeds the cell two features, (x, y).
        let cell = GruCell::new(&mut StdRng::seed_from_u64(4), 3, 4);
        let norm = CoordNormalizer::identity();
        let err = T2Vec::from_bytes(&T2Vec { cell, norm }.to_bytes()).expect_err("3 inputs");
        let mismatch = CodecError::DimensionMismatch {
            expected: 2,
            found: 3,
        };
        assert_eq!(err, mismatch);
        assert_eq!(err.to_string(), "model has input dimension 3, expected 2");
    }

    #[test]
    fn empty_inputs_infinite_distance() {
        let m = T2Vec::random(1, 4, CoordNormalizer::identity());
        let a = traj(0, &[(0.0, 0.0)]);
        assert!(m.distance(a.points(), &[]).is_infinite());
        assert!(m.distance(&[], a.points()).is_infinite());
    }

    #[test]
    fn hidden_state_is_an_embedding_dim_vector_in_the_unit_cube() {
        let m = T2Vec::random(11, 6, CoordNormalizer::identity());
        let h = m.encode(wiggle(4, 50, 0.0).points());
        assert_eq!(h.len(), m.embedding_dim());
        assert_eq!(m.embedding_dim(), 6);
        // Each GRU step mixes the previous state with a tanh candidate.
        assert!(h.iter().all(|v| v.abs() <= 1.0), "{h:?}");
        assert!(h.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn normalizer_of_an_empty_extent_is_the_identity() {
        let norm = CoordNormalizer::from_mbr(Mbr::EMPTY);
        assert_eq!(norm.features(Point::xy(3.5, -2.0)), [3.5, -2.0]);
        assert_eq!(CoordNormalizer::from_corpus(&[]).scale, 1.0);
    }

    #[test]
    fn normalizer_maps_the_longer_side_onto_minus_one_to_one() {
        let mbr = Mbr::of_points(&[Point::xy(0.0, 0.0), Point::xy(4.0, 2.0)]);
        let norm = CoordNormalizer::from_mbr(mbr);
        assert_eq!(norm.features(Point::xy(0.0, 0.0)), [-1.0, -0.5]);
        assert_eq!(norm.features(Point::xy(4.0, 2.0)), [1.0, 0.5]);
        assert_eq!(norm.features(Point::xy(2.0, 1.0)), [0.0, 0.0]);
    }

    #[test]
    fn normalizer_of_a_single_point_stays_finite() {
        let p = Point::xy(7.0, -3.0);
        let norm = CoordNormalizer::from_mbr(Mbr::of_point(p));
        assert!(norm.scale.is_finite());
        assert_eq!(norm.features(p), [0.0, 0.0]);
        let f = norm.features(Point::xy(7.0 + 1e-12, -3.0));
        assert!(f[0] > 0.0 && f[0].is_finite());
    }

    #[test]
    fn has_no_pruning_bound_and_no_exact_kernel() {
        // Embedding distance is no function of point distances: scans
        // never prune under t2vec and run the scalar sweep.
        let m = T2Vec::random(7, 6, CoordNormalizer::identity());
        assert_eq!(m.name(), "t2vec");
        assert_eq!(m.distance_aggregate(), None);
        let a = traj(0, &[(0.1, 0.2), (0.3, -0.1), (-0.2, 0.4)]);
        let q = traj(1, &[(0.0, 0.1), (0.2, 0.2)]);
        let (xs, ys): (Vec<f64>, Vec<f64>) = a.points().iter().map(|p| (p.x, p.y)).unzip();
        let ts = vec![0.0; xs.len()];
        let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
        let mut scratch = crate::DpScratch::default();
        assert!(m.exact_best(view, q.points(), &mut scratch).is_none());
        let ws = m.make_workspace(q.points());
        assert_eq!(ws.fill_cell_rows(&xs, &ys, &ts, &mut Vec::new()), None);
    }

    #[test]
    fn evaluator_is_infinite_until_init_and_after_reset() {
        let m = T2Vec::random(2, 5, CoordNormalizer::identity());
        let q = traj(0, &[(0.0, 0.1), (0.2, 0.2)]);
        let mut ws = m.make_workspace(q.points());
        assert!(ws.distance().is_infinite());
        assert_eq!(ws.similarity(), 0.0);
        let sim = ws.init(Point::xy(0.0, 0.1));
        assert!(sim > 0.0 && sim <= 1.0);
        ws.reset(q.points());
        assert!(ws.distance().is_infinite());
    }

    #[test]
    #[should_panic(expected = "extend before init")]
    fn extend_before_init_panics() {
        let m = T2Vec::random(2, 5, CoordNormalizer::identity());
        let q = traj(0, &[(0.0, 0.1)]);
        let mut ws = m.make_workspace(q.points());
        ws.extend(Point::xy(0.5, 0.5));
    }

    #[test]
    #[should_panic(expected = "query must be non-empty")]
    fn reset_rejects_an_empty_query() {
        let m = T2Vec::random(2, 5, CoordNormalizer::identity());
        let q = traj(0, &[(0.0, 0.1)]);
        let mut ws = m.make_workspace(q.points());
        ws.reset(&[]);
    }

    fn arb_unit_traj(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 1..max_len)
            .prop_map(|v| v.iter().map(|&(x, y)| Point::xy(x, y)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn triangle_inequality_in_embedding_space(
            a in arb_unit_traj(10), b in arb_unit_traj(10), c in arb_unit_traj(10),
        ) {
            let m = T2Vec::random(13, 8, CoordNormalizer::identity());
            let (ab, bc, ac) = (m.distance(&a, &b), m.distance(&b, &c), m.distance(&a, &c));
            prop_assert!(ac <= ab + bc + 1e-12, "{ac} > {ab} + {bc}");
        }

        #[test]
        fn reset_equals_fresh_evaluator(
            a in arb_unit_traj(12), b in arb_unit_traj(8), c in arb_unit_traj(8),
        ) {
            // One evaluator re-targeted from query c to query b must track
            // a fresh evaluator over b bit for bit.
            let m = T2Vec::random(17, 8, CoordNormalizer::identity());
            let mut reused = m.make_workspace(&c);
            reused.init(a[0]);
            reused.reset(&b);
            let mut fresh = m.make_workspace(&b);
            prop_assert_eq!(reused.init(a[0]).to_bits(), fresh.init(a[0]).to_bits());
            for &p in &a[1..] {
                prop_assert_eq!(reused.extend(p).to_bits(), fresh.extend(p).to_bits());
            }
        }

        #[test]
        fn zero_on_self_and_a_similarity_in_the_unit_interval(
            a in arb_unit_traj(12), b in arb_unit_traj(12),
        ) {
            let m = T2Vec::random(19, 8, CoordNormalizer::identity());
            prop_assert_eq!(m.distance(&a, &a), 0.0);
            prop_assert_eq!(m.similarity(&a, &a), 1.0);
            let sim = m.similarity(&a, &b);
            prop_assert!(sim > 0.0 && sim <= 1.0, "{sim}");
        }
    }
}
