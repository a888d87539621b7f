#![warn(missing_docs)]

//! Trajectory similarity measures with incremental evaluation.
//!
//! The SimSub paper assumes an *abstract* similarity measure `Θ(·, ·)` and
//! derives algorithm complexities from three costs (Table 1):
//!
//! | cost   | meaning                                         | t2vec | DTW  | Frechet |
//! |--------|--------------------------------------------------|-------|------|---------|
//! | `Φ`    | `Θ(T', Tq)` from scratch                         | O(n+m)| O(nm)| O(nm)   |
//! | `Φinc` | `Θ(T[i,j], Tq)` from `Θ(T[i,j-1], Tq)`           | O(1)  | O(m) | O(m)    |
//! | `Φini` | `Θ(T[i,i], Tq)` from scratch                     | O(1)  | O(m) | O(m)    |
//!
//! This crate realizes that abstraction as two traits:
//!
//! - [`Measure`] — the abstract measure: distance, similarity, and a
//!   factory for incremental evaluators;
//! - [`PrefixEvaluator`] — the `Φini`/`Φinc` machine: anchored at a start
//!   point `p_i` via [`PrefixEvaluator::init`], extended point-by-point via
//!   [`PrefixEvaluator::extend`].
//!
//! Suffix similarities `Θ(T[t, n]^R, Tq^R)` (needed by PSS and the RLS
//! state) are obtained by running a prefix evaluator over the *reversed*
//! query while scanning the data trajectory backwards; for DTW and Frechet
//! this equals `Θ(T[t, n], Tq)` exactly (reversal invariance — property
//! tested), and for t2vec it is the positively-correlated approximation the
//! paper describes.
//!
//! Distances are converted to similarities by `Θ = 1 / (1 + dist)`
//! ([`similarity_from_distance`]): the paper's "ratio between 1 and a
//! distance" made total at `dist = 0`.

mod dtw;
mod frechet;
mod kernel;
mod t2vec;

pub use dtw::{dtw_distance, Dtw};
pub use frechet::{frechet_distance, Frechet};
pub use kernel::{fill_point_dists, load_query_soa, DpScratch, ExactBest};
pub use t2vec::{CoordNormalizer, T2Vec, T2VecConfig};

use simsub_trajectory::{Point, TrajView};

/// Converts a dissimilarity (distance) into the similarity used throughout
/// the search algorithms: `Θ = 1 / (1 + dist)`.
///
/// Strictly decreasing in `dist`, equal to 1 at `dist = 0`, and tending to
/// 0 as `dist → ∞`, so argmax-similarity == argmin-distance and all
/// rank-based metrics (MR, RR) are identical under either view.
#[inline]
pub fn similarity_from_distance(dist: f64) -> f64 {
    1.0 / (1.0 + dist)
}

/// Inverse of [`similarity_from_distance`].
#[inline]
pub fn distance_from_similarity(sim: f64) -> f64 {
    1.0 / sim - 1.0
}

/// How a measure's distance aggregates the per-pair point distances of an
/// alignment (warping path) between the data and query trajectories.
///
/// This is the hook the corpus-scan lower-bound cascade
/// (`simsub_core::bounds`) keys on: because every alignment matches each
/// query point to at least one data point, a `Sum` measure's distance is
/// at least the sum — and a `Max` measure's at least the max — of each
/// query point's distance to the *closest* point of the data trajectory,
/// which in turn is lower-bounded by cheap MBR geometry. The learned
/// t2vec distance is not a function of pair distances at all: it reports
/// `None` and is never pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceAggregate {
    /// Distance is a sum over matched pairs (DTW).
    Sum,
    /// Distance is a maximum over matched pairs (discrete Frechet).
    Max,
}

/// An abstract trajectory similarity measure (the paper's `Θ`).
///
/// Implementations must be deterministic; all provided implementations are
/// `Send + Sync` so database scans can fan out across threads.
pub trait Measure: Send + Sync {
    /// Short stable name used in reports ("dtw", "frechet", "t2vec").
    fn name(&self) -> &'static str;

    /// Dissimilarity between two trajectories (`Φ` from scratch).
    /// Empty inputs yield `f64::INFINITY`.
    fn distance(&self, a: &[Point], b: &[Point]) -> f64;

    /// Similarity `Θ(a, b) = 1 / (1 + distance)`.
    fn similarity(&self, a: &[Point], b: &[Point]) -> f64 {
        similarity_from_distance(self.distance(a, b))
    }

    /// Allocates the reusable evaluator workspace for `query`: the one
    /// heap allocation a corpus scan pays per (query, scan) pair. The
    /// returned evaluator owns everything it needs (the query is copied
    /// or pre-encoded), so it can outlive the borrow of `query` but not
    /// of `self`; [`PrefixEvaluator::init`] re-anchors it at a new start
    /// point and [`PrefixEvaluator::reset`] re-targets it at a new query,
    /// both without further allocation (buffers are reused).
    fn make_workspace(&self, query: &[Point]) -> Box<dyn PrefixEvaluator + '_>;

    /// How this measure aggregates pair distances along an alignment, or
    /// `None` when no admissible MBR-based lower bound is known (the
    /// corpus scan then never prunes under this measure).
    fn distance_aggregate(&self) -> Option<DistanceAggregate> {
        None
    }

    /// Optional slice kernel for the exhaustive best-subtrajectory sweep
    /// (ExactS semantics): returns `(start, end, similarity)` of
    /// `argmax_{i<=j} Θ(T[i, j], query)` over the columnar `data`, or
    /// `None` when the measure has no specialized kernel (the caller then
    /// runs the scalar prefix-evaluator sweep).
    ///
    /// This is [`Measure::exact_best_above`] with no floor and no
    /// precomputed cell rows — the same kernel body, never abandoned.
    /// Measures implement that method, not this one.
    fn exact_best(
        &self,
        data: TrajView<'_>,
        query: &[Point],
        scratch: &mut DpScratch,
    ) -> Option<(usize, usize, f64)> {
        self.exact_best_above(data, query, f64::NEG_INFINITY, None, scratch)
            .map(|best| (best.start, best.end, best.similarity))
    }

    /// [`Measure::exact_best`] for a caller that only cares about results
    /// whose similarity reaches `floor` (a top-k scan's running k-th
    /// similarity), optionally fed the evaluator's own
    /// [`PrefixEvaluator::fill_cell_rows`] matrix for `(data, query)` so
    /// the kernel reads point distances instead of recomputing them.
    ///
    /// **Contract:** whenever the true best similarity is `≥ floor` the
    /// result is *bit-identical* to the scalar sweep — same similarity
    /// bits, same `(start, end)` under the sweep's tie-breaking (ascending
    /// start, then ascending end, strict improvement) — except that with
    /// `cell_rows` the range may be left [`ExactBest::range_pending`]: the
    /// similarity bits are the sweep's and the same call without
    /// `cell_rows`, floored at that similarity, returns the range.
    /// Otherwise it is the similarity of some real subtrajectory,
    /// `< floor`, flagged [`ExactBest::abandoned`]. With `floor = -∞` and
    /// no `cell_rows` the first case always applies in full. Measures that
    /// cannot preserve the contract must stay with the default `None`.
    ///
    /// DTW and discrete Frechet implement it in [`mod@self`]'s `kernel`
    /// module (property-tested per measure). Without `cell_rows` they run
    /// the multi-start lockstep sweep, which uses the floor to leave start
    /// groups early but stays the paper's O(n²·m) enumeration. With
    /// `cell_rows` (a pruning scan) they run only one free-start DP over
    /// the matrix, O(n·m), whose best Θ* is the sweep's bit for bit: below
    /// the floor the candidate is settled, otherwise Θ* comes back with its
    /// range pending, and the scan resolves it only for the hits it keeps.
    fn exact_best_above(
        &self,
        data: TrajView<'_>,
        query: &[Point],
        floor: f64,
        cell_rows: Option<&[f64]>,
        scratch: &mut DpScratch,
    ) -> Option<ExactBest> {
        let _ = (data, query, floor, cell_rows, scratch);
        None
    }
}

/// Incremental similarity machine for subtrajectories sharing a start
/// point: the paper's `Φini` ([`PrefixEvaluator::init`]) and `Φinc`
/// ([`PrefixEvaluator::extend`]).
pub trait PrefixEvaluator {
    /// Re-anchors the evaluator at a new start point: computes
    /// `Θ(<p>, query)` from scratch (`Φini`) and returns the similarity.
    fn init(&mut self, p: Point) -> f64;

    /// Appends the next point of the data trajectory: computes
    /// `Θ(T[i, j], query)` from `Θ(T[i, j-1], query)` (`Φinc`) and returns
    /// the similarity. Must be called after [`PrefixEvaluator::init`].
    fn extend(&mut self, p: Point) -> f64;

    /// Similarity of the current subtrajectory vs the query.
    fn similarity(&self) -> f64;

    /// Distance of the current subtrajectory vs the query.
    fn distance(&self) -> f64;

    /// Re-targets the evaluator at a new (non-empty) query, reusing its
    /// internal buffers instead of reallocating — the zero-allocation
    /// complement of [`Measure::make_workspace`] for scans that serve many
    /// queries with one evaluator. After `reset` the evaluator behaves
    /// exactly (bitwise) as a freshly constructed one: `init` must be
    /// called before `extend`/`similarity`/`distance` are meaningful.
    fn reset(&mut self, query: &[Point]);

    /// Bulk `Φinc`: appends a whole run of data points given as coordinate
    /// slices (the corpus arena's SoA slabs feed this directly, zero-copy)
    /// and returns the similarity after the last point — an empty run is a
    /// no-op returning the current similarity.
    ///
    /// **Contract** (property-tested in `tests/evaluator_conformance.rs`):
    /// bit-identical to calling [`PrefixEvaluator::extend`] once per point
    /// — same final similarity/distance bits, same evaluator state — and
    /// chunking-invariant: `extend_run(a); extend_run(b)` is bitwise
    /// equivalent to `extend_run(a ++ b)` for any split, including after a
    /// [`PrefixEvaluator::reset`]. The default is exactly that point loop,
    /// compiled per implementing type, so its `extend` calls are static.
    /// DTW/Frechet override it with a 4-lane wavefront over the DP row.
    fn extend_run(&mut self, xs: &[f64], ys: &[f64], ts: &[f64]) -> f64 {
        debug_assert!(xs.len() == ys.len() && xs.len() == ts.len());
        let mut sim = self.similarity();
        for i in 0..xs.len() {
            sim = self.extend(Point::new(xs[i], ys[i], ts[i]));
        }
        sim
    }

    /// [`PrefixEvaluator::extend_run`] with a per-point similarity
    /// readout: `sims[i]` receives the similarity after appending point
    /// `i` of the run (exactly what the corresponding `extend` call would
    /// have returned, bitwise). `sims` must have at least `xs.len()`
    /// elements. Returns the similarity after the last point (the current
    /// similarity for an empty run). Same bitwise/chunking contract as
    /// `extend_run`.
    fn extend_run_into(&mut self, xs: &[f64], ys: &[f64], ts: &[f64], sims: &mut [f64]) -> f64 {
        debug_assert!(xs.len() == ys.len() && xs.len() == ts.len());
        let mut sim = self.similarity();
        for i in 0..xs.len() {
            sim = self.extend(Point::new(xs[i], ys[i], ts[i]));
            sims[i] = sim;
        }
        sim
    }

    /// Pre-factored cell inputs: for evaluators whose `Φinc` chain
    /// consumes one precomputed input row per run point (the DTW family's
    /// Euclidean distance rows `d(p_k, q_j)`), fills `rows` with
    /// `xs.len() * stride` values — `rows[k * stride + j]` is run point
    /// `k`'s input against query position `j` — and returns
    /// `Some(stride)` (the query length). Returns `None` (the default)
    /// when the evaluator has no such factorization; callers must then
    /// stay on the coordinate entry points.
    ///
    /// The rows depend only on coordinates, never on DP state, so a
    /// caller that walks the same points twice — PSS's prefix pass plus
    /// its reversed-stream suffix pass — can fill once and feed both
    /// walks through [`PrefixEvaluator::extend_run_rows_into`], halving
    /// the `sqrt`-heavy distance work. Reversing run and query reverses
    /// the matrix in both dimensions with the same value bits, which is
    /// how one fill serves the reversed-query suffix evaluator.
    fn fill_cell_rows(
        &self,
        xs: &[f64],
        ys: &[f64],
        ts: &[f64],
        rows: &mut Vec<f64>,
    ) -> Option<usize> {
        let _ = (xs, ys, ts, rows);
        None
    }

    /// [`PrefixEvaluator::extend_run_into`] over cell rows produced by
    /// [`PrefixEvaluator::fill_cell_rows`] (same stride and layout;
    /// `rows.len() == sims.len() * stride`), bitwise-identical to the
    /// coordinate entry points under the same contract. Only meaningful
    /// on evaluators whose `fill_cell_rows` returns `Some`; the default
    /// (paired with the `None` default there) panics.
    fn extend_run_rows_into(&mut self, rows: &[f64], sims: &mut [f64]) -> f64 {
        let _ = (rows, sims);
        unimplemented!("extend_run_rows_into requires fill_cell_rows support")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_transform_is_monotone_and_bounded() {
        assert_eq!(similarity_from_distance(0.0), 1.0);
        let mut prev = 2.0;
        for i in 0..100 {
            let s = similarity_from_distance(i as f64 * 0.5);
            assert!(s <= 1.0 && s > 0.0);
            assert!(s < prev);
            prev = s;
        }
    }

    #[test]
    fn similarity_distance_roundtrip() {
        for d in [0.0, 0.1, 1.0, 42.0, 1e6] {
            let s = similarity_from_distance(d);
            assert!((distance_from_similarity(s) - d).abs() < 1e-6 * (1.0 + d));
        }
    }

    #[test]
    fn similarity_transform_extremes() {
        // Empty inputs' infinite distance reads as similarity 0, and back.
        assert_eq!(similarity_from_distance(f64::INFINITY), 0.0);
        assert_eq!(distance_from_similarity(0.0), f64::INFINITY);
        assert_eq!(distance_from_similarity(1.0), 0.0);
        assert_eq!(similarity_from_distance(1.0), 0.5);
    }
}
