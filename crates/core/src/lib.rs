#![warn(missing_docs)]
// DP recurrences and BPTT update several arrays in lockstep per index;
// explicit index loops keep those kernels aligned with the paper's
// equations, which iterator chains would obscure.
#![allow(clippy::needless_range_loop)]

//! Similar subtrajectory search (SimSub) — the algorithm suite of
//! Wang, Long, Cong & Liu, *Efficient and Effective Similar Subtrajectory
//! Search with Deep Reinforcement Learning*, VLDB 2020.
//!
//! Given a data trajectory `T` (n points) and a query trajectory `Tq`
//! (m points), find `argmax_{1<=i<=j<=n} Θ(T[i,j], Tq)` under an abstract
//! similarity measure `Θ` (see `simsub-measures`). This crate implements:
//!
//! | algorithm | section | type | time (abstract) |
//! |-----------|---------|------|------------------|
//! | [`ExactS`] | §4.1 | exact | `O(n·(Φini + n·Φinc))` |
//! | [`SizeS`]  | §4.2 | approximate, size window ξ | `O(n·(Φini + (m+ξ)·Φinc))` |
//! | [`Pss`] / [`Pos`] / [`PosD`] | §4.3 | splitting heuristics | `O(n1·Φini + n·Φinc)` |
//! | [`Rls`] / RLS-Skip | §5 | learned splitting (DQN) | `O(n1·Φini + n·Φinc)` |
//! | [`Spring`] | §6, \[31\] | DTW-specific baseline | `O(n·m)` |
//! | [`Ucr`] | §6, App. C | DTW-specific baseline | `O(n·m)` w/ pruning |
//! | [`RandomS`] | §6 | sampling baseline | `O(s·Φ)` |
//! | [`SimTra`] | §6.2(8) | whole-trajectory baseline | `O(Φ)` |
//!
//! plus the trajectory-splitting MDP (§5.1), the DQN training loop
//! (Algorithm 3) and the AR/MR/RR effectiveness metrics (§6.1).

pub mod bounds;
mod exact;
mod mdp;
mod metrics;
mod random_s;
mod rls;
mod simtra;
mod sizes;
mod splitting;
mod spring;
pub mod sync;
mod topk;
mod ucr;
mod workspace;

pub use bounds::{
    scan_timing_enabled, scan_timing_scope, BoundCascade, PruneStats, ScanTimingGuard,
};
pub use exact::{exhaustive_ranking, ExactS, ExhaustiveRanking};
pub use mdp::{episode_parts, MdpConfig, ScanStats, SplitEnv, StepOutcome};
pub use metrics::{EffectivenessMetrics, MetricsAccumulator};
pub use random_s::RandomS;
pub use rls::{train_rls, Rls, RlsTrainConfig, TrainReport};
pub use simtra::SimTra;
pub use sizes::SizeS;
pub use splitting::{suffix_similarities, Pos, PosD, Pss};
pub use spring::Spring;
pub use topk::{
    library_scan_threads, scan_prunes, scan_top_k_into, sort_hits_and_truncate, TopKHeap,
    TopKResult, MIN_CANDIDATES_PER_THREAD,
};
pub use ucr::Ucr;
pub use workspace::{SearchOutcome, SearchWorkspace};

use simsub_measures::Measure;
use simsub_trajectory::{Point, SubtrajRange, TrajView};

/// The outcome of a subtrajectory search: the chosen range and its
/// similarity/distance to the query under the measure used by the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The returned subtrajectory `T[start, end]` (0-based inclusive).
    pub range: SubtrajRange,
    /// `Θ(T[range], Tq)` as computed by the algorithm. For algorithms
    /// whose internal bookkeeping is approximate (e.g. RLS-Skip's
    /// simplified prefix), this is the algorithm's own estimate; metrics
    /// recompute exact values.
    pub similarity: f64,
    /// Distance corresponding to `similarity`.
    pub distance: f64,
}

impl SearchResult {
    /// Builds a result from a range and distance.
    pub fn from_distance(range: SubtrajRange, distance: f64) -> Self {
        Self {
            range,
            similarity: simsub_measures::similarity_from_distance(distance),
            distance,
        }
    }
}

/// A similar-subtrajectory search algorithm over an abstract measure.
///
/// Implementations must handle any non-empty `data` and `query`. The
/// DTW-specific baselines ([`Spring`], [`Ucr`]) implement the trait for
/// harness uniformity but ignore `measure` and always evaluate DTW; they
/// are meaningful only in DTW experiments, as in the paper.
///
/// `Sync`, because a reference scan spreads one algorithm's candidates
/// over several threads ([`scan_top_k_into`]).
pub trait SubtrajSearch: Sync {
    /// Stable display name, e.g. `"PSS"`, `"RLS-Skip"`.
    fn name(&self) -> String;

    /// Finds a subtrajectory of `data` similar to `query`.
    ///
    /// # Panics
    /// Panics if `data` or `query` is empty.
    fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult;

    /// [`SubtrajSearch::search`] through a caller-owned
    /// [`SearchWorkspace`] over a columnar [`TrajView`] — the arena-backed
    /// scan hot path: one evaluator allocation serves an entire corpus
    /// scan and the data is read straight from the corpus arena's SoA
    /// slabs, zero-copy. Must return bit-identical results to `search`
    /// with the workspace's measure and query. For the scan algorithms
    /// that dominate the serving hot path (ExactS, PSS, POS, POS-D,
    /// SizeS) this override *is* the algorithm's one scan body — their
    /// `search` is an adapter that builds a one-trajectory view and calls
    /// it, and `tests/common/scalar.rs` holds the scalar definitions the
    /// equivalence harnesses pin it to bit for bit. The default stages
    /// the view into the workspace's reusable AoS buffer and falls back
    /// to the allocating `search` path (RLS and the baselines).
    fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
        let (measure, data, query) = ws.staged(data);
        self.search(measure, data, query)
    }

    /// True when the similarity this algorithm reports is the exact
    /// measure similarity of some actual subtrajectory of `data` — i.e.
    /// never an overestimate of the best subtrajectory similarity. The
    /// pruned corpus scan (`simsub_core::bounds`) only skips trajectories
    /// for algorithms where this holds; overriding to `false` (RLS-Skip's
    /// simplified prefix bookkeeping can overestimate) keeps results
    /// byte-identical by disabling pruning for that algorithm.
    fn reported_similarity_is_admissible(&self) -> bool {
        true
    }
}

/// The AoS `search` entry of the algorithms whose scan body lives in
/// `search_with`: splits `data` into coordinate columns and runs that one
/// body over a one-trajectory view with a fresh workspace.
pub(crate) fn search_via_view(
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    data: &[Point],
    query: &[Point],
) -> SearchResult {
    assert!(
        !data.is_empty() && !query.is_empty(),
        "inputs must be non-empty"
    );
    let xs: Vec<f64> = data.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = data.iter().map(|p| p.y).collect();
    let ts: Vec<f64> = data.iter().map(|p| p.t).collect();
    let mut ws = SearchWorkspace::new(measure, query);
    algo.search_with(&mut ws, TrajView::new(0, &xs, &ys, &ts))
}

#[cfg(test)]
pub(crate) mod test_util {
    use simsub_trajectory::Point;

    /// Shorthand point-list constructor used across the test suites.
    pub fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    /// Deterministic pseudo-random walk for cross-algorithm tests.
    pub fn walk(seed: u64, len: usize) -> Vec<Point> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        (0..len)
            .map(|_| {
                x += rng.gen_range(-1.0..1.0);
                y += rng.gen_range(-1.0..1.0);
                Point::xy(x, y)
            })
            .collect()
    }

    /// The Figure 1 running example of the paper: a 5-point data
    /// trajectory and a 3-point query, engineered so that
    /// `DTW(T[2,4], Tq) = 3` (1-based), the paper's optimal subtrajectory.
    pub fn figure1() -> (Vec<Point>, Vec<Point>) {
        let t = pts(&[(0.0, 3.0), (0.0, 1.0), (2.0, 1.0), (4.0, 1.0), (4.0, 3.0)]);
        let q = pts(&[(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]);
        (t, q)
    }
}
