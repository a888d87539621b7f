//! Corpus-level similarity upper bounds and prune accounting for the
//! top-k database scan.
//!
//! The paper's cost model makes one thing obvious: the scan hot path is
//! dominated by `Φini`/`Φinc` work *per data trajectory*, so the cheapest
//! trajectory is the one never searched. This module provides a cascade
//! of **admissible** upper bounds on the similarity of a trajectory's
//! best subtrajectory to the query — "admissible" meaning the bound is
//! never below the similarity any [`crate::SubtrajSearch`] whose
//! [`crate::SubtrajSearch::reported_similarity_is_admissible`] holds can
//! report. A trajectory whose bound cannot beat the running k-th hit is
//! skipped without touching its points; pruning therefore only skips
//! work, never changes answers (property-tested in
//! `tests/prune_equivalence.rs`).
//!
//! Why the bounds hold
//! -------------------
//! Every alignment (warping path) between a subtrajectory `T' ⊆ T` and
//! the query matches each query point `q_k` to at least one point of
//! `T'`, and every point of `T'` lies inside `T`'s MBR. Writing `R` for
//! that MBR and keying on [`DistanceAggregate`]:
//!
//! - **Sum** (DTW-like): `dist(T', Tq) ≥ Σ_k d(q_k, R)` (the O(m)
//!   *envelope* bound — each query point against the trajectory MBR, the
//!   same geometry as the UCR suite's adapted `LB_Keogh` in
//!   [`crate::Ucr`]), and, because the path has at least `m` pairs each
//!   at least the rectangle-to-rectangle distance,
//!   `dist(T', Tq) ≥ m · d(MBR(Tq), R)` (the O(1) *Kim-style*
//!   closest-point screen).
//! - **Max** (Frechet-like): `dist(T', Tq) ≥ max_k d(q_k, R)` and
//!   `dist(T', Tq) ≥ d(MBR(Tq), R)`.
//!
//! The **point-level** bound replaces the rectangle by the trajectory's
//! own points: the point `q_k` is matched to is one of `T`'s, so its pair
//! costs at least `min_r d(p_r, q_k)` — the minimum of column `k` of the
//! `n × m` point-distance matrix — and `dist(T', Tq) ≥ Σ_k min_r d(p_r,
//! q_k)` (Sum) or `≥ max_k min_r d(p_r, q_k)` (Max). It is never looser
//! than the envelope (`p_r ∈ R`) and it still fires when the MBRs
//! intersect, which is every candidate an R-tree lookup returns. It reads
//! the coordinates directly: column minima of squared distances, then one
//! `sqrt` per query point, bit-identical to the minima of the `sqrt`
//! matrix because `sqrt` is monotone. Only a survivor pays for that
//! matrix ([`crate::SearchWorkspace::prepare_cell_rows`]), which its
//! ExactS DP and PSS walks then read instead of recomputing distances.
//!
//! Distance lower bounds convert to similarity upper bounds through the
//! monotone `Θ = 1/(1+dist)`. Measures with no aggregate (`None`, e.g.
//! t2vec) yield an infinite bound: nothing is ever pruned, answers stay
//! trivially identical.
//!
//! The cascade is evaluated cheap-first: the O(1) screen first, the O(m)
//! envelope only for survivors, the point-level bound only for theirs.
//! [`PruneStats`] counts what each stage rejected so serving layers can
//! report prune ratios.
//!
//! Inside a survivor: the row-minimum argument
//! ------------------------------------------
//! The same running k-th similarity also bounds the work *inside* an
//! ExactS search. For one start `i`, row `j` of the DP holds
//! `D_j[c] = dist(T[i, j], Tq[1, c])`. Every cell of row `j + 1` is
//! `op(d, best)` with `d ≥ 0` a point distance and `best` either
//! `D_j[1]` (first column) or the minimum of `D_j[c-1]`, `D_j[c]` and
//! `D_{j+1}[c-1]`; `op` is `d + best` (DTW) or `max(d, best)` (Frechet),
//! and both return at least `best` — for the sum this survives rounding,
//! because `a + d ≥ a` holds exactly for `d ≥ 0` and rounding to nearest
//! is monotone, so the computed `a ⊕ d ≥ a`. By induction over `c`,
//! every cell of row `j + 1` is `≥ min_c D_j[c]`: the row minimum never
//! decreases, and every later prefix distance `D_{j'}[m]`, `j' > j`, is
//! `≥` it. So once a start's row minimum reaches the distance `τ` whose
//! similarity is strictly below the k-th (`Θ` is evaluated by two
//! monotone operations, so `x ≥ τ ⇒ Θ(x) ≤ Θ(τ) < k-th`), nothing that
//! start can still produce enters the top-k, and the kernel stops
//! extending it. No slack is needed here: the comparison is between
//! values the DP itself computed, not between two summation orders.
//!
//! In a pruning scan the kernel first runs the free-start DP over the
//! survivor's point-distance matrix, which yields the best similarity of
//! every start at once in O(n·m), bit for bit. A candidate whose best is
//! below the k-th is settled there (`PruneStats::abandoned`); only the
//! others run the per-start DP above, with their own best as the floor,
//! to recover the range. What a settled search reports is a real
//! subtrajectory's similarity below the k-th, which the heap rejects like
//! the true best it stands in for.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::OnceLock;
use simsub_measures::{similarity_from_distance, DistanceAggregate, Measure};
use simsub_trajectory::{Mbr, Point};

/// Counters describing one (or many merged) pruned corpus scans.
/// Invariant: `scanned == pruned_by_kim + pruned_by_mbr +
/// pruned_by_points + searched` (checked by
/// [`PruneStats::is_consistent`] and asserted in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidate evaluations considered by the scan — one per
    /// trajectory for single-query scans, one per (trajectory, query)
    /// pair for batched scans.
    pub scanned: u64,
    /// Rejected by the O(1) closest-point (Kim-style) screen.
    pub pruned_by_kim: u64,
    /// Rejected by the O(m) MBR-envelope bound.
    pub pruned_by_mbr: u64,
    /// Rejected by the O(n·m) point-level bound.
    pub pruned_by_points: u64,
    /// Ran the full subtrajectory search.
    pub searched: u64,
    /// Searched candidates the exact kernel's free-start DP settled below
    /// the running k-th similarity without range recovery (a subset of
    /// `searched`). Range recoveries are `searched - abandoned` for an
    /// ExactS scan under DTW or Frechet.
    pub abandoned: u64,
    /// Nominal DP size of the searched candidates, `Σ data_len ×
    /// query_len` — the cost-model unit behind ns-per-cell gauges, *not* a
    /// count of cells evaluated: it is the same whether a search runs
    /// `n(n+1)/2` prefixes over it or abandons most of them.
    pub searched_cells: u64,
    /// Nanoseconds spent evaluating bound cascades, accumulated only
    /// while a [`scan_timing_scope`] guard is live (zero otherwise).
    pub bound_ns: u64,
    /// Nanoseconds spent inside the DP search kernel, accumulated only
    /// while a [`scan_timing_scope`] guard is live (zero otherwise).
    pub kernel_ns: u64,
}

impl PruneStats {
    /// Total candidates skipped without a full search.
    pub fn pruned(&self) -> u64 {
        self.pruned_by_kim + self.pruned_by_mbr + self.pruned_by_points
    }

    /// Fraction of scanned candidates that skipped the full search
    /// (0 when nothing was scanned).
    pub fn prune_ratio(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.scanned as f64
        }
    }

    /// `scanned == pruned + searched` — every counted trajectory went
    /// exactly one way — and only searched candidates can have abandoned.
    pub fn is_consistent(&self) -> bool {
        self.scanned == self.pruned() + self.searched && self.abandoned <= self.searched
    }

    /// Accumulates another scan's counters (shard fan-outs, batches).
    pub fn merge(&mut self, other: &PruneStats) {
        self.scanned += other.scanned;
        self.pruned_by_kim += other.pruned_by_kim;
        self.pruned_by_mbr += other.pruned_by_mbr;
        self.pruned_by_points += other.pruned_by_points;
        self.searched += other.searched;
        self.abandoned += other.abandoned;
        self.searched_cells += other.searched_cells;
        self.bound_ns += other.bound_ns;
        self.kernel_ns += other.kernel_ns;
    }
}

/// Live count of [`scan_timing_scope`] guards. Scan kernels read this once
/// per scan; per-candidate timers run only while it is non-zero.
static SCAN_TIMING: AtomicU64 = AtomicU64::new(0);

/// Enables per-candidate bound/kernel wall-clock accounting
/// ([`PruneStats::bound_ns`] / [`PruneStats::kernel_ns`]) for the guard's
/// lifetime. The flag is process-global and counted, so overlapping traced
/// scans compose; scans started by *other* threads while a guard is live
/// also record timings, which only makes their merged aggregates more
/// complete. With no guard live, kernels skip every clock read — the
/// disabled path costs one relaxed load per scan.
pub fn scan_timing_scope() -> ScanTimingGuard {
    // ordering: relaxed — the guard count only gates instrumentation.
    SCAN_TIMING.fetch_add(1, Ordering::Relaxed);
    ScanTimingGuard(())
}

/// True while at least one [`scan_timing_scope`] guard is live.
#[inline]
pub fn scan_timing_enabled() -> bool {
    // ordering: relaxed — a stale view widens or narrows timing, nothing else.
    SCAN_TIMING.load(Ordering::Relaxed) != 0
}

/// RAII guard returned by [`scan_timing_scope`]; dropping it re-disables
/// timing once every overlapping guard is gone.
#[derive(Debug)]
pub struct ScanTimingGuard(());

impl Drop for ScanTimingGuard {
    fn drop(&mut self) {
        // ordering: relaxed — matching decrement of scan_timing_scope.
        SCAN_TIMING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Relative slack applied to every distance lower bound before it turns
/// into a similarity upper bound. The bound and the evaluators may sum
/// the same terms in different orders (e.g. PSS's suffix pass runs a
/// *reversed*-query evaluator), and floating-point addition is not
/// associative, so a zero-slack bound could land an ulp below a
/// legitimately reported similarity and prune a hit the reference scan
/// keeps. 1e-9 relative is orders of magnitude above any accumulated
/// ulp drift yet far below any pruning-relevant margin.
const DIST_LB_SLACK: f64 = 1.0 - 1e-9;

/// The three-stage bound cascade for one query under one measure.
/// Construction is O(m) (query MBR plus an SoA copy of the query);
/// [`BoundCascade::coarse_bound`] is O(1) and
/// [`BoundCascade::envelope_bound`] is O(m) per trajectory, reading the
/// trajectory's MBR from the corpus arena's precomputed table;
/// [`BoundCascade::point_bound`] is O(n·m) over the trajectory's
/// coordinates, with `m` square roots.
///
/// The envelope stage is a slice kernel: the per-query-point
/// rectangle distances are filled into a reused scratch buffer by a
/// 4-wide unrolled (auto-vectorizable) loop over the query's SoA
/// coordinates — each element computed by exactly the arithmetic of
/// [`Mbr::min_dist`] — and then reduced in the original fold order, so
/// bounds are bit-identical to the scalar formulation.
#[derive(Debug, Clone)]
pub struct BoundCascade {
    qx: Vec<f64>,
    qy: Vec<f64>,
    qmbr: Mbr,
    aggregate: Option<DistanceAggregate>,
    scratch: Vec<f64>,
}

impl BoundCascade {
    /// Builds the cascade for `query` under `measure`.
    pub fn new(measure: &dyn Measure, query: &[Point]) -> Self {
        let (mut qx, mut qy) = (Vec::new(), Vec::new());
        simsub_measures::load_query_soa(query, &mut qx, &mut qy);
        let scratch = vec![0.0; query.len()];
        Self {
            qx,
            qy,
            qmbr: Mbr::of_points(query),
            aggregate: measure.distance_aggregate(),
            scratch,
        }
    }

    /// False when the measure admits no bound (the cascade then returns
    /// `INFINITY` everywhere and the scan skips bound evaluation).
    pub fn is_active(&self) -> bool {
        self.aggregate.is_some() && !self.qx.is_empty()
    }

    /// O(1) upper bound on the best-subtrajectory similarity from the
    /// rectangle-to-rectangle distance alone. `INFINITY` when inactive.
    pub fn coarse_bound(&self, trajectory_mbr: &Mbr) -> f64 {
        let Some(aggregate) = self.aggregate else {
            return f64::INFINITY;
        };
        let rect = self.qmbr.min_dist_mbr(trajectory_mbr);
        let dist_lb = match aggregate {
            DistanceAggregate::Sum => rect * self.qx.len() as f64,
            DistanceAggregate::Max => rect,
        };
        similarity_from_distance(dist_lb * DIST_LB_SLACK)
    }

    /// O(m) upper bound from the per-query-point envelope distances to
    /// the trajectory MBR; tighter than (never above) the coarse bound.
    /// `INFINITY` when inactive. Takes `&mut self` for the reused
    /// distance scratch buffer.
    pub fn envelope_bound(&mut self, trajectory_mbr: &Mbr) -> f64 {
        let Some(aggregate) = self.aggregate else {
            return f64::INFINITY;
        };
        fill_mbr_dists(&self.qx, &self.qy, trajectory_mbr, &mut self.scratch);
        self.aggregated_bound(aggregate)
    }

    /// O(n·m) upper bound from the trajectory's own points (coordinate
    /// slabs `xs`, `ys`): per query point the distance to its nearest data
    /// point — the column minima of the point-distance matrix
    /// [`crate::SearchWorkspace::prepare_cell_rows`] fills, without
    /// filling it. The minima are taken over `dx*dx + dy*dy`, the
    /// expression `simsub_measures::fill_point_dists` evaluates before its
    /// `sqrt`, and then one `sqrt` per query point: `sqrt` is correctly
    /// rounded, hence monotone, so `sqrt(min_r s_r) = min_r sqrt(s_r)` and
    /// the bound is the matrix's column-minimum bound bit for bit at
    /// `m` square roots instead of `n·m`. Tighter than the envelope and
    /// able to reject a trajectory whose MBR contains the query.
    /// `INFINITY` when inactive.
    pub fn point_bound(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        let Some(aggregate) = self.aggregate else {
            return f64::INFINITY;
        };
        debug_assert!(!xs.is_empty() && xs.len() == ys.len());
        self.scratch.fill(f64::INFINITY);
        for (&px, &py) in xs.iter().zip(ys) {
            // Squared distances are never NaN; the bare compare vectorizes
            // where `f64::min` does not.
            for ((lo, &x), &y) in self.scratch.iter_mut().zip(&self.qx).zip(&self.qy) {
                let (dx, dy) = (px - x, py - y);
                let sq = dx * dx + dy * dy;
                *lo = if sq < *lo { sq } else { *lo };
            }
        }
        for lo in &mut self.scratch {
            *lo = lo.sqrt();
        }
        self.aggregated_bound(aggregate)
    }

    /// Folds the per-query-point lower bounds in `scratch` into one
    /// similarity upper bound. `sum()` folds left-to-right from 0.0 and
    /// the max fold starts at 0.0 — the scalar formulation's fold order.
    fn aggregated_bound(&self, aggregate: DistanceAggregate) -> f64 {
        let dist_lb = match aggregate {
            DistanceAggregate::Sum => self.scratch.iter().sum::<f64>(),
            DistanceAggregate::Max => self.scratch.iter().fold(0.0f64, |a, &b| a.max(b)),
        };
        similarity_from_distance(dist_lb * DIST_LB_SLACK)
    }
}

/// Fills `out[j]` with the shortest distance from query point `j` to the
/// rectangle — element-for-element the arithmetic of [`Mbr::min_dist`]
/// over the SoA query slices. Elements are independent, so the zipped
/// bound-check-free loop auto-vectorizes (the same idiom as
/// `simsub_measures::fill_point_dists`).
#[inline]
fn fill_mbr_dists(qx: &[f64], qy: &[f64], mbr: &Mbr, out: &mut [f64]) {
    debug_assert!(qx.len() == qy.len() && qx.len() == out.len());
    let (min_x, min_y, max_x, max_y) = (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y);
    for ((&x, &y), o) in qx.iter().zip(qy).zip(out.iter_mut()) {
        let dx = (min_x - x).max(0.0).max(x - max_x);
        let dy = (min_y - y).max(0.0).max(y - max_y);
        *o = (dx * dx + dy * dy).sqrt();
    }
}

/// A monotonically rising similarity floor shared by parallel scan
/// workers: a published value `v` certifies "the final k-th hit's
/// similarity is at least `v`", so any worker may prune a trajectory
/// whose bound is *strictly* below `v` — regardless of which worker
/// established it. Purely an acceleration hint: results are identical
/// with or without it (each worker still keeps its own exact top-k).
#[derive(Debug)]
pub struct SharedSimFloor {
    bits: AtomicU64,
}

impl Default for SharedSimFloor {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedSimFloor {
    /// A floor that prunes nothing yet.
    pub fn new() -> Self {
        Self {
            bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// The current floor.
    pub fn get(&self) -> f64 {
        // ordering: relaxed — a stale floor only misses a prune, never an answer.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Raises the floor to `v` if higher (CAS loop; relaxed ordering is
    /// enough — a stale read only costs a missed prune, never an answer).
    pub fn raise(&self, v: f64) {
        // ordering: relaxed — CAS loop re-reads on failure; monotonic max.
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed, // ordering: relaxed — the float payload is self-contained
                Ordering::Relaxed, // ordering: relaxed — the failure value only feeds the retry
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Whether corpus-scan pruning is enabled for paths that don't take an
/// explicit flag: true unless the `SIMSUB_NO_PRUNE` environment variable
/// is set to a non-empty value other than `0` (the escape hatch the CLI's
/// `--no-prune` flips and CI's unpruned matrix leg exports). Read once
/// per process.
pub fn pruning_enabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    !*DISABLED
        .get_or_init(|| std::env::var("SIMSUB_NO_PRUNE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::walk;
    use crate::{ExactS, SubtrajSearch};
    use simsub_measures::{Dtw, Frechet};
    use simsub_trajectory::Trajectory;

    #[test]
    fn stats_arithmetic() {
        let mut s = PruneStats {
            scanned: 10,
            pruned_by_kim: 4,
            pruned_by_mbr: 2,
            pruned_by_points: 1,
            searched: 3,
            abandoned: 2,
            searched_cells: 90,
            ..PruneStats::default()
        };
        assert!(s.is_consistent());
        assert_eq!(s.pruned(), 7);
        assert!((s.prune_ratio() - 0.7).abs() < 1e-12);
        s.merge(&s.clone());
        assert_eq!(s.scanned, 20);
        assert_eq!(s.pruned_by_points, 2);
        assert_eq!(s.abandoned, 4);
        assert_eq!(s.searched_cells, 180);
        assert!(s.is_consistent());
        assert_eq!(PruneStats::default().prune_ratio(), 0.0);
        // Only a searched candidate can have abandoned.
        s.abandoned = s.searched + 1;
        assert!(!s.is_consistent());
    }

    #[test]
    fn inactive_measure_never_bounds() {
        // LCSS reports no aggregate: both bounds must be INFINITY.
        let q = walk(1, 5);
        let mut cascade = BoundCascade::new(&simsub_measures::Lcss::new(0.5), &q);
        assert!(!cascade.is_active());
        let mbr = Mbr::of_points(&walk(2, 6));
        assert_eq!(cascade.coarse_bound(&mbr), f64::INFINITY);
        assert_eq!(cascade.envelope_bound(&mbr), f64::INFINITY);
        assert_eq!(cascade.point_bound(&[1.0], &[1.0]), f64::INFINITY);
    }

    /// The coordinate slabs of `points`.
    fn slabs(points: &[Point]) -> (Vec<f64>, Vec<f64>) {
        points.iter().map(|p| (p.x, p.y)).unzip()
    }

    #[test]
    fn point_bound_is_the_column_minimum_fold() {
        // Against the definition — per query point the distance to its
        // nearest data point, summed (or maxed) in query order — taken
        // over the `sqrt` matrix the scan fills for a survivor: one `sqrt`
        // per column must give the same bits as `n` of them.
        for seed in 0..25u64 {
            let q = walk(seed, 7);
            let t = walk(seed + 40, 9);
            let (xs, ys) = slabs(&t);
            let ts = vec![0.0; t.len()];
            let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
            for measure in [&Dtw as &dyn simsub_measures::Measure, &Frechet] {
                let mut cascade = BoundCascade::new(measure, &q);
                let got = cascade.point_bound(&xs, &ys);
                let mut ws = crate::SearchWorkspace::new(measure, &q);
                assert!(ws.prepare_cell_rows(view));
                let matrix = ws.cell_rows();
                let nearest = (0..q.len()).map(|k| {
                    let column = matrix.iter().skip(k).step_by(q.len());
                    column.copied().fold(f64::INFINITY, f64::min)
                });
                let dist_lb = match measure.distance_aggregate().unwrap() {
                    simsub_measures::DistanceAggregate::Sum => nearest.sum::<f64>(),
                    simsub_measures::DistanceAggregate::Max => nearest.fold(0.0, f64::max),
                };
                let want = similarity_from_distance(dist_lb * DIST_LB_SLACK);
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}");
                for (r, p) in t.iter().enumerate() {
                    for (k, &qk) in q.iter().enumerate() {
                        assert_eq!(matrix[r * q.len() + k].to_bits(), p.dist(qk).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn envelope_never_looser_than_coarse() {
        for seed in 0..30u64 {
            let q = walk(seed, 6);
            let t = walk(seed + 100, 12);
            let mbr = Mbr::of_points(&t);
            for measure in [&Dtw as &dyn simsub_measures::Measure, &Frechet] {
                let mut cascade = BoundCascade::new(measure, &q);
                assert!(
                    cascade.envelope_bound(&mbr) <= cascade.coarse_bound(&mbr) + 1e-12,
                    "seed {seed} measure {}",
                    measure.name()
                );
            }
        }
    }

    #[test]
    fn envelope_kernel_matches_scalar_min_dist_fold() {
        // The slice-kernel envelope must be bit-identical to the scalar
        // per-point `Mbr::min_dist` fold it replaced.
        for seed in 0..25u64 {
            let q = walk(seed, 7);
            let mbr = Mbr::of_points(&walk(seed + 40, 9));
            for measure in [&Dtw as &dyn simsub_measures::Measure, &Frechet] {
                let mut cascade = BoundCascade::new(measure, &q);
                let got = cascade.envelope_bound(&mbr);
                let dist_lb = match measure.distance_aggregate().unwrap() {
                    simsub_measures::DistanceAggregate::Sum => {
                        q.iter().map(|&p| mbr.min_dist(p)).sum::<f64>()
                    }
                    simsub_measures::DistanceAggregate::Max => {
                        q.iter().map(|&p| mbr.min_dist(p)).fold(0.0, f64::max)
                    }
                };
                let want = similarity_from_distance(dist_lb * DIST_LB_SLACK);
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn bounds_are_admissible_vs_exact_best() {
        // Both stages must upper-bound the true best subtrajectory
        // similarity (ExactS) on random far/near trajectory pairs.
        for seed in 0..40u64 {
            let q = walk(seed, 5);
            let offset = if seed % 2 == 0 { 0.0 } else { 40.0 };
            let t: Vec<_> = walk(seed + 500, 10)
                .into_iter()
                .map(|p| simsub_trajectory::Point::new(p.x + offset, p.y + offset, p.t))
                .collect();
            let traj = Trajectory::new_unchecked(seed, t);
            for measure in [&Dtw as &dyn simsub_measures::Measure, &Frechet] {
                let best = ExactS.search(measure, traj.points(), &q).similarity;
                let mut cascade = BoundCascade::new(measure, &q);
                assert!(
                    cascade.coarse_bound(&traj.mbr()) >= best - 1e-12,
                    "coarse seed {seed} {}",
                    measure.name()
                );
                assert!(
                    cascade.envelope_bound(&traj.mbr()) >= best - 1e-12,
                    "envelope seed {seed} {}",
                    measure.name()
                );
                // The point-level stage is admissible without the
                // tolerance and never looser than the envelope.
                let (xs, ys) = slabs(traj.points());
                let points = cascade.point_bound(&xs, &ys);
                assert!(points >= best, "points seed {seed} {}", measure.name());
                assert!(points <= cascade.envelope_bound(&traj.mbr()));
            }
        }
    }

    #[test]
    fn scan_timing_guards_nest_and_release() {
        // No other core test takes a guard, so the flag is ours here.
        assert!(!scan_timing_enabled());
        let g1 = scan_timing_scope();
        let g2 = scan_timing_scope();
        assert!(scan_timing_enabled());
        drop(g1);
        assert!(scan_timing_enabled());
        drop(g2);
        assert!(!scan_timing_enabled());
    }

    #[test]
    fn shared_floor_is_monotone() {
        let floor = SharedSimFloor::new();
        assert_eq!(floor.get(), f64::NEG_INFINITY);
        floor.raise(0.5);
        assert_eq!(floor.get(), 0.5);
        floor.raise(0.25); // lower value must not win
        assert_eq!(floor.get(), 0.5);
        floor.raise(0.75);
        assert_eq!(floor.get(), 0.75);
    }
}
