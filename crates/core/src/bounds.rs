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
//! matrix because `sqrt` is monotone. It also stops at the floor: the
//! query points are taken four at a time, and once the Σ or max over the
//! ones seen so far — a prefix of the full fold, never larger, so its
//! bound is never below the full one — already fails the scan's test,
//! the rest are not read. Only a survivor pays for the `sqrt` matrix
//! ([`crate::SearchWorkspace::prepare_cell_rows`]), which its ExactS DP
//! and PSS walks then read instead of recomputing distances.
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
//! Visit order: an estimate that only orders
//! ------------------------------------------
//! Behind the R-tree every candidate's MBR meets the query's, so every
//! coarse bound is 1.0 and descending coarse bound says nothing. The scan
//! therefore orders the candidates tied at the top coarse bound by
//! [`BoundCascade::order_estimate`]: the point bound's distance sampled
//! at 4 spread query points against every 8th data point, folded like
//! the bound. It is not a bound — a sample of data points can only
//! overestimate a column minimum — so it never prunes; it only puts the
//! candidates likely to hold the best hits first, which raises the k-th
//! similarity early and lets the point bound stop sooner on the rest.
//! The heap's final contents do not depend on the visit order (see
//! [`crate::scan_top_k_into`]), so no answer can move; the counters do.
//!
//! Dispatch: one body, two instances
//! ---------------------------------
//! The point bound's column-minimum loop is one `#[inline(always)]`
//! body compiled twice: once for the baseline target and once under
//! `#[target_feature(enable = "avx2")]` (without `fma`), where its four
//! query columns fill one 256-bit register. `is_x86_feature_detected!`
//! picks the instance once per process. Both instances evaluate the same
//! expressions — Rust never contracts `dx * dx + dy * dy` into a fused
//! multiply-add, and `fma` is not enabled — and take the minimum, which
//! is exact and, over values that are never NaN or `-0.0`, the same
//! whatever order the points are compared in. So the even/odd
//! accumulators the body keeps, and the instance that runs, cannot
//! change a bit of the bound.
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
//! In a pruning scan the kernel runs only the free-start DP over the
//! survivor's point-distance matrix, which yields the best similarity of
//! every start at once in O(n·m), bit for bit. A candidate whose best is
//! below the k-th is settled there (`PruneStats::abandoned`). The others
//! enter the heap with their exact similarity and a pending range; when
//! the scan call ends, only the pending hits the heap still holds — at
//! most k — run the per-start DP above, with their own best as the
//! floor, to recover the range. What a settled search reports is a real
//! subtrajectory's similarity below the k-th, which the heap rejects like
//! the true best it stands in for.

use crate::sync::OnceLock;
use simsub_measures::{similarity_from_distance, DistanceAggregate, Measure};
use simsub_trajectory::{Mbr, Point};
use std::cell::Cell;
use std::marker::PhantomData;

/// Counters describing one (or many merged) pruned corpus scans.
/// Invariant: `scanned == pruned_by_kim + pruned_by_mbr +
/// pruned_by_points + searched` (checked by
/// [`PruneStats::is_consistent`] and asserted in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidate evaluations considered by the scan — one per
    /// candidate trajectory; summed counters count one per (trajectory,
    /// query) pair.
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
    /// the running k-th similarity (a subset of `searched`). The rest of
    /// an ExactS scan's searched candidates under DTW or Frechet reached
    /// the k-th and entered the heap with their range pending; only those
    /// still in the heap when the scan call ends recover it, so range
    /// recoveries are at most `k` a scan call, not `searched - abandoned`.
    pub abandoned: u64,
    /// Nominal DP size of the searched candidates, `Σ data_len ×
    /// query_len` — the cost-model unit behind ns-per-cell gauges, *not* a
    /// count of cells evaluated: it is the same whether a search runs
    /// `n(n+1)/2` prefixes over it or abandons most of them.
    pub searched_cells: u64,
    /// Nanoseconds a pruning scan spent outside the kernel, accumulated
    /// only while a [`scan_timing_scope`] guard is live (zero otherwise).
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

    /// Accumulates another scan's counters (split scans, batches).
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

thread_local! {
    /// Live count of this thread's [`scan_timing_scope`] guards. A scan
    /// reads it once, on the thread that runs the scan; per-candidate
    /// timers run only while it is non-zero.
    static SCAN_TIMING: Cell<u64> = const { Cell::new(0) };
}

/// Enables per-candidate bound/kernel wall-clock accounting
/// ([`PruneStats::bound_ns`] / [`PruneStats::kernel_ns`]) for the scans
/// the calling thread starts during the guard's lifetime. The count is
/// per thread, so nested guards compose and one traced request never
/// switches on the clocks of scans other threads run beside it; a split
/// scan's helper threads are handed the caller's switch. With no guard
/// live, kernels skip every clock read — the disabled path costs one
/// thread-local read per scan.
pub fn scan_timing_scope() -> ScanTimingGuard {
    SCAN_TIMING.with(|live| live.set(live.get() + 1));
    ScanTimingGuard(PhantomData)
}

/// True while at least one [`scan_timing_scope`] guard is live on the
/// calling thread.
#[inline]
pub fn scan_timing_enabled() -> bool {
    SCAN_TIMING.with(|live| live.get() != 0)
}

/// RAII guard returned by [`scan_timing_scope`]; dropping it re-disables
/// timing on its thread once every overlapping guard there is gone. It
/// is neither `Send` nor `Sync`: it must drop on the thread it counts on.
#[derive(Debug)]
pub struct ScanTimingGuard(PhantomData<*const ()>);

impl Drop for ScanTimingGuard {
    fn drop(&mut self) {
        SCAN_TIMING.with(|live| live.set(live.get() - 1));
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
/// coordinates, with `m` square roots, and stops at the first block of
/// query points whose bound the caller rejects.
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
    /// The query columns [`BoundCascade::order_estimate`] samples.
    sample_x: [f64; POINT_BLOCK],
    sample_y: [f64; POINT_BLOCK],
    /// The instance of the point bound's block loop this process runs.
    minima: BlockMinima,
}

/// Query columns [`BoundCascade::point_bound`] takes per pass over the
/// data points, and between two checks of its bound. On a 2-vCPU x86-64
/// box, an ExactS + DTW top-10 scan of 6,000 Porto-like trajectories with
/// 16-point queries ran ≈ 15 % slower with 2 and no faster with 8. Also
/// the number of query columns [`BoundCascade::order_estimate`] samples.
const POINT_BLOCK: usize = 4;

/// [`BoundCascade::order_estimate`] reads every this-many-th data point.
const ORDER_STRIDE: usize = 8;

/// One instance of the point bound's block loop: the squared-distance
/// column minima of one block of query columns (`bx`, `by`) over the data
/// points (`xs`, `ys`).
type BlockMinima =
    fn(&[f64], &[f64], &[f64; POINT_BLOCK], &[f64; POINT_BLOCK]) -> [f64; POINT_BLOCK];

impl BoundCascade {
    /// Builds the cascade for `query` under `measure`.
    pub fn new(measure: &dyn Measure, query: &[Point]) -> Self {
        let (mut qx, mut qy) = (Vec::new(), Vec::new());
        simsub_measures::load_query_soa(query, &mut qx, &mut qy);
        let scratch = vec![0.0; query.len()];
        // Query columns ⌊l·(m−1)/3⌋ for l = 0..4: the first, the last and
        // two spread between (repeats when m < 4).
        let spread = |l: usize| l * query.len().saturating_sub(1) / (POINT_BLOCK - 1);
        let sample = |column: &[f64]| -> [f64; POINT_BLOCK] {
            std::array::from_fn(|l| column.get(spread(l)).copied().unwrap_or(0.0))
        };
        Self {
            sample_x: sample(&qx),
            sample_y: sample(&qy),
            qx,
            qy,
            qmbr: Mbr::of_points(query),
            aggregate: measure.distance_aggregate(),
            scratch,
            minima: block_minima(),
        }
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
    ///
    /// The columns are taken `POINT_BLOCK` at a time, in query order, and
    /// folded as they come, so after each block the fold is exactly a
    /// prefix of the full one. After every block but the last the bound of
    /// that prefix goes to `keep`, and a `false` answer stops the scan of
    /// the points and returns it. The prefix's terms are non-negative and
    /// round-to-nearest addition and `max` are monotone, so the prefix
    /// distance never exceeds the full one and its bound is never below
    /// the full bound: still admissible, and rejected by any test monotone
    /// in the bound that rejected it, which the full bound would fail too.
    /// A bound that does not stop is the full bound's bits.
    pub fn point_bound(&self, xs: &[f64], ys: &[f64], mut keep: impl FnMut(f64) -> bool) -> f64 {
        let Some(aggregate) = self.aggregate else {
            return f64::INFINITY;
        };
        debug_assert!(!xs.is_empty() && xs.len() == ys.len());
        let last = self.qx.len().div_ceil(POINT_BLOCK).saturating_sub(1);
        let mut dist_lb = 0.0f64;
        let blocks = self.qx.chunks(POINT_BLOCK).zip(self.qy.chunks(POINT_BLOCK));
        for (b, (bx, by)) in blocks.enumerate() {
            // A short last block repeats its final column in the spare
            // lanes, which are never folded.
            let width = bx.len();
            let bx: [f64; POINT_BLOCK] = std::array::from_fn(|l| bx[l.min(width - 1)]);
            let by: [f64; POINT_BLOCK] = std::array::from_fn(|l| by[l.min(width - 1)]);
            let lo = (self.minima)(xs, ys, &bx, &by);
            for &sq in &lo[..width] {
                let d = sq.sqrt();
                dist_lb = match aggregate {
                    DistanceAggregate::Sum => dist_lb + d,
                    DistanceAggregate::Max => dist_lb.max(d),
                };
            }
            if b < last {
                let partial = similarity_from_distance(dist_lb * DIST_LB_SLACK);
                if !keep(partial) {
                    return partial;
                }
            }
        }
        similarity_from_distance(dist_lb * DIST_LB_SLACK)
    }

    /// The visit-order estimate of a trajectory with coordinate slabs
    /// `xs`, `ys`: per sampled query column (4, spread over the query) the
    /// distance to the nearest of every `ORDER_STRIDE`-th data point,
    /// folded like [`BoundCascade::point_bound`] — summed under Sum, maxed
    /// under Max. Smaller means more promising. It samples the data
    /// points, so it can exceed the point bound's distance: it orders
    /// candidates and must never prune one. 0 when inactive.
    pub fn order_estimate(&self, xs: &[f64], ys: &[f64]) -> f64 {
        let Some(aggregate) = self.aggregate else {
            return 0.0;
        };
        let mut lo = [f64::INFINITY; POINT_BLOCK];
        let sampled = xs.iter().zip(ys).step_by(ORDER_STRIDE);
        for (&px, &py) in sampled {
            fold_point(&mut lo, px, py, &self.sample_x, &self.sample_y);
        }
        let nearest = lo.iter().map(|sq| sq.sqrt());
        match aggregate {
            DistanceAggregate::Sum => nearest.sum(),
            DistanceAggregate::Max => nearest.fold(0.0, f64::max),
        }
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

/// Lowers each lane of `lo` to the squared distance from data point
/// `(px, py)` to query column `(bx[l], by[l])` where that is smaller.
/// Squared distances are never NaN; the bare compare vectorizes where
/// `f64::min` does not.
#[inline(always)]
fn fold_point(
    lo: &mut [f64; POINT_BLOCK],
    px: f64,
    py: f64,
    bx: &[f64; POINT_BLOCK],
    by: &[f64; POINT_BLOCK],
) {
    for l in 0..POINT_BLOCK {
        let (dx, dy) = (px - bx[l], py - by[l]);
        let sq = dx * dx + dy * dy;
        lo[l] = if sq < lo[l] { sq } else { lo[l] };
    }
}

/// The body of every [`BlockMinima`] instance. Even and odd data points
/// lower two accumulator sets, so two compare-select chains run side by
/// side, merged at the end by the same compare-select. A minimum is
/// exact and these values are never NaN or `-0.0`, so the split returns
/// the bits of one sequential pass.
#[inline(always)]
fn block_minima_body(
    xs: &[f64],
    ys: &[f64],
    bx: &[f64; POINT_BLOCK],
    by: &[f64; POINT_BLOCK],
) -> [f64; POINT_BLOCK] {
    let mut even = [f64::INFINITY; POINT_BLOCK];
    let mut odd = [f64::INFINITY; POINT_BLOCK];
    let (x_pairs, x_tail) = xs.as_chunks::<2>();
    let (y_pairs, y_tail) = ys.as_chunks::<2>();
    for (px, py) in x_pairs.iter().zip(y_pairs) {
        fold_point(&mut even, px[0], py[0], bx, by);
        fold_point(&mut odd, px[1], py[1], bx, by);
    }
    if let (Some(&px), Some(&py)) = (x_tail.first(), y_tail.first()) {
        fold_point(&mut even, px, py, bx, by);
    }
    std::array::from_fn(|l| if odd[l] < even[l] { odd[l] } else { even[l] })
}

/// The baseline instance, compiled for the build's target features.
fn block_minima_baseline(
    xs: &[f64],
    ys: &[f64],
    bx: &[f64; POINT_BLOCK],
    by: &[f64; POINT_BLOCK],
) -> [f64; POINT_BLOCK] {
    block_minima_body(xs, ys, bx, by)
}

/// The AVX2 instance: the same body, one query block a 256-bit register.
/// `fma` stays off, so no multiply and add fuse.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_minima_avx2(
    xs: &[f64],
    ys: &[f64],
    bx: &[f64; POINT_BLOCK],
    by: &[f64; POINT_BLOCK],
) -> [f64; POINT_BLOCK] {
    block_minima_body(xs, ys, bx, by)
}

/// The AVX2 instance, when this CPU has AVX2.
fn avx2_block_minima() -> Option<BlockMinima> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Some(|xs, ys, bx, by| {
            // Safety: this instance is only handed out after the CPU
            // reported AVX2, the one feature `block_minima_avx2` enables.
            unsafe { block_minima_avx2(xs, ys, bx, by) }
        });
    }
    None
}

/// The block-loop instance every [`BoundCascade`] runs: AVX2 where the
/// CPU has it, the baseline otherwise; picked once per process.
fn block_minima() -> BlockMinima {
    static PICKED: OnceLock<BlockMinima> = OnceLock::new();
    *PICKED.get_or_init(|| avx2_block_minima().unwrap_or(block_minima_baseline))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::walk;
    use crate::{ExactS, SubtrajSearch};
    use proptest::prelude::*;
    use simsub_measures::{CoordNormalizer, Dtw, Frechet, T2Vec};
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
        // t2vec reports no aggregate: no scan under it prunes, and every
        // bound is INFINITY.
        let q = walk(1, 5);
        let t2vec = T2Vec::random(7, 6, CoordNormalizer::identity());
        assert!(!crate::scan_prunes(&ExactS, &t2vec, true));
        let mut cascade = BoundCascade::new(&t2vec, &q);
        let mbr = Mbr::of_points(&walk(2, 6));
        assert_eq!(cascade.coarse_bound(&mbr), f64::INFINITY);
        assert_eq!(cascade.envelope_bound(&mbr), f64::INFINITY);
        assert_eq!(cascade.point_bound(&[1.0], &[1.0], |_| true), f64::INFINITY);
    }

    /// The coordinate slabs of `points`.
    fn slabs(points: &[Point]) -> (Vec<f64>, Vec<f64>) {
        points.iter().map(|p| (p.x, p.y)).unzip()
    }

    /// The point bound by its definition — per query point the distance
    /// to its nearest data point, summed (or maxed) in query order — taken
    /// over the `sqrt` matrix the scan fills for a survivor. Also checks
    /// that matrix against `Point::dist`.
    fn column_minimum_bound(measure: &dyn Measure, data: &[Point], query: &[Point]) -> f64 {
        let (xs, ys) = slabs(data);
        let ts = vec![0.0; data.len()];
        let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
        let mut ws = crate::SearchWorkspace::new(measure, query);
        assert!(ws.prepare_cell_rows(view));
        let matrix = ws.cell_rows();
        for (r, p) in data.iter().enumerate() {
            for (k, &qk) in query.iter().enumerate() {
                assert_eq!(matrix[r * query.len() + k].to_bits(), p.dist(qk).to_bits());
            }
        }
        let nearest = (0..query.len()).map(|k| {
            let column = matrix.iter().skip(k).step_by(query.len());
            column.copied().fold(f64::INFINITY, f64::min)
        });
        let dist_lb = match measure.distance_aggregate().unwrap() {
            DistanceAggregate::Sum => nearest.sum::<f64>(),
            DistanceAggregate::Max => nearest.fold(0.0, f64::max),
        };
        similarity_from_distance(dist_lb * DIST_LB_SLACK)
    }

    /// Every instance of the block loop this CPU can run, named: the
    /// baseline always, the AVX2 one when the CPU has AVX2 (the skip is
    /// reported once a process).
    fn instances() -> Vec<(&'static str, BlockMinima)> {
        let mut all: Vec<(&'static str, BlockMinima)> = vec![("baseline", block_minima_baseline)];
        match avx2_block_minima() {
            Some(avx2) => all.push(("avx2", avx2)),
            None => {
                static REPORTED: OnceLock<()> = OnceLock::new();
                REPORTED.get_or_init(|| eprintln!("AVX2 instance skipped: this CPU lacks AVX2"));
            }
        }
        all
    }

    /// The cascade for `query` under `measure`, running `minima`.
    fn cascade_with(measure: &dyn Measure, query: &[Point], minima: BlockMinima) -> BoundCascade {
        BoundCascade {
            minima,
            ..BoundCascade::new(measure, query)
        }
    }

    #[test]
    fn the_dispatch_picks_avx2_exactly_when_the_cpu_has_it() {
        let baseline = std::ptr::fn_addr_eq(block_minima(), block_minima_baseline as BlockMinima);
        assert_eq!(baseline, avx2_block_minima().is_none());
    }

    #[test]
    fn point_bound_is_the_column_minimum_fold() {
        // One `sqrt` per column must give the same bits as `n` of them,
        // in every instance, over odd and even point counts.
        for seed in 0..25u64 {
            let q = walk(seed, 7);
            let t = walk(seed + 40, 9 + seed as usize % 2);
            let (xs, ys) = slabs(&t);
            for measure in [&Dtw as &dyn Measure, &Frechet] {
                let want = column_minimum_bound(measure, &t, &q);
                for (name, minima) in instances() {
                    let got = cascade_with(measure, &q, minima).point_bound(&xs, &ys, |_| true);
                    assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} {name}");
                }
            }
        }
    }

    /// The stopping point bound against the reference, for one pair: with
    /// a `keep` that always answers true it is the reference's bits and is
    /// asked once per block but the last, with non-increasing prefix
    /// bounds that never fall below the full one. Under the test
    /// `bound >= t` — monotone in the bound, like the scan's `admits` — for
    /// every prefix bound, one ulp above each, the full bound and `probe`,
    /// the result fails the test exactly when the full bound does; it
    /// stops only then, and a bound that does not stop is the full bits.
    ///
    /// Every instance of the block loop is held to this, so the baseline
    /// and the AVX2 instance return identical bits.
    fn check_point_bound_stop(data: &[Point], query: &[Point], probe: f64) {
        let (xs, ys) = slabs(data);
        for (measure, (name, minima)) in [&Dtw as &dyn Measure, &Frechet]
            .into_iter()
            .flat_map(|m| instances().into_iter().map(move |i| (m, i)))
        {
            let cascade = cascade_with(measure, query, minima);
            let want = column_minimum_bound(measure, data, query);
            let mut prefixes = Vec::new();
            let full = cascade.point_bound(&xs, &ys, |b| {
                prefixes.push(b);
                true
            });
            let context = format!(
                "{} {name} n {} m {}",
                measure.name(),
                data.len(),
                query.len()
            );
            assert_eq!(full.to_bits(), want.to_bits(), "{context}");
            assert_eq!(prefixes.len(), query.len().div_ceil(4) - 1, "{context}");
            assert!(prefixes.windows(2).all(|w| w[0] >= w[1]), "{context}");
            assert!(prefixes.iter().all(|&b| b >= full), "{context}");
            let mut thresholds = vec![full, full.next_up(), probe];
            thresholds.extend(prefixes.iter().flat_map(|&b| [b, b.next_up()]));
            for t in thresholds {
                let mut stopped = false;
                let got = cascade.point_bound(&xs, &ys, |b| {
                    stopped = b < t;
                    !stopped
                });
                let context = format!("{context} threshold {t:e}");
                assert_eq!(got < t, full < t, "{context}");
                if stopped {
                    assert!(full < t && got >= full, "{context}");
                } else {
                    assert_eq!(got.to_bits(), full.to_bits(), "{context}");
                }
            }
        }
    }

    /// A trajectory on the 3×3 integer grid, where ties are everywhere.
    fn grid(seed: u64, len: usize) -> Vec<Point> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| Point::xy(rng.gen_range(0..3) as f64, rng.gen_range(0..3) as f64))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn point_bound_stops_only_where_the_full_bound_fails_on_walks(
            seed in 0u64..10_000, n in 1usize..21, m in 1usize..=17, probe in 0.0..1.0f64,
        ) {
            check_point_bound_stop(&walk(seed, n), &walk(seed + 1, m), probe);
        }

        #[test]
        fn point_bound_stops_only_where_the_full_bound_fails_on_ties(
            seed in 0u64..10_000, n in 1usize..21, m in 1usize..=17, probe in 0.0..1.0f64,
        ) {
            check_point_bound_stop(&grid(seed, n), &grid(seed + 1, m), probe);
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
                let points = cascade.point_bound(&xs, &ys, |_| true);
                assert!(points >= best, "points seed {seed} {}", measure.name());
                assert!(points <= cascade.envelope_bound(&traj.mbr()));
            }
        }
    }

    #[test]
    fn order_estimate_samples_spread_columns_and_every_eighth_point() {
        // A 7-point query samples columns 0, 2, 4 and 6; 17 data points
        // sample points 0, 8 and 16. Only sampled points count.
        let q: Vec<Point> = (0..7).map(|k| Point::xy(k as f64, 0.0)).collect();
        let mut xs = vec![100.0; 17];
        let ys = vec![0.0; 17];
        (xs[0], xs[8], xs[16]) = (0.0, 4.0, 6.0);
        // Point 1 would be nearest to column 2, but it is not sampled:
        // the nearest sampled point per sampled column is 0, 2, 0 and 0
        // away.
        xs[1] = 2.0;
        assert_eq!(BoundCascade::new(&Dtw, &q).order_estimate(&xs, &ys), 2.0);
        assert_eq!(
            BoundCascade::new(&Frechet, &q).order_estimate(&xs, &ys),
            2.0
        );
        xs[16] = 9.0;
        assert_eq!(BoundCascade::new(&Dtw, &q).order_estimate(&xs, &ys), 4.0);
        assert_eq!(
            BoundCascade::new(&Frechet, &q).order_estimate(&xs, &ys),
            2.0
        );
        // A one-point query samples its only column four times.
        let one = BoundCascade::new(&Dtw, &q[3..4]);
        assert_eq!(one.order_estimate(&[3.0], &[1.5]), 6.0);
        let t2vec = T2Vec::random(7, 6, CoordNormalizer::identity());
        assert_eq!(BoundCascade::new(&t2vec, &q).order_estimate(&xs, &ys), 0.0);
    }

    #[test]
    fn scan_timing_guards_nest_and_release() {
        assert!(!scan_timing_enabled());
        let g1 = scan_timing_scope();
        let g2 = scan_timing_scope();
        assert!(scan_timing_enabled());
        drop(g1);
        assert!(scan_timing_enabled());
        drop(g2);
        assert!(!scan_timing_enabled());
    }
}
