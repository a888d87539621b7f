//! Slice-based DP kernels shared by the row-rolling measures (DTW,
//! discrete Frechet).
//!
//! The two measures are one row recurrence that differs only in how a
//! cell combines its point distance with its neighbourhood ([`DpOp`]: a
//! sum for DTW, a max for Frechet), so everything here — the incremental
//! [`RowEvaluator`] and the three kernels below — is written once over
//! that choice. Three ideas, all **bit-identical** to the scalar
//! references they accelerate (property-tested in `dtw.rs`/`frechet.rs`):
//!
//! 1. **Hoisted distance rows.** [`RowEvaluator`] lifts the data point
//!    out of the DP inner loop: the per-row point-distance vector
//!    `d[j] = d(p, q_j)` is filled first by [`fill_point_dists`] — a
//!    4-wide unrolled loop over the query's SoA coordinate slices that
//!    LLVM auto-vectorizes (`sqrtpd`) — and the serial DP recurrence then
//!    reads the buffer. Every element is computed by exactly the
//!    arithmetic `Point::dist` performs (`dx = px - qx; dy = py - qy;
//!    sqrt(dx² + dy²)`), and the DP consumes them in the original order,
//!    so results cannot drift. Its bulk entry points advance four data
//!    points at once along anti-diagonals ([`extend_run_wavefront`]).
//!
//! 2. **Multi-start lockstep (the ExactS kernel).** ExactS sweeps one DP
//!    row per start index; rows for different starts are *independent*,
//!    so [`exact_best_multi_start`] advances [`LANES`] starts in lockstep
//!    over the shared data stream. At global data index `j` all active
//!    lanes need distances to the *same* point `p_j`, so one distance
//!    row serves every lane, and the lane-interleaved row storage turns
//!    the serial `min`/`add` recurrence into [`LANES`]-wide SIMD — the
//!    dependency chain that bounds a single row amortizes across lanes.
//!    Per-cell arithmetic and the tie-breaking scan order (ascending
//!    start, then ascending end, strict improvement) are exactly those of
//!    the scalar sweep, so the returned `(start, end, similarity)` is
//!    bit-for-bit the scalar answer. Given a similarity floor (the Θ* of
//!    a hit whose range a top-k scan resolves) the same body also tracks
//!    each lane's row minimum — a lower bound on everything that start
//!    can still produce — and leaves a start group once no lane can reach
//!    the floor; the answer is then bit-for-bit the scalar one whenever it
//!    reaches the floor. This is the paper's enumeration and the range
//!    resolver; a pruning scan's per-candidate kernel is idea 3.
//!
//! 3. **Free-start DP (the scan's ExactS kernel).** Given the candidate's
//!    `n × m` point-distance matrix, one DP over it finds the best
//!    similarity Θ* of *every* start at once (Sakurai et al.'s Spring
//!    construction): the row wavefront runs from a row of `+∞` with
//!    column 0 reading `up = 0.0`, so every data point may open a match,
//!    and cell `F(j, c)` becomes the best distance of any range ending at
//!    `j` against `Tq[1, c]`. It is bit-identical to the minimum over
//!    starts of the per-start cells, because rounding is monotone —
//!    `fl(d + min_s x_s) = min_s fl(d + x_s)` — and `min`/`max` are
//!    exact, so by induction over the cells `F(j, c) = min_s D_s(j, c)`
//!    bit for bit, and Θ* is the sweep's Θ. The DP cannot tell *which*
//!    start won, and among equal Θ the sweep keeps the first `(start,
//!    end)`; so a candidate whose Θ* reaches the floor comes back with
//!    its range pending ([`ExactBest::range_pending`]). A top-k scan
//!    resolves the range only for the hits it keeps — at most `k` a scan
//!    call — with the multi-start sweep floored at Θ* itself.

use crate::{similarity_from_distance, PrefixEvaluator};
use simsub_trajectory::Point;
use std::marker::PhantomData;

/// Branchless `min` — compiles to a bare `minsd`/`minpd` instead of the
/// NaN-propagating blend sequence `f64::min` lowers to (5 instructions
/// that also block packed vectorization of the DP loops). On the values
/// in play — distances are `sqrt` of sums of squares of finite
/// coordinates, so never NaN and never `-0.0` — this is bit-identical to
/// `f64::min`.
#[inline(always)]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Branchless `max`; see [`fmin`].
#[inline(always)]
fn fmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Fills `out[j] = sqrt((px - qx[j])² + (py - qy[j])²)` — the DP row's
/// point-distance vector. 4-wide unrolled; every lane is the exact
/// arithmetic of [`Point::dist`], so element values are bit-identical to
/// the scalar path whatever the compiler vectorizes.
#[inline]
pub fn fill_point_dists(qx: &[f64], qy: &[f64], px: f64, py: f64, out: &mut [f64]) {
    debug_assert!(qx.len() == qy.len() && qx.len() == out.len());
    // Bound-check-free zipped loop; elements are independent, so the
    // compiler is free to unroll/vectorize — values stay bitwise the
    // scalar arithmetic either way.
    for ((&x, &y), o) in qx.iter().zip(qy).zip(out.iter_mut()) {
        let dx = px - x;
        let dy = py - y;
        *o = (dx * dx + dy * dy).sqrt();
    }
}

/// Splits an AoS query into SoA coordinate buffers (reused across calls).
pub fn load_query_soa(query: &[Point], qx: &mut Vec<f64>, qy: &mut Vec<f64>) {
    qx.clear();
    qy.clear();
    qx.extend(query.iter().map(|p| p.x));
    qy.extend(query.iter().map(|p| p.y));
}

/// How a row-rolling measure combines the precomputed point distance with
/// the DP neighborhood — the only piece that differs between DTW and
/// discrete Frechet.
pub(crate) trait DpOp {
    /// Boundary recurrence for the first data point of a subtrajectory:
    /// `acc' = boundary(acc, d)` with `acc` starting at 0.0
    /// (DTW: running sum; Frechet: running max).
    fn boundary(acc: f64, d: f64) -> f64;

    /// Interior cell from the distance and `min(min(diag, up), left)`
    /// (DTW: `d + best`; Frechet: `d.max(best)`).
    fn cell(d: f64, best: f64) -> f64;
}

/// DTW: distances sum along the alignment.
pub(crate) struct SumOp;

impl DpOp for SumOp {
    #[inline]
    fn boundary(acc: f64, d: f64) -> f64 {
        acc + d
    }

    #[inline]
    fn cell(d: f64, best: f64) -> f64 {
        d + best
    }
}

/// Discrete Frechet: the maximum pair distance along the alignment.
pub(crate) struct MaxOp;

impl DpOp for MaxOp {
    #[inline]
    fn boundary(acc: f64, d: f64) -> f64 {
        fmax(acc, d)
    }

    #[inline]
    fn cell(d: f64, best: f64) -> f64 {
        fmax(d, best)
    }
}

/// The distance of `a` against `b` under a [`DpOp`] measure: one
/// [`RowEvaluator`] walked over `a`. `O(|a| · |b|)` time, `O(|b|)` space;
/// `INFINITY` when either input is empty.
pub(crate) fn row_distance<Op: DpOp>(a: &[Point], b: &[Point]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let mut eval = RowEvaluator::<Op>::new(b);
    eval.init(a[0]);
    for &p in &a[1..] {
        eval.extend(p);
    }
    eval.distance()
}

/// The incremental evaluator of a row-rolling measure — DTW under
/// [`SumOp`], discrete Frechet under [`MaxOp`]. After `init(p_i)` and `k`
/// calls to `extend` it holds the DP row of `T[i, i+k]` against the whole
/// query, so `Φini = Φinc = O(m)`.
///
/// The query is kept as SoA coordinate slices; a step fills its
/// point-distance row first and then runs the serial recurrence over it
/// (module docs, idea 1), and the bulk entry points run the wavefront
/// ([`extend_run_wavefront`]). Every path evaluates the same cell
/// expressions in the same dependency order, so they agree bit for bit
/// with each other and with the scalar references in `dtw.rs`/`frechet.rs`
/// (property-tested there and in `tests/evaluator_conformance.rs`).
pub(crate) struct RowEvaluator<Op> {
    qx: Vec<f64>,
    qy: Vec<f64>,
    /// `row[j]`: the distance of the current subtrajectory against
    /// `Tq[1, j+1]`.
    row: Vec<f64>,
    /// `init`/`extend`'s point-distance row.
    dist: Vec<f64>,
    /// The wavefront's per-lane distance rows; sized on first bulk call.
    bulk_dist: Vec<f64>,
    initialized: bool,
    op: PhantomData<Op>,
}

impl<Op: DpOp> RowEvaluator<Op> {
    /// An evaluator for the given (non-empty) query.
    pub(crate) fn new(query: &[Point]) -> Self {
        let mut eval = Self {
            qx: Vec::new(),
            qy: Vec::new(),
            row: Vec::new(),
            dist: Vec::new(),
            bulk_dist: Vec::new(),
            initialized: false,
            op: PhantomData,
        };
        eval.reset(query);
        eval
    }

    /// The wavefront over a coordinate run, reading each point's distance
    /// out through `sink`.
    fn run(&mut self, xs: &[f64], ys: &[f64], sink: impl FnMut(usize, f64)) -> f64 {
        if xs.is_empty() {
            return self.similarity();
        }
        assert!(self.initialized, "extend_run before init");
        extend_run_wavefront::<Op>(
            &mut self.row,
            &self.qx,
            &self.qy,
            xs,
            ys,
            &mut self.bulk_dist,
            sink,
        );
        self.similarity()
    }
}

impl<Op: DpOp> PrefixEvaluator for RowEvaluator<Op> {
    fn init(&mut self, p: Point) -> f64 {
        // The first data point's row: the boundary recurrence along the
        // query (DTW: running sum, Frechet: running max).
        fill_point_dists(&self.qx, &self.qy, p.x, p.y, &mut self.dist);
        let mut acc = 0.0;
        for (r, &d) in self.row.iter_mut().zip(&self.dist) {
            acc = Op::boundary(acc, d);
            *r = acc;
        }
        self.initialized = true;
        self.similarity()
    }

    fn extend(&mut self, p: Point) -> f64 {
        assert!(self.initialized, "extend before init");
        fill_point_dists(&self.qx, &self.qy, p.x, p.y, &mut self.dist);
        roll_row::<Op, false>(&mut self.row, &self.dist);
        self.similarity()
    }

    fn similarity(&self) -> f64 {
        similarity_from_distance(self.distance())
    }

    fn distance(&self) -> f64 {
        if self.initialized {
            *self.row.last().expect("non-empty query")
        } else {
            f64::INFINITY
        }
    }

    fn reset(&mut self, query: &[Point]) {
        assert!(!query.is_empty(), "query must be non-empty");
        load_query_soa(query, &mut self.qx, &mut self.qy);
        self.row.clear();
        self.row.resize(query.len(), 0.0);
        self.dist.clear();
        self.dist.resize(query.len(), 0.0);
        self.initialized = false;
    }

    fn extend_run(&mut self, xs: &[f64], ys: &[f64], ts: &[f64]) -> f64 {
        let _ = ts; // point distances are planar; timestamps never enter the DP
        self.run(xs, ys, |_, _| {})
    }

    fn extend_run_into(&mut self, xs: &[f64], ys: &[f64], ts: &[f64], sims: &mut [f64]) -> f64 {
        let _ = ts;
        self.run(xs, ys, |i, d| sims[i] = similarity_from_distance(d))
    }

    fn fill_cell_rows(
        &self,
        xs: &[f64],
        ys: &[f64],
        ts: &[f64],
        rows: &mut Vec<f64>,
    ) -> Option<usize> {
        let _ = ts;
        let m = self.qx.len();
        rows.clear();
        rows.resize(xs.len() * m, 0.0);
        for (k, out) in rows.chunks_exact_mut(m).enumerate() {
            fill_point_dists(&self.qx, &self.qy, xs[k], ys[k], out);
        }
        Some(m)
    }

    fn extend_run_rows_into(&mut self, rows: &[f64], sims: &mut [f64]) -> f64 {
        if rows.is_empty() {
            return self.similarity();
        }
        assert!(self.initialized, "extend_run before init");
        extend_run_wavefront_rows::<Op, false>(&mut self.row, rows, |i, d| {
            sims[i] = similarity_from_distance(d)
        });
        self.similarity()
    }
}

/// Starts advanced in lockstep by the multi-start kernel. Four f64 lanes
/// fill one AVX register (two SSE2 registers); the inner per-lane loops
/// are written over contiguous `[f64; LANES]` groups so LLVM vectorizes
/// them at either width.
pub(crate) const LANES: usize = 4;

/// Reusable buffers for the slice kernels: one allocation serves a whole
/// corpus scan (held by `simsub_core::SearchWorkspace`).
#[derive(Debug, Clone, Default)]
pub struct DpScratch {
    qx: Vec<f64>,
    qy: Vec<f64>,
    dist: Vec<f64>,
    /// Lane-interleaved DP rows: `rows[jj * LANES + l]` is row cell `jj`
    /// of lane `l`.
    rows: Vec<f64>,
    /// The free-start DP's rolling row (length `m`).
    free_row: Vec<f64>,
}

/// What `Measure::exact_best_above` found: the winning range, its
/// similarity, and whether the kernel settled below the floor or left the
/// range for later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactBest {
    /// First point of the best subtrajectory (0-based, inclusive).
    pub start: usize,
    /// Last point of the best subtrajectory (0-based, inclusive).
    pub end: usize,
    /// `Θ(T[start, end], query)`.
    pub similarity: f64,
    /// True when the result is below the floor: the kernel proved nothing
    /// reaches it and returned a stand-in instead of the best range.
    pub abandoned: bool,
    /// True when `similarity` is the best Θ* bit for bit but `start` and
    /// `end` are placeholders: the free-start DP does not know which range
    /// the sweep would pick. The same call without the cell-row matrix,
    /// floored at Θ*, returns that range.
    pub range_pending: bool,
}

/// The distance threshold `τ` of a similarity floor: every distance
/// `x ≥ τ` has `similarity_from_distance(x) < floor` *strictly*.
/// `Θ = 1/(1+x)` is evaluated by two correctly rounded — hence monotone —
/// operations, so it suffices to find one `τ` whose own similarity is
/// below the floor; the algebraic inverse is nudged up until the forward
/// evaluation agrees (the nudge doubles, so the loop runs once or twice).
/// A floor no similarity can be below (`≤ 0`, `-∞`, NaN) yields `∞`.
fn abandon_threshold(floor: f64) -> f64 {
    if floor.is_nan() || floor <= 0.0 {
        return f64::INFINITY;
    }
    let mut tau = fmax(1.0 / floor - 1.0, 0.0);
    let mut nudge = f64::EPSILON;
    while similarity_from_distance(tau) >= floor {
        tau = (tau + nudge) * (1.0 + nudge);
        nudge *= 2.0;
    }
    tau
}

/// The best subtrajectory under a measure whose prefix DP is expressible
/// as a [`DpOp`], with exactly the scalar ExactS sweep's values and
/// tie-breaking **whenever that best reaches `floor`**; when it does not,
/// the result is some real subtrajectory's similarity, itself below
/// `floor` (a top-k heap whose k-th similarity is `floor` rejects it
/// either way). `floor = -∞` is the plain exhaustive sweep.
///
/// The floor buys early abandoning. Cell costs are `≥ 0`, so both ops
/// only ever grow what they combine (`d + best ≥ best` also after
/// rounding, `max(d, best) ≥ best`): by induction along a row every cell
/// of a start's next row is `≥` the minimum of its current row, so that
/// minimum never decreases and every later prefix distance from the same
/// start is `≥` it. Once a lane's row minimum reaches
/// [`abandon_threshold`]`(floor)` none of its remaining consults can
/// reach the floor, and a start group whose lanes are all in that state is
/// left. Skipped consults are strictly below the true best, so neither
/// its value nor the strict-`>` tie-breaking among equal bests can change.
fn exact_best_multi_start<Op: DpOp>(
    xs: &[f64],
    ys: &[f64],
    query: &[Point],
    floor: f64,
    scratch: &mut DpScratch,
) -> ExactBest {
    let n = xs.len();
    let m = query.len();
    assert!(n > 0 && m > 0, "inputs must be non-empty");
    assert_eq!(n, ys.len(), "coordinate slabs must agree");
    load_query_soa(query, &mut scratch.qx, &mut scratch.qy);
    scratch.dist.resize(m, 0.0);
    scratch.rows.resize(m * LANES, 0.0);
    let rows = &mut scratch.rows[..m * LANES];
    let tau = abandon_threshold(floor);

    let mut best_sim = f64::NEG_INFINITY;
    let mut best = (0usize, 0usize);
    for group in (0..n).step_by(LANES) {
        let lanes = LANES.min(n - group);
        let mut lane_best_sim = [f64::NEG_INFINITY; LANES];
        let mut lane_best_end = [0usize; LANES];
        let mut lane_best_dist = [f64::INFINITY; LANES];
        for j in group..n {
            fill_point_dists(&scratch.qx, &scratch.qy, xs[j], ys[j], &mut scratch.dist);
            let dist = &scratch.dist[..m];
            // Lane `l` covers start `group + l`: it initializes its row at
            // j == group + l and extends on every later j. All lanes
            // extend in lockstep from the group's second point on; a lane
            // that has not started yet (or, in a ragged tail group, never
            // will) carries junk that its own init overwrites and that
            // is neither consulted nor allowed to hold the group open.
            let newly = j - group;
            let mut row_min = if newly == 0 {
                [f64::INFINITY; LANES]
            } else {
                extend_all_lanes::<Op>(rows, dist, m)
            };
            if newly < lanes {
                // A boundary row only accumulates, so its minimum is its
                // first cell.
                init_lane::<Op>(rows, newly, dist, m);
                row_min[newly] = rows[newly];
            }
            let active = if newly < lanes { newly + 1 } else { lanes };
            for l in 0..active {
                // The scalar sweep's consult — similarity of the row's
                // last cell, strict improvement only — minus the divisions
                // that cannot win: Θ is non-increasing in distance, so a
                // cell above the one behind the lane's best cannot be
                // strictly more similar.
                let last = rows[(m - 1) * LANES + l];
                if last <= lane_best_dist[l] {
                    let sim = similarity_from_distance(last);
                    if sim > lane_best_sim[l] {
                        lane_best_sim[l] = sim;
                        lane_best_dist[l] = last;
                        lane_best_end[l] = j;
                    }
                }
            }
            let dead = |l: usize| l >= lanes || row_min[l] >= tau;
            if active == lanes && j + 1 < n && (0..LANES).all(dead) {
                break;
            }
        }
        // Merging lane bests in ascending-lane order with strict `>`
        // reproduces the scalar sweep's ascending-start tie preference.
        for l in 0..lanes {
            if lane_best_sim[l] > best_sim {
                best_sim = lane_best_sim[l];
                best = (group + l, lane_best_end[l]);
            }
        }
    }
    ExactBest {
        start: best.0,
        end: best.1,
        similarity: best_sim,
        abandoned: best_sim < floor,
        range_pending: false,
    }
}

/// `Measure::exact_best_above` for a [`DpOp`] measure.
///
/// With the cell-row matrix (a pruning scan always hands it over) only
/// the free-start DP runs (module docs, idea 3), O(n·m), and yields Θ*,
/// the best similarity of any range, bit for bit. If `Θ* < floor` every
/// range is below the floor too, and the result is `T[0, 0]` with the
/// value of the DP's first row — a real subtrajectory below the floor.
/// Otherwise the result is Θ* with its range pending.
///
/// Without the matrix it is the multi-start sweep — the paper's
/// enumeration, which `ExactS::search` keeps timing, and the resolver of
/// a pending range when floored at Θ*: each start is left as soon as it
/// cannot tie, and the sweep's first range reaching Θ* comes back.
pub(crate) fn exact_best_above<Op: DpOp>(
    xs: &[f64],
    ys: &[f64],
    query: &[Point],
    floor: f64,
    cell_rows: Option<&[f64]>,
    scratch: &mut DpScratch,
) -> ExactBest {
    let Some(cell_rows) = cell_rows else {
        return exact_best_multi_start::<Op>(xs, ys, query, floor, scratch);
    };
    assert_eq!(
        cell_rows.len(),
        xs.len() * query.len(),
        "cell rows must cover data × query"
    );
    let (best, first) = free_start_best::<Op>(cell_rows, query.len(), &mut scratch.free_row);
    let best_sim = similarity_from_distance(best);
    if best_sim < floor {
        return ExactBest {
            start: 0,
            end: 0,
            similarity: similarity_from_distance(first),
            abandoned: true,
            range_pending: false,
        };
    }
    ExactBest {
        start: 0,
        end: 0,
        similarity: best_sim,
        abandoned: false,
        range_pending: true,
    }
}

/// The free-start DP over `cell_rows` (`n × m`, row `j` the distances of
/// data point `j` to the query): returns the best distance of any
/// subtrajectory and the distance of `T[0, 0]`. `free_row` is the DP's
/// rolling row.
fn free_start_best<Op: DpOp>(cell_rows: &[f64], m: usize, free_row: &mut Vec<f64>) -> (f64, f64) {
    assert!(m > 0 && !cell_rows.is_empty(), "inputs must be non-empty");
    assert!(
        cell_rows.len().is_multiple_of(m),
        "cell rows must cover data × query"
    );
    free_row.clear();
    free_row.resize(m, f64::INFINITY);
    let (mut best, mut first) = (f64::INFINITY, 0.0);
    extend_run_wavefront_rows::<Op, true>(free_row, cell_rows, |j, d| {
        if j == 0 {
            first = d;
        }
        best = fmin(best, d);
    });
    (best, first)
}

/// Φini for lane `l`: the boundary recurrence over the distance row.
#[inline]
fn init_lane<Op: DpOp>(rows: &mut [f64], l: usize, dist: &[f64], m: usize) {
    let mut acc = 0.0f64;
    for jj in 0..m {
        acc = Op::boundary(acc, dist[jj]);
        rows[jj * LANES + l] = acc;
    }
}

/// Φinc for all [`LANES`] lanes in lockstep: the per-`jj` lane loop runs
/// over a contiguous `[f64; LANES]` group, so the serial `min`/`add`
/// chain vectorizes across lanes; `diag`/`left` stay in registers and
/// lanes never mix, so each lane's cells are exactly the scalar
/// recurrence's. Returns the per-lane minima of the new rows — one more
/// packed `min` per cell group, fed by the chain but not on it.
#[inline]
fn extend_all_lanes<Op: DpOp>(rows: &mut [f64], dist: &[f64], m: usize) -> [f64; LANES] {
    let mut diag = [0.0f64; LANES];
    let mut left = [0.0f64; LANES];
    let d0 = dist[0];
    {
        let r0: &mut [f64; LANES] = (&mut rows[..LANES]).try_into().expect("LANES cells");
        for l in 0..LANES {
            diag[l] = r0[l];
            r0[l] = Op::cell(d0, r0[l]);
            left[l] = r0[l];
        }
    }
    let mut row_min = left;
    let mut groups = rows[LANES..LANES * m].chunks_exact_mut(LANES);
    for (row, &d) in (&mut groups).zip(&dist[1..m]) {
        for l in 0..LANES {
            let up = row[l];
            row[l] = Op::cell(d, fmin(fmin(diag[l], up), left[l]));
            diag[l] = up;
            left[l] = row[l];
            row_min[l] = fmin(row_min[l], row[l]);
        }
    }
    row_min
}

/// Queries shorter than this take the scalar per-point fallback inside
/// [`extend_run_wavefront`]: the diagonal tile needs `m > LANES` for its
/// phase structure, and tiny rows have nothing to vectorize anyway.
const WAVEFRONT_MIN_M: usize = LANES + 1;

/// Bulk Φinc over a run of data points for a row-rolling measure: rolls
/// the single DP row `row` (length `m`, the query length) forward by one
/// data point per run element, in [`LANES`]-wide **anti-diagonal SIMD**
/// order.
///
/// The scalar `extend` is latency-bound: each cell's `min`/`add` chain
/// depends on the cell to its left. Consecutive *rows*, however, only
/// couple through the up/diag cells, so a tile of [`LANES`] rows can
/// advance along anti-diagonals: at wavefront step `s`, lane `l`
/// (handling data point `base + l`) computes column `j = s - l`, and the
/// value lane `l` reads as `up` is exactly what lane `l - 1` computed one
/// step earlier — so the whole DP state rotates through registers and the
/// steady-state step touches memory only for one incoming row cell, one
/// final row cell, and the four per-lane distances (precomputed as
/// contiguous vectorized [`fill_point_dists`] rows). Four independent
/// `min`/`add` chains advance per step, hiding the serial latency the
/// scalar `extend` is bound by.
///
/// Bitwise identity with the scalar chain is by construction: every cell
/// value is a fixed function of its three neighbors, evaluated by the
/// same expression (`Op::cell(d, fmin(fmin(diag, up), left))`, distances via
/// the exact `Point::dist` arithmetic; the `j == 0` boundary is
/// `Op::cell(d, up)`, bitwise `up + d` / `up.max(d)` because both ops are
/// commutative), so any dependency-respecting schedule produces the same
/// bits (property-tested in `dtw.rs`/`frechet.rs` and the conformance
/// suite).
///
/// `sink(i, v)` is called once per run point `i` with the row's final
/// cell `v` (the subtrajectory distance after appending that point) at
/// the moment it is computed — later lanes overwrite the cell, so readout
/// happens inside the sweep. `scratch` is a reusable buffer holding the
/// tile's precomputed distance rows (`LANES * m` cells).
pub(crate) fn extend_run_wavefront<Op: DpOp>(
    row: &mut [f64],
    qx: &[f64],
    qy: &[f64],
    xs: &[f64],
    ys: &[f64],
    scratch: &mut Vec<f64>,
    mut sink: impl FnMut(usize, f64),
) {
    let m = qx.len();
    debug_assert_eq!(qy.len(), m);
    debug_assert_eq!(row.len(), m);
    debug_assert_eq!(xs.len(), ys.len());
    if m < WAVEFRONT_MIN_M {
        scratch.resize(m, 0.0);
        let dist = &mut scratch[..m];
        for i in 0..xs.len() {
            fill_point_dists(qx, qy, xs[i], ys[i], dist);
            roll_row::<Op, false>(row, dist);
            sink(i, row[m - 1]);
        }
        return;
    }
    scratch.resize(LANES * m, 0.0);
    let dist = &mut scratch[..LANES * m];
    let mut base = 0usize;
    while base < xs.len() {
        let lanes = LANES.min(xs.len() - base);
        // Hoisted distance rows: `dist[l * m + j] = d(p_{base+l}, q_j)` —
        // the sqrt-heavy part runs as contiguous auto-vectorized fills,
        // keeping the DP tile's register set small enough to stay
        // spill-free.
        for l in 0..lanes {
            fill_point_dists(
                qx,
                qy,
                xs[base + l],
                ys[base + l],
                &mut dist[l * m..(l + 1) * m],
            );
        }
        diagonal_tile::<Op, false>(row, dist, m, lanes, |l, v| sink(base + l, v));
        base += lanes;
    }
}

/// Column 0's `up` input: the row above under the per-start recurrence,
/// `0.0` under the free-start one, where every data point may open a
/// match (`Op::cell(d, 0.0)` is `d` for both ops).
#[inline(always)]
fn col0_up<const FREE: bool>(up: f64) -> f64 {
    if FREE {
        0.0
    } else {
        up
    }
}

/// One Φinc step in column order: rolls `row` forward over the next data
/// point's distance row `dist` (column 0 reads [`col0_up`]). The body of
/// `RowEvaluator::extend` and of both wavefront entries' short-query
/// fallback.
#[inline]
fn roll_row<Op: DpOp, const FREE: bool>(row: &mut [f64], dist: &[f64]) {
    let mut diag = row[0];
    let mut left = Op::cell(dist[0], col0_up::<FREE>(row[0]));
    row[0] = left;
    for (r, &d) in row[1..].iter_mut().zip(&dist[1..]) {
        let up = *r;
        *r = Op::cell(d, fmin(fmin(diag, up), left));
        diag = up;
        left = *r;
    }
}

/// [`extend_run_wavefront`] minus the distance fills: advances the DP row
/// over `rows.len() / m` run points whose per-point cell-input rows are
/// already laid out contiguously (`rows[k * m + j]`, as produced by
/// `PrefixEvaluator::fill_cell_rows`). The DP schedule, cell expressions,
/// and readout are exactly the coordinate entry's, so given bitwise-equal
/// rows the results are bitwise equal — this is the second-walk half of
/// sharing one distance matrix between PSS's prefix and suffix passes.
///
/// With `FREE` the same body runs the free-start recurrence (module docs,
/// idea 3): column 0 reads `up = 0.0` instead of the row above, and
/// nothing else changes.
pub(crate) fn extend_run_wavefront_rows<Op: DpOp, const FREE: bool>(
    row: &mut [f64],
    rows: &[f64],
    mut sink: impl FnMut(usize, f64),
) {
    let m = row.len();
    debug_assert!(m > 0 && rows.len().is_multiple_of(m));
    let n = rows.len() / m;
    if m < WAVEFRONT_MIN_M {
        for (i, dist) in rows.chunks_exact(m).enumerate() {
            roll_row::<Op, FREE>(row, dist);
            sink(i, row[m - 1]);
        }
        return;
    }
    let mut base = 0usize;
    while base < n {
        let lanes = LANES.min(n - base);
        diagonal_tile::<Op, FREE>(
            row,
            &rows[base * m..(base + lanes) * m],
            m,
            lanes,
            |l, v| sink(base + l, v),
        );
        base += lanes;
    }
}

/// One tile of [`extend_run_wavefront`]: dispatches on the (run-tail)
/// lane count so each variant monomorphizes with fully unrolled inner
/// loops. Requires `m > LANES` (shorter queries take the scalar fallback
/// above). `FREE` selects column 0's `up` ([`col0_up`]).
fn diagonal_tile<Op: DpOp, const FREE: bool>(
    row: &mut [f64],
    dist: &[f64],
    m: usize,
    lanes: usize,
    sink: impl FnMut(usize, f64),
) {
    match lanes {
        4 => diagonal_tile_4::<Op, FREE>(row, dist, m, sink),
        3 => diagonal_tile_l::<Op, FREE, 3>(row, dist, m, sink),
        2 => diagonal_tile_l::<Op, FREE, 2>(row, dist, m, sink),
        _ => diagonal_tile_l::<Op, FREE, 1>(row, dist, m, sink),
    }
}

/// The hot full-width tile, hand-scalarized: the DP state lives in named
/// locals (not arrays) so every lane is guaranteed a register — the
/// array form of [`diagonal_tile_l`] leaves `left[]` round-tripping the
/// stack each step, which puts a store-to-load forward on the serial DP
/// recurrence. Same wavefront schedule and cell expressions as the
/// generic tile; the generic version (kept for the 1–3 lane run tail)
/// doubles as its cross-checked reference.
fn diagonal_tile_4<Op: DpOp, const FREE: bool>(
    row: &mut [f64],
    dist: &[f64],
    m: usize,
    mut sink: impl FnMut(usize, f64),
) {
    debug_assert!(m > 4 && row.len() == m && dist.len() >= 4 * m);
    let (r0, rest) = dist[..4 * m].split_at(m);
    let (r1, rest) = rest.split_at(m);
    let (r2, r3) = rest.split_at(m);
    // Ramp-up, steps s = 0..4: lane `l` enters at `s == l` on its
    // boundary cell; lane 3's first cell (column 0) is final.
    let mut u0 = row[0];
    let mut v0 = Op::cell(r0[0], col0_up::<FREE>(u0));
    let (mut dg0, mut lf0, mut up1) = (u0, v0, v0);
    u0 = row[1];
    let mut v1 = Op::cell(r1[0], col0_up::<FREE>(up1));
    v0 = Op::cell(r0[1], fmin(fmin(dg0, u0), lf0));
    let (mut dg1, mut lf1, mut up2) = (up1, v1, v1);
    (dg0, lf0, up1) = (u0, v0, v0);
    u0 = row[2];
    let mut v2 = Op::cell(r2[0], col0_up::<FREE>(up2));
    v1 = Op::cell(r1[1], fmin(fmin(dg1, up1), lf1));
    v0 = Op::cell(r0[2], fmin(fmin(dg0, u0), lf0));
    let (mut dg2, mut lf2, up3) = (up2, v2, v2);
    (dg1, lf1, up2) = (up1, v1, v1);
    (dg0, lf0, up1) = (u0, v0, v0);
    u0 = row[3];
    let mut v3 = Op::cell(r3[0], col0_up::<FREE>(up3));
    v2 = Op::cell(r2[1], fmin(fmin(dg2, up2), lf2));
    v1 = Op::cell(r1[2], fmin(fmin(dg1, up1), lf1));
    v0 = Op::cell(r0[3], fmin(fmin(dg0, u0), lf0));
    row[0] = v3;
    let (mut dg3, mut lf3) = (up3, v3);
    let mut up3 = v2;
    (dg2, lf2, up2) = (up2, v2, v1);
    (dg1, lf1, up1) = (up1, v1, v0);
    (dg0, lf0) = (u0, v0);
    // Steady state: all lanes interior, one row load (lane 0), one row
    // store (lane 3, final for its column), four distance loads per step.
    for s in 4..m - 1 {
        u0 = row[s];
        v0 = Op::cell(r0[s], fmin(fmin(dg0, u0), lf0));
        v1 = Op::cell(r1[s - 1], fmin(fmin(dg1, up1), lf1));
        v2 = Op::cell(r2[s - 2], fmin(fmin(dg2, up2), lf2));
        v3 = Op::cell(r3[s - 3], fmin(fmin(dg3, up3), lf3));
        row[s - 3] = v3;
        (dg0, lf0) = (u0, v0);
        (dg1, up1, lf1) = (up1, v0, v1);
        (dg2, up2, lf2) = (up2, v1, v2);
        (dg3, up3, lf3) = (up3, v2, v3);
    }
    // s == m - 1: lane 0 computes its last column and reads out.
    u0 = row[m - 1];
    v0 = Op::cell(r0[m - 1], fmin(fmin(dg0, u0), lf0));
    v1 = Op::cell(r1[m - 2], fmin(fmin(dg1, up1), lf1));
    v2 = Op::cell(r2[m - 3], fmin(fmin(dg2, up2), lf2));
    v3 = Op::cell(r3[m - 4], fmin(fmin(dg3, up3), lf3));
    row[m - 4] = v3;
    sink(0, v0);
    (dg1, up1, lf1) = (up1, v0, v1);
    (dg2, up2, lf2) = (up2, v1, v2);
    (dg3, up3, lf3) = (up3, v2, v3);
    // Ramp-down, steps s = m..m+3: lane `s + 1 - m` finishes its row
    // (column m-1) each step and reads out through the sink.
    v1 = Op::cell(r1[m - 1], fmin(fmin(dg1, up1), lf1));
    v2 = Op::cell(r2[m - 2], fmin(fmin(dg2, up2), lf2));
    v3 = Op::cell(r3[m - 3], fmin(fmin(dg3, up3), lf3));
    row[m - 3] = v3;
    sink(1, v1);
    (dg2, up2, lf2) = (up2, v1, v2);
    (dg3, up3, lf3) = (up3, v2, v3);
    v2 = Op::cell(r2[m - 1], fmin(fmin(dg2, up2), lf2));
    v3 = Op::cell(r3[m - 2], fmin(fmin(dg3, up3), lf3));
    row[m - 2] = v3;
    sink(2, v2);
    (dg3, up3, lf3) = (up3, v2, v3);
    v3 = Op::cell(r3[m - 1], fmin(fmin(dg3, up3), lf3));
    row[m - 1] = v3;
    sink(3, v3);
}

/// `L` consecutive DP rows advanced along anti-diagonals with
/// **register-rotated** state: at step `s`, lane `l` computes column
/// `j = s - l`, and the value lane `l` needs as `up` next step is exactly
/// lane `l - 1`'s output this step — so `up`/`diag`/`left` rotate through
/// registers, memory traffic shrinks to one load (lane 0's incoming row
/// cell), one store (lane `L - 1`'s final cell), and `L` distance loads
/// per step, and no step ever reloads a cell the previous step stored
/// (which would stall on store-to-load forwarding across the shifted
/// window). Distances are precomputed lane-major in `dist`
/// (`dist[l * m + j]` = lane `l` vs query column `j`) so the sqrt-heavy
/// work runs as contiguous vectorized fills and the DP loop's live state
/// fits the register file. The steady loop runs *ascending* over `s`
/// with per-lane views pre-shifted by the lane's diagonal offset
/// (`rows[l][s] == dist[l * m + s - l]`), which lets the compiler prove
/// every index in bounds and drop the checks.
fn diagonal_tile_l<Op: DpOp, const FREE: bool, const L: usize>(
    row: &mut [f64],
    dist: &[f64],
    m: usize,
    mut sink: impl FnMut(usize, f64),
) {
    debug_assert!(m > L && row.len() == m && dist.len() >= L * m);
    let rows: [&[f64]; L] = core::array::from_fn(|l| &dist[l * (m - 1)..l * (m - 1) + m]);
    let mut diag = [0.0f64; L];
    let mut left = [0.0f64; L];
    let mut up = [0.0f64; L];
    let mut v = [0.0f64; L];
    // Ramp-up: lane `l` enters at step `s == l` on column 0 (the boundary
    // cell `Op::cell(d, up)`); `j <= s < L < m`, so no readouts. Lane
    // `L - 1`'s first cell (column 0) is final.
    for s in 0..L {
        up[0] = row[s];
        for l in 0..=s {
            let j = s - l;
            let d = dist[l * m + j];
            v[l] = if j == 0 {
                Op::cell(d, col0_up::<FREE>(up[l]))
            } else {
                Op::cell(d, fmin(fmin(diag[l], up[l]), left[l]))
            };
        }
        if s == L - 1 {
            row[0] = v[L - 1];
        }
        for l in (0..=s).rev() {
            diag[l] = up[l];
            left[l] = v[l];
            if l + 1 < L {
                up[l + 1] = v[l];
            }
        }
    }
    // Steady state: all lanes on interior columns, readout-free (lane 0
    // only reaches the last column at `s == m - 1`, handled after the
    // loop so the body stays branchless). The DP state rotates through
    // registers; only lane `L - 1`'s cell (final for its column) is
    // stored, trailing lane 0's load by `L - 1` columns.
    for s in L..m - 1 {
        up[0] = row[s];
        for l in 0..L {
            let d = rows[l][s];
            v[l] = Op::cell(d, fmin(fmin(diag[l], up[l]), left[l]));
        }
        row[s - (L - 1)] = v[L - 1];
        for l in (0..L).rev() {
            diag[l] = up[l];
            left[l] = v[l];
            if l + 1 < L {
                up[l + 1] = v[l];
            }
        }
    }
    // `s == m - 1`: lane 0 computes its last column and reads out.
    {
        up[0] = row[m - 1];
        for l in 0..L {
            let d = rows[l][m - 1];
            v[l] = Op::cell(d, fmin(fmin(diag[l], up[l]), left[l]));
        }
        row[m - L] = v[L - 1];
        sink(0, v[0]);
        for l in (0..L).rev() {
            diag[l] = up[l];
            left[l] = v[l];
            if l + 1 < L {
                up[l + 1] = v[l];
            }
        }
    }
    // Ramp-down: trailing lanes drain through the last columns; lane
    // `l == s + 1 - m` finishes its row (column m-1) each step and reads
    // out through the sink.
    for s in m..m + L - 1 {
        let lo = s + 1 - m;
        for l in lo..L {
            let d = dist[l * m + (s - l)];
            v[l] = Op::cell(d, fmin(fmin(diag[l], up[l]), left[l]));
        }
        row[s - (L - 1)] = v[L - 1];
        sink(lo, v[lo]);
        for l in (lo..L).rev() {
            diag[l] = up[l];
            left[l] = v[l];
            if l + 1 < L {
                up[l + 1] = v[l];
            }
        }
    }
}

/// Test support: the scalar ExactS-style sweep through the public
/// evaluator API — the bitwise (value *and* tie-breaking) reference for
/// every `Measure::exact_best` kernel. Shared by the DTW and Frechet
/// kernel proptests so the tie-breaking contract lives in one place.
#[cfg(test)]
pub(crate) fn scalar_exact_sweep(
    measure: &dyn crate::Measure,
    data: &[Point],
    query: &[Point],
) -> (usize, usize, f64) {
    let mut eval = measure.make_workspace(query);
    let mut best = (0usize, 0usize);
    let mut best_sim = f64::NEG_INFINITY;
    for i in 0..data.len() {
        let mut sim = eval.init(data[i]);
        if sim > best_sim {
            best_sim = sim;
            best = (i, i);
        }
        for (j, &p) in data.iter().enumerate().skip(i + 1) {
            sim = eval.extend(p);
            if sim > best_sim {
                best_sim = sim;
                best = (i, j);
            }
        }
    }
    (best.0, best.1, best_sim)
}

/// Test support: the free-start DP's last column — `ends[j]` is the best
/// distance of any range ending at data point `j` — as the wavefront
/// [`free_start_best`] folds produces it.
#[cfg(test)]
fn free_start_ends<Op: DpOp>(cell_rows: &[f64], m: usize) -> Vec<f64> {
    let mut row = vec![f64::INFINITY; m];
    let mut ends = vec![0.0; cell_rows.len() / m];
    extend_run_wavefront_rows::<Op, true>(&mut row, cell_rows, |j, d| ends[j] = d);
    ends
}

/// Test support: the floor contract of `Measure::exact_best_above`,
/// checked for one `(data, query)` pair without the cell-row matrix (the
/// multi-start sweep) and with it (the free-start DP alone). At a floor
/// the true best reaches (`-∞`, its own similarity, one ulp below, `probe`
/// when it happens to be low enough) the sweep's result must be the
/// unfloored one bit for bit, and the DP's must be Θ* bit for bit with its
/// range pending — which the sweep floored at Θ* then resolves to the
/// unfloored range. At a floor it misses (one ulp above, `probe`
/// otherwise) either result must be a real subtrajectory's similarity
/// below that floor, flagged `abandoned`. The DP itself is pinned too:
/// every end's best similarity and Θ* against the scalar sweep.
#[cfg(test)]
pub(crate) fn assert_floor_contract(
    measure: &dyn crate::Measure,
    data: &[Point],
    query: &[Point],
    probe: f64,
) {
    let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
    let ts = vec![0.0; data.len()];
    let view = simsub_trajectory::TrajView::new(0, &xs, &ys, &ts);
    let mut scratch = DpScratch::default();
    let (start, end, sim) = measure
        .exact_best(view, query, &mut scratch)
        .expect("measure has a kernel");
    assert_eq!(
        (start, end, sim.to_bits()),
        {
            let (s, e, v) = scalar_exact_sweep(measure, data, query);
            (s, e, v.to_bits())
        },
        "unfloored kernel vs scalar sweep"
    );
    let mut matrix = Vec::new();
    measure
        .make_workspace(query)
        .fill_cell_rows(&xs, &ys, &ts, &mut matrix)
        .expect("measure factors cell rows");

    // The free-start DP against the per-end maxima of the scalar sweep.
    let mut end_best = vec![f64::NEG_INFINITY; data.len()];
    let mut eval = measure.make_workspace(query);
    for i in 0..data.len() {
        end_best[i] = end_best[i].max(eval.init(data[i]));
        for (j, &p) in data.iter().enumerate().skip(i + 1) {
            end_best[j] = end_best[j].max(eval.extend(p));
        }
    }
    let m = query.len();
    let mut free_row = Vec::new();
    let (ends, (dp_best, dp_first)) = match measure.name() {
        "dtw" => (
            free_start_ends::<SumOp>(&matrix, m),
            free_start_best::<SumOp>(&matrix, m, &mut free_row),
        ),
        "frechet" => (
            free_start_ends::<MaxOp>(&matrix, m),
            free_start_best::<MaxOp>(&matrix, m, &mut free_row),
        ),
        other => panic!("no free-start DP for {other}"),
    };
    let shape = format!("n {} m {}", data.len(), query.len());
    for (j, (&d, &want)) in ends.iter().zip(&end_best).enumerate() {
        let got = similarity_from_distance(d);
        assert_eq!(got.to_bits(), want.to_bits(), "DP end {j}, {shape}");
    }
    let dp_sim = similarity_from_distance(dp_best);
    assert_eq!(dp_sim.to_bits(), sim.to_bits(), "DP Θ*, {shape}");
    assert_eq!(dp_first.to_bits(), ends[0].to_bits(), "DP T[0, 0], {shape}");

    for cell_rows in [None, Some(matrix.as_slice())] {
        for floor in [
            f64::NEG_INFINITY,
            sim,
            sim.next_down(),
            sim.next_up(),
            probe,
        ] {
            let got = measure
                .exact_best_above(view, query, floor, cell_rows, &mut scratch)
                .expect("measure has a kernel");
            let context = format!(
                "floor {floor:e} best {sim:e} rows {} {shape}",
                cell_rows.is_some()
            );
            if sim >= floor {
                assert_eq!(got.similarity.to_bits(), sim.to_bits(), "{context}");
                assert!(!got.abandoned, "{context}");
                assert_eq!(got.range_pending, cell_rows.is_some(), "{context}");
                let resolved = if got.range_pending {
                    measure
                        .exact_best_above(view, query, got.similarity, None, &mut scratch)
                        .expect("measure has a kernel")
                } else {
                    got
                };
                assert_eq!(
                    (resolved.start, resolved.end, resolved.similarity.to_bits()),
                    (start, end, sim.to_bits()),
                    "{context}"
                );
                assert!(!resolved.abandoned && !resolved.range_pending, "{context}");
            } else {
                assert!(got.similarity < floor, "{context}: {got:?}");
                assert!(got.abandoned && !got.range_pending, "{context}");
                let real = measure.similarity(&data[got.start..=got.end], query);
                assert_eq!(got.similarity.to_bits(), real.to_bits(), "{context}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abandon_threshold_is_strictly_below_the_floor() {
        for floor in [1.0, 1.0f64.next_down(), 0.75, 0.5, 1e-3, 1e-300, 5e-324] {
            let tau = abandon_threshold(floor);
            assert!(similarity_from_distance(tau) < floor, "floor {floor:e}");
            // Tight: a distance a few ulps of the algebraic inverse lower
            // still reaches the floor.
            let exact = 1.0 / floor - 1.0;
            assert!(
                tau <= exact * (1.0 + 1e-12) + 1e-15,
                "floor {floor:e} tau {tau:e}"
            );
        }
        // Nothing is below these floors / everything is below those.
        for floor in [f64::NEG_INFINITY, -1.0, 0.0, f64::NAN] {
            assert_eq!(abandon_threshold(floor), f64::INFINITY);
        }
        for floor in [1.0f64.next_up(), 2.0, f64::INFINITY] {
            assert_eq!(abandon_threshold(floor), 0.0);
        }
    }

    #[test]
    fn floor_contract_on_degenerate_shapes() {
        // n = 1, ragged tail groups (n % 4 = 1, 2, 3), queries shorter
        // than the wavefront minimum, and exact duplicates (best Θ = 1),
        // on walks and on the 3×3 grid, where ties are everywhere.
        let walk: fn(u64, usize) -> Vec<Point> = |seed, len| {
            (0..len)
                .map(|i| {
                    let t = (seed * 31 + i as u64) as f64;
                    Point::xy(
                        (t * 0.37).sin() * 3.0 + i as f64 * 0.2,
                        (t * 0.73).cos() * 2.0,
                    )
                })
                .collect()
        };
        let grid: fn(u64, usize) -> Vec<Point> = |seed, len| {
            (0..len as u64)
                .map(|i| Point::xy(((seed + 5 * i) % 3) as f64, ((seed * 7 + i * i) % 3) as f64))
                .collect()
        };
        for shape in [walk, grid] {
            for n in [1usize, 2, 3, 4, 5, 6, 7, 9, 13] {
                for m in [1usize, 2, 4, 5, 8] {
                    let data = shape(n as u64, n);
                    let query = shape(100 + m as u64, m);
                    for measure in [&crate::Dtw as &dyn crate::Measure, &crate::Frechet] {
                        assert_floor_contract(measure, &data, &query, 0.3);
                    }
                }
            }
            let data = shape(7, 11);
            let query = data[3..8].to_vec();
            for measure in [&crate::Dtw as &dyn crate::Measure, &crate::Frechet] {
                assert_floor_contract(measure, &data, &query, 1.0);
            }
        }
    }

    #[test]
    fn fill_point_dists_matches_point_dist() {
        let query: Vec<Point> = (0..13)
            .map(|i| Point::xy(i as f64 * 0.7 - 3.0, (i * i) as f64 * 0.1))
            .collect();
        let (mut qx, mut qy) = (Vec::new(), Vec::new());
        load_query_soa(&query, &mut qx, &mut qy);
        let p = Point::xy(1.25, -0.75);
        let mut out = vec![0.0; query.len()];
        fill_point_dists(&qx, &qy, p.x, p.y, &mut out);
        for (j, q) in query.iter().enumerate() {
            assert_eq!(out[j].to_bits(), p.dist(*q).to_bits(), "element {j}");
        }
    }

    #[test]
    fn load_query_soa_overwrites_reused_buffers() {
        let (mut qx, mut qy) = (vec![9.0; 7], vec![9.0; 2]);
        let long: Vec<Point> = (0..5)
            .map(|i| Point::new(i as f64, -(i as f64), 100.0))
            .collect();
        load_query_soa(&long, &mut qx, &mut qy);
        assert_eq!(qx, [0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(qy, [0.0, -1.0, -2.0, -3.0, -4.0]);
        load_query_soa(&long[3..], &mut qx, &mut qy);
        assert_eq!(
            (qx.as_slice(), qy.as_slice()),
            (&[3.0, 4.0][..], &[-3.0, -4.0][..])
        );
    }
}
