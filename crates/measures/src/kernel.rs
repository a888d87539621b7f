//! Slice-based DP kernels shared by the row-rolling measures (DTW,
//! discrete Frechet).
//!
//! The two measures are one row recurrence that differs only in how a
//! cell combines its point distance with its neighbourhood ([`DpOp`]: a
//! sum for DTW, a max for Frechet), so everything here — the incremental
//! [`RowEvaluator`], the range resolver and the free-start DP — is
//! written once over that choice and runs through one wavefront entry.
//! Three ideas, all **bit-identical** to the scalar references they
//! accelerate (property-tested in `dtw.rs`/`frechet.rs`):
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
//!    points at once along anti-diagonals through the one wavefront entry
//!    ([`extend_run_wavefront_rows`]): the coordinate entry fills a
//!    four-point tile of distance rows and hands it over, the cell-row
//!    entry hands over rows of a matrix filled once per candidate.
//!
//! 2. **The range resolver.** Among equal Θ the scalar ExactS sweep
//!    keeps the first `(start, end)` — ascending start, then ascending
//!    end, strict improvement — and the free-start DP (idea 3) cannot
//!    tell which start won. By idea 3's monotone-rounding argument a
//!    *split* pass — the free-start recurrence over data points
//!    `from..=s₁`, then the per-start one over the rest — leaves after
//!    each point `j` the minimum over starts `from..=min(j, s₁)` of the
//!    per-start cells, bit for bit. So "some start `≤ s₁` reaches Θ*" is
//!    one split pass, and bisection on `s₁` over `[0, first end whose
//!    free-start value reaches Θ*]` finds the first start that does; no
//!    pass reads a point past the last such end. A pass with `from = s₁`
//!    is that start's own DP, whose first end reaching Θ* is the sweep's
//!    end. O(n·m·log n) on distance tiles each pass fills: ExactS outside
//!    a pruning scan, and the resolver of a pending range.
//!
//! 3. **Free-start DP (the ExactS kernel).** Given the candidate's
//!    `n × m` point-distance matrix, one DP over it finds the best
//!    similarity Θ* of *every* start at once (Sakurai et al.'s Spring
//!    construction): the row wavefront runs from a row of `+∞` with
//!    column 0 reading `up = 0.0`, so every data point may open a match,
//!    and cell `F(j, c)` becomes the best distance of any range ending at
//!    `j` against `Tq[1, c]`. It is bit-identical to the minimum over
//!    starts of the per-start cells, because rounding is monotone —
//!    `fl(d + min_s x_s) = min_s fl(d + x_s)` — and `min`/`max` are
//!    exact, so by induction over the cells `F(j, c) = min_s D_s(j, c)`
//!    bit for bit, and Θ* is the sweep's Θ. A candidate whose Θ* reaches
//!    the floor comes back with its range pending
//!    ([`ExactBest::range_pending`]); a top-k scan resolves the range
//!    only for the hits it keeps — at most `k` a scan call — with idea 2.

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
/// ([`extend_run_wavefront_rows`]). Every path evaluates the same cell
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

    /// The wavefront over a coordinate run ([`extend_run_points`]),
    /// reading each point's distance out through `sink`.
    fn run(&mut self, xs: &[f64], ys: &[f64], sink: impl FnMut(usize, f64)) -> f64 {
        debug_assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return self.similarity();
        }
        assert!(self.initialized, "extend_run before init");
        let query = (&self.qx[..], &self.qy[..]);
        extend_run_points::<Op, false>(&mut self.row, query, (xs, ys), &mut self.bulk_dist, sink);
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

/// Data points a wavefront tile advances at once. Four f64 lanes fill one
/// AVX register (two SSE2 registers).
pub(crate) const LANES: usize = 4;

/// Reusable buffers for the slice kernels: one allocation serves a whole
/// corpus scan (held by `simsub_core::SearchWorkspace`). Every buffer is
/// sized by the query alone, never by the data.
#[derive(Debug, Clone, Default)]
pub struct DpScratch {
    qx: Vec<f64>,
    qy: Vec<f64>,
    /// The coordinate passes' [`LANES`]-point distance tile.
    tile: Vec<f64>,
    /// The DP's rolling row (length `m`).
    row: Vec<f64>,
}

impl DpScratch {
    /// A split pass (module docs, idea 2) over the query in `qx`/`qy` and
    /// data points `from..=to`: the free-start recurrence over
    /// `from..=split` from a row of `+∞`, the per-start one after it.
    /// `sink(j, d)` reads the row's last cell after point `j`.
    fn split_pass<Op: DpOp>(
        &mut self,
        (xs, ys): (&[f64], &[f64]),
        (from, split, to): (usize, usize, usize),
        mut sink: impl FnMut(usize, f64),
    ) {
        self.row.clear();
        self.row.resize(self.qx.len(), f64::INFINITY);
        let query = (&self.qx[..], &self.qy[..]);
        let (free, rest) = (from..split + 1, split + 1..to + 1);
        let run = (&xs[free.clone()], &ys[free]);
        extend_run_points::<Op, true>(&mut self.row, query, run, &mut self.tile, |i, d| {
            sink(from + i, d)
        });
        let run = (&xs[rest.clone()], &ys[rest]);
        extend_run_points::<Op, false>(&mut self.row, query, run, &mut self.tile, |i, d| {
            sink(split + 1 + i, d)
        });
    }

    /// The range the scalar sweep picks among those reaching `target`, the
    /// best similarity, given the first and the last end whose free-start
    /// value reaches it (module docs, idea 2).
    fn resolve_range<Op: DpOp>(
        &mut self,
        data: (&[f64], &[f64]),
        (first_end, last_end): (usize, usize),
        target: f64,
    ) -> (usize, usize) {
        let mut first_reaching = |from, split| {
            let mut found = None;
            self.split_pass::<Op>(data, (from, split, last_end), |j, d| {
                if found.is_none() && similarity_from_distance(d) >= target {
                    found = Some(j);
                }
            });
            found
        };
        // Starts below `lo` never reach Θ* and some start up to `hi` does,
        // so each test covers only the starts `lo..=mid`.
        let (mut lo, mut hi) = (0, first_end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match first_reaching(lo, mid) {
                Some(_) => hi = mid,
                None => lo = mid + 1,
            }
        }
        // The winner's own DP gives the end. Nothing reaches only when no
        // similarity compares (NaN coordinates): the sweep keeps `T[0, 0]`.
        (lo, first_reaching(lo, lo).unwrap_or(lo))
    }
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

/// `Measure::exact_best_above` for a [`DpOp`] measure: the free-start DP
/// (module docs, idea 3) yields Θ*, the best similarity of any range, bit
/// for bit. If `Θ* < floor` every range is below the floor too, and the
/// result is `T[0, 0]` with the value of the DP's first row — a real
/// subtrajectory below the floor, flagged `abandoned`.
///
/// With the cell-row matrix (a pruning scan always hands it over) the DP
/// reads it, O(n·m), and a Θ* that reaches the floor comes back with its
/// range pending. Without it the DP runs on distance tiles, and a Θ* that
/// reaches the floor comes back with the range the scalar sweep picks
/// (module docs, idea 2) — ExactS itself outside a pruning scan, and the
/// resolver of a pending range when floored at Θ*.
pub(crate) fn exact_best_above<Op: DpOp>(
    xs: &[f64],
    ys: &[f64],
    query: &[Point],
    floor: f64,
    cell_rows: Option<&[f64]>,
    scratch: &mut DpScratch,
) -> ExactBest {
    let (n, m) = (xs.len(), query.len());
    assert!(n > 0 && m > 0, "inputs must be non-empty");
    assert_eq!(n, ys.len(), "coordinate slabs must agree");
    // Θ*, the distance of `T[0, 0]` and, without the matrix, the first and
    // the last end whose free-start value reaches Θ*.
    let (best_sim, first, ends) = if let Some(cell_rows) = cell_rows {
        assert_eq!(cell_rows.len(), n * m, "cell rows must cover data × query");
        scratch.row.clear();
        scratch.row.resize(m, f64::INFINITY);
        let (mut best, mut first) = (f64::INFINITY, 0.0);
        extend_run_wavefront_rows::<Op, true>(&mut scratch.row, cell_rows, |j, d| {
            if j == 0 {
                first = d;
            }
            best = fmin(best, d);
        });
        (similarity_from_distance(best), first, None)
    } else {
        load_query_soa(query, &mut scratch.qx, &mut scratch.qy);
        let (mut best_sim, mut first, mut ends) = (f64::NEG_INFINITY, 0.0, (0, 0));
        scratch.split_pass::<Op>((xs, ys), (0, n - 1, n - 1), |j, d| {
            let sim = similarity_from_distance(d);
            if j == 0 {
                first = d;
            }
            if sim > best_sim {
                (best_sim, ends) = (sim, (j, j));
            } else if sim == best_sim {
                ends.1 = j;
            }
        });
        (best_sim, first, Some(ends))
    };
    let mut best = ExactBest {
        start: 0,
        end: 0,
        similarity: best_sim,
        abandoned: false,
        range_pending: false,
    };
    match ends {
        _ if best_sim < floor => {
            best.similarity = similarity_from_distance(first);
            best.abandoned = true;
        }
        None => best.range_pending = true,
        Some(ends) => {
            (best.start, best.end) = scratch.resolve_range::<Op>((xs, ys), ends, best_sim)
        }
    }
    best
}

/// The wavefront over a coordinate run `(xs, ys)` against `(qx, qy)`: each
/// tile of [`LANES`] points gets its distance rows from
/// [`fill_point_dists`] into `tile` — contiguous, auto-vectorized fills
/// that keep the DP tile's register set small — and then runs the one
/// wavefront entry, [`extend_run_wavefront_rows`], over them. `sink(i, d)`
/// reads the row's last cell after run point `i`.
fn extend_run_points<Op: DpOp, const FREE: bool>(
    row: &mut [f64],
    (qx, qy): (&[f64], &[f64]),
    (xs, ys): (&[f64], &[f64]),
    tile: &mut Vec<f64>,
    mut sink: impl FnMut(usize, f64),
) {
    let m = row.len();
    tile.resize(LANES * m, 0.0);
    for (t, (txs, tys)) in xs.chunks(LANES).zip(ys.chunks(LANES)).enumerate() {
        let dist = &mut tile[..txs.len() * m];
        for ((&x, &y), out) in txs.iter().zip(tys).zip(dist.chunks_exact_mut(m)) {
            fill_point_dists(qx, qy, x, y, out);
        }
        extend_run_wavefront_rows::<Op, FREE>(row, dist, |l, d| sink(t * LANES + l, d));
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
/// `RowEvaluator::extend` and of the wavefront's short-query fallback.
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

/// Queries shorter than this take the scalar per-point fallback inside
/// [`extend_run_wavefront_rows`]: the diagonal tile needs `m > LANES` for
/// its phase structure, and tiny rows have nothing to vectorize anyway.
const WAVEFRONT_MIN_M: usize = LANES + 1;

/// Bulk Φinc over a run of data points for a row-rolling measure — the
/// one wavefront entry: rolls the single DP row `row` (length `m`, the
/// query length) forward by one data point per row of `rows`, in
/// [`LANES`]-wide **anti-diagonal SIMD** order. `rows[k * m + j]` is run
/// point `k`'s distance to query point `j`: a candidate's whole matrix
/// (`PrefixEvaluator::fill_cell_rows`, shared by PSS's prefix and suffix
/// passes) or one tile that [`extend_run_points`] filled with
/// [`fill_point_dists`] (`RowEvaluator`'s `extend_run*`, the resolver).
///
/// The scalar `extend` is latency-bound: each cell's `min`/`add` chain
/// depends on the cell to its left. Consecutive *rows*, however, only
/// couple through the up/diag cells, so a tile of [`LANES`] rows can
/// advance along anti-diagonals: at wavefront step `s`, lane `l`
/// (handling data point `base + l`) computes column `j = s - l`, and the
/// value lane `l` reads as `up` is exactly what lane `l - 1` computed one
/// step earlier — so the whole DP state rotates through registers and the
/// steady-state step touches memory only for one incoming row cell, one
/// final row cell, and the four per-lane distances. Four independent
/// `min`/`add` chains advance per step, hiding the serial latency the
/// scalar `extend` is bound by.
///
/// Bitwise identity with the scalar chain is by construction: every cell
/// value is a fixed function of its three neighbors, evaluated by the
/// same expression (`Op::cell(d, fmin(fmin(diag, up), left))`, distances via
/// the exact `Point::dist` arithmetic; the `j == 0` boundary is
/// `Op::cell(d, up)`, bitwise `up + d` / `up.max(d)` because both ops are
/// commutative), so any dependency-respecting schedule — and any way of
/// cutting the run into calls — produces the same bits (property-tested
/// in `dtw.rs`/`frechet.rs` and the conformance suite).
///
/// `sink(i, v)` is called once per run point `i` with the row's final
/// cell `v` (the subtrajectory distance after appending that point) at
/// the moment it is computed — later lanes overwrite the cell, so readout
/// happens inside the sweep.
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

/// One tile of [`extend_run_wavefront_rows`]: dispatches on the (run-tail)
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
/// distance of any range ending at data point `j` — as the matrix path of
/// [`exact_best_above`] folds it.
#[cfg(test)]
fn free_start_ends<Op: DpOp>(cell_rows: &[f64], m: usize) -> Vec<f64> {
    let mut row = vec![f64::INFINITY; m];
    let mut ends = vec![0.0; cell_rows.len() / m];
    extend_run_wavefront_rows::<Op, true>(&mut row, cell_rows, |j, d| ends[j] = d);
    ends
}

/// Test support: the floor contract of `Measure::exact_best_above`,
/// checked for one `(data, query)` pair without the cell-row matrix (the
/// free-start DP and the range resolver) and with it (the free-start DP
/// alone). At a floor the true best reaches (`-∞`, its own similarity, one
/// ulp below, `probe` when it happens to be low enough) the matrix-free
/// result must be the scalar sweep's bit for bit, range included, and the
/// DP's must be Θ* bit for bit with its range pending — which the
/// matrix-free call floored at Θ* then resolves to the sweep's range. At
/// a floor it misses (one ulp above, `probe` otherwise) either result must
/// be a real subtrajectory's similarity below that floor, flagged
/// `abandoned`. The DP itself is pinned too: every end's best similarity
/// against the scalar sweep.
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
    let ends = match measure.name() {
        "dtw" => free_start_ends::<SumOp>(&matrix, m),
        "frechet" => free_start_ends::<MaxOp>(&matrix, m),
        other => panic!("no free-start DP for {other}"),
    };
    let shape = format!("n {} m {}", data.len(), query.len());
    for (j, (&d, &want)) in ends.iter().zip(&end_best).enumerate() {
        let got = similarity_from_distance(d);
        assert_eq!(got.to_bits(), want.to_bits(), "DP end {j}, {shape}");
    }

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

    /// Per-start rows of `data` against `query`: `rows[s][j - s]` is the
    /// DP row of `T[s, j]`, through the one-point-at-a-time evaluator.
    fn per_start_rows<Op: DpOp>(data: &[Point], query: &[Point]) -> Vec<Vec<Vec<f64>>> {
        let mut eval = RowEvaluator::<Op>::new(query);
        (0..data.len())
            .map(|s| {
                eval.init(data[s]);
                let mut rows = vec![eval.row.clone()];
                for &p in &data[s + 1..] {
                    eval.extend(p);
                    rows.push(eval.row.clone());
                }
                rows
            })
            .collect()
    }

    /// The identity behind the range resolver (module docs, idea 2): for
    /// every `from <= split`, the split pass leaves after each point `j`
    /// the cell-wise minimum over starts `from..=min(j, split)` of the
    /// per-start rows, bit for bit.
    fn assert_split_pass_is_the_minimum_over_starts<Op: DpOp>(data: &[Point], query: &[Point]) {
        let (n, m) = (data.len(), query.len());
        let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
        let per_start = per_start_rows::<Op>(data, query);
        let min_over = |starts: std::ops::RangeInclusive<usize>, j: usize| -> Vec<f64> {
            let mut row = vec![f64::INFINITY; m];
            for s in starts {
                for (r, &v) in row.iter_mut().zip(&per_start[s][j - s]) {
                    *r = fmin(*r, v);
                }
            }
            row
        };
        let mut scratch = DpScratch::default();
        load_query_soa(query, &mut scratch.qx, &mut scratch.qy);
        for from in 0..n {
            for split in from..n {
                let shape = format!("n {n} m {m} from {from} split {split}");
                let mut last = vec![f64::NAN; n];
                scratch.split_pass::<Op>((&xs, &ys), (from, split, n - 1), |j, d| last[j] = d);
                for (j, &got) in last.iter().enumerate().skip(from) {
                    let want = min_over(from..=j.min(split), j)[m - 1];
                    assert_eq!(got.to_bits(), want.to_bits(), "end {j}, {shape}");
                }
                let want = min_over(from..=split, n - 1);
                let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scratch.row), bits(&want), "last row, {shape}");
            }
        }
    }

    #[test]
    fn split_pass_is_the_minimum_over_starts() {
        // Walks and the 3×3 grid (ties everywhere), runs that end inside
        // a tile and on its boundary, queries below and above the
        // wavefront minimum.
        for n in [1usize, 4, 6, 9] {
            for m in [1usize, 3, WAVEFRONT_MIN_M, 8] {
                let walk = |seed: usize, len: usize| -> Vec<Point> {
                    (0..len)
                        .map(|i| {
                            let t = (seed * 31 + i) as f64;
                            Point::xy((t * 0.37).sin() * 3.0 + i as f64 * 0.2, (t * 0.73).cos())
                        })
                        .collect()
                };
                let grid = |seed: usize, len: usize| -> Vec<Point> {
                    (0..len)
                        .map(|i| {
                            Point::xy(((seed + 5 * i) % 3) as f64, ((seed * 7 + i * i) % 3) as f64)
                        })
                        .collect()
                };
                for (data, query) in [(walk(n, n), walk(50 + m, m)), (grid(n, n), grid(9 + m, m))] {
                    assert_split_pass_is_the_minimum_over_starts::<SumOp>(&data, &query);
                    assert_split_pass_is_the_minimum_over_starts::<MaxOp>(&data, &query);
                }
            }
        }
    }

    /// The first and the last end whose free-start value reaches the best
    /// similarity: every range that reaches it ends in between.
    fn reaching_ends(
        measure: &dyn crate::Measure,
        data: &[Point],
        query: &[Point],
    ) -> (usize, usize) {
        let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
        let mut matrix = Vec::new();
        measure
            .make_workspace(query)
            .fill_cell_rows(&xs, &ys, &vec![0.0; data.len()], &mut matrix)
            .expect("measure factors cell rows");
        let ends = match measure.name() {
            "dtw" => free_start_ends::<SumOp>(&matrix, query.len()),
            _ => free_start_ends::<MaxOp>(&matrix, query.len()),
        };
        let sims: Vec<f64> = ends.into_iter().map(similarity_from_distance).collect();
        let best = sims.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let first = sims
            .iter()
            .position(|&s| s >= best)
            .expect("some end reaches");
        let last = sims
            .iter()
            .rposition(|&s| s >= best)
            .expect("some end reaches");
        (first, last)
    }

    #[test]
    fn floor_contract_on_resolver_edge_shapes() {
        let far = |len: usize, seed: usize| -> Vec<Point> {
            (0..len)
                .map(|i| Point::xy(1e3 + 37.0 * (seed + i) as f64, -5e2 - 11.0 * i as f64))
                .collect()
        };
        let query_of = |m: usize| -> Vec<Point> {
            (0..m)
                .map(|i| Point::xy(0.5 + 0.3 * i as f64, (i as f64 * 0.9).sin()))
                .collect()
        };
        let measures = [&crate::Dtw as &dyn crate::Measure, &crate::Frechet];
        // Data lengths on both sides of a tile boundary (4k ± 1), queries
        // below and above the wavefront minimum.
        for n in [7usize, 9, 15, 17] {
            for m in [WAVEFRONT_MIN_M - 1, WAVEFRONT_MIN_M + 1] {
                let query = query_of(m);
                let q0 = query[0];
                let ql = query[m - 1];
                let p = Point::xy(0.5, 0.25);
                let near: Vec<Point> = (0..m)
                    .map(|i| Point::xy(p.x + 0.01 * i as f64, p.y - 0.01 * i as f64))
                    .collect();
                // (data, query, check on (start, end, first, last reaching end))
                type Check = fn(usize, usize, usize, usize, usize) -> bool;
                let shapes: [(&str, Vec<Point>, &[Point], Check); 3] = [
                    (
                        "winning start 0",
                        [query.clone(), far(n.saturating_sub(m), 1)].concat(),
                        &query,
                        |start, _, _, _, _| start == 0,
                    ),
                    (
                        "winning start is the first reaching end",
                        [far(n / 2, 2), vec![p], far(n - n / 2 - 1, 3)].concat(),
                        &near,
                        |start, end, first, _, _| start == first && end == first && start > 0,
                    ),
                    (
                        "last reaching end below n - 1",
                        [far(1, 4), vec![q0], query.clone(), vec![ql], far(1, 5)].concat(),
                        &query,
                        |start, _, first, last, n| start == 1 && first < last && last < n - 1,
                    ),
                ];
                for (name, data, query, check) in shapes {
                    if data.len() < m {
                        continue;
                    }
                    for measure in measures {
                        let (start, end, _) = scalar_exact_sweep(measure, &data, query);
                        let (first, last) = reaching_ends(measure, &data, query);
                        let context = format!("{name}: {} n {} m {m}", measure.name(), data.len());
                        assert!(check(start, end, first, last, data.len()), "{context}");
                        assert_floor_contract(measure, &data, query, 0.5);
                    }
                }
            }
        }
    }

    #[test]
    fn resolver_takes_the_end_from_the_winning_starts_own_dp() {
        // Under DTW the winning start's first range reaching Θ* can end
        // after the first end whose free-start value reaches it: rounding
        // at 2^53 lets start 2 tie Θ* at end 3 while start 1 first reaches
        // it at end 4. The free-start ends alone would answer `T[1, 3]`;
        // the sweep keeps `T[1, 4]`.
        let big = (1u64 << 53) as f64;
        let data: Vec<Point> = [big + 4.0, 3.0, 0.0, big / 2.0, big + 2.0, 2.0, 2.0]
            .iter()
            .map(|&x| Point::xy(x, 0.0))
            .collect();
        let query = [Point::xy(0.0, 0.0), Point::xy(2.0 * big, 0.0)];
        let (start, end, _) = scalar_exact_sweep(&crate::Dtw, &data, &query);
        assert_eq!((start, end), (1, 4));
        assert_eq!(reaching_ends(&crate::Dtw, &data, &query), (3, 4));
        assert_floor_contract(&crate::Dtw, &data, &query, 0.5);
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
