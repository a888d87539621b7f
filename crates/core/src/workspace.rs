//! The allocate-once evaluation workspace a corpus scan threads through
//! every trajectory it searches.
//!
//! A per-trajectory `algo.search(measure, data, query)` call boxes a
//! fresh `PrefixEvaluator` (including a `query.to_vec()` copy) per
//! (trajectory, query) pair — pure heap traffic on a scan hot path,
//! since [`simsub_measures::PrefixEvaluator::init`] already re-anchors
//! an evaluator from scratch. A [`SearchWorkspace`] pays the
//! allocation once per (query, scan): the prefix evaluator (and, for
//! suffix-using algorithms like [`crate::Pss`], a reversed-query
//! evaluator plus a suffix-similarity buffer) are created on first use
//! and reused across the entire corpus via `init`; [`SearchWorkspace::reset`]
//! re-targets the same buffers at a new query for multi-query scans.
//!
//! With the columnar corpus arena the workspace also carries:
//! - the [`simsub_measures::DpScratch`] buffers behind the slice DP
//!   kernels ([`SearchWorkspace::exact_best`] dispatches to
//!   [`simsub_measures::Measure::exact_best_above`]),
//! - what a pruning scan knows about the candidate it is about to search
//!   ([`SearchWorkspace::begin_candidate`]): the similarity floor the hit
//!   has to reach and whether the candidate's cell-row matrix is already
//!   filled — live for exactly one search, so a search outside a scan
//!   never sees either — and what the search left for the scan to do
//!   ([`SearchOutcome`]),
//! - the candidate's point-distance (cell-row) matrix: one
//!   [`SearchWorkspace::ensure_cell_rows`] fills it unless the workspace
//!   already holds it, whether the scan or the split walk asks first, and
//!   every reader shares that one fill,
//! - one suffix pass ([`SearchWorkspace::compute_suffix_similarities`]),
//!   which reads that matrix reversed while the workspace holds this
//!   candidate's and the coordinate slabs reversed otherwise, and the
//!   speculative-similarity scratch behind the bulk
//!   [`simsub_measures::PrefixEvaluator::extend_run`] scan paths; one
//!   split borrow ([`SearchWorkspace::scan_parts`]) lends the two scan
//!   bodies (the windowed sweep of ExactS and SizeS, the split walk of
//!   PSS, POS and POS-D) the evaluator, the suffix, the scratch and the
//!   matrix, so they read the arena slabs with no per-candidate AoS
//!   staging copy,
//! - the Q-network activations behind the learned walk
//!   ([`SearchWorkspace::episode_parts`] lends a [`crate::SplitEnv`] the
//!   prefix evaluator, the suffix buffer and this scratch, so an RLS scan
//!   encodes its query once and allocates nothing per candidate), and
//! - a reusable AoS staging buffer ([`SearchWorkspace::staged`]) for
//!   algorithms without a view-based override, so the default
//!   [`crate::SubtrajSearch::search_with`] stays allocation-free after
//!   warmup.
//!
//! Reuse is bitwise-transparent: `init` fully overwrites evaluator state
//! with the same arithmetic a fresh evaluator would perform, so a scan
//! through one workspace returns bit-identical results to a fresh
//! evaluator per trajectory (asserted by `tests/prune_equivalence.rs`
//! and, against the scalar oracle of `tests/common/scalar.rs`, by
//! `tests/layout_equivalence.rs`).

use crate::SearchResult;
use simsub_measures::{distance_from_similarity, DpScratch, Measure, PrefixEvaluator};
use simsub_nn::MlpCache;
use simsub_trajectory::{Point, PointSeq, SubtrajRange, TrajView};

/// How a search inside a pruning scan left its result, as
/// [`SearchWorkspace::end_candidate`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The result is the search's full answer.
    Complete,
    /// The exact kernel settled below the floor: the result is a real
    /// subtrajectory's similarity below it, standing in for a best the
    /// heap rejects either way ([`simsub_measures::ExactBest::abandoned`]).
    Abandoned,
    /// The similarity is the exact best bit for bit, the range is a
    /// placeholder ([`simsub_measures::ExactBest::range_pending`]): the
    /// same search without the matrix, floored at that similarity, returns
    /// the range.
    RangePending,
}

/// Reusable evaluator state for one query under one measure. See the
/// module docs; obtained via [`SearchWorkspace::new`] and passed to
/// [`crate::SubtrajSearch::search_with`].
pub struct SearchWorkspace<'m> {
    measure: &'m dyn Measure,
    query: Vec<Point>,
    prefix: Box<dyn PrefixEvaluator + 'm>,
    /// Reversed-query buffer backing `suffix_eval`; filled lazily.
    reversed_query: Vec<Point>,
    /// Evaluator over the reversed query (suffix similarities), created
    /// on first use so prefix-only algorithms never pay for it.
    suffix_eval: Option<Box<dyn PrefixEvaluator + 'm>>,
    /// Per-trajectory suffix similarities `Θ(T[t, n]ᴿ, Tqᴿ)`.
    suffix: Vec<f64>,
    /// Buffers behind the measure's slice DP kernels (`Measure::exact_best`).
    dp_scratch: DpScratch,
    /// AoS staging buffer for the default `search_with` fallback.
    staging: Vec<Point>,
    /// Per-point similarity scratch for the bulk (`extend_run_into`) scan
    /// bodies: speculative prefix chunks, SizeS windows, suffix staging.
    sims: Vec<f64>,
    /// Reversed copies of a view's coordinate slabs, feeding the suffix
    /// evaluator through one bulk `extend_run_into` call.
    rev_xs: Vec<f64>,
    rev_ys: Vec<f64>,
    rev_ts: Vec<f64>,
    /// Precomputed DP cell rows for the whole trajectory
    /// (`cell_rows[k * stride + j]` = the evaluator's cell input for data
    /// point `k` against query point `j`), filled by
    /// [`SearchWorkspace::ensure_cell_rows`] when the measure supports
    /// [`PrefixEvaluator::fill_cell_rows`]. Shared by the exact kernel,
    /// the prefix stream and (reversed) the suffix pass.
    cell_rows: Vec<f64>,
    /// `cell_rows` reversed in both dimensions — exactly the cell rows
    /// the reversed-stream/reversed-query suffix evaluator would fill.
    rev_cell_rows: Vec<f64>,
    /// Row stride of `cell_rows` (the query length), 0 before the first fill.
    cell_stride: usize,
    /// Whether the measure's evaluator factors cell rows at all.
    factors_cell_rows: bool,
    /// The scan's similarity floor for the candidate being searched
    /// (`-∞` outside [`SearchWorkspace::begin_candidate`] /
    /// [`SearchWorkspace::end_candidate`]).
    sim_floor: f64,
    /// True while `cell_rows` holds the matrix of the candidate being
    /// searched: the scan filled it for a survivor of its bounds, or a
    /// split walk filled it for itself and releases it when it returns.
    rows_prepared: bool,
    /// How the candidate's exact kernel left its result.
    outcome: SearchOutcome,
    /// Q-network activations behind the learned walk ([`crate::Rls`]).
    policy_scratch: MlpCache,
}

impl<'m> SearchWorkspace<'m> {
    /// Allocates the workspace for `query` (non-empty) under `measure` —
    /// the one place a scan pays `Φ`-side allocation.
    pub fn new(measure: &'m dyn Measure, query: &[Point]) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        let prefix = measure.make_workspace(query);
        // An empty run answers the factoring question without filling.
        let mut cell_rows = Vec::new();
        let factors_cell_rows = prefix
            .fill_cell_rows(&[], &[], &[], &mut cell_rows)
            .is_some();
        Self {
            measure,
            query: query.to_vec(),
            prefix,
            reversed_query: Vec::new(),
            suffix_eval: None,
            suffix: Vec::new(),
            dp_scratch: DpScratch::default(),
            staging: Vec::new(),
            sims: Vec::new(),
            rev_xs: Vec::new(),
            rev_ys: Vec::new(),
            rev_ts: Vec::new(),
            cell_rows,
            rev_cell_rows: Vec::new(),
            cell_stride: 0,
            factors_cell_rows,
            sim_floor: f64::NEG_INFINITY,
            rows_prepared: false,
            outcome: SearchOutcome::Complete,
            policy_scratch: MlpCache::default(),
        }
    }

    /// Re-targets the workspace at a new query, reusing every buffer.
    pub fn reset(&mut self, query: &[Point]) {
        assert!(!query.is_empty(), "query must be non-empty");
        self.query.clear();
        self.query.extend_from_slice(query);
        self.prefix.reset(query);
        if let Some(suffix_eval) = &mut self.suffix_eval {
            self.reversed_query.clear();
            self.reversed_query.extend(query.iter().rev().copied());
            suffix_eval.reset(&self.reversed_query);
        }
    }

    /// The measure this workspace evaluates under.
    pub fn measure(&self) -> &'m dyn Measure {
        self.measure
    }

    /// The current query.
    pub fn query(&self) -> &[Point] {
        &self.query
    }

    /// Tells the next `search_with` call what the pruning scan knows about
    /// its candidate: only a hit with similarity `≥ sim_floor` can still
    /// enter the top-k, and — when `rows_prepared` — the matrix of the last
    /// [`SearchWorkspace::ensure_cell_rows`] call belongs to it. Both are
    /// overwritten per candidate and cleared by
    /// [`SearchWorkspace::end_candidate`].
    pub fn begin_candidate(&mut self, sim_floor: f64, rows_prepared: bool) {
        self.sim_floor = sim_floor;
        self.rows_prepared = rows_prepared;
        self.outcome = SearchOutcome::Complete;
    }

    /// Clears the per-candidate hints and reports how the search between
    /// the two calls left its result.
    pub fn end_candidate(&mut self) -> SearchOutcome {
        self.sim_floor = f64::NEG_INFINITY;
        self.rows_prepared = false;
        std::mem::replace(&mut self.outcome, SearchOutcome::Complete)
    }

    /// The similarity floor of the candidate being searched; `-∞` when no
    /// pruning scan set one.
    pub fn sim_floor(&self) -> f64 {
        self.sim_floor
    }

    /// Whether the workspace holds the cell-row matrix of the candidate
    /// being searched (see [`SearchWorkspace::ensure_cell_rows`] and
    /// [`SearchWorkspace::begin_candidate`]).
    pub fn rows_prepared(&self) -> bool {
        self.rows_prepared
    }

    /// The measure's exhaustive-best slice kernel over columnar data
    /// (`Measure::exact_best_above`), run through this workspace's reused
    /// scratch buffers under the candidate's floor and, when the scan
    /// prepared it, over the candidate's cell-row matrix — which is what
    /// switches DTW and Frechet to the O(n·m) free-start DP. `None` when
    /// the measure has no kernel; outside a pruning scan the result is
    /// bit-identical to the scalar `init`/`extend` sweep of Algorithm 1,
    /// inside one whenever it reaches the floor (the kernel contract) —
    /// with the range left [`SearchOutcome::RangePending`] when the DP
    /// found it.
    pub fn exact_best(&mut self, data: TrajView<'_>) -> Option<SearchResult> {
        let cell_rows = self.rows_prepared.then_some(self.cell_rows.as_slice());
        let best = self.measure.exact_best_above(
            data,
            &self.query,
            self.sim_floor,
            cell_rows,
            &mut self.dp_scratch,
        )?;
        if best.abandoned {
            self.outcome = SearchOutcome::Abandoned;
        } else if best.range_pending {
            self.outcome = SearchOutcome::RangePending;
        }
        Some(SearchResult {
            range: SubtrajRange::new(best.start, best.end),
            similarity: best.similarity,
            distance: distance_from_similarity(best.similarity),
        })
    }

    /// Stages `data` into the reusable AoS buffer and returns
    /// `(measure, data, query)` — the triple the allocating
    /// [`crate::SubtrajSearch::search`] entry needs. This is the default
    /// `search_with` bridge for algorithms without a view-based override:
    /// one memcpy per trajectory, no allocation after warmup.
    pub fn staged<S: PointSeq>(&mut self, data: S) -> (&'m dyn Measure, &[Point], &[Point]) {
        self.staging.clear();
        self.staging
            .extend((0..data.seq_len()).map(|i| data.seq_point(i)));
        (self.measure, &self.staging, &self.query)
    }

    /// Fills the suffix-similarity buffer for `data` (Algorithm 2,
    /// lines 2-3) at `Φini + (n-1)·Φinc` cost and zero allocation after
    /// first use: the reversed-query evaluator rolls forward over the
    /// reversed stream in **one** bulk call instead of `n - 1` virtual
    /// `extend` calls. When the workspace holds this candidate's matrix
    /// ([`SearchWorkspace::rows_prepared`]) that call reads it reversed —
    /// reversing the flat matrix reverses both dimensions at once
    /// (`rev[k * m + j] == rows[(n-1-k) * m + (m-1-j)]`), which is the
    /// reversed-stream × reversed-query cell matrix bit for bit — and
    /// otherwise the view's coordinate slabs copied reversed, so a search
    /// that never fills a matrix (RLS) never reads a stale one. Either way
    /// bit-identical to the scalar backward chain
    /// ([`crate::suffix_similarities`]) by the `extend_run` contract. Read
    /// the result through [`SearchWorkspace::scan_parts`].
    pub fn compute_suffix_similarities(&mut self, data: TrajView<'_>) {
        let n = data.len();
        assert!(n > 0, "data must be non-empty");
        if self.suffix_eval.is_none() {
            self.reversed_query.clear();
            self.reversed_query.extend(self.query.iter().rev().copied());
            self.suffix_eval = Some(self.measure.make_workspace(&self.reversed_query));
        }
        let eval = self.suffix_eval.as_mut().expect("created above");
        self.suffix.clear();
        self.suffix.resize(n, 0.0);
        self.suffix[n - 1] = eval.init(data.point(n - 1));
        if n == 1 {
            return;
        }
        self.sims.clear();
        self.sims.resize(n - 1, 0.0);
        if self.rows_prepared {
            let m = self.cell_stride;
            debug_assert_eq!(
                self.cell_rows.len(),
                n * m,
                "the matrix is this candidate's"
            );
            self.rev_cell_rows.clear();
            self.rev_cell_rows.extend(self.cell_rows.iter().rev());
            eval.extend_run_rows_into(&self.rev_cell_rows[m..], &mut self.sims);
        } else {
            self.rev_xs.clear();
            self.rev_xs.extend(data.xs().iter().rev());
            self.rev_ys.clear();
            self.rev_ys.extend(data.ys().iter().rev());
            self.rev_ts.clear();
            self.rev_ts.extend(data.ts().iter().rev());
            eval.extend_run_into(
                &self.rev_xs[1..],
                &self.rev_ys[1..],
                &self.rev_ts[1..],
                &mut self.sims,
            );
        }
        // Reversed-stream index k covers suffix start n-1-k.
        for (k, &sim) in self.sims.iter().enumerate() {
            self.suffix[n - 2 - k] = sim;
        }
    }

    /// Makes the workspace hold `data`'s DP cell-row matrix, filling it
    /// through the measure's [`PrefixEvaluator::fill_cell_rows`] kernel
    /// unless it already does ([`SearchWorkspace::rows_prepared`]), and
    /// returns whether it does: `false` only when the measure does not
    /// factor cell rows (see [`SearchWorkspace::factors_cell_rows`]). A
    /// pruning scan calls it for each survivor of its bounds before
    /// [`SearchWorkspace::begin_candidate`]; a split walk calls it first
    /// thing and finds the scan's fill. The matrix depends only on the
    /// coordinate/query bits, so one fill serves every reader: the exact
    /// kernel, the prefix stream (forward) and the suffix pass (reversed).
    pub fn ensure_cell_rows(&mut self, data: TrajView<'_>) -> bool {
        if !self.rows_prepared && self.factors_cell_rows {
            let stride =
                self.prefix
                    .fill_cell_rows(data.xs(), data.ys(), data.ts(), &mut self.cell_rows);
            self.cell_stride = stride.expect("probed when the workspace was built");
            self.rows_prepared = true;
        }
        self.rows_prepared
    }

    /// Lets go of a matrix a search filled for itself, so the next search
    /// — of another trajectory, perhaps outside any scan — neither reads
    /// it nor skips its own fill. A matrix the scan prepared is the scan's
    /// to release ([`SearchWorkspace::end_candidate`]).
    pub(crate) fn release_cell_rows(&mut self) {
        self.rows_prepared = false;
    }

    /// Grows the matrix buffer to hold a candidate of `len` points, so no
    /// later [`SearchWorkspace::ensure_cell_rows`] of a candidate that
    /// short reallocates. A pruning scan calls it once with its longest
    /// candidate, so what it allocates does not depend on the order it
    /// searches in.
    pub fn reserve_cell_rows(&mut self, len: usize) {
        if self.factors_cell_rows {
            let cells = len * self.query.len();
            self.cell_rows
                .reserve(cells.saturating_sub(self.cell_rows.len()));
        }
    }

    /// Whether [`SearchWorkspace::ensure_cell_rows`] can fill a matrix
    /// under this workspace's measure (DTW and Frechet factor their cells;
    /// the rest do not). Probed once, on an empty run, when the workspace
    /// is built.
    pub fn factors_cell_rows(&self) -> bool {
        self.factors_cell_rows
    }

    /// The matrix of the last [`SearchWorkspace::ensure_cell_rows`] fill,
    /// row-major with the query length as stride.
    pub fn cell_rows(&self) -> &[f64] {
        &self.cell_rows
    }

    /// Four-way split borrow for the scan bodies: the prefix evaluator,
    /// the suffix similarities (state of the last
    /// [`SearchWorkspace::compute_suffix_similarities`] call; empty if
    /// never called), the per-point similarity scratch buffer, and — while
    /// the workspace holds this candidate's matrix
    /// ([`SearchWorkspace::rows_prepared`]) — that matrix with its row
    /// stride, `None` otherwise.
    #[allow(clippy::type_complexity)]
    pub fn scan_parts(
        &mut self,
    ) -> (
        &mut (dyn PrefixEvaluator + 'm),
        &[f64],
        &mut Vec<f64>,
        Option<(&[f64], usize)>,
    ) {
        let rows = self
            .rows_prepared
            .then_some((self.cell_rows.as_slice(), self.cell_stride));
        (self.prefix.as_mut(), &self.suffix, &mut self.sims, rows)
    }

    /// What a splitting-MDP episode ([`crate::SplitEnv`]) borrows: the
    /// prefix evaluator, the suffix similarities of the last
    /// [`SearchWorkspace::compute_suffix_similarities`] call, and the
    /// policy network's activation scratch.
    pub fn episode_parts(&mut self) -> (&mut (dyn PrefixEvaluator + 'm), &[f64], &mut MlpCache) {
        (self.prefix.as_mut(), &self.suffix, &mut self.policy_scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitting::suffix_similarities;
    use crate::test_util::walk;
    use simsub_measures::{CoordNormalizer, Dtw, Frechet, T2Vec};

    #[test]
    fn bulk_suffix_matches_generic_backward_scan() {
        let q = walk(7, 6);
        for seed in 0..6u64 {
            let data = walk(20 + seed, 1 + seed as usize * 3);
            let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
            let ts: Vec<f64> = data.iter().map(|p| p.t).collect();
            let view = TrajView::new(0, &xs, &ys, &ts);
            let mut ws = SearchWorkspace::new(&Dtw, &q);
            ws.compute_suffix_similarities(view);
            let want = suffix_similarities(&Dtw, data.as_slice(), &q);
            let (_, got, _, _) = ws.scan_parts();
            assert_eq!(got.len(), want.len());
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "seed {seed} suffix {t}");
            }
        }
    }

    #[test]
    fn rows_suffix_matches_generic_backward_scan() {
        let q = walk(7, 6);
        for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
            for seed in 0..6u64 {
                let data = walk(40 + seed, 1 + seed as usize * 3);
                let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
                let ts: Vec<f64> = data.iter().map(|p| p.t).collect();
                let view = TrajView::new(0, &xs, &ys, &ts);
                let mut ws = SearchWorkspace::new(measure, &q);
                assert!(ws.ensure_cell_rows(view), "dtw/frechet factor cell rows");
                ws.compute_suffix_similarities(view);
                let want = suffix_similarities(measure, data.as_slice(), &q);
                let (_, got, _, _) = ws.scan_parts();
                assert_eq!(got.len(), want.len());
                for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} seed {seed} suffix {t}",
                        measure.name()
                    );
                }
            }
        }
    }

    #[test]
    fn suffix_pass_never_reads_another_candidates_matrix() {
        // PSS holds a matrix while it searches; an RLS with the suffix on
        // never fills one, so its suffix pass must read coordinates, not
        // the matrix the PSS search before it left in the buffer. Half the
        // searches run bare, half inside a scan's bracket (where the scan
        // fills PSS's matrix), and equal lengths alternate with unequal
        // ones so a stale read would also go unnoticed by length.
        let q = walk(13, 6);
        let mdp = crate::MdpConfig::rls();
        assert!(mdp.use_suffix);
        let dqn = simsub_rl::DqnConfig::paper(mdp.state_dim(), mdp.n_actions());
        let rls = crate::Rls::new(simsub_rl::DqnAgent::new(dqn).policy(), mdp);
        let mut ws = SearchWorkspace::new(&Dtw, &q);
        for (i, len) in [9, 9, 12, 9, 12, 12, 9, 9].into_iter().enumerate() {
            let data = walk(60 + i as u64, len);
            let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
            let ts: Vec<f64> = data.iter().map(|p| p.t).collect();
            let view = TrajView::new(i as u64, &xs, &ys, &ts);
            let pss = i % 2 == 0;
            let algo: &dyn crate::SubtrajSearch = if pss { &crate::Pss } else { &rls };
            let in_scan = i % 4 < 2;
            if in_scan {
                let rows = pss && ws.ensure_cell_rows(view);
                ws.begin_candidate(f64::NEG_INFINITY, rows);
            }
            algo.search_with(&mut ws, view);
            if in_scan {
                ws.end_candidate();
            }
            assert!(!ws.rows_prepared(), "search {i} left its matrix held");
            let want = suffix_similarities(&Dtw, data.as_slice(), &q);
            let (_, got, _, _) = ws.scan_parts();
            assert_eq!(got.len(), want.len(), "search {i}");
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "search {i} suffix {t}");
            }
        }
    }

    #[test]
    fn candidate_hints_last_one_search_and_keep_the_answer() {
        let q = walk(11, 6);
        let data = walk(12, 23);
        let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
        let ts: Vec<f64> = data.iter().map(|p| p.t).collect();
        let view = TrajView::new(0, &xs, &ys, &ts);
        for measure in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
            let mut ws = SearchWorkspace::new(measure, &q);
            assert!(ws.factors_cell_rows());
            let plain = ws.exact_best(view).expect("kernel measure");
            assert_eq!(ws.end_candidate(), SearchOutcome::Complete);
            // A floor the best reaches, over the prepared matrix: the DP
            // cannot settle below it, so Θ* comes back bit for bit with
            // its range pending.
            assert!(ws.ensure_cell_rows(view));
            ws.begin_candidate(plain.similarity, true);
            assert_eq!(ws.sim_floor(), plain.similarity);
            assert!(ws.rows_prepared() && ws.ensure_cell_rows(view));
            let found = ws.exact_best(view).expect("kernel measure");
            assert_eq!(found.similarity.to_bits(), plain.similarity.to_bits());
            assert_eq!(found.distance.to_bits(), plain.distance.to_bits());
            assert_eq!(
                ws.end_candidate(),
                SearchOutcome::RangePending,
                "{}: a reachable floor over the matrix defers the range",
                measure.name()
            );
            // The hints are gone: the next search is the plain one again.
            assert_eq!(ws.sim_floor(), f64::NEG_INFINITY);
            assert!(!ws.rows_prepared());
            assert_eq!(ws.exact_best(view), Some(plain));
            assert_eq!(ws.end_candidate(), SearchOutcome::Complete);
            // The resolution: no matrix, floored at the hit's own Θ.
            ws.begin_candidate(found.similarity, false);
            assert_eq!(ws.exact_best(view), Some(plain));
            assert_eq!(ws.end_candidate(), SearchOutcome::Complete);
            // A floor out of reach, with or without the matrix, yields
            // some real, lower similarity and says so.
            for rows_prepared in [true, false] {
                ws.begin_candidate(plain.similarity.next_up(), rows_prepared);
                let missed = ws.exact_best(view).expect("kernel measure");
                assert!(missed.similarity <= plain.similarity);
                assert_eq!(
                    ws.end_candidate(),
                    SearchOutcome::Abandoned,
                    "{}: an unreachable floor settles (rows {rows_prepared})",
                    measure.name()
                );
            }
        }
        // Measures that do not factor their cells never claim to.
        let t2vec = T2Vec::random(7, 6, CoordNormalizer::identity());
        assert!(!SearchWorkspace::new(&t2vec, &q).factors_cell_rows());
    }

    #[test]
    fn staging_buffer_round_trips_views() {
        let q = walk(4, 4);
        let data = walk(5, 7);
        let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
        let ts: Vec<f64> = data.iter().map(|p| p.t).collect();
        let view = TrajView::new(9, &xs, &ys, &ts);
        let mut ws = SearchWorkspace::new(&Frechet, &q);
        let (_, staged, query) = ws.staged(view);
        assert_eq!(staged, data.as_slice());
        assert_eq!(query, q.as_slice());
    }

    #[test]
    fn reset_retargets_prefix_and_suffix() {
        let q1 = walk(1, 4);
        let q2 = walk(2, 7);
        let data = walk(3, 8);
        let (xs, ys): (Vec<f64>, Vec<f64>) = data.iter().map(|p| (p.x, p.y)).unzip();
        let ts: Vec<f64> = data.iter().map(|p| p.t).collect();
        let view = TrajView::new(0, &xs, &ys, &ts);
        let mut ws = SearchWorkspace::new(&Frechet, &q1);
        ws.compute_suffix_similarities(view);
        ws.reset(&q2);
        assert_eq!(ws.query(), &q2[..]);
        ws.compute_suffix_similarities(view);
        let want = suffix_similarities(&Frechet, data.as_slice(), &q2);
        let (eval, got, _, _) = ws.scan_parts();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        // Prefix evaluator answers for q2 now.
        let sim = eval.init(data[0]);
        let mut fresh = Frechet.make_workspace(&q2);
        assert_eq!(sim.to_bits(), fresh.init(data[0]).to_bits());
    }
}
