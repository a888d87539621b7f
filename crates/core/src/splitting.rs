//! The splitting-based heuristics of Section 4.3: PSS (Algorithm 2), POS,
//! and POS-D. All three scan the data trajectory once, deciding at each
//! point whether to split; the candidate subtrajectories are the prefixes
//! (and, for PSS, suffixes) delimited by splits — at most `n` candidates,
//! giving `O(n1·Φini + n·Φinc)` total time.

use crate::{SearchResult, SearchWorkspace, SubtrajSearch};
use simsub_measures::{Measure, PrefixEvaluator};
use simsub_trajectory::{reversed_points, Point, PointSeq, SubtrajRange, TrajView};

/// Precomputes all suffix similarities `Θ(T[t, n]^R, Tq^R)` for
/// `t = 0..n-1` in one backward pass (Algorithm 2, lines 2-3):
/// a prefix evaluator over the *reversed* query is initialized at `p_n`
/// and extended with `p_{n-1}, p_{n-2}, ...` — each extension yields the
/// next suffix similarity at `Φinc` cost.
///
/// For DTW and Frechet these equal `Θ(T[t, n], Tq)` exactly (reversal
/// invariance); for t2vec they are the positively-correlated surrogate the
/// paper uses. Generic over [`PointSeq`] so AoS slices and arena views
/// run the same (hence bitwise-identical) backward chain.
pub fn suffix_similarities<S: PointSeq>(
    measure: &dyn Measure,
    data: S,
    query: &[Point],
) -> Vec<f64> {
    assert!(
        !data.seq_is_empty() && !query.is_empty(),
        "inputs must be non-empty"
    );
    let n = data.seq_len();
    let rq = reversed_points(query);
    let mut eval = measure.make_workspace(&rq);
    let mut out = vec![0.0; n];
    out[n - 1] = eval.init(data.seq_point(n - 1));
    for t in (0..n - 1).rev() {
        out[t] = eval.extend(data.seq_point(t));
    }
    out
}

/// A lazily-filled stream of prefix similarities over a columnar view:
/// after [`PrefixStream::anchor`]`(h)`, `get(i)` returns
/// `Θ(T[h, i], Tq)` — the value the scalar scan would see from
/// `init(p_h); extend(p_{h+1}); ...; extend(p_i)` — but computed through
/// bulk [`PrefixEvaluator::extend_run_into`] calls over the view's
/// coordinate slabs in geometrically growing chunks.
///
/// Values are *speculative*: a chunk may run the evaluator past the point
/// where the decision walk ends up splitting. That is safe because the
/// next `anchor` re-`init`s the evaluator, fully overwriting its state,
/// and by the `extend_run` chunking-invariance contract every buffered
/// value is bit-identical to the scalar chain's — so the (purely scalar)
/// decision walk reading this stream reproduces the scalar scan's
/// comparisons, winners, and tie-breaks exactly.
struct PrefixStream<'a, 'm> {
    eval: &'a mut (dyn PrefixEvaluator + 'm),
    xs: &'a [f64],
    ys: &'a [f64],
    ts: &'a [f64],
    /// Precomputed DP cell rows (`rows[k * stride + j]` for data point
    /// `k`) when the measure supports cell-row factoring; refills then go
    /// through [`PrefixEvaluator::extend_run_rows_into`], skipping the
    /// distance recomputation entirely. Same value bits either way.
    rows: Option<(&'a [f64], usize)>,
    /// Current anchor: `vals[k]` holds the prefix similarity at `h + k`.
    h: usize,
    vals: &'a mut Vec<f64>,
    chunk: usize,
}

/// First speculative chunk size; doubles per refill up to [`MAX_CHUNK`].
/// Splits are frequent early in a scan (any positive similarity beats the
/// initial best), so speculation starts small and grows as survivorship
/// lengthens.
const INITIAL_CHUNK: usize = 4;
const MAX_CHUNK: usize = 32;

impl<'a, 'm> PrefixStream<'a, 'm> {
    fn new(
        eval: &'a mut (dyn PrefixEvaluator + 'm),
        data: TrajView<'a>,
        vals: &'a mut Vec<f64>,
        rows: Option<(&'a [f64], usize)>,
    ) -> Self {
        Self {
            eval,
            xs: data.xs(),
            ys: data.ys(),
            ts: data.ts(),
            rows,
            h: 0,
            vals,
            chunk: INITIAL_CHUNK,
        }
    }

    /// Re-anchors the stream at `h`: discards any speculative values and
    /// `init`s the evaluator at `p_h` (exactly the scalar scan's `i == h`
    /// branch).
    fn anchor(&mut self, h: usize) {
        self.h = h;
        self.vals.clear();
        self.vals.push(
            self.eval
                .init(Point::new(self.xs[h], self.ys[h], self.ts[h])),
        );
        self.chunk = INITIAL_CHUNK;
    }

    /// The prefix similarity at absolute index `i >= h`, filling forward
    /// in bulk as needed.
    fn get(&mut self, i: usize) -> f64 {
        let k = i - self.h;
        while self.vals.len() <= k {
            let filled = self.vals.len();
            let start = self.h + filled;
            let len = self.chunk.min(self.xs.len() - start);
            self.vals.resize(filled + len, 0.0);
            if let Some((rows, m)) = self.rows {
                self.eval.extend_run_rows_into(
                    &rows[start * m..(start + len) * m],
                    &mut self.vals[filled..],
                );
            } else {
                self.eval.extend_run_into(
                    &self.xs[start..start + len],
                    &self.ys[start..start + len],
                    &self.ts[start..start + len],
                    &mut self.vals[filled..],
                );
            }
            self.chunk = (self.chunk * 2).min(MAX_CHUNK);
        }
        self.vals[k]
    }
}

/// Prefix-Suffix Search (Algorithm 2). At each scanned point `p_i` it
/// considers the running prefix `T[h, i]` *and* the suffix `T[i, n]`;
/// if either beats the best similarity so far it records the better of
/// the two and splits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pss;

/// Prefix-Only Search: PSS without the suffix candidates — saves the
/// suffix precomputation pass and in practice runs faster.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pos;

/// Prefix-Only Search with Delay: when a prefix beats the best-so-far,
/// POS-D scans up to `D` further points and splits at whichever of the
/// `D + 1` positions has the most similar prefix (paper default `D = 5`).
#[derive(Debug, Clone, Copy)]
pub struct PosD {
    /// The delay window `D`.
    pub delay: usize,
}

impl PosD {
    /// Creates POS-D with the given delay.
    pub fn new(delay: usize) -> Self {
        Self { delay }
    }
}

impl Default for PosD {
    fn default() -> Self {
        Self { delay: 5 }
    }
}

/// The arena-backed PSS scan: suffix similarities through one bulk
/// reversed `extend_run_into` pass, prefix similarities through a
/// speculative [`PrefixStream`], and Algorithm 2's scalar decision walk
/// over those values — no per-candidate AoS staging copy.
fn pss_scan_view(ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
    let n = data.len();
    // When the measure factors its DP cells through coordinates only
    // (DTW, Fréchet), fill the cell matrix once and share it between the
    // suffix pass (reversed) and the prefix stream — PSS otherwise
    // computes every point-pair distance twice.
    let rows_ready = ws.ensure_cell_rows(data);
    if rows_ready {
        ws.compute_suffix_similarities_rows(data);
    } else {
        ws.compute_suffix_similarities_bulk(data);
    }
    let (eval, suffix, vals, rows) = ws.scan_parts_rows();
    let mut stream = PrefixStream::new(eval, data, vals, rows);

    let mut best_sim = 0.0f64;
    let mut best_range: Option<SubtrajRange> = None;
    let mut h = 0usize;
    'outer: while h < n {
        stream.anchor(h);
        let mut i = h;
        loop {
            let pre = stream.get(i);
            let suf = suffix[i];
            if pre.max(suf) > best_sim {
                best_sim = pre.max(suf);
                best_range = Some(if pre > suf {
                    SubtrajRange::new(h, i)
                } else {
                    SubtrajRange::new(i, n - 1)
                });
                h = i + 1;
                continue 'outer;
            }
            i += 1;
            if i == n {
                break 'outer;
            }
        }
    }
    let range = best_range.expect("similarities are positive; first point always splits");
    SearchResult {
        range,
        similarity: best_sim,
        distance: simsub_measures::distance_from_similarity(best_sim),
    }
}

impl SubtrajSearch for Pss {
    fn name(&self) -> String {
        "PSS".to_string()
    }

    fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        crate::search_via_view(self, measure, data, query)
    }

    fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
        assert!(!data.is_empty(), "inputs must be non-empty");
        pss_scan_view(ws, data)
    }
}

/// The arena-backed POS scan: [`pss_scan_view`] minus the suffix channel.
fn pos_scan_view(ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
    let n = data.len();
    ws.ensure_cell_rows(data);
    let (eval, _, vals, rows) = ws.scan_parts_rows();
    let mut stream = PrefixStream::new(eval, data, vals, rows);

    let mut best_sim = 0.0f64;
    let mut best_range: Option<SubtrajRange> = None;
    let mut h = 0usize;
    'outer: while h < n {
        stream.anchor(h);
        let mut i = h;
        loop {
            let pre = stream.get(i);
            if pre > best_sim {
                best_sim = pre;
                best_range = Some(SubtrajRange::new(h, i));
                h = i + 1;
                continue 'outer;
            }
            i += 1;
            if i == n {
                break 'outer;
            }
        }
    }
    let range = best_range.expect("similarities are positive; first point always splits");
    SearchResult {
        range,
        similarity: best_sim,
        distance: simsub_measures::distance_from_similarity(best_sim),
    }
}

impl SubtrajSearch for Pos {
    fn name(&self) -> String {
        "POS".to_string()
    }

    fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        crate::search_via_view(self, measure, data, query)
    }

    fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
        assert!(!data.is_empty(), "inputs must be non-empty");
        pos_scan_view(ws, data)
    }
}

/// The arena-backed POS-D scan. The lookahead reads the same stream as
/// the main walk: in the scalar definition the lookahead `extend`s
/// continue the running prefix chain, which is exactly what the stream's
/// buffered continuation holds, so the strict-`>` argmax (earliest index
/// wins on ties) sees bit-identical values in the identical order.
fn pos_d_scan_view(delay: usize, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
    let n = data.len();
    ws.ensure_cell_rows(data);
    let (eval, _, vals, rows) = ws.scan_parts_rows();
    let mut stream = PrefixStream::new(eval, data, vals, rows);

    let mut best_sim = 0.0f64;
    let mut best_range: Option<SubtrajRange> = None;
    let mut h = 0usize;
    'outer: while h < n {
        stream.anchor(h);
        let mut i = h;
        loop {
            let pre = stream.get(i);
            if pre > best_sim {
                // Delay the split: look ahead up to `delay` more points
                // and split at the position with the most similar prefix.
                let mut split_at = i;
                let mut split_sim = pre;
                let lookahead_end = (i + delay).min(n - 1);
                for j in i + 1..=lookahead_end {
                    let s = stream.get(j);
                    if s > split_sim {
                        split_sim = s;
                        split_at = j;
                    }
                }
                best_sim = split_sim;
                best_range = Some(SubtrajRange::new(h, split_at));
                h = split_at + 1;
                continue 'outer;
            }
            i += 1;
            if i == n {
                break 'outer;
            }
        }
    }
    let range = best_range.expect("similarities are positive; first point always splits");
    SearchResult {
        range,
        similarity: best_sim,
        distance: simsub_measures::distance_from_similarity(best_sim),
    }
}

impl SubtrajSearch for PosD {
    fn name(&self) -> String {
        format!("POS-D(D={})", self.delay)
    }

    fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
        crate::search_via_view(self, measure, data, query)
    }

    fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
        assert!(!data.is_empty(), "inputs must be non-empty");
        pos_d_scan_view(self.delay, ws, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{figure1, pts, walk};
    use crate::ExactS;
    use proptest::prelude::*;
    use simsub_measures::{dtw_distance, Dtw, Frechet, Measure};

    #[test]
    fn suffix_similarities_match_direct_computation_dtw() {
        let t = walk(1, 10);
        let q = walk(2, 4);
        let suf = suffix_similarities(&Dtw, t.as_slice(), &q);
        for i in 0..t.len() {
            // Reversal invariance: Θ(T[i,n]^R, Tq^R) == Θ(T[i,n], Tq).
            let direct = Dtw.similarity(&t[i..], &q);
            assert!(
                (suf[i] - direct).abs() < 1e-9,
                "suffix {i}: {} vs {}",
                suf[i],
                direct
            );
        }
    }

    #[test]
    fn pss_on_paper_figure1_walkthrough() {
        // Table 3 of the paper walks PSS through the Figure 1 input and
        // ends with a *suboptimal* single-point answer: the greedy split
        // at p2 (1-based) destroys the optimal T[2,4]. Our geometric
        // reconstruction reproduces that failure mode: PSS must return a
        // strictly worse answer than ExactS.
        let (t, q) = figure1();
        let exact = ExactS.search(&Dtw, &t, &q);
        let pss = Pss.search(&Dtw, &t, &q);
        assert!(pss.distance > exact.distance + 1e-9);
        // And the reported similarity matches the true similarity of the
        // returned range (PSS bookkeeping is exact for DTW).
        let true_d = dtw_distance(pss.range.slice(&t), &q);
        assert!((pss.distance - true_d).abs() < 1e-9);
    }

    #[test]
    fn pss_returns_true_similarity_of_reported_range() {
        for seed in 0..20u64 {
            let t = walk(seed, 14);
            let q = walk(seed + 100, 5);
            for m in [&Dtw as &dyn Measure, &Frechet as &dyn Measure] {
                let res = Pss.search(m, &t, &q);
                let direct = m.similarity(res.range.slice(&t), &q);
                assert!(
                    (res.similarity - direct).abs() < 1e-9,
                    "seed {seed} measure {}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn pos_ignores_suffix_candidates() {
        // A trajectory whose *suffix* is the perfect match: PSS finds it
        // via the suffix channel; POS (prefix-only) cannot see whole-suffix
        // candidates before scanning them point by point, but its prefix
        // after the last split still covers them. Construct a case where
        // the two differ.
        let t = pts(&[(100.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let q = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let pss = Pss.search(&Dtw, &t, &q);
        // PSS sees suffix T[1,3] == query at the very first scan.
        assert_eq!(pss.range, SubtrajRange::new(1, 3));
        assert!(pss.distance.abs() < 1e-9);
    }

    #[test]
    fn posd_zero_delay_equals_pos() {
        for seed in 0..30u64 {
            let t = walk(seed, 12);
            let q = walk(seed + 1, 4);
            let a = Pos.search(&Dtw, &t, &q);
            let b = PosD::new(0).search(&Dtw, &t, &q);
            assert_eq!(a.range, b.range, "seed {seed}");
            assert!((a.similarity - b.similarity).abs() < 1e-12);
        }
    }

    #[test]
    fn single_point_inputs() {
        let t = pts(&[(1.0, 2.0)]);
        let q = pts(&[(1.0, 2.0)]);
        for algo in [
            &Pss as &dyn SubtrajSearch,
            &Pos as &dyn SubtrajSearch,
            &PosD::default() as &dyn SubtrajSearch,
        ] {
            let res = algo.search(&Dtw, &t, &q);
            assert_eq!(res.range, SubtrajRange::new(0, 0));
            assert_eq!(res.similarity, 1.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn splitting_results_never_beat_exact(seed in 0u64..300, n in 2usize..14, m in 1usize..6) {
            let t = walk(seed, n);
            let q = walk(seed + 31, m);
            let exact = ExactS.search(&Dtw, &t, &q).distance;
            for algo in [&Pss as &dyn SubtrajSearch, &Pos, &PosD::default()] {
                let d = algo.search(&Dtw, &t, &q).distance;
                prop_assert!(d + 1e-9 >= exact, "{} beat exact", algo.name());
            }
        }

        #[test]
        fn reported_ranges_are_valid(seed in 0u64..300, n in 1usize..14, m in 1usize..6) {
            let t = walk(seed, n);
            let q = walk(seed + 77, m);
            for algo in [&Pss as &dyn SubtrajSearch, &Pos, &PosD::new(3)] {
                let r = algo.search(&Frechet, &t, &q).range;
                prop_assert!(r.end < n);
            }
        }

        #[test]
        fn suffix_vector_is_complete_and_positive(seed in 0u64..200, n in 1usize..12, m in 1usize..6) {
            let t = walk(seed, n);
            let q = walk(seed + 13, m);
            let suf = suffix_similarities(&Frechet, t.as_slice(), &q);
            prop_assert_eq!(suf.len(), n);
            for s in suf {
                prop_assert!(s > 0.0 && s <= 1.0);
            }
        }
    }
}
