//! Top-k similar subtrajectory search over a trajectory database — the
//! user-facing query of Section 3.1, built prune-first, allocate-once,
//! and arena-backed:
//!
//! - **Bounded memory.** Hits live in a [`TopKHeap`] capped at `k`
//!   entries (the scan used to collect one hit per database trajectory
//!   before truncating); the heap's k-th element is the prune threshold.
//! - **Nearest-first.** Candidates are visited in descending coarse
//!   (Kim-style) bound, and those tied at the top coarse bound — behind
//!   the R-tree, every candidate — in ascending
//!   [`BoundCascade::order_estimate`], a sampled estimate of the point
//!   bound's distance; remaining ties by ascending id. The candidates
//!   likely to hold the best hits come first, so the k-th similarity
//!   rises early and the cascade rejects more of the rest, sooner. The
//!   estimate only orders; the heap's final contents do not depend on
//!   the order, so no answer moves.
//! - **Prune-first.** Each candidate must pass the [`BoundCascade`]
//!   (O(1) Kim-style screen, the O(m) MBR
//!   envelope, then the O(n·m) point-level bound over coordinates, with
//!   one `sqrt` per query point, which stops as soon as a prefix of the
//!   query already rejects the candidate) before the full `Φini`/`Φinc`
//!   search runs. Only a survivor fills its `sqrt` point-distance matrix,
//!   and its search is told the running k-th similarity: ExactS under DTW
//!   and Frechet then runs one O(n·m) free-start DP over the matrix and
//!   settles the candidate if its best is below the k-th. Otherwise the
//!   hit enters the heap with its exact similarity and its range pending;
//!   the scan resolves the range only for the pending hits still in the
//!   heap when it ends — at most `k` a call — with the per-start kernel
//!   floored at each hit's own similarity. See [`crate::bounds`] for why
//!   none of this can change the answer. [`PruneStats`] counts what
//!   happened.
//! - **Unprunable scans use the idle cores.** When [`scan_prunes`] is
//!   false (RLS, t2vec, `prune: false`) every candidate is searched in
//!   full at floor `-∞`, so no candidate's search depends on another's.
//!   That branch spreads the candidates over up to `threads` threads that
//!   claim them from one cursor, each into its own heap, and merges the
//!   heaps through the one total order: the hits and the counters are
//!   those of a one-thread scan, bit for bit.
//! - **Allocate-once.** One [`SearchWorkspace`] per (query, scan, thread)
//!   serves every trajectory; no per-trajectory evaluator boxing.
//! - **Arena-backed.** The scan kernel walks a [`CorpusArena`]: data
//!   points come from contiguous SoA slabs through zero-copy
//!   [`simsub_trajectory::TrajView`]s, and per-trajectory MBRs are O(1)
//!   reads from the arena's precomputed table.
//!
//! [`scan_top_k_into`] is the only scan kernel: every database scan
//! (`simsub-index`) is one call of it over a caller-owned heap. Every
//! caller ranks through
//! [`sort_hits_and_truncate`]'s total order (or the identical
//! [`TopKHeap`] order), so results stay interchangeable, pruning is
//! byte-invisible (`tests/prune_equivalence.rs`), and the arena layout is
//! byte-invisible too (`tests/layout_equivalence.rs`).

use crate::bounds::{BoundCascade, PruneStats};
use crate::sync::atomic::{self, AtomicUsize};
use crate::sync::OnceLock;
use crate::{SearchOutcome, SearchResult, SearchWorkspace, SubtrajSearch};
use simsub_measures::Measure;
use simsub_trajectory::{CorpusArena, Point};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Fewest candidates each thread of a split reference scan gets:
/// [`scan_top_k_into`] runs an unprunable scan on at most
/// `candidates / MIN_CANDIDATES_PER_THREAD` threads, so a scan of fewer
/// than twice this many stays on the calling thread.
///
/// A helper costs a scoped spawn and join (15–25 µs on a 2-vCPU x86-64
/// box) plus a [`SearchWorkspace`] and a [`TopKHeap`]; under t2vec the
/// workspace encodes the query once more, one GRU step per query point
/// (≈ 1 µs each). Against that, the unprunable traffic:
/// - RLS under t2vec walks its candidate one GRU step and one Q-network
///   decision a point, ≈ 630 ns a point, ≈ 40 µs for a 60-point
///   candidate; PSS and ExactS under t2vec cost more (a second GRU pass
///   for the suffix, or O(n²) steps);
/// - RLS under DTW pays an O(m) DP row and the Q-network's ≈ 100 ns a
///   point, ≈ 8 µs for a 60-point candidate;
/// - the `prune: false` reference runs ExactS's O(n²·m) enumeration
///   (tens of µs a candidate) or PSS's O(n·m) walk (≈ 1 µs a candidate).
///
/// Eight learned candidates outweigh a helper's cost tenfold. Eight PSS
/// candidates under DTW do not, but that pairing only splits on the
/// reference path, which exists to be compared against, not served.
pub const MIN_CANDIDATES_PER_THREAD: usize = 8;

/// Whether a scan of `algo` under `measure` with the prune switch `prune`
/// takes the pruning branch of [`scan_top_k_into`]: the measure must admit
/// a bound cascade and the algorithm's reported similarity must be
/// admissible. Callers that plan around the branch (the library's thread
/// count) ask this, so they and the kernel cannot disagree.
pub fn scan_prunes(algo: &dyn SubtrajSearch, measure: &dyn Measure, prune: bool) -> bool {
    prune && measure.distance_aggregate().is_some() && algo.reported_similarity_is_admissible()
}

/// The threads a library scan spreads an unprunable scan over: the
/// process's available parallelism, read once.
pub fn library_scan_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// One database hit: the trajectory and the best subtrajectory inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKResult {
    /// Id of the data trajectory the hit belongs to.
    pub trajectory_id: u64,
    /// The most similar subtrajectory found inside it.
    pub result: SearchResult,
}

/// True when hypothetical hit `(a_sim, a_id)` ranks before `(b_sim, b_id)`
/// under the single hit ordering (descending similarity, ties by
/// ascending trajectory id).
fn ranks_before(a_sim: f64, a_id: u64, b_sim: f64, b_id: u64) -> bool {
    match a_sim.total_cmp(&b_sim) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a_id < b_id,
    }
}

/// [`TopKResult`] wrapper whose `Ord` says "greater = ranks earlier".
/// The order reads the similarity and the id only, never the range.
#[derive(Debug, Clone, Copy)]
struct HeapHit {
    hit: TopKResult,
    /// The arena slot of a hit whose range is still pending: its
    /// similarity (and the distance derived from it) is exact, its range a
    /// placeholder until [`TopKHeap::resolve_pending`].
    pending: Option<usize>,
}

impl PartialEq for HeapHit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapHit {}

impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.hit
            .result
            .similarity
            .total_cmp(&other.hit.result.similarity)
            .then_with(|| other.hit.trajectory_id.cmp(&self.hit.trajectory_id))
    }
}

/// A bounded max-`k` hit collection ordered exactly like
/// [`sort_hits_and_truncate`]: the worst retained hit is O(1) accessible,
/// so it doubles as the scan's prune threshold. Memory never exceeds `k`
/// entries ([`TopKHeap::peak_len`] is regression-tested), replacing the
/// old collect-everything-then-sort buffers.
pub struct TopKHeap {
    k: usize,
    heap: BinaryHeap<std::cmp::Reverse<HeapHit>>,
    peak_len: usize,
}

impl TopKHeap {
    /// An empty heap retaining at most `k > 0` hits.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            peak_len: 0,
        }
    }

    /// The capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Hits currently retained (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no hit has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of hits ever retained at once — bounded by `k` by
    /// construction; exposed so the memory contract stays testable.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// The currently-worst retained hit (the running k-th once full).
    pub fn worst(&self) -> Option<&TopKResult> {
        self.heap.peek().map(|std::cmp::Reverse(h)| &h.hit)
    }

    /// The k-th hit's similarity once `k` hits are retained: the floor a
    /// new candidate's *bound* must reach to possibly matter.
    pub fn full_floor(&self) -> Option<f64> {
        (self.heap.len() == self.k).then(|| self.worst().expect("full heap").result.similarity)
    }

    /// Could a hit with this similarity and trajectory id enter the
    /// top-k right now? Admissible-bound pruning calls this with an
    /// upper bound on the similarity: a `false` answer proves the real
    /// hit could not enter either.
    pub fn would_admit(&self, similarity: f64, trajectory_id: u64) -> bool {
        if self.heap.len() < self.k {
            return true;
        }
        let worst = self.worst().expect("k > 0 and full");
        ranks_before(
            similarity,
            trajectory_id,
            worst.result.similarity,
            worst.trajectory_id,
        )
    }

    /// Inserts a hit, evicting the worst retained one when full.
    pub fn push(&mut self, hit: TopKResult) {
        self.insert(HeapHit { hit, pending: None });
    }

    fn insert(&mut self, entry: HeapHit) {
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(entry));
            self.peak_len = self.peak_len.max(self.heap.len());
        } else if self.would_admit(entry.hit.result.similarity, entry.hit.trajectory_id) {
            self.heap.pop();
            self.heap.push(std::cmp::Reverse(entry));
        }
    }

    /// Moves every hit of `other`, a helper's heap of the same scan, into
    /// this one through [`TopKHeap::push`]'s admission test, so the union
    /// is ranked by the one total order and cut to `k`.
    fn absorb(&mut self, other: TopKHeap) {
        for std::cmp::Reverse(entry) in other.heap.into_vec() {
            debug_assert!(entry.pending.is_none(), "helpers leave no range pending");
            self.insert(entry);
        }
    }

    /// Replaces the range of every retained pending hit with
    /// `resolve(slot, similarity)`, whose similarity must be the hit's
    /// bit for bit — so the order, which reads only similarity and id,
    /// holds and the heap is rebuilt in place without allocating.
    fn resolve_pending(&mut self, mut resolve: impl FnMut(usize, f64) -> SearchResult) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        for std::cmp::Reverse(entry) in &mut entries {
            if let Some(slot) = entry.pending.take() {
                let result = resolve(slot, entry.hit.result.similarity);
                debug_assert_eq!(
                    result.similarity.to_bits(),
                    entry.hit.result.similarity.to_bits(),
                    "a resolution must keep the hit's similarity"
                );
                entry.hit.result = result;
            }
        }
        self.heap = BinaryHeap::from(entries);
    }

    /// The retained hits, best first — identical ordering to
    /// [`sort_hits_and_truncate`].
    pub fn into_sorted_hits(self) -> Vec<TopKResult> {
        debug_assert!(
            self.heap
                .iter()
                .all(|std::cmp::Reverse(e)| e.pending.is_none()),
            "a pending range outlived its scan"
        );
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|std::cmp::Reverse(h)| h.hit)
            .collect()
    }
}

/// Runs `f`, adding its wall-clock nanoseconds to `ns` only when `timing`.
fn timed<T>(timing: bool, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = timing.then(std::time::Instant::now);
    let out = f();
    if let Some(start) = start {
        *ns += start.elapsed().as_nanos() as u64;
    }
    out
}

/// Runs the full search on one candidate under the floor `sim_floor`
/// (see [`SearchWorkspace::begin_candidate`]; the reference path passes
/// `-∞`), first filling the candidate's point-distance matrix for the
/// search to read when `prepare_rows` (the pruning path: the matrix is
/// what switches ExactS to its free-start DP, and PSS/POS then fill it
/// once instead of themselves). A hit whose range the search left pending
/// enters the heap with its slot, for [`resolve_pending_ranges`]. Records
/// `searched`, `abandoned`, `searched_cells` (`data_len × query_len`, the
/// nominal DP cost-model unit — it does not shrink when the kernel
/// settles early), and — only when `timing` — the fill's and the kernel's
/// wall-clock nanoseconds.
#[allow(clippy::too_many_arguments)] // scan state is deliberately caller-owned
fn search_and_push(
    algo: &dyn SubtrajSearch,
    arena: &CorpusArena,
    slot: usize,
    heap: &mut TopKHeap,
    ws: &mut SearchWorkspace<'_>,
    sim_floor: f64,
    prepare_rows: bool,
    timing: bool,
    stats: &mut PruneStats,
) {
    let view = arena.view(slot);
    stats.searched += 1;
    stats.searched_cells += view.len() as u64 * ws.query().len() as u64;
    let result = timed(timing, &mut stats.kernel_ns, || {
        let rows_prepared = prepare_rows && ws.prepare_cell_rows(view);
        ws.begin_candidate(sim_floor, rows_prepared);
        algo.search_with(ws, view)
    });
    let outcome = ws.end_candidate();
    stats.abandoned += u64::from(outcome == SearchOutcome::Abandoned);
    heap.insert(HeapHit {
        hit: TopKResult {
            trajectory_id: arena.id(slot),
            result,
        },
        pending: (outcome == SearchOutcome::RangePending).then_some(slot),
    });
}

/// Resolves the range of every pending hit still in the heap — the hits
/// of this scan call only, since every call resolves its own before it
/// returns, so each slot names a trajectory in `arena`. One search per
/// hit, without the matrix and floored at the hit's own similarity: for
/// ExactS the multi-start sweep, whose contract returns the sweep's range,
/// ties included, with the same similarity bits. Its time counts as
/// kernel time; it is not a search of its own in [`PruneStats`].
fn resolve_pending_ranges(
    algo: &dyn SubtrajSearch,
    arena: &CorpusArena,
    heap: &mut TopKHeap,
    ws: &mut SearchWorkspace<'_>,
    timing: bool,
    stats: &mut PruneStats,
) {
    heap.resolve_pending(|slot, similarity| {
        timed(timing, &mut stats.kernel_ns, || {
            ws.begin_candidate(similarity, false);
            let result = algo.search_with(ws, arena.view(slot));
            let outcome = ws.end_candidate();
            debug_assert_eq!(outcome, SearchOutcome::Complete);
            result
        })
    });
}

/// What every thread of a reference scan shares: the scan's inputs and
/// the cursor the threads claim candidates from.
struct ReferenceScan<'a> {
    algo: &'a dyn SubtrajSearch,
    arena: &'a CorpusArena,
    candidates: &'a [usize],
    timing: bool,
    /// Index into `candidates` of the next unclaimed candidate.
    cursor: AtomicUsize,
}

impl ReferenceScan<'_> {
    /// Searches candidate `first`, then each candidate it claims from the
    /// cursor until none is left, in full at floor `-∞` into one thread's
    /// heap, workspace and counters. Thread `t` of `n` starts at `t` and
    /// the cursor at `n`, so every thread searches at least one candidate
    /// and pays its workspace's first-use allocations whatever the
    /// scheduler does.
    fn run(
        &self,
        first: usize,
        heap: &mut TopKHeap,
        ws: &mut SearchWorkspace<'_>,
        stats: &mut PruneStats,
    ) {
        let mut next = first;
        while let Some(&slot) = self.candidates.get(next) {
            stats.scanned += 1;
            search_and_push(
                self.algo,
                self.arena,
                slot,
                heap,
                ws,
                f64::NEG_INFINITY,
                false,
                self.timing,
                stats,
            );
            // ordering: relaxed — the RMW alone keeps claimed indices
            // distinct; results reach the caller through the scope's join.
            next = self.cursor.fetch_add(1, atomic::Ordering::Relaxed);
        }
    }
}

/// The reference branch of [`scan_top_k_into`], split over up to
/// `threads` threads (at least [`MIN_CANDIDATES_PER_THREAD`] candidates
/// each). The calling thread works on `heap`, `ws` and `stats`; each
/// scoped helper on a heap, a workspace and counters of its own, which
/// are merged into the caller's when it finishes. A helper's panic is
/// re-raised in the caller with its own payload.
#[allow(clippy::too_many_arguments)] // scan state is deliberately caller-owned
fn scan_reference(
    algo: &dyn SubtrajSearch,
    arena: &CorpusArena,
    candidates: &[usize],
    query: &[Point],
    heap: &mut TopKHeap,
    ws: &mut SearchWorkspace<'_>,
    threads: usize,
    timing: bool,
    stats: &mut PruneStats,
) {
    let threads = threads
        .min(candidates.len() / MIN_CANDIDATES_PER_THREAD)
        .max(1);
    let scan = ReferenceScan {
        algo,
        arena,
        candidates,
        timing,
        cursor: AtomicUsize::new(threads),
    };
    if threads == 1 {
        scan.run(0, heap, ws, stats);
        return;
    }
    let (measure, k) = (ws.measure(), heap.k());
    let scan = &scan;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|first| {
                scope.spawn(move || {
                    let mut heap = TopKHeap::new(k);
                    let mut ws = SearchWorkspace::new(measure, query);
                    let mut stats = PruneStats::default();
                    scan.run(first, &mut heap, &mut ws, &mut stats);
                    (heap, stats)
                })
            })
            .collect();
        scan.run(0, heap, ws, stats);
        for helper in helpers {
            match helper.join() {
                Ok((local, local_stats)) => {
                    heap.absorb(local);
                    stats.merge(&local_stats);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
}

/// One candidate of a pruning scan, keyed for [`visit_order`].
struct Visit {
    /// The candidate's coarse bound.
    coarse: f64,
    /// Its [`BoundCascade::order_estimate`] when `coarse` is the top
    /// coarse bound of the scan call, 0 otherwise.
    estimate: f64,
    id: u64,
    slot: usize,
}

/// The order a pruning scan visits `candidates` in: descending coarse
/// bound; among the candidates tied at the top coarse bound, ascending
/// [`BoundCascade::order_estimate`]; then ascending id. Only the top tie
/// pays for the estimate — behind the R-tree that is every candidate,
/// without it the few whose MBR meets the query's, while the rest stay
/// in coarse order for the O(1) screen to reject without reading their
/// points. Raising the k-th early is the point; no order changes the
/// answer.
fn visit_order(cascade: &BoundCascade, arena: &CorpusArena, candidates: &[usize]) -> Vec<Visit> {
    let mut order: Vec<Visit> = candidates
        .iter()
        .map(|&slot| Visit {
            coarse: cascade.coarse_bound(arena.mbr(slot)),
            estimate: 0.0,
            id: arena.id(slot),
            slot,
        })
        .collect();
    if let Some(top) = order.iter().map(|v| v.coarse).max_by(f64::total_cmp) {
        for visit in order.iter_mut().filter(|v| v.coarse == top) {
            let view = arena.view(visit.slot);
            visit.estimate = cascade.order_estimate(view.xs(), view.ys());
        }
    }
    order.sort_unstable_by(|a, b| {
        b.coarse
            .total_cmp(&a.coarse)
            .then(a.estimate.total_cmp(&b.estimate))
            .then(a.id.cmp(&b.id))
    });
    order
}

/// The prune-first scan kernel every top-k path composes: runs `algo`
/// over the arena slots in `candidates`, accumulating into a
/// caller-owned heap/workspace, so consecutive calls share both the k-th
/// threshold and the evaluator buffers. `ws` must already
/// target `query` under the scan's measure (the cascade is built from
/// `query`, the searches run through `ws` — a mismatch would prune with
/// one query's bounds against another query's scores, so it is
/// debug-asserted).
///
/// When [`scan_prunes`] holds, candidates are visited nearest-first (see
/// the module docs) on the calling thread, must survive the [`BoundCascade`] before being
/// searched, and are searched under the
/// running k-th similarity. Otherwise every candidate is searched in
/// full with no floor — the reference the pruned path is held to. No
/// search there reads the heap, so that branch spreads the candidates
/// over up to `threads` threads (the caller's and scoped helpers, each
/// with at least [`MIN_CANDIDATES_PER_THREAD`] candidates), which claim
/// them from a shared cursor into their own heaps; the helpers' heaps and
/// [`PruneStats`] are merged into `heap` and `stats` before the call
/// returns, and a helper's panic resumes in the caller. `kernel_ns` then
/// sums every thread's time, so it can exceed the scan's wall time.
///
/// The heap's final contents are identical for every
/// `prune`/`threads`/visit order — bounds are admissible, a
/// floored search differs from the full one only below the floor or in a
/// range it leaves pending, every pending range still in the heap is
/// resolved before the call returns, and the hit order is total. The
/// counters other than the timings are identical for every `threads`;
/// a different visit order would move them, never a hit.
#[allow(clippy::too_many_arguments)] // scan state is deliberately caller-owned
pub fn scan_top_k_into(
    algo: &dyn SubtrajSearch,
    arena: &CorpusArena,
    candidates: &[usize],
    query: &[Point],
    heap: &mut TopKHeap,
    ws: &mut SearchWorkspace<'_>,
    prune: bool,
    threads: usize,
    stats: &mut PruneStats,
) {
    debug_assert!(
        ws.query().len() == query.len()
            && ws
                .query()
                .iter()
                .zip(query)
                .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()),
        "workspace targets a different query than the bound cascade"
    );
    let timing = crate::bounds::scan_timing_enabled();
    if !scan_prunes(algo, ws.measure(), prune) {
        // The reference path: no floor, no prepared rows — ExactS stays
        // the paper's multi-start enumeration.
        scan_reference(
            algo, arena, candidates, query, heap, ws, threads, timing, stats,
        );
        return;
    }
    let mut cascade = BoundCascade::new(ws.measure(), query);
    let order = timed(timing, &mut stats.bound_ns, || {
        visit_order(&cascade, arena, candidates)
    });
    // One matrix allocation at most, whatever order the searches run in.
    let longest = candidates.iter().map(|&slot| arena.view(slot).len());
    ws.reserve_cell_rows(longest.max().unwrap_or(0));
    for Visit {
        coarse, id, slot, ..
    } in order
    {
        stats.scanned += 1;
        if !heap.would_admit(coarse, id) {
            stats.pruned_by_kim += 1;
            continue;
        }
        let envelope = timed(timing, &mut stats.bound_ns, || {
            cascade.envelope_bound(arena.mbr(slot))
        });
        if !heap.would_admit(envelope, id) {
            stats.pruned_by_mbr += 1;
            continue;
        }
        // The point-level stage reads coordinates; only measures whose
        // search reads a point-distance matrix (DTW, Frechet) run it. It
        // stops at the first query prefix whose bound the heap rejects,
        // and that looser bound is rejected again here.
        let points = if ws.factors_cell_rows() {
            let view = arena.view(slot);
            timed(timing, &mut stats.bound_ns, || {
                cascade.point_bound(view.xs(), view.ys(), |partial| {
                    heap.would_admit(partial, id)
                })
            })
        } else {
            f64::INFINITY
        };
        if !heap.would_admit(points, id) {
            stats.pruned_by_points += 1;
            continue;
        }
        // The similarity a hit must reach to matter: the heap's k-th, -∞
        // until it is full. A hit strictly below it ranks behind `k`
        // others whatever its id, so the search may stop at "below this"
        // without finding the value; a hit equal to it may still win on
        // id and must be found exactly.
        let sim_floor = heap.full_floor().unwrap_or(f64::NEG_INFINITY);
        search_and_push(algo, arena, slot, heap, ws, sim_floor, true, timing, stats);
    }
    resolve_pending_ranges(algo, arena, heap, ws, timing, stats);
}

/// The single definition of hit ordering: descending similarity, ties
/// broken by ascending trajectory id. Every merge of per-worker top-k
/// lists must rank through this function (or the identically-ordered
/// [`TopKHeap`]) so results stay interchangeable.
pub fn sort_hits_and_truncate(hits: &mut Vec<TopKResult>, k: usize) {
    hits.sort_by(|a, b| {
        b.result
            .similarity
            .total_cmp(&a.result.similarity)
            .then(a.trajectory_id.cmp(&b.trajectory_id))
    });
    hits.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use crate::test_util::{pts, walk};
    use crate::{ExactS, Pss};
    use simsub_measures::{Dtw, Measure};
    use simsub_trajectory::{TrajView, Trajectory};

    fn db(count: usize, len: usize) -> Vec<Trajectory> {
        (0..count)
            .map(|i| Trajectory::new_unchecked(i as u64, walk(i as u64, len)))
            .collect()
    }

    /// One full DTW scan of `db` through the kernel.
    fn scan(
        algo: &dyn SubtrajSearch,
        db: &[Trajectory],
        query: &[Point],
        k: usize,
        prune: bool,
    ) -> (Vec<TopKResult>, PruneStats) {
        let arena = CorpusArena::from_trajectories(db);
        let slots: Vec<usize> = (0..arena.len()).collect();
        let mut heap = TopKHeap::new(k);
        let mut ws = SearchWorkspace::new(&Dtw, query);
        let mut stats = PruneStats::default();
        scan_top_k_into(
            algo, &arena, &slots, query, &mut heap, &mut ws, prune, 1, &mut stats,
        );
        (heap.into_sorted_hits(), stats)
    }

    #[test]
    fn returns_k_sorted_hits() {
        let db = db(12, 15);
        let q = walk(100, 5);
        let (hits, _) = scan(&ExactS, &db, &q, 5, true);
        assert_eq!(hits.len(), 5);
        for w in hits.windows(2) {
            assert!(w[0].result.similarity >= w[1].result.similarity);
        }
    }

    #[test]
    fn k_larger_than_db_returns_all() {
        let db = db(3, 10);
        let q = walk(100, 4);
        let (hits, _) = scan(&Pss, &db, &q, 50, true);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn exact_embedded_match_ranks_first() {
        let q = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let mut database = db(5, 10);
        // Plant the query inside trajectory 99.
        let mut planted = vec![pts(&[(50.0, 50.0)])[0]];
        planted.extend_from_slice(&q);
        database.push(Trajectory::new_unchecked(99, planted));
        let (hits, _) = scan(&ExactS, &database, &q, 1, true);
        assert_eq!(hits[0].trajectory_id, 99);
        assert!(hits[0].result.distance.abs() < 1e-12);
    }

    #[test]
    fn arena_scan_matches_per_trajectory_search() {
        // The scan kernel (one reused workspace, heap, best-bound-first
        // order) must return exactly what one `search` per trajectory
        // with a fresh workspace, ranked through
        // `sort_hits_and_truncate`, returns.
        let db = db(18, 13);
        let q = walk(321, 6);
        for k in [1, 4, 30] {
            let mut want: Vec<TopKResult> = db
                .iter()
                .map(|t| TopKResult {
                    trajectory_id: t.id,
                    result: ExactS.search(&Dtw, t.points(), &q),
                })
                .collect();
            sort_hits_and_truncate(&mut want, k);
            let (got, _) = scan(&ExactS, &db, &q, k, true);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.trajectory_id, w.trajectory_id, "k={k}");
                assert_eq!(g.result.range, w.result.range, "k={k}");
                assert_eq!(
                    g.result.similarity.to_bits(),
                    w.result.similarity.to_bits(),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = TopKHeap::new(0);
    }

    #[test]
    fn split_scans_merged_through_the_sort_match_one_scan() {
        // Disjoint slot ranges scanned into separate heaps, each pruning
        // against its own k-th only, then ranked by
        // `sort_hits_and_truncate`: the merge contract every per-worker
        // top-k list is held to.
        let db = db(37, 14);
        let q = walk(500, 5);
        let arena = CorpusArena::from_trajectories(&db);
        let slots: Vec<usize> = (0..arena.len()).collect();
        for k in [1, 5, 50] {
            let (want, _) = scan(&ExactS, &db, &q, k, true);
            for parts in [1, 2, 4, 8] {
                let mut merged = Vec::new();
                let mut stats = PruneStats::default();
                for part in slots.chunks(slots.len().div_ceil(parts)) {
                    let mut heap = TopKHeap::new(k);
                    let mut ws = SearchWorkspace::new(&Dtw, &q);
                    scan_top_k_into(
                        &ExactS, &arena, part, &q, &mut heap, &mut ws, true, 1, &mut stats,
                    );
                    merged.extend(heap.into_sorted_hits());
                }
                sort_hits_and_truncate(&mut merged, k);
                assert_eq!(merged, want, "k={k} parts={parts}");
                assert!(stats.is_consistent());
                assert_eq!(stats.scanned, db.len() as u64);
            }
        }
    }

    #[test]
    fn empty_candidate_list_leaves_heap_and_counters_untouched() {
        let arena = CorpusArena::from_trajectories(&db(20, 8));
        let q = walk(3, 4);
        for (prune, threads) in [(true, 1), (false, 1), (false, 4)] {
            let (hits, stats) = threaded_scan(&ExactS, &Dtw, &arena, &[&[]], &q, 3, prune, threads);
            assert!(hits.is_empty(), "prune={prune} threads={threads}");
            assert_eq!((counters(&stats), stats.pruned()), ([0; 4], 0));
        }
    }

    fn hit(trajectory_id: u64, distance: f64) -> TopKResult {
        let range = simsub_trajectory::SubtrajRange::new(0, 0);
        let result = SearchResult::from_distance(range, distance);
        TopKResult {
            trajectory_id,
            result,
        }
    }

    #[test]
    fn would_admit_takes_anything_until_full_then_ranks_against_the_worst() {
        let mut heap = TopKHeap::new(2);
        assert!(heap.would_admit(f64::NEG_INFINITY, u64::MAX));
        heap.push(hit(4, 1.0));
        assert!(heap.would_admit(f64::NEG_INFINITY, u64::MAX), "room left");
        heap.push(hit(7, 3.0));
        let worst = heap.worst().copied().unwrap();
        assert_eq!(worst.trajectory_id, 7);
        let floor = worst.result.similarity;
        assert!(heap.would_admit(floor + 1e-9, u64::MAX), "strictly better");
        assert!(!heap.would_admit(floor - 1e-9, 0), "strictly worse");
        // An equal similarity ranks by id: only a smaller id displaces.
        assert!(heap.would_admit(floor, 6));
        assert!(!heap.would_admit(floor, 7));
        assert!(!heap.would_admit(floor, 8));
    }

    #[test]
    fn full_floor_appears_only_once_k_hits_are_held() {
        let mut heap = TopKHeap::new(3);
        for (id, distance) in [(0, 2.0), (1, 5.0)] {
            heap.push(hit(id, distance));
            assert_eq!(heap.full_floor(), None, "{} of 3 held", heap.len());
        }
        heap.push(hit(2, 0.5));
        let worst = hit(1, 5.0).result.similarity;
        assert_eq!(heap.full_floor(), Some(worst));
        // A better hit evicts the worst and raises the floor.
        heap.push(hit(3, 1.0));
        assert_eq!(heap.full_floor(), Some(hit(0, 2.0).result.similarity));
        assert!(heap.full_floor().unwrap() > worst);
        assert_eq!(heap.len(), 3);
    }

    #[test]
    fn pruned_scan_matches_unpruned_with_consistent_stats() {
        let db = db(40, 12);
        let q = walk(777, 5);
        for k in [1, 3, 10] {
            let (unpruned, s0) = scan(&ExactS, &db, &q, k, false);
            let (pruned, s1) = scan(&ExactS, &db, &q, k, true);
            assert_eq!(unpruned, pruned, "k={k}");
            assert!(s0.is_consistent() && s1.is_consistent());
            assert_eq!(s0.pruned(), 0, "reference path never prunes");
            assert_eq!(s0.scanned, db.len() as u64);
            assert_eq!(s1.scanned, db.len() as u64);
        }
    }

    #[test]
    fn floor_equal_to_a_later_duplicates_best_still_admits_it() {
        // Five copies of one trajectory plus fillers, k = 2. The copies
        // with the *largest* ids are scanned first and fill the heap, so
        // the floor the later copies are searched under is exactly the
        // similarity they will reach — and, their ids being smaller, they
        // must displace the earlier ones. A search that gave up on
        // "cannot beat the floor" instead of "cannot reach it" would lose
        // them.
        let twin = walk(901, 14);
        let mut database: Vec<Trajectory> = (0..5)
            .map(|id| Trajectory::new_unchecked(id, twin.clone()))
            .collect();
        database.extend((5..12).map(|id| Trajectory::new_unchecked(id, walk(id + 40, 11))));
        let arena = CorpusArena::from_trajectories(&database);
        let slot_of = |id: u64| (0..arena.len()).find(|&s| arena.id(s) == id).unwrap();
        let late: Vec<usize> = [3, 4, 7, 9].map(slot_of).to_vec();
        let early: Vec<usize> = [0, 1, 2, 5, 6, 8, 10, 11].map(slot_of).to_vec();
        // A window of the twin itself (Θ = 1, the floor's upper edge) and
        // the same window nudged off it (a tie at an ordinary value).
        let exact: Vec<Point> = twin[4..10].to_vec();
        let near: Vec<Point> = exact
            .iter()
            .map(|p| Point::xy(p.x + 0.05, p.y - 0.03))
            .collect();
        for q in [exact, near] {
            let (want, _) = scan(&ExactS, &database, &q, 2, false);
            assert_eq!((want[0].trajectory_id, want[1].trajectory_id), (0, 1));
            // One heap carried across two scans.
            let mut heap = TopKHeap::new(2);
            let mut ws = SearchWorkspace::new(&Dtw, &q);
            let mut stats = PruneStats::default();
            for part in [&late, &early] {
                scan_top_k_into(
                    &ExactS, &arena, part, &q, &mut heap, &mut ws, true, 1, &mut stats,
                );
            }
            assert_eq!(heap.into_sorted_hits(), want, "shared heap");
            assert!(stats.is_consistent());
        }
    }

    /// What one search was handed and what it returned.
    #[derive(Debug, Clone, Copy)]
    struct ProbeCall {
        floor: f64,
        rows_prepared: bool,
        similarity: f64,
    }

    /// Records every search's [`ProbeCall`], then defers to ExactS.
    struct FloorProbe(Mutex<Vec<ProbeCall>>);

    impl SubtrajSearch for FloorProbe {
        fn name(&self) -> String {
            "FloorProbe".to_string()
        }

        fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
            ExactS.search(measure, data, query)
        }

        fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
            let (floor, rows_prepared) = (ws.sim_floor(), ws.rows_prepared());
            let result = ExactS.search_with(ws, data);
            self.0.lock().unwrap().push(ProbeCall {
                floor,
                rows_prepared,
                similarity: result.similarity,
            });
            result
        }
    }

    /// Scans `parts` in turn into one heap through a [`FloorProbe`];
    /// returns the hits, the stats and, per part, the calls its scan made.
    fn probe_scan(
        db: &[Trajectory],
        q: &[Point],
        k: usize,
        parts: usize,
        prune: bool,
    ) -> (Vec<TopKResult>, PruneStats, Vec<Vec<ProbeCall>>) {
        let probe = FloorProbe(Default::default());
        let arena = CorpusArena::from_trajectories(db);
        let slots: Vec<usize> = (0..arena.len()).collect();
        let mut heap = TopKHeap::new(k);
        let mut ws = SearchWorkspace::new(&Dtw, q);
        let mut stats = PruneStats::default();
        let mut calls = Vec::new();
        for part in slots.chunks(slots.len().div_ceil(parts)) {
            scan_top_k_into(
                &probe, &arena, part, q, &mut heap, &mut ws, prune, 1, &mut stats,
            );
            calls.push(std::mem::take(&mut *probe.0.lock().unwrap()));
            // Cleared once the scan is over.
            assert_eq!(ws.sim_floor(), f64::NEG_INFINITY);
            assert!(!ws.rows_prepared());
        }
        (heap.into_sorted_hits(), stats, calls)
    }

    #[test]
    fn only_the_pruning_path_hands_searches_a_floor() {
        let db = db(30, 12);
        let q = walk(55, 5);
        // Reference path: no floor, no prepared rows, nothing abandoned,
        // nothing left to resolve.
        let (_, stats, calls) = probe_scan(&db, &q, 3, 1, false);
        let seen = &calls[0];
        assert_eq!(seen.len(), db.len());
        assert!(
            seen.iter()
                .all(|c| c.floor == f64::NEG_INFINITY && !c.rows_prepared),
            "{seen:?}"
        );
        assert_eq!((stats.abandoned, stats.pruned()), (0, 0));
        // Pruning path: every search runs over its prepared matrix under
        // -∞ until the heap fills, then under the running k-th —
        // non-decreasing. Then come the resolutions, one per pending hit
        // still in the heap: probe calls = searched + resolutions, at most
        // k a scan call, each without the matrix and floored at its hit's
        // own Θ, which it returns bit for bit. Under DTW every hit the DP
        // let in was pending, so the resolutions are the final hits.
        let (want, _) = scan(&ExactS, &db, &q, 3, false);
        for parts in [1, 3] {
            let (hits, stats, calls) = probe_scan(&db, &q, 3, parts, true);
            assert_eq!(hits, want, "parts {parts}");
            let mut searches = Vec::new();
            let mut resolutions = Vec::new();
            for part in &calls {
                let split = part.iter().position(|c| !c.rows_prepared);
                let (searched, resolved) = part.split_at(split.unwrap_or(part.len()));
                assert!(resolved.len() <= 3, "parts {parts}: {resolved:?}");
                assert!(resolved.iter().all(|c| !c.rows_prepared), "{part:?}");
                searches.extend_from_slice(searched);
                resolutions.extend_from_slice(resolved);
            }
            assert_eq!(searches.len() as u64, stats.searched, "parts {parts}");
            assert!(resolutions.len() <= 3 * parts, "parts {parts}");
            assert!(searches[..3].iter().all(|c| c.floor == f64::NEG_INFINITY));
            assert!(searches[3..].iter().all(|c| c.floor > 0.0), "{searches:?}");
            assert!(searches.windows(2).all(|w| w[0].floor <= w[1].floor));
            for c in &resolutions {
                assert_eq!(c.floor.to_bits(), c.similarity.to_bits(), "{c:?}");
            }
            let mut resolved: Vec<u64> = resolutions.iter().map(|c| c.floor.to_bits()).collect();
            let mut kept: Vec<u64> = hits.iter().map(|h| h.result.similarity.to_bits()).collect();
            if parts == 1 {
                resolved.sort_unstable();
                kept.sort_unstable();
                assert_eq!(resolved, kept);
            } else {
                // Each call resolves what it kept; later calls may evict.
                assert!(kept.iter().all(|s| resolved.contains(s)));
            }
        }
    }

    #[test]
    fn a_near_copy_of_the_query_is_searched_first_behind_the_index() {
        // Walks from one origin, so most MBRs meet the query's and those
        // that do tie at the top coarse bound, as behind the R-tree. The
        // query is a small walk at that origin; a near-copy of it planted
        // under the largest id must be the first candidate searched,
        // though id order would search it last.
        let q: Vec<Point> = walk(2_024, 16)
            .iter()
            .map(|p| Point::xy(p.x * 0.1, p.y * 0.1))
            .collect();
        let mut database = db(30, 40);
        let planted: Vec<Point> = q.iter().map(|p| Point::xy(p.x + 1e-3, p.y)).collect();
        database.push(Trajectory::new_unchecked(1_000, planted));
        let arena = CorpusArena::from_trajectories(&database);
        let qmbr = simsub_trajectory::Mbr::of_points(&q);
        let behind_index: Vec<usize> = (0..arena.len())
            .filter(|&slot| arena.mbr(slot).intersects(&qmbr))
            .collect();
        assert!(behind_index.len() > 10, "{} candidates", behind_index.len());
        let cascade = BoundCascade::new(&Dtw, &q);
        assert!(behind_index
            .iter()
            .all(|&slot| cascade.coarse_bound(arena.mbr(slot)) == 1.0));
        let probe = ThreadProbe(Mutex::new(Vec::new()));
        let (hits, _) = threaded_scan(&probe, &Dtw, &arena, &[&behind_index], &q, 3, true, 1);
        assert_eq!(hits[0].trajectory_id, 1_000);
        let searched = probe.0.into_inner().unwrap();
        assert_eq!(searched[0].0, 1_000, "{searched:?}");
    }

    #[test]
    fn a_timing_guard_times_only_the_scans_of_its_own_thread() {
        let db = db(40, 12);
        let q = walk(606, 6);
        let _guard = crate::bounds::scan_timing_scope();
        let (_, own) = scan(&ExactS, &db, &q, 3, true);
        assert!(own.bound_ns > 0 && own.kernel_ns > 0, "{own:?}");
        let (want, _) = scan(&ExactS, &db, &q, 3, true);
        let (hits, other) =
            std::thread::scope(|s| s.spawn(|| scan(&ExactS, &db, &q, 3, true)).join().unwrap());
        assert_eq!(hits, want);
        assert_eq!((other.bound_ns, other.kernel_ns), (0, 0), "{other:?}");
        assert!(other.searched > 0);
    }

    #[test]
    fn heap_memory_stays_bounded_at_k() {
        // Regression for the old collect-all-then-truncate buffers: the
        // hit buffer must never hold more than k entries, whatever the
        // database size.
        let mut heap = TopKHeap::new(5);
        for i in 0..10_000u64 {
            heap.push(TopKResult {
                trajectory_id: i,
                result: SearchResult::from_distance(
                    simsub_trajectory::SubtrajRange::new(0, 0),
                    (i % 97) as f64,
                ),
            });
            assert!(heap.len() <= 5);
        }
        assert_eq!(heap.peak_len(), 5);
        let hits = heap.into_sorted_hits();
        assert_eq!(hits.len(), 5);
        // Best five are the distance-0 hits with the smallest ids.
        for (idx, hit) in hits.iter().enumerate() {
            assert_eq!(hit.result.distance, 0.0);
            assert_eq!(hit.trajectory_id, idx as u64 * 97);
        }
    }

    #[test]
    fn heap_order_equals_sort_order() {
        let db = db(31, 9);
        let q = walk(42, 4);
        let mut all: Vec<TopKResult> = db
            .iter()
            .map(|t| TopKResult {
                trajectory_id: t.id,
                result: ExactS.search(&Dtw, t.points(), &q),
            })
            .collect();
        for k in [1, 4, 31, 100] {
            let mut heap = TopKHeap::new(k);
            for &hit in &all {
                heap.push(hit);
            }
            let mut want = all.clone();
            sort_hits_and_truncate(&mut want, k);
            assert_eq!(heap.into_sorted_hits(), want, "k={k}");
        }
        // Tie-handling: duplicate similarities with distinct ids.
        let dup = all[0];
        all.push(TopKResult {
            trajectory_id: 1_000,
            ..dup
        });
        let mut heap = TopKHeap::new(3);
        for &hit in &all {
            heap.push(hit);
        }
        let mut want = all.clone();
        sort_hits_and_truncate(&mut want, 3);
        assert_eq!(heap.into_sorted_hits(), want);
    }

    /// An untrained but deterministic learned policy for `mdp`: what it
    /// decides does not matter to the split, only that it decides the same
    /// on every thread.
    fn untrained_rls(mdp: crate::MdpConfig) -> crate::Rls {
        let dqn = simsub_rl::DqnConfig::paper(mdp.state_dim(), mdp.n_actions());
        crate::Rls::new(simsub_rl::DqnAgent::new(dqn).policy(), mdp)
    }

    /// A hit's every bit: id, range and both scores.
    fn hit_bits(hits: &[TopKResult]) -> Vec<(u64, usize, usize, u64, u64)> {
        hits.iter()
            .map(|h| {
                let r = &h.result;
                (
                    h.trajectory_id,
                    r.range.start,
                    r.range.end,
                    r.similarity.to_bits(),
                    r.distance.to_bits(),
                )
            })
            .collect()
    }

    /// The counters an unprunable scan keeps; all four are sums, so a
    /// split scan must reproduce them exactly.
    fn counters(stats: &PruneStats) -> [u64; 4] {
        [
            stats.scanned,
            stats.searched,
            stats.searched_cells,
            stats.abandoned,
        ]
    }

    /// Scans the slot `rounds` in turn into one heap of `k`, each round at
    /// `threads`.
    #[allow(clippy::too_many_arguments)]
    fn threaded_scan(
        algo: &dyn SubtrajSearch,
        measure: &dyn Measure,
        arena: &CorpusArena,
        rounds: &[&[usize]],
        q: &[Point],
        k: usize,
        prune: bool,
        threads: usize,
    ) -> (Vec<TopKResult>, PruneStats) {
        let mut heap = TopKHeap::new(k);
        let mut ws = SearchWorkspace::new(measure, q);
        let mut stats = PruneStats::default();
        for round in rounds {
            scan_top_k_into(
                algo, arena, round, q, &mut heap, &mut ws, prune, threads, &mut stats,
            );
        }
        (heap.into_sorted_hits(), stats)
    }

    /// Holds threads 2, 3 and 4 to the one-thread scan over `db`, for every
    /// unprunable pairing the split serves, with `split_at` slots scanned
    /// in a first round so the second finds the caller's heap already
    /// holding hits (no first round when `split_at == 0`).
    fn assert_split_matches_sequential(db: &[Trajectory], q: &[Point], k: usize, split_at: usize) {
        let t2vec =
            simsub_measures::T2Vec::random(5, 8, simsub_measures::CoordNormalizer::from_corpus(db));
        let rls = untrained_rls(crate::MdpConfig::rls());
        let skip = untrained_rls(crate::MdpConfig::rls_skip(2));
        // RLS and t2vec never prune, so they scan with `prune: true`;
        // ExactS and PSS under DTW take the reference path only without.
        let cases: [(&dyn SubtrajSearch, &dyn Measure, bool); 8] = [
            (&rls, &t2vec, true),
            (&skip, &t2vec, true),
            (&rls, &Dtw, true),
            (&skip, &Dtw, true),
            (&ExactS, &t2vec, true),
            (&Pss, &t2vec, true),
            (&ExactS, &Dtw, false),
            (&Pss, &Dtw, false),
        ];
        let arena = CorpusArena::from_trajectories(db);
        let slots: Vec<usize> = (0..arena.len()).collect();
        let (first, second) = slots.split_at(split_at);
        let rounds: Vec<&[usize]> = [first, second]
            .into_iter()
            .filter(|r| !r.is_empty())
            .collect();
        for (algo, measure, prune) in cases {
            assert!(!scan_prunes(algo, measure, prune));
            let name = format!("{} / {}", algo.name(), measure.name());
            let (want, want_stats) = threaded_scan(algo, measure, &arena, &rounds, q, k, prune, 1);
            assert_eq!(want.len(), k.min(db.len()), "{name}");
            assert_eq!(want_stats.scanned, db.len() as u64, "{name}");
            for threads in 2..=4 {
                let (got, stats) =
                    threaded_scan(algo, measure, &arena, &rounds, q, k, prune, threads);
                let at = format!("{name}, {} candidates, k {k}, threads {threads}", db.len());
                assert_eq!(hit_bits(&got), hit_bits(&want), "{at}");
                assert_eq!(counters(&stats), counters(&want_stats), "{at}");
                assert!(stats.is_consistent() && stats.pruned() == 0, "{at}");
            }
        }
    }

    #[test]
    fn split_reference_scans_match_one_thread_bit_for_bit() {
        let q = walk(4_242, 5);
        let min = MIN_CANDIDATES_PER_THREAD;
        // Below the minimum (no split), exactly at it for one, two and
        // three threads, and counts no thread count divides.
        for count in [min - 1, min, 2 * min, 3 * min, 4 * min + 1, 37] {
            let db = db(count, 11);
            for k in [1, 4] {
                assert_split_matches_sequential(&db, &q, k, 0);
            }
        }
        // k beyond the candidate count keeps every hit.
        assert_split_matches_sequential(&db(33, 11), &q, 50, 0);
    }

    #[test]
    fn split_scan_into_a_heap_holding_hits_matches_one_thread() {
        // A second scan into the same heap: the caller's heap is full
        // before the split starts, and its helpers' hits must compete
        // with what it holds.
        let q = walk(77, 6);
        for k in [1, 3, 9] {
            assert_split_matches_sequential(&db(41, 12), &q, k, 9);
        }
    }

    #[test]
    fn split_scan_breaks_ties_by_id_across_threads() {
        // Six copies of one trajectory under ids spread through the
        // corpus: threads find copies in any order and into different
        // heaps, and the merge must keep the smallest ids.
        let twin = walk(901, 13);
        let database: Vec<Trajectory> = (0..40u64)
            .map(|id| {
                let points = if id % 6 == 5 {
                    twin.clone()
                } else {
                    walk(id + 300, 12)
                };
                Trajectory::new_unchecked(id, points)
            })
            .collect();
        let q: Vec<Point> = twin[3..9].to_vec();
        for k in [2, 5] {
            assert_split_matches_sequential(&database, &q, k, 0);
        }
        let (hits, _) = scan(&ExactS, &database, &q, 2, false);
        assert_eq!((hits[0].trajectory_id, hits[1].trajectory_id), (5, 11));
    }

    /// Records which thread searched which trajectory, then defers to
    /// ExactS.
    struct ThreadProbe(Mutex<Vec<(u64, std::thread::ThreadId)>>);

    impl SubtrajSearch for ThreadProbe {
        fn name(&self) -> String {
            "ThreadProbe".to_string()
        }

        fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
            ExactS.search(measure, data, query)
        }

        fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
            let by = std::thread::current().id();
            self.0.lock().unwrap().push((data.id, by));
            ExactS.search_with(ws, data)
        }
    }

    #[test]
    fn split_uses_every_thread_it_starts_and_no_more() {
        // Thread `t` searches candidate `t` before it claims any, so the
        // threads a scan started are exactly the threads that searched:
        // `threads`, capped at one per `MIN_CANDIDATES_PER_THREAD`.
        let q = walk(12, 4);
        let min = MIN_CANDIDATES_PER_THREAD;
        for count in [1, min - 1, min, 2 * min - 1, 2 * min, 3 * min + 2] {
            let arena = CorpusArena::from_trajectories(&db(count, 9));
            let slots: Vec<usize> = (0..count).collect();
            for threads in 1..=4 {
                let probe = ThreadProbe(Mutex::new(Vec::new()));
                let (hits, stats) =
                    threaded_scan(&probe, &Dtw, &arena, &[&slots], &q, 3, false, threads);
                assert_eq!((hits.len(), stats.scanned), (3.min(count), count as u64));
                let mut seen = probe.0.into_inner().unwrap();
                seen.sort_by_key(|&(id, _)| id);
                let ids: Vec<u64> = seen.iter().map(|&(id, _)| id).collect();
                assert_eq!(ids, (0..count as u64).collect::<Vec<_>>(), "each once");
                let started = threads.min(count / min).max(1);
                let by: std::collections::HashSet<_> = seen.iter().map(|&(_, t)| t).collect();
                assert_eq!(by.len(), started, "{count} candidates at threads {threads}");
                // The caller is thread 0; thread `t` took candidate `t`.
                assert_eq!(seen[0].1, std::thread::current().id());
                let firsts: std::collections::HashSet<_> =
                    seen[..started].iter().map(|&(_, t)| t).collect();
                assert_eq!(firsts, by);
            }
        }
    }

    mod split_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn split_reference_scan_matches_one_thread_on_walks(
                seed in 0u64..10_000,
                count in 1usize..50,
                len in 2usize..14,
                m in 1usize..7,
                k in 1usize..12,
                threads in 2usize..=4,
                split_at in 0usize..50,
            ) {
                let database: Vec<Trajectory> = (0..count)
                    .map(|i| Trajectory::new_unchecked(i as u64, walk(seed + i as u64, len)))
                    .collect();
                let arena = CorpusArena::from_trajectories(&database);
                let slots: Vec<usize> = (0..count).collect();
                let (first, second) = slots.split_at(split_at.min(count));
                let q = walk(seed ^ 0x5eed, m);
                let t2vec = simsub_measures::T2Vec::random(
                    seed,
                    6,
                    simsub_measures::CoordNormalizer::from_corpus(&database),
                );
                let rls = untrained_rls(crate::MdpConfig::rls_skip(1));
                let cases: [(&dyn SubtrajSearch, &dyn Measure); 3] =
                    [(&ExactS, &Dtw), (&Pss, &Dtw), (&rls, &t2vec)];
                for (algo, measure) in cases {
                    let run = |threads| {
                        threaded_scan(algo, measure, &arena, &[first, second], &q, k, false, threads)
                    };
                    let ((want, want_stats), (got, stats)) = (run(1), run(threads));
                    prop_assert_eq!(hit_bits(&got), hit_bits(&want));
                    prop_assert_eq!(counters(&stats), counters(&want_stats));
                }
            }
        }
    }
}
