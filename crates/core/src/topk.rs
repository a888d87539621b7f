//! Top-k similar subtrajectory search over a trajectory database — the
//! user-facing query of Section 3.1, built prune-first, allocate-once,
//! and arena-backed:
//!
//! - **Bounded memory.** Hits live in a [`TopKHeap`] capped at `k`
//!   entries (the scan used to collect one hit per database trajectory
//!   before truncating); the heap's k-th element is the prune threshold.
//! - **Prune-first.** Candidates are ordered best-bound-first and each
//!   must pass the [`BoundCascade`] (O(1) Kim-style screen, the O(m) MBR
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
//! - **Allocate-once.** One [`SearchWorkspace`] per (query, scan) serves
//!   every trajectory; no per-trajectory evaluator boxing.
//! - **Arena-backed.** The scan kernel walks a [`CorpusArena`]: data
//!   points come from contiguous SoA slabs through zero-copy
//!   [`simsub_trajectory::TrajView`]s, and per-trajectory MBRs are O(1)
//!   reads from the arena's precomputed table.
//!
//! [`scan_top_k_into`] is the only scan kernel: a database scan, a shard
//! fan-out, a parallel fan-out and a micro-batch (`simsub-index`) are all
//! loops of it over caller-owned heaps. Every caller ranks through
//! [`sort_hits_and_truncate`]'s total order (or the identical
//! [`TopKHeap`] order), so results stay interchangeable, pruning is
//! byte-invisible (`tests/prune_equivalence.rs`), and the arena layout is
//! byte-invisible too (`tests/layout_equivalence.rs`).

use crate::bounds::{BoundCascade, PruneStats, SharedSimFloor};
use crate::{SearchOutcome, SearchResult, SearchWorkspace, SubtrajSearch};
use simsub_trajectory::{CorpusArena, Point};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Combines the running-top-k threshold with an optional cross-worker
/// floor: admit only candidates whose similarity upper `bound` could
/// still place them in the final top-k.
fn admits(heap: &TopKHeap, floor: Option<&SharedSimFloor>, bound: f64, id: u64) -> bool {
    if let Some(floor) = floor {
        // Strictly below a certified k-th similarity: hopeless anywhere.
        if bound < floor.get() {
            return false;
        }
    }
    heap.would_admit(bound, id)
}

/// The similarity a hit must reach to matter — the higher of this heap's
/// k-th and the cross-worker floor, `-∞` while neither exists. A hit
/// strictly below it ranks behind `k` others whatever its id (this heap
/// rejects it, or the heap that certified the shared floor outranks it at
/// the merge), so a search may stop at "below this" without finding the
/// value; a hit equal to it may still win on id and must be found exactly.
fn sim_floor(heap: &TopKHeap, floor: Option<&SharedSimFloor>) -> f64 {
    let own = heap.full_floor().unwrap_or(f64::NEG_INFINITY);
    own.max(floor.map_or(f64::NEG_INFINITY, SharedSimFloor::get))
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
    floor: Option<&SharedSimFloor>,
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
    if let (Some(floor), Some(kth)) = (floor, heap.full_floor()) {
        floor.raise(kth);
    }
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

/// The prune-first scan kernel every top-k path composes: runs `algo`
/// over the arena slots in `candidates`, accumulating into a
/// caller-owned heap/workspace so shard fan-outs share both the k-th
/// threshold and the evaluator buffers across rounds. `ws` must already
/// target `query` under the scan's measure (the cascade is built from
/// `query`, the searches run through `ws` — a mismatch would prune with
/// one query's bounds against another query's scores, so it is
/// debug-asserted). With `prune`, candidates are visited
/// best-coarse-bound-first, must survive the [`BoundCascade`] before
/// being searched, and are searched under the running k-th similarity;
/// `floor` optionally shares a certified k-th similarity across workers.
/// Without it every candidate is searched in full with no floor — the
/// reference the pruned path is held to. The heap's final contents are
/// identical for every `prune`/`floor`/visit order — bounds are
/// admissible, a floored search differs from the full one only below the
/// floor or in a range it leaves pending, every pending range still in
/// the heap is resolved before the call returns, and the hit order is
/// total.
#[allow(clippy::too_many_arguments)] // scan state is deliberately caller-owned
pub fn scan_top_k_into(
    algo: &dyn SubtrajSearch,
    arena: &CorpusArena,
    candidates: &[usize],
    query: &[Point],
    heap: &mut TopKHeap,
    ws: &mut SearchWorkspace<'_>,
    prune: bool,
    floor: Option<&SharedSimFloor>,
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
    let mut cascade = BoundCascade::new(ws.measure(), query);
    let active = prune && cascade.is_active() && algo.reported_similarity_is_admissible();
    if !active {
        // The reference path: no floor, no prepared rows — ExactS stays
        // the paper's multi-start enumeration.
        for &slot in candidates {
            stats.scanned += 1;
            search_and_push(
                algo,
                arena,
                slot,
                heap,
                ws,
                floor,
                f64::NEG_INFINITY,
                false,
                timing,
                stats,
            );
        }
        return;
    }
    // Best-first: descending coarse bound (ties by ascending id) raises
    // the k-th similarity as early as possible, so later candidates die
    // at the O(1) screen instead of the O(m) envelope or the search.
    let order = timed(timing, &mut stats.bound_ns, || {
        let mut order: Vec<(f64, usize)> = candidates
            .iter()
            .map(|&slot| (cascade.coarse_bound(arena.mbr(slot)), slot))
            .collect();
        order.sort_unstable_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| arena.id(a.1).cmp(&arena.id(b.1)))
        });
        order
    });
    for (coarse, slot) in order {
        let id = arena.id(slot);
        stats.scanned += 1;
        if !admits(heap, floor, coarse, id) {
            stats.pruned_by_kim += 1;
            continue;
        }
        let envelope = timed(timing, &mut stats.bound_ns, || {
            cascade.envelope_bound(arena.mbr(slot))
        });
        if !admits(heap, floor, envelope, id) {
            stats.pruned_by_mbr += 1;
            continue;
        }
        // The point-level stage reads coordinates; only measures whose
        // search reads a point-distance matrix (DTW, Frechet) run it. It
        // stops at the first query prefix whose bound `admits` rejects,
        // and that looser bound is rejected again here.
        let points = if ws.factors_cell_rows() {
            let view = arena.view(slot);
            timed(timing, &mut stats.bound_ns, || {
                cascade.point_bound(view.xs(), view.ys(), |partial| {
                    admits(heap, floor, partial, id)
                })
            })
        } else {
            f64::INFINITY
        };
        if !admits(heap, floor, points, id) {
            stats.pruned_by_points += 1;
            continue;
        }
        let sim_floor = sim_floor(heap, floor);
        search_and_push(
            algo, arena, slot, heap, ws, floor, sim_floor, true, timing, stats,
        );
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
            algo, &arena, &slots, query, &mut heap, &mut ws, prune, None, &mut stats,
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
    fn split_scans_sharing_a_floor_match_one_scan() {
        // The shape every fan-out takes: disjoint slot ranges scanned into
        // separate heaps that publish their k-th similarity through one
        // `SharedSimFloor`, merged by `sort_hits_and_truncate`.
        let db = db(37, 14);
        let q = walk(500, 5);
        let arena = CorpusArena::from_trajectories(&db);
        let slots: Vec<usize> = (0..arena.len()).collect();
        for k in [1, 5, 50] {
            let (want, _) = scan(&ExactS, &db, &q, k, true);
            for parts in [1, 2, 4, 8] {
                let floor = SharedSimFloor::new();
                let mut merged = Vec::new();
                let mut stats = PruneStats::default();
                for part in slots.chunks(slots.len().div_ceil(parts)) {
                    let mut heap = TopKHeap::new(k);
                    let mut ws = SearchWorkspace::new(&Dtw, &q);
                    scan_top_k_into(
                        &ExactS,
                        &arena,
                        part,
                        &q,
                        &mut heap,
                        &mut ws,
                        true,
                        Some(&floor),
                        &mut stats,
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
            // One heap carried across two scans (the sequential shard walk).
            let mut heap = TopKHeap::new(2);
            let mut ws = SearchWorkspace::new(&Dtw, &q);
            let mut stats = PruneStats::default();
            for part in [&late, &early] {
                scan_top_k_into(
                    &ExactS, &arena, part, &q, &mut heap, &mut ws, true, None, &mut stats,
                );
            }
            assert_eq!(heap.into_sorted_hits(), want, "shared heap");
            assert!(stats.is_consistent());
            // Two heaps that only share the certified floor (the parallel
            // fan-out): the second scan runs under the first one's k-th.
            let floor = SharedSimFloor::new();
            let mut merged = Vec::new();
            for part in [&late, &early] {
                let mut heap = TopKHeap::new(2);
                scan_top_k_into(
                    &ExactS,
                    &arena,
                    part,
                    &q,
                    &mut heap,
                    &mut ws,
                    true,
                    Some(&floor),
                    &mut stats,
                );
                merged.extend(heap.into_sorted_hits());
            }
            sort_hits_and_truncate(&mut merged, 2);
            assert_eq!(merged, want, "shared floor");
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
    struct FloorProbe(std::cell::RefCell<Vec<ProbeCall>>);

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
            self.0.borrow_mut().push(ProbeCall {
                floor,
                rows_prepared,
                similarity: result.similarity,
            });
            result
        }
    }

    /// Scans `parts` in turn into one heap (the sequential shard walk)
    /// through a [`FloorProbe`]; returns the hits, the stats and, per
    /// part, the calls its scan made.
    fn probe_scan(
        db: &[Trajectory],
        q: &[Point],
        k: usize,
        parts: usize,
        prune: bool,
        floor: Option<&SharedSimFloor>,
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
                &probe, &arena, part, q, &mut heap, &mut ws, prune, floor, &mut stats,
            );
            calls.push(probe.0.take());
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
        // nothing left to resolve — with and without a shared floor that
        // already certifies a k-th.
        let shared = SharedSimFloor::new();
        shared.raise(0.9);
        for floor in [None, Some(&shared)] {
            let (_, stats, calls) = probe_scan(&db, &q, 3, 1, false, floor);
            let seen = &calls[0];
            assert_eq!(seen.len(), db.len());
            assert!(
                seen.iter()
                    .all(|c| c.floor == f64::NEG_INFINITY && !c.rows_prepared),
                "{seen:?}"
            );
            assert_eq!((stats.abandoned, stats.pruned()), (0, 0));
        }
        // Pruning path: every search runs over its prepared matrix under
        // -∞ until the heap fills, then under the running k-th —
        // non-decreasing. Then come the resolutions, one per pending hit
        // still in the heap: probe calls = searched + resolutions, at most
        // k a scan call, each without the matrix and floored at its hit's
        // own Θ, which it returns bit for bit. Under DTW every hit the DP
        // let in was pending, so the resolutions are the final hits.
        let (want, _) = scan(&ExactS, &db, &q, 3, false);
        for parts in [1, 3] {
            let (hits, stats, calls) = probe_scan(&db, &q, 3, parts, true, None);
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
}
