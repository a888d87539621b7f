//! An indexed trajectory database: the "database of plays / taxi routes"
//! the user-facing query of Section 3.1 runs against.
//!
//! Points live in a columnar [`CorpusArena`] — one contiguous SoA slab
//! per corpus, with a precomputed per-trajectory MBR table — and every
//! read path serves borrowed [`TrajView`]s into it. The AoS
//! [`Trajectory`] is the construction currency ([`TrajectoryDb::build`])
//! and the arena is the storage: a database can also be assembled
//! directly from an arena ([`TrajectoryDb::from_arena`]), which is how a
//! packed binary corpus (`simsub_data::bin_io`) reloads without ever
//! materializing per-trajectory point vectors.

use crate::rtree::RTree;
use simsub_core::{
    library_scan_threads, scan_prunes, PruneStats, SearchWorkspace, SubtrajSearch, TopKHeap,
    TopKResult,
};
use simsub_measures::Measure;
use simsub_trajectory::{CorpusArena, Mbr, Point, TrajView, Trajectory};
use std::collections::HashMap;
use std::sync::Arc;

/// The database is immutable after [`TrajectoryDb::build`], so concurrent
/// readers need no locking; this assertion keeps that contract honest.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TrajectoryDb>();
};

/// A database of data trajectories: a columnar [`CorpusArena`] plus an
/// R-tree over the arena's MBR table.
#[derive(Debug, Clone)]
pub struct TrajectoryDb {
    arena: CorpusArena,
    /// Arena slot of each trajectory id, for [`TrajectoryDb::get`].
    by_id: HashMap<u64, usize>,
    /// The arena's MBRs, each stored with its arena slot, so a candidate
    /// set needs no id lookup.
    rtree: RTree,
}

impl TrajectoryDb {
    /// Builds the database and its index from AoS trajectories.
    ///
    /// # Panics
    /// Panics on duplicate trajectory ids.
    pub fn build(trajs: Vec<Trajectory>) -> Self {
        Self::from_arena(CorpusArena::from_trajectories(&trajs))
    }

    /// Builds the database straight from a columnar arena — the one
    /// builder behind [`TrajectoryDb::build`], startup and every reload
    /// of a packed binary corpus. The R-tree is bulk-loaded
    /// ([`RTree::bulk_load`]) from the arena's precomputed MBR table, so
    /// no point is re-read; its shape never changes a candidate set.
    ///
    /// # Panics
    /// Panics on duplicate trajectory ids (the binary loader validates
    /// them beforehand and errors instead).
    pub fn from_arena(arena: CorpusArena) -> Self {
        let mut by_id = HashMap::with_capacity(arena.len());
        for slot in 0..arena.len() {
            let id = arena.id(slot);
            assert!(
                by_id.insert(id, slot).is_none(),
                "duplicate trajectory id {id}"
            );
        }
        let rtree = RTree::bulk_load(arena.mbrs());
        Self {
            arena,
            by_id,
            rtree,
        }
    }

    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when the database holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Total number of points across all trajectories (the x-axis of
    /// Figure 4).
    pub fn total_points(&self) -> usize {
        self.arena.total_points()
    }

    /// The columnar point store (slabs, offsets, ids, MBR table).
    pub fn arena(&self) -> &CorpusArena {
        &self.arena
    }

    /// Borrowed view of the trajectory at arena `slot` (its position in
    /// the build order).
    pub fn view(&self, slot: usize) -> TrajView<'_> {
        self.arena.view(slot)
    }

    /// Iterates over all trajectories as borrowed views, in build order.
    pub fn views(&self) -> impl Iterator<Item = TrajView<'_>> {
        self.arena.iter()
    }

    /// Lookup by id.
    pub fn get(&self, id: u64) -> Option<TrajView<'_>> {
        self.by_id.get(&id).map(|&slot| self.arena.view(slot))
    }

    /// Materializes the corpus back into owned AoS trajectories
    /// (bit-exact; for tooling and tests).
    pub fn to_trajectories(&self) -> Vec<Trajectory> {
        self.arena.to_trajectories()
    }

    /// Trajectories whose MBR intersects the query MBR — the index-pruned
    /// candidate set of Section 6.2(4) — as borrowed views.
    pub fn candidates(&self, query_mbr: &Mbr) -> Vec<TrajView<'_>> {
        self.rtree
            .query_intersecting(query_mbr)
            .into_iter()
            .map(|slot| self.arena.view(slot as usize))
            .collect()
    }

    /// Wraps the built database in an [`Arc`] for lock-free sharing across
    /// worker threads — the corpus-snapshot handle the serving layer
    /// (`simsub-service`) holds. The database is immutable after `build`,
    /// so clones of the `Arc` are safe concurrent readers.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Ids of trajectories whose MBR intersects `query_mbr` (the pruning
    /// set of [`TrajectoryDb::candidates`], without materializing views).
    pub fn candidate_ids(&self, query_mbr: &Mbr) -> Vec<u64> {
        self.rtree
            .query_intersecting(query_mbr)
            .into_iter()
            .map(|slot| self.arena.id(slot as usize))
            .collect()
    }

    /// Top-k most similar subtrajectory search across the database.
    ///
    /// With `use_index`, trajectories whose MBR does not intersect the
    /// query's MBR are pruned first; exact answers can in theory be lost
    /// (rarely in practice — see §6.2(4)), which is the accepted trade-off
    /// this flag exposes. Independently, the scan itself is prune-first
    /// (see `simsub_core::bounds`): admissible bounds skip full searches
    /// without changing any answer. A scan that cannot prune (RLS, t2vec)
    /// spreads its candidates over the process's cores
    /// ([`library_scan_threads`]), with identical answers.
    pub fn top_k(
        &self,
        algo: &dyn SubtrajSearch,
        measure: &dyn Measure,
        query: &[Point],
        k: usize,
        use_index: bool,
    ) -> Vec<TopKResult> {
        self.top_k_with_stats(algo, measure, query, k, use_index, true)
            .0
    }

    /// [`TrajectoryDb::top_k`] with an explicit prune switch and the
    /// scan's [`PruneStats`]. `prune: false` is the reference path with
    /// identical answers, the one the equivalence tests and the benchmark
    /// hold the pruned scan to; like every unprunable scan it runs on
    /// [`library_scan_threads`] threads, so its `kernel_ns` sums theirs.
    pub fn top_k_with_stats(
        &self,
        algo: &dyn SubtrajSearch,
        measure: &dyn Measure,
        query: &[Point],
        k: usize,
        use_index: bool,
        prune: bool,
    ) -> (Vec<TopKResult>, PruneStats) {
        // Only an unprunable scan splits, so only it reads the core count.
        let threads = if scan_prunes(algo, measure, prune) {
            1
        } else {
            library_scan_threads()
        };
        self.top_k_with_threads(algo, measure, query, k, use_index, prune, threads)
    }

    /// [`TrajectoryDb::top_k_with_stats`] with an explicit thread budget
    /// — the entry the serving layer answers each query with. One fresh
    /// heap and workspace a call.
    ///
    /// `threads` is how many threads the query may use: a pruning scan
    /// (see [`scan_prunes`]) runs on the calling thread, because each of
    /// its searches reads the running k-th similarity; an unprunable one
    /// splits its candidates over up to `threads` threads
    /// (`simsub_core::scan_top_k_into`). `prune` switches the
    /// admissible-bound cascade (see `simsub_core::bounds`). The hits are
    /// identical for every `prune` and `threads`, and the counters other
    /// than the timings for every `threads`.
    #[allow(clippy::too_many_arguments)] // the whole scan plan, spelled once
    pub fn top_k_with_threads(
        &self,
        algo: &dyn SubtrajSearch,
        measure: &dyn Measure,
        query: &[Point],
        k: usize,
        use_index: bool,
        prune: bool,
        threads: usize,
    ) -> (Vec<TopKResult>, PruneStats) {
        assert!(k > 0, "k must be positive");
        let mut stats = PruneStats::default();
        let candidates = self.scan_candidate_slots(query, use_index);
        if candidates.is_empty() {
            return (Vec::new(), stats);
        }
        // The heap never holds more hits than there are candidates, and
        // with `k` at least that many it never fills, so no bound prunes
        // either way: capping `k` changes nothing but the allocation,
        // which a wire `k` of 2^53 would otherwise make abort the process.
        let mut heap = TopKHeap::new(k.min(candidates.len()));
        let mut ws = SearchWorkspace::new(measure, query);
        simsub_core::scan_top_k_into(
            algo,
            &self.arena,
            &candidates,
            query,
            &mut heap,
            &mut ws,
            prune,
            threads,
            &mut stats,
        );
        (heap.into_sorted_hits(), stats)
    }

    /// The candidate slots a scan visits: the R-tree intersection set
    /// with `use_index`, the whole arena otherwise.
    fn scan_candidate_slots(&self, query: &[Point], use_index: bool) -> Vec<usize> {
        if use_index {
            self.rtree
                .query_intersecting(&Mbr::of_points(query))
                .into_iter()
                .map(|slot| slot as usize)
                .collect()
        } else {
            (0..self.arena.len()).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simsub_core::{ExactS, SearchResult};
    use simsub_measures::Dtw;

    fn walk(seed: u64, len: usize, origin: (f64, f64)) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut x, mut y) = origin;
        (0..len)
            .map(|i| {
                x += rng.gen_range(-1.0..1.0);
                y += rng.gen_range(-1.0..1.0);
                Point::new(x, y, i as f64)
            })
            .collect()
    }

    fn build_db(count: usize) -> TrajectoryDb {
        let trajs: Vec<Trajectory> = (0..count)
            .map(|i| {
                let origin = ((i % 10) as f64 * 30.0, (i / 10) as f64 * 30.0);
                Trajectory::new_unchecked(i as u64, walk(i as u64, 20, origin))
            })
            .collect();
        TrajectoryDb::build(trajs)
    }

    #[test]
    fn build_and_lookup() {
        let db = build_db(25);
        assert_eq!(db.len(), 25);
        assert_eq!(db.total_points(), 25 * 20);
        assert_eq!(db.get(7).unwrap().id, 7);
        assert!(db.get(999).is_none());
    }

    #[test]
    fn from_arena_equals_build() {
        let trajs: Vec<Trajectory> = (0..12)
            .map(|i| Trajectory::new_unchecked(i as u64, walk(i as u64, 9, (0.0, 0.0))))
            .collect();
        let a = TrajectoryDb::build(trajs.clone());
        let b = TrajectoryDb::from_arena(CorpusArena::from_trajectories(&trajs));
        let query = walk(77, 5, (0.0, 0.0));
        for use_index in [false, true] {
            assert_eq!(
                a.top_k(&ExactS, &Dtw, &query, 4, use_index),
                b.top_k(&ExactS, &Dtw, &query, 4, use_index)
            );
        }
        assert_eq!(a.to_trajectories(), trajs);
    }

    /// An *empty* database (empty R-tree) answers `candidate_ids` /
    /// `candidates` / `top_k` with empty results instead of panicking.
    #[test]
    fn empty_database_answers_queries_with_nothing() {
        let db = TrajectoryDb::build(Vec::new());
        assert!(db.is_empty());
        assert_eq!(db.total_points(), 0);
        let query = walk(1, 6, (0.0, 0.0));
        let qmbr = Mbr::of_points(&query);
        assert!(db.candidate_ids(&qmbr).is_empty());
        assert!(db.candidates(&qmbr).is_empty());
        for use_index in [false, true] {
            assert!(db.top_k(&ExactS, &Dtw, &query, 3, use_index).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate trajectory id")]
    fn duplicate_ids_rejected() {
        let t1 = Trajectory::new_unchecked(1, walk(1, 5, (0.0, 0.0)));
        let t2 = Trajectory::new_unchecked(1, walk(2, 5, (0.0, 0.0)));
        let _ = TrajectoryDb::build(vec![t1, t2]);
    }

    /// A trajectory on a coarse integer lattice, so MBRs routinely share
    /// edges and corners with each other and with the query's. `shape`
    /// picks a walk (0, 1), a single repeated point (2), a horizontal
    /// segment (3) or a vertical one (4).
    fn lattice_points(rng: &mut StdRng, shape: u8) -> Vec<Point> {
        let len = rng.gen_range(1..7);
        let (x0, y0) = (rng.gen_range(-6..6) as f64, rng.gen_range(-6..6) as f64);
        (0..len)
            .map(|i| {
                let (dx, dy) = match shape {
                    2 => (0.0, 0.0),
                    3 => (rng.gen_range(-3..4) as f64, 0.0),
                    4 => (0.0, rng.gen_range(-3..4) as f64),
                    _ => (rng.gen_range(-3..4) as f64, rng.gen_range(-3..4) as f64),
                };
                Point::new(x0 + dx, y0 + dy, i as f64)
            })
            .collect()
    }

    /// Asserts that the R-tree's candidate set equals, as a set, a plain
    /// pass over the arena's MBR table that keeps every MBR intersecting
    /// the query's, on a random lattice corpus of `count` trajectories.
    fn assert_candidates_match_linear_mbr_filter(seed: u64, count: usize, query_shape: u8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trajs: Vec<Trajectory> = (0..count)
            .map(|i| {
                let shape = rng.gen_range(0u8..5);
                Trajectory::new_unchecked(i as u64, lattice_points(&mut rng, shape))
            })
            .collect();
        let db = TrajectoryDb::build(trajs);
        // More than 256 boxes need more than 16 leaves, so a root above
        // a level of internal nodes.
        if count > 256 {
            assert!(
                db.rtree.height() >= 3,
                "{count} boxes in one internal level"
            );
        }
        let qmbr = Mbr::of_points(&lattice_points(&mut rng, query_shape));
        let mut want: Vec<u64> = db
            .arena()
            .mbrs()
            .iter()
            .enumerate()
            .filter(|(_, mbr)| mbr.intersects(&qmbr))
            .map(|(slot, _)| db.arena().id(slot))
            .collect();
        want.sort_unstable();
        let mut got = db.candidate_ids(&qmbr);
        got.sort_unstable();
        assert_eq!(got, want);
        let mut views: Vec<u64> = db.candidates(&qmbr).iter().map(|v| v.id).collect();
        views.sort_unstable();
        assert_eq!(views, want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Small corpora (the empty one included) whose MBRs and queries
        /// are often points or segments and often share edges.
        #[test]
        fn candidates_match_linear_mbr_filter(
            seed in 0u64..1_000_000,
            count in 0usize..24,
            query_shape in 0u8..5,
        ) {
            assert_candidates_match_linear_mbr_filter(seed, count, query_shape);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Corpora large enough for trees of two to three levels.
        #[test]
        fn candidates_of_a_multi_level_tree_match_linear_mbr_filter(
            seed in 0u64..1_000_000,
            count in 200usize..600,
            query_shape in 0u8..5,
        ) {
            assert_candidates_match_linear_mbr_filter(seed, count, query_shape);
        }
    }

    /// A scan's answers and counters do not depend on the R-tree's shape:
    /// the database over the bulk-loaded tree and one over a tree built
    /// by an insert per slot give the same candidate sets, bit-identical
    /// hits and the same `PruneStats` counts.
    #[test]
    fn bulk_loaded_and_insert_built_trees_answer_identically() {
        use simsub_core::Pss;
        use simsub_measures::Frechet;
        // 400 overlapping walks, so each query meets 19 to 40 candidates.
        let trajs = (0..400u64).map(|i| {
            let origin = ((i % 20) as f64, (i / 20) as f64);
            Trajectory::new_unchecked(i, walk(i, 24, origin))
        });
        let packed = TrajectoryDb::build(trajs.collect());
        let mut inserted = packed.clone();
        inserted.rtree = RTree::new();
        for (slot, mbr) in packed.arena().mbrs().iter().enumerate() {
            inserted.rtree.insert(*mbr, slot as u64);
        }
        assert_eq!(packed.rtree.height(), 3);
        assert!(inserted.rtree.height() >= 3);
        let untimed = |mut stats: PruneStats| {
            (stats.bound_ns, stats.kernel_ns) = (0, 0);
            stats
        };
        let bits = |hits: &[TopKResult]| -> Vec<_> {
            let result_bits =
                |r: &SearchResult| (r.range, r.similarity.to_bits(), r.distance.to_bits());
            hits.iter()
                .map(|h| (h.trajectory_id, result_bits(&h.result)))
                .collect()
        };
        let algos: [&dyn SubtrajSearch; 2] = [&ExactS, &Pss];
        let measures: [&dyn Measure; 2] = [&Dtw, &Frechet];
        let mut pruned = 0;
        for i in 0..16u64 {
            let query = walk(
                900 + i,
                8,
                (4.0 + (i % 4) as f64 * 4.0, 4.0 + (i / 4) as f64 * 4.0),
            );
            let qmbr = Mbr::of_points(&query);
            let mut want = inserted.candidate_ids(&qmbr);
            let mut got = packed.candidate_ids(&qmbr);
            assert!(want.len() > 10, "{} candidates", want.len());
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want);
            for algo in algos {
                for measure in measures {
                    let (want_hits, want_stats) =
                        inserted.top_k_with_stats(algo, measure, &query, 5, true, true);
                    let (hits, stats) =
                        packed.top_k_with_stats(algo, measure, &query, 5, true, true);
                    let what = format!("{} {}", algo.name(), measure.name());
                    assert_eq!(bits(&hits), bits(&want_hits), "{what}");
                    assert_eq!(untimed(stats), untimed(want_stats), "{what}");
                    pruned += stats.pruned();
                }
            }
        }
        assert!(pruned > 0, "no bound pruned a candidate");
    }

    #[test]
    fn indexed_topk_agrees_when_mbrs_overlap() {
        // When the query overlaps the winning trajectory's MBR, indexed
        // and unindexed top-1 agree.
        let db = build_db(40);
        let query = walk(7, 6, (0.0, 0.0)); // near trajectory 0's region
        let full = db.top_k(&ExactS, &Dtw, &query, 1, false);
        let indexed = db.top_k(&ExactS, &Dtw, &query, 1, true);
        assert_eq!(full[0].trajectory_id, indexed[0].trajectory_id);
        assert!((full[0].result.similarity - indexed[0].result.similarity).abs() < 1e-12);
    }

    #[test]
    fn shared_handle_serves_concurrent_readers() {
        let db = build_db(30).into_shared();
        let query: Vec<Point> = db.get(4).unwrap().to_points()[..6].to_vec();
        let want = db.top_k(&ExactS, &Dtw, &query, 3, true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let db = std::sync::Arc::clone(&db);
                let query = query.clone();
                std::thread::spawn(move || db.top_k(&ExactS, &Dtw, &query, 3, true))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), want);
        }
    }

    /// ExactS, except that searching trajectory `.0` panics and records
    /// the thread that did.
    struct PanicOn(u64, std::sync::Mutex<Option<std::thread::ThreadId>>);

    impl SubtrajSearch for PanicOn {
        fn name(&self) -> String {
            "PanicOn".to_string()
        }

        fn search(&self, measure: &dyn Measure, data: &[Point], query: &[Point]) -> SearchResult {
            ExactS.search(measure, data, query)
        }

        fn search_with(&self, ws: &mut SearchWorkspace<'_>, data: TrajView<'_>) -> SearchResult {
            if data.id == self.0 {
                *self.1.lock().unwrap() = Some(std::thread::current().id());
                panic!("poisoned trajectory {}", data.id);
            }
            ExactS.search_with(ws, data)
        }
    }

    #[test]
    fn a_scan_helpers_panic_reaches_the_caller_with_its_message() {
        // An unprunable scan at threads 2: the helper starts at the second
        // candidate, so that is the trajectory that panics, off the caller's
        // thread.
        let db = build_db(40);
        let query = walk(3, 6, (30.0, 30.0));
        let poisoned = db.arena().id(1);
        let algo = PanicOn(poisoned, Default::default());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.top_k_with_threads(&algo, &Dtw, &query, 3, false, false, 2)
        }));
        let payload = outcome.expect_err("the helper's panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, &format!("poisoned trajectory {poisoned}"));
        let panicked_on = algo.1.lock().unwrap().expect("the search ran");
        assert_ne!(
            panicked_on,
            std::thread::current().id(),
            "a helper panicked"
        );
        // The database is immutable; the next call answers normally.
        let want = db.top_k(&ExactS, &Dtw, &query, 3, false);
        for threads in [1, 2] {
            let (got, _) = db.top_k_with_threads(&ExactS, &Dtw, &query, 3, false, false, threads);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn indexed_topk_is_subset_of_candidates() {
        let db = build_db(40);
        let query = walk(8, 6, (60.0, 60.0));
        let qmbr = Mbr::of_points(&query);
        let candidate_ids: std::collections::HashSet<u64> =
            db.candidates(&qmbr).iter().map(|v| v.id).collect();
        for hit in db.top_k(&ExactS, &Dtw, &query, 5, true) {
            assert!(candidate_ids.contains(&hit.trajectory_id));
        }
    }

    /// Queries spread over `build_db`'s 30-unit lattice of walks.
    fn spread_queries(n: u64) -> Vec<Vec<Point>> {
        (0..n)
            .map(|i| walk(700 + i, 6, ((i % 5) as f64 * 30.0, (i / 5) as f64 * 30.0)))
            .collect()
    }

    /// Points at the given coordinates, timestamped by position.
    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        let stamp = |(i, &(x, y)): (usize, &(f64, f64))| Point::new(x, y, i as f64);
        coords.iter().enumerate().map(stamp).collect()
    }

    #[test]
    fn empty_corpus_answers_every_query_with_nothing() {
        let db = TrajectoryDb::build(Vec::new());
        for query in spread_queries(3) {
            for (use_index, prune, threads) in
                [(false, false, 1), (true, true, 4), (false, true, 2)]
            {
                let got =
                    db.top_k_with_threads(&ExactS, &Dtw, &query, 3, use_index, prune, threads);
                assert_eq!(got, (Vec::new(), PruneStats::default()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn threaded_entry_rejects_k_zero() {
        let query = walk(1, 4, (0.0, 0.0));
        let _ = build_db(5).top_k_with_threads(&ExactS, &Dtw, &query, 0, false, true, 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn top_k_rejects_k_zero() {
        let _ = build_db(5).top_k(&ExactS, &Dtw, &walk(1, 4, (0.0, 0.0)), 0, false);
    }

    #[test]
    fn k_beyond_the_candidates_returns_each_candidate_once() {
        let db = build_db(12);
        let query = walk(5, 5, (30.0, 0.0));
        for prune in [false, true] {
            let (hits, stats) = db.top_k_with_stats(&ExactS, &Dtw, &query, 100, false, prune);
            let mut ids: Vec<u64> = hits.iter().map(|h| h.trajectory_id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..12).collect::<Vec<_>>(), "prune={prune}");
            // Nothing can be pruned while the heap has room.
            assert_eq!((stats.scanned, stats.searched), (12, 12), "prune={prune}");
        }
    }

    #[test]
    fn the_largest_wire_k_answers_as_k_equal_to_the_corpus() {
        // 2^53 is the largest `k` a JSON request can carry; a heap sized
        // by it aborts on allocation.
        let db = build_db(12);
        let query = walk(5, 5, (30.0, 0.0));
        for prune in [false, true] {
            let want = db.top_k_with_stats(&ExactS, &Dtw, &query, db.len(), false, prune);
            let got = db.top_k_with_stats(&ExactS, &Dtw, &query, 1 << 53, false, prune);
            assert_eq!(got, want, "prune={prune}");
        }
    }

    #[test]
    fn scan_counters_follow_the_candidate_set() {
        let db = build_db(40);
        let query = walk(8, 6, (60.0, 60.0));
        let candidates = db.candidate_ids(&Mbr::of_points(&query)).len() as u64;
        assert!(0 < candidates && candidates < 40, "{candidates} candidates");
        for (use_index, scanned) in [(true, candidates), (false, 40)] {
            for prune in [false, true] {
                let (_, stats) = db.top_k_with_stats(&ExactS, &Dtw, &query, 3, use_index, prune);
                assert_eq!(stats.scanned, scanned, "index={use_index} prune={prune}");
            }
        }
    }

    #[test]
    fn query_far_from_every_mbr_has_no_indexed_answer() {
        let db = build_db(30);
        let query = walk(3, 5, (10_000.0, -10_000.0));
        assert!(db.candidate_ids(&Mbr::of_points(&query)).is_empty());
        assert!(db.top_k(&ExactS, &Dtw, &query, 3, true).is_empty());
        // The unindexed scan still ranks the whole corpus.
        assert_eq!(db.top_k(&ExactS, &Dtw, &query, 3, false).len(), 3);
    }

    /// Ids whose MBR meets the MBR of `query`, sorted.
    fn sorted_candidates(db: &TrajectoryDb, query: &[(f64, f64)]) -> Vec<u64> {
        let mut ids = db.candidate_ids(&Mbr::of_points(&pts(query)));
        ids.sort_unstable();
        ids
    }

    #[test]
    fn point_query_on_a_shared_corner_finds_every_touching_mbr() {
        // Four unit squares meeting at (1, 1), and one a hair beyond the
        // far corner (2, 2) of the last.
        let corners = [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (2.0 + 1e-9, 2.0),
        ];
        let squares = corners.iter().enumerate().map(|(id, &(x, y))| {
            Trajectory::new_unchecked(id as u64, pts(&[(x, y), (x + 1.0, y + 1.0)]))
        });
        let db = TrajectoryDb::build(squares.collect());
        assert_eq!(sorted_candidates(&db, &[(1.0, 1.0)]), [0, 1, 2, 3]);
        // A point on one shared edge touches the two squares along it.
        assert_eq!(sorted_candidates(&db, &[(0.5, 1.0)]), [0, 2]);
        assert_eq!(sorted_candidates(&db, &[(2.0, 2.0)]), [3]);
    }

    #[test]
    fn zero_area_mbrs_are_found_by_a_crossing_query() {
        // A horizontal segment, a vertical one and a single point.
        let shapes = [
            pts(&[(-2.0, 0.0), (2.0, 0.0)]),
            pts(&[(5.0, -1.0), (5.0, 1.0)]),
            pts(&[(3.0, 3.0); 3]),
        ];
        let trajs = shapes.into_iter().enumerate();
        let db = TrajectoryDb::build(
            trajs
                .map(|(id, p)| Trajectory::new_unchecked(id as u64, p))
                .collect(),
        );
        // A vertical segment crossing the horizontal one.
        assert_eq!(sorted_candidates(&db, &[(0.0, -1.0), (0.0, 1.0)]), [0]);
        // A horizontal segment ending on the vertical one.
        assert_eq!(sorted_candidates(&db, &[(4.0, 0.5), (5.0, 0.5)]), [1]);
        // The point itself, and a box around it.
        assert_eq!(sorted_candidates(&db, &[(3.0, 3.0)]), [2]);
        assert_eq!(sorted_candidates(&db, &[(2.0, 2.0), (6.0, 4.0)]), [2]);
        // A parallel segment just off the horizontal one finds nothing.
        assert!(sorted_candidates(&db, &[(-1.0, 0.5), (1.0, 0.5)]).is_empty());
    }

    #[test]
    fn views_and_get_follow_the_build_order() {
        let trajs: Vec<Trajectory> = [9u64, 3, 41, 0]
            .iter()
            .map(|&id| Trajectory::new_unchecked(id, walk(id, 4 + id as usize % 3, (0.0, 0.0))))
            .collect();
        let db = TrajectoryDb::build(trajs.clone());
        assert_eq!(db.views().map(|v| v.id).collect::<Vec<_>>(), [9, 3, 41, 0]);
        for (slot, t) in trajs.iter().enumerate() {
            assert_eq!(db.view(slot).to_points(), t.points());
            assert_eq!(db.get(t.id).unwrap().to_points(), t.points());
        }
    }

    #[test]
    fn threads_beyond_the_candidate_count_answer_identically() {
        // Three candidates cannot feed a helper, whatever `threads` asks.
        let db = build_db(3);
        let query = walk(4, 5, (0.0, 0.0));
        let want = db.top_k_with_threads(&ExactS, &Dtw, &query, 2, false, false, 1);
        for threads in [2, 16, 64] {
            let got = db.top_k_with_threads(&ExactS, &Dtw, &query, 2, false, false, threads);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn threaded_entry_matches_the_library_call_in_every_mode() {
        let db = build_db(40);
        let query = walk(9, 6, (30.0, 30.0));
        for use_index in [false, true] {
            for prune in [false, true] {
                let want = db.top_k_with_stats(&ExactS, &Dtw, &query, 4, use_index, prune);
                for threads in [1, 3] {
                    let got =
                        db.top_k_with_threads(&ExactS, &Dtw, &query, 4, use_index, prune, threads);
                    assert_eq!(
                        got, want,
                        "index={use_index} prune={prune} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_calls_get_identical_answers_and_counters() {
        // Each call runs on a fresh heap and workspace, so a repeat
        // neither inherits the first one's floor nor its counters.
        let db = build_db(30);
        let query = walk(11, 6, (30.0, 30.0));
        let (want, want_stats) = db.top_k_with_stats(&ExactS, &Dtw, &query, 3, false, true);
        for _ in 0..3 {
            let (got, stats) = db.top_k_with_threads(&ExactS, &Dtw, &query, 3, false, true, 2);
            assert_eq!(got, want);
            assert_eq!(stats, want_stats);
        }
    }
}
