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
    library_scan_threads, pruning_enabled, scan_prunes, PruneStats, SearchWorkspace,
    SharedSimFloor, SubtrajSearch, TopKHeap, TopKResult,
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
    by_id: HashMap<u64, usize>,
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

    /// Builds the database straight from a columnar arena — the reload
    /// path for packed binary corpora: the R-tree comes from the arena's
    /// precomputed MBR table, so no point is re-read.
    ///
    /// # Panics
    /// Panics on duplicate trajectory ids (the binary loader validates
    /// them beforehand and errors instead).
    pub fn from_arena(arena: CorpusArena) -> Self {
        let mut rtree = RTree::new();
        let mut by_id = HashMap::with_capacity(arena.len());
        for slot in 0..arena.len() {
            let id = arena.id(slot);
            assert!(
                by_id.insert(id, slot).is_none(),
                "duplicate trajectory id {id}"
            );
            rtree.insert(*arena.mbr(slot), id);
        }
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
    /// (bit-exact; for tooling, re-partitioning, and tests).
    pub fn to_trajectories(&self) -> Vec<Trajectory> {
        self.arena.to_trajectories()
    }

    /// Trajectories whose MBR intersects the query MBR — the index-pruned
    /// candidate set of Section 6.2(4) — as borrowed views.
    pub fn candidates(&self, query_mbr: &Mbr) -> Vec<TrajView<'_>> {
        self.rtree
            .query_intersecting(query_mbr)
            .into_iter()
            .map(|id| self.arena.view(self.by_id[&id]))
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
        self.rtree.query_intersecting(query_mbr)
    }

    /// Top-k most similar subtrajectory search across the database.
    ///
    /// With `use_index`, trajectories whose MBR does not intersect the
    /// query's MBR are pruned first; exact answers can in theory be lost
    /// (rarely in practice — see §6.2(4)), which is the accepted trade-off
    /// this flag exposes. Independently, the scan itself is prune-first
    /// (see `simsub_core::bounds`) when [`pruning_enabled`] — admissible
    /// bounds skip full searches without changing any answer. A scan that
    /// cannot prune (RLS, t2vec) spreads its candidates over the process's
    /// cores ([`library_scan_threads`]), with identical answers.
    pub fn top_k(
        &self,
        algo: &dyn SubtrajSearch,
        measure: &dyn Measure,
        query: &[Point],
        k: usize,
        use_index: bool,
    ) -> Vec<TopKResult> {
        self.top_k_with_stats(algo, measure, query, k, use_index, pruning_enabled())
            .0
    }

    /// [`TrajectoryDb::top_k`] with an explicit prune switch and the
    /// scan's [`PruneStats`]. `prune: false` is the reference path with
    /// identical answers; like every unprunable scan it runs on
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
        assert!(k > 0, "k must be positive");
        let mut stats = PruneStats::default();
        let candidates = self.scan_candidate_slots(query, use_index);
        if candidates.is_empty() {
            return (Vec::new(), stats);
        }
        let mut heap = TopKHeap::new(k);
        let mut ws = SearchWorkspace::new(measure, query);
        // Only an unprunable scan splits, so only it reads the core count.
        let threads = if scan_prunes(algo, measure, prune) {
            1
        } else {
            library_scan_threads()
        };
        simsub_core::scan_top_k_into(
            algo,
            &self.arena,
            &candidates,
            query,
            &mut heap,
            &mut ws,
            prune,
            None,
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
                .map(|id| self.by_id[&id])
                .collect()
        } else {
            (0..self.arena.len()).collect()
        }
    }

    /// Low-level fan-out entry: scans this database into a caller-owned
    /// heap/workspace (see `simsub_core::scan_top_k_into`), an unprunable
    /// scan over up to `threads` threads. `ShardedDb` threads one heap and
    /// one workspace through every shard, so the running k-th similarity
    /// and the evaluator buffers carry across shard rounds.
    #[allow(clippy::too_many_arguments)] // scan state is deliberately caller-owned
    pub(crate) fn scan_top_k_into(
        &self,
        algo: &dyn SubtrajSearch,
        query: &[Point],
        use_index: bool,
        heap: &mut TopKHeap,
        ws: &mut SearchWorkspace<'_>,
        prune: bool,
        floor: Option<&SharedSimFloor>,
        threads: usize,
        stats: &mut PruneStats,
    ) {
        let candidates = self.scan_candidate_slots(query, use_index);
        simsub_core::scan_top_k_into(
            algo,
            &self.arena,
            &candidates,
            query,
            heap,
            ws,
            prune,
            floor,
            threads,
            stats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simsub_core::ExactS;
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

    /// Regression for the sharded fan-out: a grid partitioner can hand a
    /// shard zero trajectories, so an *empty* database (empty R-tree)
    /// must answer `candidate_ids` / `candidates` / `top_k` with empty
    /// results instead of panicking.
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

    #[test]
    fn candidates_match_linear_mbr_filter() {
        let db = build_db(60);
        // Anchor the query on trajectory 11's points so at least one MBR
        // intersection is guaranteed.
        let query: Vec<Point> = db.get(11).unwrap().to_points()[..8].to_vec();
        let qmbr = Mbr::of_points(&query);
        let mut got: Vec<u64> = db.candidates(&qmbr).iter().map(|v| v.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = db
            .views()
            .enumerate()
            .filter(|(slot, _)| db.arena().mbr(*slot).intersects(&qmbr))
            .map(|(_, v)| v.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        // The grid layout guarantees real pruning happens.
        assert!(got.len() < db.len());
        assert!(!got.is_empty());
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
}
