//! The corpus type every query runs against: N [`TrajectoryDb`] shards,
//! each with its own R-tree. A single database is the 1-shard case
//! ([`ShardedDb::single`] wraps it by move), so there is one corpus type
//! and one query entry, [`ShardedDb::top_k`].
//!
//! Sharding is the first step toward corpora that stop being one worker's
//! problem: a query fans out across shards (a pruning one optionally in
//! parallel; an unprunable one splits each shard's candidates instead) and
//! the per-worker top-k lists are merged through
//! [`sort_hits_and_truncate`] — the same total order the scan heap uses —
//! so results are byte-identical (ids, scores, order) to
//! [`TrajectoryDb::top_k`] over the same corpus.
//! `tests/shard_equivalence.rs` asserts that contract property-style.
//!
//! Why the merge is exact
//! ----------------------
//! - The R-tree candidate test is exact MBR intersection, so the union of
//!   per-shard candidate sets equals the single-tree candidate set.
//! - Each shard's local top-k contains every hit of that shard that could
//!   rank in the global top-k, so merging the locals and re-ranking with
//!   the shared comparator (descending similarity, ties by ascending
//!   trajectory id — a total order, since ids are unique) reproduces the
//!   global answer exactly.
//!
//! Partitioners
//! ------------
//! - [`PartitionerKind::Hash`]: trajectories are spread by a mixed hash of
//!   their id. Shards stay balanced regardless of spatial skew, but every
//!   shard overlaps every region, so spatial queries touch all shards.
//! - [`PartitionerKind::Grid`]: trajectories are bucketed by the cell of
//!   their MBR center in a √N×√N grid over the corpus. Spatially tight
//!   queries then prune whole shards via the per-shard outer MBR, at the
//!   cost of skew — a grid shard can legitimately be *empty* (all data
//!   clustered elsewhere), which the fan-out must treat as "no hits", not
//!   as an error.

use crate::TrajectoryDb;
use simsub_core::{
    scan_prunes, sort_hits_and_truncate, PruneStats, SearchWorkspace, SharedSimFloor,
    SubtrajSearch, TopKHeap, TopKResult,
};
use simsub_measures::Measure;
use simsub_trajectory::{CorpusArena, Mbr, Point, TrajView, Trajectory};
use std::sync::Arc;

/// How trajectories are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// Balanced assignment by a mixed hash of the trajectory id.
    Hash,
    /// Spatial assignment by the grid cell of the trajectory's MBR center.
    Grid,
}

impl PartitionerKind {
    /// Stable name used by the CLI and reports ("hash" / "grid").
    pub fn name(&self) -> &'static str {
        match self {
            PartitionerKind::Hash => "hash",
            PartitionerKind::Grid => "grid",
        }
    }
}

impl std::str::FromStr for PartitionerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hash" => Ok(PartitionerKind::Hash),
            "grid" => Ok(PartitionerKind::Grid),
            other => Err(format!("unknown partitioner '{other}' (hash|grid)")),
        }
    }
}

/// A corpus partitioned into [`TrajectoryDb`] shards. Immutable after
/// construction, like the single database (same `Send + Sync` contract).
#[derive(Debug, Clone)]
pub struct ShardedDb {
    shards: Vec<Arc<TrajectoryDb>>,
    /// Union of member-trajectory MBRs per shard; [`Mbr::EMPTY`] for an
    /// empty shard, which intersects nothing and so is pruned from every
    /// indexed fan-out for free.
    shard_mbrs: Vec<Mbr>,
    kind: PartitionerKind,
    len: usize,
    total_points: usize,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedDb>();
};

impl ShardedDb {
    /// Partitions `trajs` into `shard_count` databases.
    ///
    /// # Panics
    /// Panics when `shard_count` is zero or on duplicate trajectory ids
    /// (same contract as [`TrajectoryDb::build`]).
    pub fn build(trajs: Vec<Trajectory>, shard_count: usize, kind: PartitionerKind) -> Self {
        Self::from_arena(CorpusArena::from_trajectories(&trajs), shard_count, kind)
    }

    /// Partitions a columnar arena into `shard_count` databases — the
    /// reload path for packed binary corpora. One shard takes the arena
    /// whole, with no copy (the layout of [`ShardedDb::single`]);
    /// otherwise each shard gets its own contiguous sub-arena
    /// ([`CorpusArena::gather`]). The partitioners
    /// read ids and MBR centers straight from the arena tables, so the
    /// resulting layout is bitwise identical to [`ShardedDb::build`] over
    /// the same corpus.
    ///
    /// # Panics
    /// Panics when `shard_count` is zero or on duplicate trajectory ids.
    pub fn from_arena(arena: CorpusArena, shard_count: usize, kind: PartitionerKind) -> Self {
        assert!(shard_count >= 1, "need at least one shard");
        if shard_count == 1 {
            return Self::assemble(vec![TrajectoryDb::from_arena(arena).into_shared()], kind);
        }
        // Duplicate ids across shards are impossible only if they were
        // unique corpus-wide: check before partitioning.
        let mut seen = std::collections::HashSet::with_capacity(arena.len());
        for &id in arena.ids() {
            assert!(seen.insert(id), "duplicate trajectory id {id}");
        }
        let assignment: Vec<usize> = match kind {
            PartitionerKind::Hash => arena
                .ids()
                .iter()
                .map(|&id| (mix64(id) % shard_count as u64) as usize)
                .collect(),
            PartitionerKind::Grid => grid_assignment(&arena, shard_count),
        };
        let mut buckets: Vec<Vec<usize>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (slot, shard) in assignment.into_iter().enumerate() {
            buckets[shard].push(slot);
        }
        let shards = buckets
            .into_iter()
            .map(|slots| TrajectoryDb::from_arena(arena.gather(&slots)).into_shared())
            .collect();
        Self::assemble(shards, kind)
    }

    /// A built database as the 1-shard corpus: taken by move, so nothing
    /// is copied, re-indexed or re-validated. [`ShardedDb::from_arena`]
    /// with one shard builds the same layout under either partitioner.
    pub fn single(db: Arc<TrajectoryDb>) -> Self {
        Self::assemble(vec![db], PartitionerKind::Hash)
    }

    fn assemble(shards: Vec<Arc<TrajectoryDb>>, kind: PartitionerKind) -> Self {
        let shard_mbrs = shards
            .iter()
            .map(|s| {
                s.arena()
                    .mbrs()
                    .iter()
                    .fold(Mbr::EMPTY, |acc, &mbr| acc.union(mbr))
            })
            .collect();
        let len = shards.iter().map(|s| s.len()).sum();
        let total_points = shards.iter().map(|s| s.total_points()).sum();
        Self {
            shards,
            shard_mbrs,
            kind,
            len,
            total_points,
        }
    }

    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitioner this layout was built with.
    pub fn partitioner(&self) -> PartitionerKind {
        self.kind
    }

    /// The shard databases, in shard order.
    pub fn shards(&self) -> &[Arc<TrajectoryDb>] {
        &self.shards
    }

    /// Total trajectories across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no shard holds a trajectory.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total points across all shards.
    pub fn total_points(&self) -> usize {
        self.total_points
    }

    /// Lookup by id across shards.
    pub fn get(&self, id: u64) -> Option<TrajView<'_>> {
        // Hash layouts know the owning shard; grid layouts probe each.
        if self.kind == PartitionerKind::Hash {
            return self.shards[(mix64(id) % self.shards.len() as u64) as usize].get(id);
        }
        self.shards.iter().find_map(|s| s.get(id))
    }

    /// Stable fingerprint of the shard layout (partitioner + shard
    /// count). Serving layers fold this into result-cache keys so entries
    /// computed under one layout can never be replayed under another.
    /// One shard is `0` whatever the partitioner — there is only one way
    /// to put a corpus in one shard; multi-shard layouts are never `0`.
    pub fn layout_version(&self) -> u64 {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let kind_tag = match self.kind {
            PartitionerKind::Hash => 1u64,
            PartitionerKind::Grid => 2u64,
        };
        for v in [1u64, kind_tag, self.shards.len() as u64] {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h | 1 // never collides with the one-shard version 0
    }

    /// Wraps the built corpus in an [`Arc`] for lock-free sharing across
    /// worker threads (mirrors [`TrajectoryDb::into_shared`]).
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Ids of trajectories whose MBR intersects `query_mbr`: the union of
    /// the per-shard R-tree candidate sets, sorted for determinism. As a
    /// *set* this equals [`TrajectoryDb::candidate_ids`] over the same
    /// corpus (the membership test is exact MBR intersection in both);
    /// only the traversal order differs, hence the sort.
    ///
    /// Empty shards hold an empty R-tree; querying one yields an empty
    /// set (regression-tested), so clustered grid layouts fan out safely.
    pub fn candidate_ids(&self, query_mbr: &Mbr) -> Vec<u64> {
        let mut out = Vec::new();
        for (shard, mbr) in self.shards.iter().zip(&self.shard_mbrs) {
            // An empty shard's MBR is EMPTY and intersects nothing.
            if !mbr.intersects(query_mbr) {
                continue;
            }
            out.extend(shard.candidate_ids(query_mbr));
        }
        out.sort_unstable();
        out
    }

    /// Top-k search for every query in `queries` — the one query entry of
    /// the corpus. Returns the hits per query (same order) and the
    /// [`PruneStats`] summed over all of them; a batch is a plain loop of
    /// single-query fan-outs, so both are exactly what one call per query
    /// would add up to.
    ///
    /// Each query visits its relevant shards through *one* heap and
    /// evaluator workspace: the running k-th similarity established by
    /// earlier shards prunes candidates in later ones, and the evaluator
    /// buffers are allocated once per query. `threads` is how many
    /// threads one query may use, and which scan it serves depends on
    /// [`scan_prunes`]:
    /// - a pruning scan spreads the relevant shards over up to `threads`
    ///   scoped workers, each with its own heap and workspace, which
    ///   publish their k-th similarity through a [`SharedSimFloor`] so one
    ///   worker's progress prunes the others;
    /// - an unprunable scan walks the shards in turn through the one heap
    ///   and splits each shard's candidates over up to `threads` threads
    ///   (`simsub_core::scan_top_k_into`), which needs no floor.
    ///
    /// `threads <= 1` is sequential either way. `prune` switches the
    /// admissible-bound cascade (see `simsub_core::bounds`). Answers are
    /// byte-identical to [`TrajectoryDb::top_k`] over the same corpus for
    /// every shard count, partitioner, `prune` and `threads` (see the
    /// module docs), and so are the counters other than the timings.
    #[allow(clippy::too_many_arguments)] // the whole scan plan, spelled once
    pub fn top_k(
        &self,
        algo: &dyn SubtrajSearch,
        measure: &dyn Measure,
        queries: &[&[Point]],
        k: usize,
        use_index: bool,
        prune: bool,
        threads: usize,
    ) -> (Vec<Vec<TopKResult>>, PruneStats) {
        assert!(k > 0, "k must be positive");
        let mut stats = PruneStats::default();
        let hits = queries
            .iter()
            .map(|query| {
                self.fan_out(
                    algo, measure, query, k, use_index, prune, threads, &mut stats,
                )
            })
            .collect();
        (hits, stats)
    }

    /// One query's fan-out over its relevant shards (see
    /// [`ShardedDb::top_k`]), adding its counters to `stats`.
    #[allow(clippy::too_many_arguments)] // mirrors `top_k`
    fn fan_out(
        &self,
        algo: &dyn SubtrajSearch,
        measure: &dyn Measure,
        query: &[Point],
        k: usize,
        use_index: bool,
        prune: bool,
        threads: usize,
        stats: &mut PruneStats,
    ) -> Vec<TopKResult> {
        let relevant = self.relevant_shards(&Mbr::of_points(query), use_index);
        // An unprunable scan gives every thread to the candidate split;
        // a pruning one to the shard split.
        let (workers, candidate_threads) = if scan_prunes(algo, measure, prune) {
            (threads.min(relevant.len()).max(1), 1)
        } else {
            (1, threads)
        };
        let floor = SharedSimFloor::new();
        let floor = (workers > 1).then_some(&floor);
        // One heap/workspace per worker, threaded through its whole shard
        // subset.
        let scan = |part: &[usize]| {
            let mut heap = TopKHeap::new(k);
            let mut stats = PruneStats::default();
            if !part.is_empty() {
                let mut ws = SearchWorkspace::new(measure, query);
                for &i in part {
                    self.shards[i].scan_top_k_into(
                        algo,
                        query,
                        use_index,
                        &mut heap,
                        &mut ws,
                        prune,
                        floor,
                        candidate_threads,
                        &mut stats,
                    );
                }
            }
            (heap.into_sorted_hits(), stats)
        };
        if workers == 1 {
            let (hits, local) = scan(&relevant);
            stats.merge(&local);
            return hits;
        }
        let mut merged = Vec::with_capacity(workers * k);
        crossbeam::scope(|scope| {
            let handles: Vec<_> = relevant
                .chunks(relevant.len().div_ceil(workers))
                .map(|part| scope.spawn(|_| scan(part)))
                .collect();
            for handle in handles {
                let (hits, local) = handle.join().expect("shard worker panicked");
                merged.extend(hits);
                stats.merge(&local);
            }
        })
        .expect("scoped shard threads panicked");
        sort_hits_and_truncate(&mut merged, k);
        merged
    }

    /// Shard indices a query must visit. With the index enabled, a shard
    /// whose outer MBR misses the query MBR cannot contribute a candidate
    /// (its R-tree would prune everything anyway), so it is skipped
    /// without touching its tree; empty shards have an EMPTY outer MBR
    /// and are skipped the same way. Without the index every populated
    /// shard is scanned, matching the full-scan single-database path.
    fn relevant_shards(&self, qmbr: &Mbr, use_index: bool) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| {
                if self.shards[i].is_empty() {
                    return false;
                }
                !use_index || self.shard_mbrs[i].intersects(qmbr)
            })
            .collect()
    }
}

/// SplitMix64 finalizer: spreads sequential ids uniformly across shards
/// (plain `id % n` would stripe adjacent ids, which is fine, but a mixed
/// hash also balances corpora with structured id gaps).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Grid assignment: bucket each trajectory by the cell of its MBR center
/// in a `gx × gy` grid (`gx·gy ≥ shard_count`) over the bounding box of
/// all centers; trailing cells fold into the last shard. Skewed corpora
/// legitimately leave some shards empty. Centers come from the arena's
/// precomputed MBR table — bitwise the values `Trajectory::mbr` yields.
fn grid_assignment(arena: &CorpusArena, shard_count: usize) -> Vec<usize> {
    if arena.is_empty() || shard_count == 1 {
        return vec![0; arena.len()];
    }
    let centers: Vec<(f64, f64)> = arena
        .mbrs()
        .iter()
        .map(|m| ((m.min_x + m.max_x) / 2.0, (m.min_y + m.max_y) / 2.0))
        .collect();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &centers {
        min_x = min_x.min(x);
        min_y = min_y.min(y);
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }
    let gx = (shard_count as f64).sqrt().ceil() as usize;
    let gy = shard_count.div_ceil(gx);
    // Degenerate extents (all centers collinear or identical) collapse to
    // cell 0 along that axis instead of dividing by zero.
    let w = (max_x - min_x).max(f64::MIN_POSITIVE);
    let h = (max_y - min_y).max(f64::MIN_POSITIVE);
    centers
        .into_iter()
        .map(|(x, y)| {
            let cx = (((x - min_x) / w * gx as f64) as usize).min(gx - 1);
            let cy = (((y - min_y) / h * gy as f64) as usize).min(gy - 1);
            (cy * gx + cx).min(shard_count - 1)
        })
        .collect()
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

    fn corpus(count: usize) -> Vec<Trajectory> {
        (0..count)
            .map(|i| {
                let origin = ((i % 10) as f64 * 30.0, (i / 10) as f64 * 30.0);
                Trajectory::new_unchecked(i as u64, walk(i as u64, 16, origin))
            })
            .collect()
    }

    #[test]
    fn build_preserves_corpus() {
        let trajs = corpus(30);
        let points: usize = trajs.iter().map(Trajectory::len).sum();
        for kind in [PartitionerKind::Hash, PartitionerKind::Grid] {
            let sharded = ShardedDb::build(trajs.clone(), 4, kind);
            assert_eq!(sharded.shard_count(), 4);
            assert_eq!(sharded.len(), 30);
            assert_eq!(sharded.total_points(), points);
            for id in 0..30u64 {
                assert_eq!(sharded.get(id).unwrap().id, id, "{kind:?}");
            }
            assert!(sharded.get(999).is_none());
        }
    }

    #[test]
    fn hash_partitioning_is_roughly_balanced() {
        let sharded = ShardedDb::build(corpus(200), 4, PartitionerKind::Hash);
        for shard in sharded.shards() {
            // 200/4 = 50 expected; a mixed hash stays within a loose band.
            assert!(
                (20..=80).contains(&shard.len()),
                "skewed shard: {}",
                shard.len()
            );
        }
    }

    /// One sequential, pruned ExactS+DTW query through the corpus entry.
    fn top_k_one(db: &ShardedDb, query: &[Point], k: usize, use_index: bool) -> Vec<TopKResult> {
        db.top_k(&ExactS, &Dtw, &[query], k, use_index, true, 1)
            .0
            .remove(0)
    }

    #[test]
    fn topk_matches_single_database() {
        let trajs = corpus(40);
        let db = TrajectoryDb::build(trajs.clone());
        let query = walk(99, 8, (15.0, 15.0));
        for kind in [PartitionerKind::Hash, PartitionerKind::Grid] {
            for shards in [1, 3, 8] {
                let sharded = ShardedDb::build(trajs.clone(), shards, kind);
                for use_index in [false, true] {
                    let want = db.top_k(&ExactS, &Dtw, &query, 5, use_index);
                    let got = top_k_one(&sharded, &query, 5, use_index);
                    assert_eq!(got, want, "{kind:?} shards={shards} index={use_index}");
                }
            }
        }
    }

    #[test]
    fn parallel_fanout_and_batches_match_sequential_single_queries() {
        let trajs = corpus(50);
        let sharded = ShardedDb::build(trajs, 6, PartitionerKind::Hash);
        let queries: Vec<Vec<Point>> = (0..3)
            .map(|i| walk(7 + i, 7, (40.0 - 10.0 * i as f64, 20.0)))
            .collect();
        let refs: Vec<&[Point]> = queries.iter().map(Vec::as_slice).collect();
        for use_index in [false, true] {
            let want: Vec<Vec<TopKResult>> = queries
                .iter()
                .map(|q| top_k_one(&sharded, q, 4, use_index))
                .collect();
            for threads in [1, 2, 4, 8] {
                for prune in [false, true] {
                    let (got, stats) =
                        sharded.top_k(&ExactS, &Dtw, &refs, 4, use_index, prune, threads);
                    assert_eq!(got, want, "threads={threads} index={use_index}");
                    assert!(stats.is_consistent());
                }
            }
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
        let corpus = ShardedDb::build(corpus(40), 1, PartitionerKind::Hash);
        let query = walk(3, 6, (30.0, 30.0));
        let poisoned = corpus.shards()[0].arena().id(1);
        let algo = PanicOn(poisoned, Default::default());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            corpus.top_k(&algo, &Dtw, &[&query], 3, false, false, 2)
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
        let want = TrajectoryDb::build(corpus.shards()[0].to_trajectories())
            .top_k(&ExactS, &Dtw, &query, 3, false);
        for threads in [1, 2] {
            let (got, _) = corpus.top_k(&ExactS, &Dtw, &[&query], 3, false, false, threads);
            assert_eq!(got[0], want);
        }
    }

    #[test]
    fn single_wraps_the_database_by_move() {
        let db = TrajectoryDb::build(corpus(20)).into_shared();
        let corpus = ShardedDb::single(Arc::clone(&db));
        assert!(
            Arc::ptr_eq(&corpus.shards()[0], &db),
            "no copy of the arena"
        );
        assert_eq!(corpus.shard_count(), 1);
        assert_eq!((corpus.len(), corpus.total_points()), (20, 20 * 16));
        assert_eq!(corpus.get(7).unwrap().id, 7);
        assert_eq!(corpus.layout_version(), 0);
        let query = walk(5, 6, (30.0, 30.0));
        for use_index in [false, true] {
            assert_eq!(
                top_k_one(&corpus, &query, 3, use_index),
                db.top_k(&ExactS, &Dtw, &query, 3, use_index)
            );
        }
    }

    #[test]
    fn candidate_ids_equal_single_database_as_a_set() {
        let trajs = corpus(60);
        let db = TrajectoryDb::build(trajs.clone());
        let query = walk(11, 8, (60.0, 30.0));
        let qmbr = Mbr::of_points(&query);
        let mut want = db.candidate_ids(&qmbr);
        want.sort_unstable();
        for kind in [PartitionerKind::Hash, PartitionerKind::Grid] {
            let sharded = ShardedDb::build(trajs.clone(), 5, kind);
            assert_eq!(sharded.candidate_ids(&qmbr), want, "{kind:?}");
        }
    }

    /// Regression (clustered corpora): a grid layout where all data piles
    /// into few cells leaves other shards with *zero* trajectories — an
    /// empty R-tree. Fan-out over such a layout must yield empty
    /// candidate sets for the empty shards, not panic.
    #[test]
    fn empty_grid_shards_answer_queries() {
        // Two tight clusters, far apart: an 8-shard grid leaves most
        // shards empty.
        let mut trajs = Vec::new();
        for i in 0..6u64 {
            trajs.push(Trajectory::new_unchecked(i, walk(i, 10, (0.0, 0.0))));
            trajs.push(Trajectory::new_unchecked(
                100 + i,
                walk(100 + i, 10, (500.0, 500.0)),
            ));
        }
        let sharded = ShardedDb::build(trajs.clone(), 8, PartitionerKind::Grid);
        assert!(
            sharded.shards().iter().any(|s| s.is_empty()),
            "layout should produce at least one empty shard"
        );

        // Direct probe of an empty shard's database: empty candidate set,
        // no panic.
        let empty = sharded
            .shards()
            .iter()
            .find(|s| s.is_empty())
            .expect("empty shard");
        let probe = Mbr::of_points(&walk(3, 5, (250.0, 250.0)));
        assert!(empty.candidate_ids(&probe).is_empty());

        // Full fan-out still matches the unsharded database.
        let db = TrajectoryDb::build(trajs);
        let query = walk(200, 6, (500.0, 500.0));
        for use_index in [false, true] {
            assert_eq!(
                top_k_one(&sharded, &query, 3, use_index),
                db.top_k(&ExactS, &Dtw, &query, 3, use_index),
            );
        }
        let qmbr = Mbr::of_points(&query);
        let mut want = db.candidate_ids(&qmbr);
        want.sort_unstable();
        assert_eq!(sharded.candidate_ids(&qmbr), want);
    }

    #[test]
    fn empty_corpus_builds_and_answers() {
        let sharded = ShardedDb::build(Vec::new(), 4, PartitionerKind::Grid);
        assert!(sharded.is_empty());
        let probe = Mbr::of_points(&walk(0, 4, (0.0, 0.0)));
        assert!(sharded.candidate_ids(&probe).is_empty());
        assert!(top_k_one(&sharded, &walk(0, 4, (0.0, 0.0)), 3, true).is_empty());
    }

    #[test]
    fn layout_version_discriminates_layouts() {
        let trajs = corpus(10);
        let v = |shards, kind| ShardedDb::build(trajs.clone(), shards, kind).layout_version();
        assert_eq!(
            v(4, PartitionerKind::Hash),
            v(4, PartitionerKind::Hash),
            "same layout, same version"
        );
        assert_ne!(v(2, PartitionerKind::Hash), v(4, PartitionerKind::Hash));
        assert_ne!(v(4, PartitionerKind::Hash), v(4, PartitionerKind::Grid));
        for kind in [PartitionerKind::Hash, PartitionerKind::Grid] {
            assert_eq!(v(1, kind), 0, "one shard is one layout");
            assert_ne!(v(2, kind), 0, "0 is reserved for one shard");
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedDb::build(corpus(3), 0, PartitionerKind::Hash);
    }

    #[test]
    #[should_panic(expected = "duplicate trajectory id")]
    fn duplicate_ids_rejected_across_shards() {
        // Same id twice: whichever shards they land in, the build fails.
        let t1 = Trajectory::new_unchecked(1, walk(1, 5, (0.0, 0.0)));
        let t2 = Trajectory::new_unchecked(1, walk(2, 5, (300.0, 300.0)));
        let _ = ShardedDb::build(vec![t1, t2], 4, PartitionerKind::Grid);
    }
}
