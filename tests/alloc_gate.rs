//! Allocation gates for the scans: an RLS + t2vec `top_k` allocates for
//! its query and its k — the workspace, the query embedding, the heap,
//! the candidate list — and for nothing it scans. Twice the trajectories,
//! or trajectories twice as long, must cost exactly the same number of
//! allocations; one allocation per candidate or per point would show as a
//! difference of dozens or thousands. The exact scan is held the same way
//! over twice the trajectories: its point-distance matrix and DP buffers
//! live in the workspace. The count is exact, so any runner can hold it.
//!
//! The counter is per thread, and each scan runs on the thread that reads
//! it, so the tests may run in parallel.

use simsub::core::{ExactS, MdpConfig, Rls};
use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::measures::{CoordNormalizer, Dtw, T2Vec};
use simsub::rl::{DqnAgent, DqnConfig};
use simsub::trajectory::{Point, Trajectory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count only touches
// a destructor-free const thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) this thread makes inside `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Every trajectory followed by a displaced copy of itself.
fn doubled(corpus: &[Trajectory]) -> Vec<Trajectory> {
    corpus
        .iter()
        .map(|t| {
            let last = *t.points().last().expect("non-empty");
            let echo = t
                .points()
                .iter()
                .map(|p| Point::new(p.x + 0.5, p.y - 0.25, last.t + 1.0 + p.t));
            let points = t.points().iter().copied().chain(echo).collect();
            Trajectory::new_unchecked(t.id, points)
        })
        .collect()
}

#[test]
fn learned_scan_allocations_do_not_depend_on_what_is_scanned() {
    const N: usize = 40;
    const K: usize = 5;
    let twice_as_many = generate(&DatasetSpec::porto(), 2 * N, 11);
    let base = twice_as_many[..N].to_vec();
    let twice_as_long = doubled(&base);
    let query = generate(&DatasetSpec::porto(), 1, 12)[0].points()[..16].to_vec();

    let t2vec = T2Vec::random(11, 16, CoordNormalizer::from_corpus(&twice_as_many));
    let mdp = MdpConfig {
        skip_actions: 0,
        use_suffix: false,
    };
    // Untrained: what the network decides does not enter the count.
    let dqn = DqnConfig::paper(mdp.state_dim(), mdp.n_actions());
    let rls = Rls::new(DqnAgent::new(dqn).policy(), mdp);

    let counts: Vec<u64> = [base, twice_as_many, twice_as_long]
        .into_iter()
        .map(|corpus| {
            let points: usize = corpus.iter().map(Trajectory::len).sum();
            let db = TrajectoryDb::build(corpus);
            // Once unmeasured, so process-wide one-time set-up is paid.
            let warm = db.top_k(&rls, &t2vec, &query, K, false);
            let (count, hits) = allocations_in(|| db.top_k(&rls, &t2vec, &query, K, false));
            assert_eq!(hits.len(), K);
            assert_eq!(hits, warm);
            eprintln!(
                "{} trajectories, {points} points: {count} allocations",
                db.len()
            );
            count
        })
        .collect();
    assert_eq!(counts[1], counts[0], "twice the trajectories");
    assert_eq!(counts[2], counts[0], "trajectories twice as long");
}

#[test]
fn exact_scan_allocations_do_not_depend_on_how_many_are_scanned() {
    const N: usize = 40;
    const K: usize = 5;
    let twice_as_many = generate(&DatasetSpec::porto(), 2 * N, 21);
    let base = twice_as_many[..N].to_vec();
    let query = generate(&DatasetSpec::porto(), 1, 22)[0].points()[..16].to_vec();
    let counts: Vec<u64> = [base, twice_as_many]
        .into_iter()
        .map(|corpus| {
            let db = TrajectoryDb::build(corpus);
            let warm = db.top_k(&ExactS, &Dtw, &query, K, false);
            let (count, hits) = allocations_in(|| db.top_k(&ExactS, &Dtw, &query, K, false));
            assert_eq!(hits.len(), K);
            assert_eq!(hits, warm);
            eprintln!("{} trajectories: {count} allocations", db.len());
            count
        })
        .collect();
    assert_eq!(counts[1], counts[0], "twice the trajectories");
}
