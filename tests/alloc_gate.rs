//! Allocation gates for the scans: an RLS + t2vec `top_k` allocates for
//! its query and its k — the workspace, the query embedding, the heap,
//! the candidate list — and for nothing it scans. Twice the trajectories,
//! or trajectories twice as long, must cost exactly the same number of
//! allocations; one allocation per candidate or per point would show as a
//! difference of dozens or thousands. The exact scan is held the same way
//! over twice the trajectories: its point-distance matrix and DP buffers
//! live in the workspace. The count is exact, so any runner can hold it.
//!
//! Training is held the same way: `train_rls` stores and learns from every
//! transition on buffers the agent owns, and a t2vec gradient step records
//! and back-propagates every GRU step on buffers sized once, so training
//! on trajectories twice as long costs exactly the allocations of the
//! originals, and so do three t2vec steps and one.
//!
//! The counter is per thread, and each scan runs on the thread that reads
//! it, so the tests may run in parallel.

use simsub::core::{train_rls, ExactS, MdpConfig, Rls, RlsTrainConfig};
use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::measures::{CoordNormalizer, Dtw, Measure, T2Vec, T2VecConfig};
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

#[test]
fn rls_training_allocations_do_not_depend_on_trajectory_length() {
    let corpus = generate(&DatasetSpec::porto(), 16, 31);
    let twice_as_long = doubled(&corpus);
    let queries: Vec<Trajectory> = generate(&DatasetSpec::porto(), 6, 32)
        .into_iter()
        .map(|t| Trajectory::new_unchecked(t.id, t.points()[..10].to_vec()))
        .collect();
    let t2vec = T2Vec::random(31, 16, CoordNormalizer::from_corpus(&twice_as_long));
    let no_suffix = MdpConfig {
        skip_actions: 0,
        use_suffix: false,
    };
    let cases: [(&dyn Measure, MdpConfig); 2] = [(&t2vec, no_suffix), (&Dtw, MdpConfig::rls())];
    for (measure, mdp) in cases {
        let mut cfg = RlsTrainConfig::paper(mdp, 12);
        cfg.validation_pairs = 4;
        cfg.validate_every = 5;
        let counts: Vec<(u64, usize)> = [&corpus, &twice_as_long]
            .into_iter()
            .map(|data| {
                let (count, report) = allocations_in(|| train_rls(measure, data, &queries, &cfg));
                eprintln!(
                    "{} {}: {} transitions, {count} allocations",
                    measure.name(),
                    mdp.algorithm_name(),
                    report.transitions
                );
                (count, report.transitions)
            })
            .collect();
        assert!(counts[1].1 > counts[0].1, "longer episodes store more");
        assert_eq!(
            counts[1].0,
            counts[0].0,
            "{}: trajectories twice as long",
            measure.name()
        );
    }
}

#[test]
fn t2vec_training_allocations_do_not_depend_on_length_or_steps() {
    let corpus = generate(&DatasetSpec::porto(), 12, 33);
    let twice_as_long = doubled(&corpus);
    let train = |corpus: &[Trajectory], steps: usize| {
        let cfg = T2VecConfig {
            steps,
            seed: 33,
            // Out of reach: no triplet separates, so every one is
            // back-propagated and every step applies a gradient.
            margin: 1e9,
            ..T2VecConfig::default()
        };
        let (count, _) = allocations_in(|| T2Vec::train(corpus, &cfg));
        eprintln!("{steps} t2vec steps: {count} allocations");
        count
    };
    let one_step = train(&corpus, 1);
    assert_eq!(
        train(&twice_as_long, 1),
        one_step,
        "trajectories twice as long"
    );
    assert_eq!(train(&corpus, 3), one_step, "three steps");
}
