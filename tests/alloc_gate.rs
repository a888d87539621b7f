//! Allocation gates for the scans: an RLS + t2vec `top_k` allocates for
//! its query and its k — the workspace, the query embedding, the heap,
//! the candidate list — and for nothing it scans. Twice the trajectories,
//! or trajectories twice as long, must cost exactly the same number of
//! allocations; one allocation per candidate or per point would show as a
//! difference of dozens or thousands. The exact scan is held the same way
//! over twice the trajectories: its point-distance matrix and DP buffers
//! live in the workspace. The count is exact, so any runner can hold it.
//!
//! A scan that cannot prune splits its candidates over the process's
//! cores, and each helper thread brings its own heap and workspace: the
//! budget is nothing per candidate, a fixed amount per helper. Thread `t`
//! of a split searches candidate `t` before it claims any from the shared
//! cursor, so every helper pays its workspace's first-use allocations
//! exactly once whichever candidates the cursor hands it, and the count
//! does not depend on how the threads divided the work. The corpora hold
//! at least `MIN_CANDIDATES_PER_THREAD` trajectories per core, so both
//! sides of every comparison start the same number of helpers on any
//! machine.
//!
//! Training is held the same way: `train_rls` stores and learns from every
//! transition on buffers the agent owns, and a t2vec gradient step records
//! and back-propagates every GRU step on buffers sized once, so training
//! on trajectories twice as long costs exactly the allocations of the
//! originals, and so do three t2vec steps and one.
//!
//! The counter sees every thread of the process, helpers included, so the
//! tests run one at a time behind [`exclusive`].

use simsub::core::{
    library_scan_threads, train_rls, ExactS, MdpConfig, Rls, RlsTrainConfig,
    MIN_CANDIDATES_PER_THREAD,
};
use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::measures::{CoordNormalizer, Dtw, Measure, T2Vec, T2VecConfig};
use simsub::rl::{DqnAgent, DqnConfig};
use simsub::trajectory::{Point, Trajectory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Allocations and reallocations by every thread of the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count is one atomic
// add, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs the calling test alone, and only once the process has stopped
/// allocating: the test harness reports the previous test and starts the
/// next one's thread on threads of its own, and the counter would see
/// that.
fn exclusive() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut last = ALLOCS.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = ALLOCS.load(Ordering::Relaxed);
        if now == last {
            return guard;
        }
        last = now;
    }
}

/// Allocations (and reallocations) the process makes inside `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Trajectories a scan corpus needs so that it, and any corpus with more,
/// splits over every core: `MIN_CANDIDATES_PER_THREAD` a core, and at
/// least `floor`.
fn scan_corpus_len(floor: usize) -> usize {
    floor.max(MIN_CANDIDATES_PER_THREAD * library_scan_threads())
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
    let _alone = exclusive();
    const K: usize = 5;
    let n = scan_corpus_len(40);
    let twice_as_many = generate(&DatasetSpec::porto(), 2 * n, 11);
    let base = twice_as_many[..n].to_vec();
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
    let _alone = exclusive();
    const K: usize = 5;
    // Pruned by default; split over the cores under `SIMSUB_NO_PRUNE`.
    let n = scan_corpus_len(40);
    let twice_as_many = generate(&DatasetSpec::porto(), 2 * n, 21);
    let base = twice_as_many[..n].to_vec();
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
    let _alone = exclusive();
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
    let _alone = exclusive();
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
