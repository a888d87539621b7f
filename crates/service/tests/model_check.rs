//! Model-checked concurrency suite for the serve path's core protocols.
//!
//! Compiled only under `RUSTFLAGS="--cfg simsub_loom"`: the crate's
//! `sync` facade then swaps std primitives for the vendored `loom` shim,
//! and every test below explores the protocol under bounded-exhaustive
//! thread interleavings with a vector-clock happens-before checker.
//!
//! Models 1–2 drive the *real* types (`EngineHandle`, `Cache`); models
//! 3–4 are faithful mirrors of the admission accounting and the
//! supervisor/shutdown handshake (the real loops block on OS I/O and
//! timers, which a model checker cannot schedule). Model 5 mirrors the
//! admission-time cache lookup over the real handle, key, cache and
//! stats types, racing a worker's insert and a swap's purge.
//! A final self-test reverts the epoch-pinning discipline and asserts
//! the checker *catches* the seeded race, so a green suite means the
//! checker is alive, not just silent.
//!
//! Set `SIMSUB_MODELCHECK_BENCH=<path>` to re-run every model and write
//! the exploration stats JSON committed as `BENCH_modelcheck.json`.

#![cfg(simsub_loom)]

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use loom::{thread, Builder, Report};
use simsub_data::{generate, DatasetSpec};
use simsub_index::TrajectoryDb;
use simsub_service::cache::Cache;
use simsub_service::stats::ServeStats;
use simsub_service::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use simsub_service::sync::{Mutex, TryLockError};
use simsub_service::{AlgoSpec, CorpusSnapshot, EngineHandle, MeasureSpec, QueryRequest};
use simsub_trajectory::Point;

/// Every model must clear this many interleavings (the issue's floor).
const MIN_INTERLEAVINGS: usize = 1_000;

/// Per-model preemption bound: 2–3 preemptions finds every bug class
/// these protocols can exhibit while keeping full exploration tractable;
/// `None` (model 4) means unbounded — the model is small enough to
/// exhaust outright.
fn builder(preemption_bound: Option<usize>) -> Builder {
    Builder {
        preemption_bound,
        max_executions: 60_000,
        random_fallback: 2_000,
        ..Builder::new()
    }
}

/// One tiny corpus, built once: snapshot *contents* are irrelevant to
/// the protocols; only the epoch cell and locks are under test.
fn shared_db() -> Arc<TrajectoryDb> {
    static DB: OnceLock<Arc<TrajectoryDb>> = OnceLock::new();
    Arc::clone(
        DB.get_or_init(|| TrajectoryDb::build(generate(&DatasetSpec::porto(), 3, 7)).into_shared()),
    )
}

fn assert_explored(name: &str, report: &Report) {
    assert!(
        report.interleavings >= MIN_INTERLEAVINGS,
        "{name}: only {} interleavings explored (need >= {MIN_INTERLEAVINGS}); grow the model",
        report.interleavings
    );
}

// ---------------------------------------------------------------------------
// Model 1: epoch pinning across swap_snapshot vs concurrent admission.
// ---------------------------------------------------------------------------

/// Admission pins one `Arc<EpochSnapshot>` via a single `load()`; every
/// read through that Arc must agree with itself no matter how many swaps
/// land concurrently, and epochs must only move forward.
fn run_epoch_pinning() -> Report {
    let db = shared_db();
    let report = builder(Some(3)).check(move || {
        let handle = Arc::new(EngineHandle::new(CorpusSnapshot::new(db.clone())));

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let h = Arc::clone(&handle);
                thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..2 {
                        let snap = h.load();
                        let e = snap.epoch();
                        // The pinned Arc is immutable: re-reading it must
                        // agree even while swaps land.
                        assert_eq!(snap.epoch(), e, "pinned snapshot tore");
                        assert!(e >= last, "epoch went backwards under a pin");
                        last = e;
                    }
                    last
                })
            })
            .collect();

        let swapper = {
            let h = Arc::clone(&handle);
            let db = db.clone();
            thread::spawn(move || {
                for _ in 0..2 {
                    let (old, new) = h.swap(CorpusSnapshot::new(Arc::clone(&db)));
                    assert_eq!(new.epoch(), old.epoch() + 1, "swap must bump by 1");
                }
            })
        };

        for w in workers {
            let e = w.join().unwrap();
            assert!((1..=3).contains(&e));
        }
        swapper.join().unwrap();
        assert_eq!(handle.epoch(), 3, "exactly two swaps landed");
    });
    assert_explored("epoch_pinning", &report);
    report
}

#[test]
fn model_epoch_pinning_across_swaps() {
    run_epoch_pinning();
}

// ---------------------------------------------------------------------------
// Model 2: purge_below_epoch vs concurrent cache insert.
// ---------------------------------------------------------------------------

/// Mirrors a worker's insert against a swap's purge over the real handle
/// and cache. Each inserter pins an epoch, then — under the cache lock,
/// like the engine — skips its insert when the handle has moved past that
/// epoch. The swap publishes its epoch before it takes the lock to purge,
/// so no interleaving may leave a stale entry behind.
fn run_purge_vs_insert() -> Report {
    let db = shared_db();
    let report = builder(Some(3)).check(move || {
        let handle = Arc::new(EngineHandle::new(CorpusSnapshot::new(db.clone())));
        let cache: Arc<Mutex<Cache<u64, u64>>> = Arc::new(Mutex::new(Cache::new(8)));

        let inserters: Vec<_> = (0..2)
            .map(|i| {
                let h = Arc::clone(&handle);
                let c = Arc::clone(&cache);
                thread::spawn(move || {
                    let snap = h.load();
                    let epoch = snap.epoch();
                    let mut cache = c.lock().unwrap();
                    if epoch >= h.epoch() {
                        cache.insert(100 + i, i, epoch);
                    }
                })
            })
            .collect();

        let swapper = {
            let h = Arc::clone(&handle);
            let c = Arc::clone(&cache);
            let db = db.clone();
            thread::spawn(move || {
                let (_, new) = h.swap(CorpusSnapshot::new(Arc::clone(&db)));
                c.lock().unwrap().purge_below_epoch(new.epoch());
            })
        };

        for t in inserters {
            t.join().unwrap();
        }
        swapper.join().unwrap();

        // The purge removed every entry inserted before it, and every
        // insert after it saw the new epoch and stepped aside.
        let stale = cache.lock().unwrap().purge_below_epoch(handle.epoch());
        assert_eq!(stale, 0, "a stale-epoch entry survived the purge");
    });
    assert_explored("purge_vs_insert", &report);
    report
}

#[test]
fn model_purge_below_epoch_vs_insert() {
    run_purge_vs_insert();
}

// ---------------------------------------------------------------------------
// Model 3: admission-accounting reconciliation under shed/expire/panic.
// ---------------------------------------------------------------------------

/// Mirrors the serve path's accounting discipline: every submit records
/// `admitted` first, then exactly one outcome (`requests` = answered,
/// `shed`, `deadline_expired`, or `internal_errors`). The reconciliation
/// identity must hold on the quiesced engine for every interleaving.
fn run_admission_reconciliation() -> Report {
    let report = builder(Some(2)).check(|| {
        let stats = Arc::new(ServeStats::new());

        let answered = {
            let s = Arc::clone(&stats);
            thread::spawn(move || {
                s.record_admitted();
                s.record_request(Duration::ZERO, false);
            })
        };
        let shed = {
            let s = Arc::clone(&stats);
            thread::spawn(move || {
                s.record_admitted();
                s.record_shed();
            })
        };
        let expired_then_panicked = {
            let s = Arc::clone(&stats);
            thread::spawn(move || {
                s.record_admitted();
                s.record_deadline_expired();
                // The same thread then hits the panic path: the job is
                // answered with a structured internal error and the
                // supervisor books the worker death.
                s.record_admitted();
                s.record_internal_error();
                s.record_worker_panic();
            })
        };

        answered.join().unwrap();
        shed.join().unwrap();
        expired_then_panicked.join().unwrap();

        let snap = stats.snapshot();
        assert_eq!(
            snap.admitted,
            snap.requests + snap.shed + snap.deadline_expired + snap.internal_errors,
            "quiesced reconciliation identity broke"
        );
        assert_eq!(snap.admitted, 4);
        assert_eq!(snap.worker_panics, 1);
    });
    assert_explored("admission_reconciliation", &report);
    report
}

#[test]
fn model_admission_reconciliation() {
    run_admission_reconciliation();
}

// ---------------------------------------------------------------------------
// Model 4: shutdown vs supervisor respawn.
// ---------------------------------------------------------------------------

/// Mirrors `QueryEngine::shutdown` against `supervise`: the supervisor
/// respawns dead workers only while `shutting_down` is false (checked
/// under the slots lock), and shutdown stores the flag, *joins the
/// supervisor*, then drains the slots. The invariant: once shutdown
/// returns, no respawn can have landed after the drain.
fn run_shutdown_vs_respawn() -> Report {
    let report = builder(None).check(|| {
        let shutting_down = Arc::new(AtomicBool::new(false));
        let slots: Arc<Mutex<Vec<Option<u32>>>> = Arc::new(Mutex::new(vec![Some(1), Some(2)]));
        let respawns = Arc::new(AtomicUsize::new(0));

        // Two workers die: their slots are vacated (the supervisor's
        // join() happens under the slots lock in the real loop).
        let deaths: Vec<_> = (0..2)
            .map(|i| {
                let slots = Arc::clone(&slots);
                thread::spawn(move || {
                    slots.lock().unwrap()[i] = None;
                })
            })
            .collect();

        let supervisor = {
            let slots = Arc::clone(&slots);
            let flag = Arc::clone(&shutting_down);
            let respawns = Arc::clone(&respawns);
            thread::spawn(move || {
                for _ in 0..2 {
                    // ordering: SeqCst — mirrors supervise()'s gate.
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    let mut slots = slots.lock().unwrap();
                    for slot in slots.iter_mut() {
                        // ordering: SeqCst — respawn decision, in-lock.
                        if slot.is_none() && !flag.load(Ordering::SeqCst) {
                            *slot = Some(99);
                            respawns.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            })
        };

        // Shutdown: flag, then *join the supervisor*, then drain.
        // ordering: SeqCst — mirrors shutdown()'s store.
        shutting_down.store(true, Ordering::SeqCst);
        supervisor.join().unwrap();
        {
            let mut slots = slots.lock().unwrap();
            for slot in slots.iter_mut() {
                slot.take();
            }
        }
        for d in deaths {
            d.join().unwrap();
        }

        // The dead worker's slot was drained or never refilled; with the
        // supervisor joined before the drain, nothing can repopulate.
        let slots = slots.lock().unwrap();
        assert!(
            slots.iter().all(Option::is_none),
            "a respawn landed after shutdown drained the pool"
        );
        assert!(respawns.load(Ordering::SeqCst) <= 2);
    });
    assert_explored("shutdown_vs_respawn", &report);
    report
}

#[test]
fn model_shutdown_vs_supervisor_respawn() {
    run_shutdown_vs_respawn();
}

// ---------------------------------------------------------------------------
// Model 5: the admission cache lookup vs a worker's insert and a swap's purge.
// ---------------------------------------------------------------------------

/// Mirrors `QueryEngine::submit_with_completion`'s cache read against
/// the cache's two writers. Admission pins its epoch with one `load()`,
/// keys the request under it (the real `EpochSnapshot::cache_key`), and
/// only `try_lock`s the cache: a held lock is a miss, and the request
/// queues, where its worker looks again under the blocking lock.
/// Concurrently a worker answers a request it pinned earlier and inserts
/// the answer under its own epoch, and a swap bumps the epoch and purges.
/// Each cached value is the epoch its answer was computed under. Every
/// hit, at admission or at dequeue, must be an entry of the looking
/// request's own admitted epoch, and with every request answered once the
/// books must reconcile.
fn run_admission_lookup() -> Report {
    let db = shared_db();
    let report = builder(Some(2)).check(move || {
        let handle = Arc::new(EngineHandle::new(CorpusSnapshot::new(db.clone())));
        let cache: Arc<Mutex<Cache<u64, u64>>> = Arc::new(Mutex::new(Cache::new(8)));
        let stats = Arc::new(ServeStats::new());
        let request = QueryRequest {
            query: vec![Point::xy(0.5, 0.5), Point::xy(1.0, 0.5)],
            algo: AlgoSpec::Pss,
            measure: MeasureSpec::Dtw,
            k: 1,
            use_index: true,
        };

        let worker = {
            let (h, c, s, r) = (
                Arc::clone(&handle),
                Arc::clone(&cache),
                Arc::clone(&stats),
                request.clone(),
            );
            thread::spawn(move || {
                let pinned = h.load();
                s.record_admitted();
                let key = pinned.cache_key(&r);
                c.lock()
                    .unwrap()
                    .insert(key, pinned.epoch(), pinned.epoch());
                s.record_request(Duration::ZERO, false);
            })
        };
        let swapper = {
            let (h, c, s) = (Arc::clone(&handle), Arc::clone(&cache), Arc::clone(&stats));
            let db = db.clone();
            thread::spawn(move || {
                let (_, new) = h.swap(CorpusSnapshot::new(Arc::clone(&db)));
                let evicted = c.lock().unwrap().purge_below_epoch(new.epoch());
                s.record_swap(evicted as u64);
            })
        };
        let admission = {
            let (h, c, s, r) = (
                Arc::clone(&handle),
                Arc::clone(&cache),
                Arc::clone(&stats),
                request.clone(),
            );
            thread::spawn(move || {
                let pinned = h.load();
                let key = pinned.cache_key(&r);
                let hit = match c.try_lock() {
                    Ok(mut cache) => cache.get(&key),
                    Err(TryLockError::WouldBlock) => None,
                    Err(TryLockError::Poisoned(_)) => unreachable!("nothing panics holding it"),
                };
                s.record_admitted();
                match hit {
                    Some(computed_under) => {
                        assert_eq!(
                            computed_under,
                            pinned.epoch(),
                            "admission served another epoch's entry"
                        );
                        s.record_request(Duration::ZERO, true);
                        None
                    }
                    // A miss queues, still pinned to its admitted epoch.
                    None => Some(pinned),
                }
            })
        };

        worker.join().unwrap();
        swapper.join().unwrap();
        if let Some(pinned) = admission.join().unwrap() {
            // The queued miss at dequeue: the blocking lock, the key it
            // was admitted with, then a scan and an insert on a miss.
            let key = pinned.cache_key(&request);
            let mut cache = cache.lock().unwrap();
            match cache.get(&key) {
                Some(computed_under) => {
                    assert_eq!(
                        computed_under,
                        pinned.epoch(),
                        "dequeue lookup crossed epochs"
                    );
                    stats.record_request(Duration::ZERO, true);
                }
                None => {
                    cache.insert(key, pinned.epoch(), pinned.epoch());
                    stats.record_request(Duration::ZERO, false);
                }
            }
        }

        let snap = stats.snapshot();
        assert_eq!(snap.admitted, 2);
        assert_eq!(
            snap.admitted,
            snap.requests + snap.shed + snap.deadline_expired + snap.internal_errors,
            "quiesced reconciliation identity broke"
        );
        assert!(snap.cache_hits <= 1, "only the admitted request can hit");
        assert_eq!(handle.epoch(), 2);
    });
    assert_explored("admission_lookup", &report);
    report
}

#[test]
fn model_admission_lookup_vs_insert_and_purge() {
    run_admission_lookup();
}

// ---------------------------------------------------------------------------
// Self-test: the checker catches a seeded epoch-pinning race.
// ---------------------------------------------------------------------------

/// Reverts the pinning discipline — reads the epoch, then re-acquires
/// the snapshot with a *second* load — and asserts the model checker
/// finds the torn pair. This is the suite's canary: if the scheduler
/// stopped exploring or assertions stopped propagating, this test fails.
#[test]
fn seeded_unpinned_epoch_race_is_caught() {
    let db = shared_db();
    let result = builder(Some(3)).check_result(move || {
        let handle = Arc::new(EngineHandle::new(CorpusSnapshot::new(db.clone())));

        let buggy_worker = {
            let h = Arc::clone(&handle);
            thread::spawn(move || {
                let e1 = h.epoch();
                // BUG (seeded): a second acquisition instead of reading
                // through the pinned Arc — a swap can land in between.
                let snap = h.load();
                assert_eq!(snap.epoch(), e1, "torn epoch/snapshot pair");
            })
        };
        let swapper = {
            let h = Arc::clone(&handle);
            let db = db.clone();
            thread::spawn(move || {
                h.swap(CorpusSnapshot::new(Arc::clone(&db)));
            })
        };
        buggy_worker.join().unwrap();
        swapper.join().unwrap();
    });

    let failure = result.expect_err("the seeded unpinned-epoch race must be caught");
    assert!(
        failure.message.contains("torn epoch/snapshot pair"),
        "unexpected failure: {failure}"
    );
    assert!(
        !failure.trace.is_empty(),
        "a failure must come with its schedule"
    );
}

// ---------------------------------------------------------------------------
// Exploration-stats export (BENCH_modelcheck.json).
// ---------------------------------------------------------------------------

/// Re-runs every model and writes the committed stats file when
/// `SIMSUB_MODELCHECK_BENCH` names a path. No-op otherwise, so the
/// default suite stays fast.
#[test]
fn export_bench_stats() {
    let Some(path) = std::env::var_os("SIMSUB_MODELCHECK_BENCH") else {
        return;
    };
    let models: [(&str, &str, fn() -> Report); 5] = [
        ("epoch_pinning_across_swaps", "3", run_epoch_pinning),
        ("purge_below_epoch_vs_insert", "3", run_purge_vs_insert),
        (
            "admission_reconciliation",
            "2",
            run_admission_reconciliation,
        ),
        (
            "shutdown_vs_supervisor_respawn",
            "null",
            run_shutdown_vs_respawn,
        ),
        (
            "admission_lookup_vs_insert_and_purge",
            "2",
            run_admission_lookup,
        ),
    ];
    let mut entries = Vec::new();
    for (name, bound, run) in models {
        let r = run();
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"model\": \"{}\",\n",
                "      \"interleavings\": {},\n",
                "      \"max_preemptions\": {},\n",
                "      \"preemption_bound\": {},\n",
                "      \"complete\": {},\n",
                "      \"relaxed_reliances\": {},\n",
                "      \"wall_ms\": {:.1}\n",
                "    }}"
            ),
            name,
            r.interleavings,
            r.max_preemptions,
            bound,
            r.complete,
            r.relaxed.len(),
            r.wall.as_secs_f64() * 1e3,
        ));
    }
    let doc = format!(
        "{{\n  \"suite\": \"simsub-service model_check (--cfg simsub_loom)\",\n  \"models\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, doc).expect("write bench stats");
}
