//! Self-tests for the mini model checker: the scheduler really explores,
//! the happens-before checker really catches seeded bugs, and exploration
//! is deterministic.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use loom::cell::UnsafeCell;
use loom::sync::atomic::{AtomicBool, AtomicU64};
use loom::sync::{Condvar, Mutex};
use loom::Builder;

#[test]
fn counter_explores_and_sums() {
    let report = loom::model(|| {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&counter);
                loom::thread::spawn(move || {
                    for _ in 0..3 {
                        c.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 6);
    });
    assert!(report.complete, "small model should be exhausted");
    // Two threads interleaving 3 ops each admit C(6,3) = 20 pure op
    // orders; spawn/join decision points multiply that.
    assert!(
        report.interleavings >= 20,
        "expected real exploration, got {}",
        report.interleavings
    );
}

#[test]
fn seeded_data_race_is_caught() {
    let result = Builder::new().check_result(|| {
        let cell = Arc::new(UnsafeCell::new(0u64));
        let c = Arc::clone(&cell);
        let t = loom::thread::spawn(move || {
            c.with_mut(|p| unsafe { *p += 1 });
        });
        // Unsynchronized with the spawned thread's write: a data race.
        cell.with_mut(|p| unsafe { *p += 1 });
        t.join().unwrap();
    });
    let failure = result.expect_err("the seeded race must be caught");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn mutex_prevents_the_same_race() {
    let report = loom::model(|| {
        let cell = Arc::new((Mutex::new(()), UnsafeCell::new(0u64)));
        let c = Arc::clone(&cell);
        let t = loom::thread::spawn(move || {
            let _g = c.0.lock().unwrap();
            c.1.with_mut(|p| unsafe { *p += 1 });
        });
        {
            let _g = cell.0.lock().unwrap();
            cell.1.with_mut(|p| unsafe { *p += 1 });
        }
        t.join().unwrap();
        let total = cell.1.with(|p| unsafe { *p });
        assert_eq!(total, 2);
    });
    assert!(report.complete);
}

#[test]
fn relaxed_reliance_is_reported_and_acquire_release_is_not() {
    let run = |store: Ordering, load: Ordering| {
        Builder::new().check(move || {
            let flag = Arc::new(AtomicBool::new(false));
            let f = Arc::clone(&flag);
            let t = loom::thread::spawn(move || {
                f.store(true, store);
            });
            let _ = flag.load(load);
            t.join().unwrap();
        })
    };
    let relaxed = run(Ordering::Relaxed, Ordering::Relaxed);
    assert!(
        !relaxed.relaxed.is_empty(),
        "relaxed cross-thread observation must be reported"
    );
    let synced = run(Ordering::Release, Ordering::Acquire);
    assert!(
        synced.relaxed.is_empty(),
        "acquire/release pairs are ordered; got {:?}",
        synced.relaxed
    );
}

#[test]
fn deadlock_is_reported() {
    let result = Builder::new().check_result(|| {
        let locks = Arc::new((Mutex::new(()), Mutex::new(())));
        let l = Arc::clone(&locks);
        let t = loom::thread::spawn(move || {
            let _a = l.0.lock().unwrap();
            let _b = l.1.lock().unwrap();
        });
        let _b = locks.1.lock().unwrap();
        let _a = locks.0.lock().unwrap();
        drop(_a);
        drop(_b);
        t.join().unwrap();
    });
    let failure = result.expect_err("AB-BA order must deadlock in some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn assertion_failures_surface_with_a_schedule() {
    let result = Builder::new().check_result(|| {
        let v = Arc::new(AtomicU64::new(0));
        let v2 = Arc::clone(&v);
        let t = loom::thread::spawn(move || {
            v2.store(1, Ordering::SeqCst);
        });
        // Fails on schedules where the spawned store lands first.
        assert_eq!(v.load(Ordering::SeqCst), 0, "observed the racing store");
        t.join().unwrap();
    });
    let failure = result.expect_err("some schedule must trip the assert");
    assert!(failure.message.contains("observed the racing store"));
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be reported"
    );
}

#[test]
fn exploration_is_deterministic() {
    let build = || {
        Builder::new().check(|| {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = Arc::clone(&n);
            let t = loom::thread::spawn(move || {
                n2.fetch_add(2, Ordering::SeqCst);
                n2.fetch_add(3, Ordering::SeqCst);
            });
            n.fetch_add(5, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(n.load(Ordering::SeqCst), 10);
        })
    };
    let a = build();
    let b = build();
    assert_eq!(a.interleavings, b.interleavings);
    assert_eq!(a.max_preemptions, b.max_preemptions);
}

#[test]
fn preemption_bound_caps_switches() {
    let bounded = Builder {
        preemption_bound: Some(1),
        ..Builder::new()
    }
    .check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = loom::thread::spawn(move || {
            for _ in 0..4 {
                n2.fetch_add(1, Ordering::SeqCst);
            }
        });
        for _ in 0..4 {
            n.fetch_add(1, Ordering::SeqCst);
        }
        t.join().unwrap();
    });
    let unbounded = Builder::new().check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = loom::thread::spawn(move || {
            for _ in 0..4 {
                n2.fetch_add(1, Ordering::SeqCst);
            }
        });
        for _ in 0..4 {
            n.fetch_add(1, Ordering::SeqCst);
        }
        t.join().unwrap();
    });
    assert!(bounded.max_preemptions <= 1);
    assert!(
        bounded.interleavings < unbounded.interleavings,
        "bounding must shrink the space: {} vs {}",
        bounded.interleavings,
        unbounded.interleavings
    );
}

#[test]
fn random_fallback_kicks_in_when_budget_is_spent() {
    let report = Builder {
        max_executions: 5,
        random_fallback: 25,
        ..Builder::new()
    }
    .check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let n = Arc::clone(&n);
                loom::thread::spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 6);
    });
    assert!(
        !report.complete,
        "budget of 5 cannot exhaust a 3-thread model"
    );
    assert_eq!(report.interleavings, 5 + 25);
}

#[test]
fn condvar_handoff_works() {
    let report = loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p = Arc::clone(&pair);
        let t = loom::thread::spawn(move || {
            let mut ready = p.0.lock().unwrap();
            *ready = true;
            p.1.notify_one();
        });
        let mut ready = pair.0.lock().unwrap();
        while !*ready {
            ready = pair.1.wait(ready).unwrap();
        }
        drop(ready);
        t.join().unwrap();
    });
    assert!(report.complete);
    assert!(report.interleavings >= 2);
}

#[test]
fn monotonic_cas_floor_converges() {
    // A relaxed CAS-max loop, the classic monotone-floor idiom, must be
    // monotone under any schedule.
    let report = loom::model(|| {
        let floor = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = [3u64, 7, 5]
            .into_iter()
            .map(|target| {
                let f = Arc::clone(&floor);
                loom::thread::spawn(move || {
                    // ordering: value-only monotone max; no payload is
                    // published through this atomic.
                    let mut cur = f.load(Ordering::Relaxed);
                    while target > cur {
                        match f.compare_exchange_weak(
                            cur,
                            target,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(seen) => cur = seen,
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(floor.load(Ordering::SeqCst), 7);
    });
    assert!(report.interleavings >= 10);
}

#[test]
fn outside_a_model_primitives_are_plain_std() {
    // No model running: the instrumented types must behave as std with
    // real OS threads.
    let n = Arc::new(AtomicU64::new(0));
    let m = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let n = Arc::clone(&n);
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                n.fetch_add(1, Ordering::SeqCst);
                *m.lock().unwrap() += 1;
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(n.load(Ordering::SeqCst), 4);
    assert_eq!(*m.lock().unwrap(), 4);
}
