//! The shared micro-batcher: a windowed drain policy for the worker
//! queue.
//!
//! # Why it exists — batch-starvation thrash
//!
//! Through PR 9 each worker drained the shared MPSC queue with one
//! blocking `recv` plus a greedy `try_recv` loop. With a single worker
//! that batches beautifully for free: while the worker scans, a backlog
//! builds, and the next drain takes all of it (a worker-count sweep at
//! PR 8 read mean_batch 7.76 at workers=1). With N > 1 workers the same
//! policy destroys batching: every idle worker
//! is parked inside `recv`, so each arrival of a near-simultaneous
//! burst is picked off the instant it lands by a *different* worker,
//! and the queue never holds two jobs at once. Each worker then runs a
//! singleton scan, losing the amortization batching buys (one corpus
//! pass shared by the whole group). The recorded numbers: workers=2
//! drained mean_batch 2.27 and was *slower* than workers=1 — 1814 vs
//! 2074 qps — because on the 1-core dev box the two singleton scans
//! also context-switch against each other mid-pass. More workers with
//! worse throughput. (`tests/service_engine.rs` pins the repaired
//! property: a 2-worker engine still batches a cold burst.)
//!
//! # The fix
//!
//! Make the drain *hold*: a worker that already owns one job keeps the
//! queue receiver locked and waits a short window for more arrivals
//! before dispatching ([`fill`]). Holding under the queue mutex is the
//! point — the holding worker collects the whole burst while its idle
//! peers queue behind the lock, instead of N peers splitting the burst
//! into singletons. No extra thread, no extra hop on the warm path.
//!
//! The window adapts to load ([`hold_until`]): `min(batch_window_us,
//! latency_p50 / 8)`, further capped by the first job's deadline.
//! An engine with no latency history (or an idle one whose p50 is
//! microseconds) holds for effectively nothing, so single-query
//! callers see no added latency; a cold engine whose scans take
//! milliseconds holds for a small fraction of one scan — enough to
//! recover the batch, too short to matter against the scan itself.
//! Single-worker engines never hold (their backlog batches for free);
//! `batch_window_us = 0` disables holding outright.
//!
//! The hold also closes early on *arrival quiescence*: once the queue
//! stays empty for [`Hold::gap`] (a quarter of the window), the burst
//! is over and the rest of the window is pure dead time — closed-loop
//! clients cannot submit again until the held jobs are answered, so
//! waiting out the window would cost throughput without coalescing
//! anything. (Measured: holding the full window dropped the cold
//! 4-worker bench from ~2045 to ~1695 qps even as mean_batch hit 8.)

use crate::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Divisor applied to the p50 engine latency to size the adaptive hold
/// window: holding ~1/8th of a typical request keeps the coalescing
/// delay an order of magnitude below the work it amortizes.
const P50_DIVISOR: u64 = 8;

/// Divisor applied to the hold window to size the inter-arrival gap
/// that ends a hold early, and the floor the gap never drops below.
/// The gap is what keeps the hold from costing dead time: a burst
/// arrives with near-zero spacing, so once the queue stays quiet for a
/// small fraction of the window the burst is over and waiting out the
/// rest of the window cannot coalesce anything — it only stalls the
/// jobs already held.
const GAP_DIVISOR: u32 = 4;
const GAP_FLOOR: Duration = Duration::from_micros(50);

/// A batcher hold: collect arrivals until `until`, but give up early
/// once `gap` passes without one (arrival quiescence — the burst ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hold {
    pub(crate) until: Instant,
    pub(crate) gap: Duration,
}

/// Computes the hold for a drain that started at `start` holding its
/// first job: `start + min(cap_us, p50_us / 8)`, clamped by the job's
/// own `deadline`. `None` means "don't hold" (window disabled, adaptive
/// window rounds to zero, or the deadline is already due).
pub(crate) fn hold_until(
    start: Instant,
    cap_us: u64,
    p50_us: u64,
    deadline: Option<Instant>,
) -> Option<Hold> {
    let window_us = cap_us.min(p50_us / P50_DIVISOR);
    if window_us == 0 {
        return None;
    }
    let window = Duration::from_micros(window_us);
    let mut until = start + window;
    if let Some(d) = deadline {
        until = until.min(d);
    }
    (until > start).then_some(Hold {
        until,
        gap: (window / GAP_DIVISOR).max(GAP_FLOOR),
    })
}

/// Scheduler yields granted to mid-submission peers per quiescence
/// probe before concluding the burst is over.
const QUIESCENCE_YIELDS: usize = 3;

/// Greedy non-blocking drain; returns whether anything was taken.
fn greedy<T>(rx: &Receiver<T>, jobs: &mut Vec<T>, max_batch: usize) -> bool {
    let before = jobs.len();
    while jobs.len() < max_batch {
        match rx.try_recv() {
            Ok(job) => jobs.push(job),
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
        }
    }
    jobs.len() > before
}

/// Drains `rx` into `jobs` up to `max_batch`: everything already
/// queued, then — when `hold` is set — collecting further arrivals
/// until the window closes or the queue goes quiet. The caller holds
/// the queue lock around this call; a closed channel just ends the
/// fill (the caller's next blocking `recv` observes shutdown).
///
/// Quiescence is probed with scheduler yields before any timer: a
/// burst's submitters are *runnable right now*, so yielding lets them
/// finish submitting and the whole burst lands via `try_recv` — no
/// timed sleeps on the common path (each `recv_timeout` costs a timer
/// arm + context switch, and paying one per arrival is what made the
/// first version of this hold slower than no batching at all). Only a
/// still-singleton batch waits out `hold.gap` on a timer: a coalesced
/// batch that has gone quiet ships immediately, because the clients
/// behind it are blocked on *these* responses and cannot feed the
/// window any further.
pub(crate) fn fill<T>(rx: &Receiver<T>, jobs: &mut Vec<T>, max_batch: usize, hold: Option<Hold>) {
    greedy(rx, jobs, max_batch);
    if jobs.len() >= max_batch {
        return;
    }
    let Some(hold) = hold else { return };
    loop {
        let mut got = false;
        for _ in 0..QUIESCENCE_YIELDS {
            std::thread::yield_now();
            got |= greedy(rx, jobs, max_batch);
            if jobs.len() >= max_batch {
                return;
            }
        }
        if got {
            // The burst is still flowing: keep collecting.
            continue;
        }
        if jobs.len() > 1 {
            // Coalesced and quiet: dispatch now, the window's tail is
            // pure dead time.
            return;
        }
        let Some(remaining) = hold.until.checked_duration_since(Instant::now()) else {
            return;
        };
        if remaining.is_zero() {
            return;
        }
        match rx.recv_timeout(remaining.min(hold.gap)) {
            Ok(job) => jobs.push(job),
            // A gap with no arrival: the burst is over, dispatch what
            // we have rather than stalling it on the window's tail.
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::mpsc::channel;

    #[test]
    fn hold_until_disabled_cases() {
        let start = Instant::now();
        // Window cap off.
        assert_eq!(hold_until(start, 0, 8_000, None), None);
        // No latency history yet: adaptive window is zero.
        assert_eq!(hold_until(start, 2_000, 0, None), None);
        // Sub-divisor p50 rounds the window to zero.
        assert_eq!(hold_until(start, 2_000, P50_DIVISOR - 1, None), None);
        // Deadline already due: never hold expired work.
        assert_eq!(hold_until(start, 2_000, 8_000, Some(start)), None);
    }

    #[test]
    fn hold_until_takes_the_tightest_bound() {
        let start = Instant::now();
        // Adaptive: p50/8 = 500µs beats the 2ms cap; gap = window/4.
        assert_eq!(
            hold_until(start, 2_000, 4_000, None),
            Some(Hold {
                until: start + Duration::from_micros(500),
                gap: Duration::from_micros(125),
            })
        );
        // Cap: 2ms beats p50/8 = 10ms.
        assert_eq!(
            hold_until(start, 2_000, 80_000, None),
            Some(Hold {
                until: start + Duration::from_micros(2_000),
                gap: Duration::from_micros(500),
            })
        );
        // Deadline: tighter than both (the gap still follows the window).
        let d = start + Duration::from_micros(100);
        assert_eq!(
            hold_until(start, 2_000, 80_000, Some(d)).map(|h| h.until),
            Some(d)
        );
        // Tiny window: the gap never drops below its floor.
        assert_eq!(
            hold_until(start, 120, 8_000, None),
            Some(Hold {
                until: start + Duration::from_micros(120),
                gap: GAP_FLOOR,
            })
        );
    }

    #[test]
    fn fill_without_hold_takes_only_whats_queued() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let mut jobs = vec![0];
        fill(&rx, &mut jobs, 16, None);
        assert_eq!(jobs, vec![0, 1, 2]);
    }

    fn hold(window: Duration, gap: Duration) -> Option<Hold> {
        Some(Hold {
            until: Instant::now() + window,
            gap,
        })
    }

    #[test]
    fn fill_respects_max_batch() {
        let (tx, rx) = channel();
        for i in 1..=5 {
            tx.send(i).unwrap();
        }
        let mut jobs = vec![0];
        fill(
            &rx,
            &mut jobs,
            3,
            hold(Duration::from_secs(5), Duration::from_secs(1)),
        );
        assert_eq!(jobs, vec![0, 1, 2]);
    }

    #[test]
    fn fill_holds_for_late_arrivals() {
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let mut jobs = vec![0];
        fill(
            &rx,
            &mut jobs,
            16,
            hold(Duration::from_millis(500), Duration::from_millis(125)),
        );
        sender.join().unwrap();
        // The hold window caught the late burst (both arrivals: they
        // landed within one inter-arrival gap of each other).
        assert_eq!(jobs, vec![0, 1, 2]);
    }

    #[test]
    fn fill_closes_on_arrival_quiescence() {
        let (tx, rx) = channel::<u32>();
        let mut jobs = vec![0];
        let start = Instant::now();
        // A long window with a short gap and no arrivals: the fill ends
        // after ~one gap, not after the full window.
        fill(
            &rx,
            &mut jobs,
            16,
            hold(Duration::from_secs(5), Duration::from_millis(10)),
        );
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(jobs, vec![0]);
        drop(tx);
    }

    #[test]
    fn fill_dispatches_coalesced_quiet_batch_without_timer_wait() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        let mut jobs = vec![0];
        let start = Instant::now();
        // Already coalesced (2 jobs) and the queue is quiet: the fill
        // returns without waiting out the generous window or gap.
        fill(
            &rx,
            &mut jobs,
            16,
            hold(Duration::from_secs(5), Duration::from_secs(5)),
        );
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(jobs, vec![0, 1]);
    }

    #[test]
    fn fill_gives_up_when_the_window_closes() {
        let (tx, rx) = channel::<u32>();
        let mut jobs = vec![0];
        let start = Instant::now();
        // Gap as wide as the window: expiry is what ends the hold.
        fill(
            &rx,
            &mut jobs,
            16,
            hold(Duration::from_millis(10), Duration::from_millis(10)),
        );
        assert!(start.elapsed() >= Duration::from_millis(9));
        assert_eq!(jobs, vec![0]);
        drop(tx);
    }

    #[test]
    fn fill_survives_disconnect_mid_hold() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        let mut jobs = vec![0];
        fill(
            &rx,
            &mut jobs,
            16,
            hold(Duration::from_secs(5), Duration::from_secs(5)),
        );
        assert_eq!(jobs, vec![0]);
    }
}
