//! Fault injection for the serve path — the chaos-testing hooks behind
//! `tests/robustness.rs` and the `SIMSUB_FAULTS` environment hatch.
//!
//! The engine carries one [`FaultRegistry`] with a fixed set of named
//! injection points ([`FaultPoint`]). Each point is independently armed
//! with a *trigger* — a deterministic probability or an every-Nth
//! cadence — and, for the sleeping points, a duration parameter. The
//! disabled path is a single relaxed atomic load
//! ([`FaultRegistry::fire`] returns immediately when nothing is armed),
//! so production traffic pays nothing for the hooks' existence.
//!
//! ## Spec grammar
//!
//! A registry is configured from a compact spec string (the value of the
//! `SIMSUB_FAULTS` environment variable, the `--faults` serve flag, or
//! the admin `{"cmd":"configure","faults":"..."}` knob):
//!
//! ```text
//! point=trigger[:ms][,point=trigger[:ms]]...
//!
//! point   := panic_in_scan | slow_scan | drop_response
//!          | cache_lock_stall | panic_in_worker
//! trigger := p:<prob in (0,1]>   fire pseudo-randomly (deterministic
//!                                hash of the occurrence counter)
//!          | n:<N >= 1>          fire on every N-th occurrence
//! ms      := sleep duration for the sleeping points (default 10,
//!            max 60000)
//! ```
//!
//! Example: `panic_in_scan=p:0.3,slow_scan=n:7:5` panics ~30% of scans
//! and sleeps 5 ms before every 7th. The empty spec disarms everything.
//!
//! ## Injection points
//!
//! | point | effect | where |
//! |-------|--------|-------|
//! | `panic_in_scan` | panics inside a job's scan (caught by the worker's `catch_unwind`; the waiter gets a structured `internal` error) | `process_job` scan |
//! | `slow_scan` | sleeps `ms` before a job's scan | `process_job` scan |
//! | `drop_response` | drops an answer instead of sending it (the waiter observes a canceled request) | `respond` |
//! | `cache_lock_stall` | sleeps `ms` while holding the result-cache lock; admission's non-blocking lookup reads a miss meanwhile, so hits queue | `process_job` dequeue-time lookup |
//! | `panic_in_worker` | panics at the top of the worker loop, *outside* the dispatch `catch_unwind` — kills the thread so the supervisor's detect-and-respawn path is exercised; fires before the queue receive, so no job is lost | `worker_loop` |
//!
//! Probability triggers are deterministic: the decision hashes the
//! point's occurrence counter (splitmix64), so a given spec replays the
//! same fault schedule on every run — chaos tests are reproducible.

use crate::metrics_registry::Counter;
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use crate::sync::Mutex;
use std::time::Duration;

/// Default sleep for the sleeping points when the spec omits `:ms`.
const DEFAULT_SLEEP_MS: u64 = 10;

/// Upper bound on a configured sleep, so a typo cannot wedge a worker
/// for minutes.
const MAX_SLEEP_MS: u64 = 60_000;

/// A named injection point. See the module docs for what each one does
/// and where it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Panic inside a job's scan (caught; the waiter gets `internal`).
    PanicInScan,
    /// Sleep before a job's scan.
    SlowScan,
    /// Drop an answer instead of sending it.
    DropResponse,
    /// Sleep while holding the result-cache lock.
    CacheLockStall,
    /// Panic at the top of the worker loop (kills the thread; exercises
    /// the supervisor's respawn path).
    PanicInWorker,
}

/// Every injection point, in registry order.
pub const FAULT_POINTS: [FaultPoint; 5] = [
    FaultPoint::PanicInScan,
    FaultPoint::SlowScan,
    FaultPoint::DropResponse,
    FaultPoint::CacheLockStall,
    FaultPoint::PanicInWorker,
];

impl FaultPoint {
    /// The spec-grammar name of this point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::PanicInScan => "panic_in_scan",
            FaultPoint::SlowScan => "slow_scan",
            FaultPoint::DropResponse => "drop_response",
            FaultPoint::CacheLockStall => "cache_lock_stall",
            FaultPoint::PanicInWorker => "panic_in_worker",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultPoint::PanicInScan => 0,
            FaultPoint::SlowScan => 1,
            FaultPoint::DropResponse => 2,
            FaultPoint::CacheLockStall => 3,
            FaultPoint::PanicInWorker => 4,
        }
    }

    fn from_name(name: &str) -> Option<FaultPoint> {
        FAULT_POINTS.iter().copied().find(|p| p.name() == name)
    }

    /// True for the points whose effect is a sleep (and whose spec may
    /// carry a `:ms` parameter).
    fn sleeps(self) -> bool {
        matches!(self, FaultPoint::SlowScan | FaultPoint::CacheLockStall)
    }
}

/// Trigger modes, stored as an atomic `u8` per point.
const MODE_OFF: u8 = 0;
const MODE_PROBABILITY: u8 = 1;
const MODE_EVERY_NTH: u8 = 2;

/// One point's live state: trigger mode + threshold, sleep parameter,
/// occurrence counter, and how often it actually fired.
struct PointState {
    mode: AtomicU8,
    /// Probability as `f64` bits, or the every-Nth period.
    threshold: AtomicU64,
    sleep_ms: AtomicU64,
    /// Occurrences seen (the trigger's deterministic input).
    seen: AtomicU64,
    fired: Counter,
}

impl PointState {
    fn off() -> Self {
        Self {
            mode: AtomicU8::new(MODE_OFF),
            threshold: AtomicU64::new(0),
            sleep_ms: AtomicU64::new(DEFAULT_SLEEP_MS),
            seen: AtomicU64::new(0),
            fired: Counter::new(),
        }
    }
}

/// The engine's set of armed injection points. All state is atomic: the
/// spec can be swapped live (admin `configure`) while workers consult
/// the registry, and the fully-disarmed fast path is one relaxed load.
pub struct FaultRegistry {
    armed: AtomicBool,
    points: [PointState; FAULT_POINTS.len()],
    /// Echo of the spec currently applied (for `info`/`configure`).
    spec: Mutex<String>,
}

impl Default for FaultRegistry {
    fn default() -> Self {
        Self::disarmed()
    }
}

impl FaultRegistry {
    /// A registry with every point off.
    pub fn disarmed() -> Self {
        Self {
            armed: AtomicBool::new(false),
            points: std::array::from_fn(|_| PointState::off()),
            spec: Mutex::new(String::new()),
        }
    }

    /// Parses and applies `spec` atomically enough for chaos testing:
    /// each point's trigger is replaced in one pass (no partial update
    /// on parse errors — the spec is validated before anything is
    /// stored). The empty spec disarms every point.
    pub fn set_spec(&self, spec: &str) -> Result<(), String> {
        let parsed = parse_spec(spec)?;
        for (index, point) in self.points.iter().enumerate() {
            let entry = parsed
                .iter()
                .find(|(p, _, _)| p.index() == index)
                .map(|&(_, trigger, ms)| (trigger, ms));
            match entry {
                Some((Trigger::Probability(p), ms)) => {
                    point.threshold.store(p.to_bits(), Ordering::Relaxed); // ordering: relaxed — armed's SeqCst store below publishes this
                    point.sleep_ms.store(ms, Ordering::Relaxed); // ordering: relaxed — armed's SeqCst store below publishes this
                    point.mode.store(MODE_PROBABILITY, Ordering::Relaxed); // ordering: relaxed — armed's SeqCst store below publishes this
                }
                Some((Trigger::EveryNth(n), ms)) => {
                    point.threshold.store(n, Ordering::Relaxed); // ordering: relaxed — armed's SeqCst store below publishes this
                    point.sleep_ms.store(ms, Ordering::Relaxed); // ordering: relaxed — armed's SeqCst store below publishes this
                    point.mode.store(MODE_EVERY_NTH, Ordering::Relaxed); // ordering: relaxed — armed's SeqCst store below publishes this
                }
                None => point.mode.store(MODE_OFF, Ordering::Relaxed), // ordering: relaxed — disarming needs no publication
            }
        }
        *lock_recover(&self.spec) = spec.trim().to_string();
        // ordering: SeqCst, and armed last — a worker that sees the flag
        // also sees the trigger cells stored above.
        self.armed.store(!parsed.is_empty(), Ordering::SeqCst);
        Ok(())
    }

    /// The spec currently applied (empty when disarmed).
    pub fn spec(&self) -> String {
        lock_recover(&self.spec).clone()
    }

    /// True when at least one point is armed.
    pub fn armed(&self) -> bool {
        // ordering: relaxed — advisory read, display only.
        self.armed.load(Ordering::Relaxed)
    }

    /// Consults `point`'s trigger; true means the caller should inject
    /// the fault now. The fully-disarmed path is one relaxed load.
    #[inline]
    pub fn fire(&self, point: FaultPoint) -> bool {
        // ordering: relaxed — a disarm may race one in-flight fire; harmless.
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        self.fire_slow(point)
    }

    #[cold]
    fn fire_slow(&self, point: FaultPoint) -> bool {
        let state = &self.points[point.index()];
        // ordering: relaxed — a stale mode fires or skips one fault, never corrupts.
        let mode = state.mode.load(Ordering::Relaxed);
        if mode == MODE_OFF {
            return false;
        }
        // 1-based occurrence count: `n:3` fires on the 3rd, 6th, ...
        // ordering: relaxed — per-point counter; exact interleaving is immaterial.
        let occurrence = state.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = match mode {
            MODE_PROBABILITY => {
                // ordering: relaxed — published by armed before workers can get here.
                let p = f64::from_bits(state.threshold.load(Ordering::Relaxed));
                // Deterministic "randomness": hash the occurrence index so
                // a spec replays the same fault schedule every run.
                let h = splitmix64(occurrence ^ ((point.index() as u64) << 56));
                ((h >> 11) as f64 / (1u64 << 53) as f64) < p
            }
            MODE_EVERY_NTH => {
                // ordering: relaxed — published by armed before workers can get here.
                let n = state.threshold.load(Ordering::Relaxed).max(1);
                occurrence.is_multiple_of(n)
            }
            _ => false,
        };
        if hit {
            state.fired.inc();
        }
        hit
    }

    /// Sleeps for `point`'s configured duration if its trigger fires.
    /// For the sleeping points (`slow_scan`, `cache_lock_stall`).
    #[inline]
    pub fn sleep_if(&self, point: FaultPoint) {
        if self.fire(point) {
            // ordering: relaxed — published by armed before workers can get here.
            let ms = self.points[point.index()].sleep_ms.load(Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Panics with a recognizable message if `point`'s trigger fires.
    /// For the panicking points (`panic_in_scan`, `panic_in_worker`).
    #[inline]
    pub fn maybe_panic(&self, point: FaultPoint) {
        if self.fire(point) {
            panic!("injected fault: {}", point.name());
        }
    }

    /// `(point name, times fired)` for every point, in registry order —
    /// the metrics exposition's `simsub_fault_injections_total` series.
    pub fn fired_counts(&self) -> Vec<(String, u64)> {
        FAULT_POINTS
            .iter()
            .map(|&p| (p.name().to_string(), self.points[p.index()].fired.get()))
            .collect()
    }
}

/// Validates a fault spec without applying it anywhere — the admin
/// `configure` path checks specs up front so a bad one rejects the whole
/// update without changing any other knob.
pub fn validate_spec(spec: &str) -> Result<(), String> {
    parse_spec(spec).map(|_| ())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    Probability(f64),
    EveryNth(u64),
}

/// Parses the spec grammar (see the module docs). Returns one entry per
/// armed point; duplicate point names are an error.
fn parse_spec(spec: &str) -> Result<Vec<(FaultPoint, Trigger, u64)>, String> {
    let mut out: Vec<(FaultPoint, Trigger, u64)> = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, rest) = part
            .split_once('=')
            .ok_or_else(|| format!("fault '{part}': expected point=trigger"))?;
        let point = FaultPoint::from_name(name.trim()).ok_or_else(|| {
            let known: Vec<&str> = FAULT_POINTS.iter().map(|p| p.name()).collect();
            format!(
                "unknown fault point '{}' (known: {})",
                name.trim(),
                known.join(", ")
            )
        })?;
        if out.iter().any(|(p, _, _)| *p == point) {
            return Err(format!("fault point '{}' given twice", point.name()));
        }
        let mut fields = rest.split(':');
        let mode = fields.next().unwrap_or("").trim();
        let value = fields
            .next()
            .ok_or_else(|| format!("fault '{part}': trigger needs a value (p:0.5 or n:3)"))?
            .trim();
        let trigger = match mode {
            "p" => {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("fault '{part}': bad probability '{value}'"))?;
                if !p.is_finite() || !(0.0..=1.0).contains(&p) || p == 0.0 {
                    return Err(format!("fault '{part}': probability must be in (0, 1]"));
                }
                Trigger::Probability(p)
            }
            "n" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("fault '{part}': bad period '{value}'"))?;
                if n == 0 {
                    return Err(format!("fault '{part}': period must be >= 1"));
                }
                Trigger::EveryNth(n)
            }
            other => {
                return Err(format!(
                    "fault '{part}': unknown trigger mode '{other}' (p or n)"
                ))
            }
        };
        let ms = match fields.next() {
            None => DEFAULT_SLEEP_MS,
            Some(ms) => {
                if !point.sleeps() {
                    return Err(format!(
                        "fault '{part}': '{}' takes no sleep parameter",
                        point.name()
                    ));
                }
                let ms: u64 = ms
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault '{part}': bad sleep ms '{ms}'"))?;
                ms.min(MAX_SLEEP_MS)
            }
        };
        if fields.next().is_some() {
            return Err(format!("fault '{part}': too many ':' fields"));
        }
        out.push((point, trigger, ms));
    }
    Ok(out)
}

/// SplitMix64 — the standard 64-bit finalizer, good enough to turn a
/// counter into uniform-looking bits.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Mutex lock with poison recovery: a panic while holding the lock (the
/// whole point of fault injection) must not cascade into panics on every
/// other thread that touches it. The `lock-unwrap` lint rule bans inline
/// `unwrap`/`expect`/`unwrap_or_else` on serve-path locks, so this family
/// of helpers is the only sanctioned way to take one.
pub(crate) fn lock_recover<T>(lock: &Mutex<T>) -> crate::sync::MutexGuard<'_, T> {
    lock.lock()
        .unwrap_or_else(crate::sync::PoisonError::into_inner)
}

/// Non-blocking [`lock_recover`]: `None` while another thread holds the
/// lock, so a caller that must not wait (the reactor's admission cache
/// lookup) treats a held lock as "not now".
pub(crate) fn try_lock_recover<T>(lock: &Mutex<T>) -> Option<crate::sync::MutexGuard<'_, T>> {
    match lock.try_lock() {
        Ok(guard) => Some(guard),
        Err(crate::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(crate::sync::TryLockError::WouldBlock) => None,
    }
}

/// Shared-mode [`lock_recover`] for `RwLock` (see above for why poison is
/// recovered rather than propagated).
pub(crate) fn read_recover<T>(
    lock: &crate::sync::RwLock<T>,
) -> crate::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(crate::sync::PoisonError::into_inner)
}

/// Exclusive-mode [`lock_recover`] for `RwLock`.
pub(crate) fn write_recover<T>(
    lock: &crate::sync::RwLock<T>,
) -> crate::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(crate::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_disarmed_and_fires_nothing() {
        let reg = FaultRegistry::disarmed();
        assert!(!reg.armed());
        assert!(!reg.fire(FaultPoint::PanicInScan));
        reg.set_spec("").unwrap();
        assert!(!reg.armed());
        reg.set_spec("  ,  ").unwrap();
        assert!(!reg.armed());
        assert_eq!(reg.spec(), ",");
    }

    #[test]
    fn every_nth_fires_on_exact_cadence() {
        let reg = FaultRegistry::disarmed();
        reg.set_spec("panic_in_scan=n:3").unwrap();
        assert!(reg.armed());
        let fired: Vec<bool> = (0..9).map(|_| reg.fire(FaultPoint::PanicInScan)).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        // Other points stay off.
        assert!(!reg.fire(FaultPoint::SlowScan));
        assert_eq!(reg.fired_counts()[0], ("panic_in_scan".to_string(), 3));
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let a = FaultRegistry::disarmed();
        let b = FaultRegistry::disarmed();
        for reg in [&a, &b] {
            reg.set_spec("drop_response=p:0.3").unwrap();
        }
        let fire_a: Vec<bool> = (0..1000)
            .map(|_| a.fire(FaultPoint::DropResponse))
            .collect();
        let fire_b: Vec<bool> = (0..1000)
            .map(|_| b.fire(FaultPoint::DropResponse))
            .collect();
        assert_eq!(fire_a, fire_b, "probability schedule must be deterministic");
        let hits = fire_a.iter().filter(|&&f| f).count();
        assert!((200..400).contains(&hits), "p=0.3 fired {hits}/1000");
    }

    #[test]
    fn spec_parses_sleep_params_and_reconfigures_live() {
        let reg = FaultRegistry::disarmed();
        reg.set_spec("slow_scan=n:1:25,cache_lock_stall=p:1.0:5")
            .unwrap();
        assert_eq!(reg.spec(), "slow_scan=n:1:25,cache_lock_stall=p:1.0:5");
        assert!(reg.fire(FaultPoint::SlowScan));
        // Re-arming replaces the whole set: slow_scan goes off.
        reg.set_spec("panic_in_worker=n:2").unwrap();
        assert!(!reg.fire(FaultPoint::SlowScan));
        assert!(!reg.fire(FaultPoint::PanicInWorker));
        assert!(reg.fire(FaultPoint::PanicInWorker));
        // Disarm restores the zero-cost path.
        reg.set_spec("").unwrap();
        assert!(!reg.armed());
    }

    #[test]
    fn bad_specs_are_rejected_without_arming() {
        let reg = FaultRegistry::disarmed();
        for bad in [
            "nope=n:1",
            "panic_in_scan",
            "panic_in_scan=n:0",
            "panic_in_scan=p:0",
            "panic_in_scan=p:1.5",
            "panic_in_scan=p:nan",
            "panic_in_scan=x:1",
            "panic_in_scan=n:1:10",   // not a sleeping point
            "slow_scan=n:1:10:extra", // too many fields
            "slow_scan=n:1,slow_scan=n:2",
        ] {
            assert!(reg.set_spec(bad).is_err(), "accepted: {bad}");
            assert!(!reg.armed(), "bad spec armed the registry: {bad}");
        }
    }

    #[test]
    fn sleep_durations_are_capped() {
        let reg = FaultRegistry::disarmed();
        reg.set_spec("slow_scan=n:1:999999999").unwrap();
        let state = &reg.points[FaultPoint::SlowScan.index()];
        assert_eq!(state.sleep_ms.load(Ordering::Relaxed), MAX_SLEEP_MS); // ordering: relaxed — single-threaded test
    }
}
