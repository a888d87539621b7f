//! The engine's settings, each live knob declared once: the [`Knob`]
//! table gives its wire key, flag, [`KnobKind`], default and help line,
//! and every list of knobs walks [`Knob::ALL`]. A value is a number, as
//! the wire carries it. `workers` (fixed at start) and `faults` (a spec
//! string, armed in the [`crate::fault::FaultRegistry`]) are not knobs.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::ops::{Index, IndexMut};

/// Which values a knob takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnobKind {
    /// A whole number.
    Count,
    /// A whole number of at least 1.
    PositiveCount,
    /// A number in `[0, 1]`.
    Fraction,
}

/// Declares [`Knob`] from rows `Variant = "wire key", "flag", Kind,
/// default, "help line";`; the help line is also the variant's doc.
macro_rules! knobs {
    ($($variant:ident = $key:literal, $flag:literal, $kind:ident, $default:literal,
       $help:literal;)+) => {
        /// One live engine knob: a row of the table below.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Knob {
            $(#[doc = $help] $variant,)+
        }

        impl Knob {
            /// Every knob, in table order: the order of every knob list.
            pub const ALL: [Knob; [$($key),+].len()] = [$(Knob::$variant),+];
            const ROWS: [(&'static str, &'static str, KnobKind, f64, &'static str);
                Knob::ALL.len()] = [$(($key, $flag, KnobKind::$kind, $default as f64, $help)),+];
        }
    };
}

knobs! {
    CacheCapacity = "cache_capacity", "cache", Count, 4096,
        "result-cache entries (0 = no caching)";
    DefaultK = "default_k", "default-k", PositiveCount, 1,
        "k of a query that names none";
    SlowQueryUs = "slow_query_us", "slow-query-us", Count, 0,
        "log traces of queries slower than N µs (0 = off)";
    AuditSample = "audit_sample", "audit-sample", Fraction, 0.0,
        "audit fraction F of cold answers (0..=1)";
    MaxQueueDepth = "max_queue_depth", "max-queue-depth", Count, 0,
        "shed queries past N queued (0 = unbounded)";
    DefaultDeadlineMs = "default_deadline_ms", "default-deadline-ms", Count, 0,
        "deadline for queries without one (0 = none)";
}

impl Knob {
    /// The wire key, in `configure` and in the `info`/`configure` replies.
    pub const fn key(self) -> &'static str {
        Knob::ROWS[self as usize].0
    }

    /// The `serve`/`admin configure` flag, without `--`.
    pub const fn flag(self) -> &'static str {
        Knob::ROWS[self as usize].1
    }

    /// Which values the knob takes.
    pub const fn kind(self) -> KnobKind {
        Knob::ROWS[self as usize].2
    }

    /// The value when nothing sets it.
    pub const fn default_value(self) -> f64 {
        Knob::ROWS[self as usize].3
    }

    /// The usage line.
    pub const fn help(self) -> &'static str {
        Knob::ROWS[self as usize].4
    }

    /// `Ok` when the knob takes `value`, else why not, as an error says
    /// it after the knob's key or flag.
    pub fn check(self, value: f64) -> Result<(), &'static str> {
        let whole = value.fract() == 0.0;
        match self.kind() {
            KnobKind::Count if whole && value >= 0.0 => Ok(()),
            KnobKind::PositiveCount if whole && value >= 1.0 => Ok(()),
            KnobKind::Fraction if (0.0..=1.0).contains(&value) => Ok(()),
            KnobKind::Count => Err("must be a non-negative integer"),
            KnobKind::PositiveCount => Err("must be positive"),
            KnobKind::Fraction => Err("must be a fraction in [0, 1] (0 disables)"),
        }
    }
}

/// One `T` per [`Knob`], indexed by the knob.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerKnob<T>([T; Knob::ALL.len()]);

impl<T> PerKnob<T> {
    /// Each knob's entry, made by `f`.
    pub fn from_fn(f: impl FnMut(Knob) -> T) -> Self {
        Self(Knob::ALL.map(f))
    }
}

impl<T> Index<Knob> for PerKnob<T> {
    type Output = T;
    fn index(&self, knob: Knob) -> &T {
        &self.0[knob as usize]
    }
}

impl<T> IndexMut<Knob> for PerKnob<T> {
    fn index_mut(&mut self, knob: Knob) -> &mut T {
        &mut self.0[knob as usize]
    }
}

/// How an engine starts.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (≥ 1), fixed for the engine's life.
    pub workers: usize,
    /// Every knob's starting value.
    pub knobs: PerKnob<f64>,
    /// Fault-injection spec applied at start (see [`crate::fault`]).
    /// `None` (default) reads the `SIMSUB_FAULTS` environment hatch;
    /// `Some("")` forces a disarmed registry whatever the environment.
    pub faults: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            knobs: PerKnob::from_fn(Knob::default_value),
            faults: None,
        }
    }
}

impl EngineConfig {
    /// This configuration with `knob` starting at `value`.
    pub fn with(mut self, knob: Knob, value: impl Into<f64>) -> Self {
        self.knobs[knob] = value.into();
        self
    }
}

/// A live change to the knobs and the fault spec (`None` = unchanged),
/// for [`QueryEngine::configure`](crate::engine::QueryEngine::configure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigUpdate {
    /// The knobs to set.
    pub knobs: PerKnob<Option<f64>>,
    /// Fault-injection spec to arm (`""` disarms; see [`crate::fault`]).
    pub faults: Option<String>,
}

impl ConfigUpdate {
    /// This update, also setting `knob` to `value`.
    pub fn with(mut self, knob: Knob, value: impl Into<f64>) -> Self {
        self.knobs[knob] = Some(value.into());
        self
    }
}

/// Point-in-time view of the live engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigView {
    /// Worker threads (fixed at start).
    pub workers: usize,
    /// Entries currently cached.
    pub cache_len: usize,
    /// Every knob's current value.
    pub knobs: PerKnob<f64>,
    /// The fault-injection spec currently armed (empty = disarmed).
    pub faults: String,
}

/// The live knobs, one relaxed atomic (an `f64`'s bits) per [`Knob`],
/// so `configure` never blocks the dispatch path. The cache holds
/// [`Knob::CacheCapacity`] itself; its cell here keeps the start value
/// and is never read.
pub(crate) struct Runtime(PerKnob<AtomicU64>);

impl Runtime {
    pub(crate) fn new(knobs: &PerKnob<f64>) -> Self {
        Self(PerKnob::from_fn(|knob| {
            AtomicU64::new(knobs[knob].to_bits())
        }))
    }

    #[inline]
    pub(crate) fn get(&self, knob: Knob) -> f64 {
        // ordering: relaxed — independent config cell; readers may lag a configure.
        f64::from_bits(self.0[knob].load(Ordering::Relaxed))
    }

    pub(crate) fn set(&self, knob: Knob, value: f64) {
        // ordering: relaxed — independent config cell; readers may lag a configure.
        self.0[knob].store(value.to_bits(), Ordering::Relaxed);
    }
}
