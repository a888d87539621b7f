//! The calibration kernel that brackets every round.
//!
//! This box drifts between machine-speed modes ~25 % apart that last
//! minutes (see README, "Noise findings"), so raw timings from two runs
//! are not comparable. Each round is therefore bracketed by a fixed,
//! harness-owned CPU kernel — an f64 DTW-style DP that shares no code
//! with the repo — and every timed end-to-end value is rescaled to
//! "reference machine speed": `speed = CALIB_REF_MS / mean(before, after)`.

use std::hint::black_box;
use std::time::Instant;

const N: usize = 40_000;
const M: usize = 64;
/// Passes over the `N × M` DP per sample; sized for ≥ 0.4 s per sample.
const PASSES: usize = 64;

/// Milliseconds one sample takes at reference machine speed. Frozen: a
/// change rescales every normalised metric and voids committed baselines.
pub const CALIB_REF_MS: f64 = 420.0;

/// A round whose bracketing samples differ by more than this is unstable.
pub const UNSTABLE_REL_DIFF: f64 = 0.08;

pub struct Calibrator {
    a: Vec<f64>,
    b: Vec<f64>,
    prev: Vec<f64>,
    cur: Vec<f64>,
    passes: usize,
}

/// What the bracketing samples say about one stretch of the run.
pub struct Speed {
    /// Reference time over measured time: below 1 on a slow machine.
    pub factor: f64,
    /// `|before - after|` over their mean.
    pub rel_diff: f64,
    pub stable: bool,
}

impl Calibrator {
    /// `quick` shrinks the sample to a schema-check-sized blip.
    pub fn new(quick: bool) -> Self {
        // Fixed LCG inputs: the kernel's work never depends on the run seed.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let a = (0..N).map(|_| next() * 10.0).collect();
        let b = (0..M).map(|_| next() * 10.0).collect();
        Self {
            a,
            b,
            prev: vec![0.0; M],
            cur: vec![0.0; M],
            passes: if quick { 1 } else { PASSES },
        }
    }

    /// Runs the fixed kernel once and returns its wall time in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..self.passes {
            acc += self.pass();
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    fn pass(&mut self) -> f64 {
        let (a, b) = (black_box(&self.a), &self.b);
        self.prev.fill(f64::INFINITY);
        let mut corner = 0.0f64; // D[-1][-1]
        for &x in a {
            let mut left = f64::INFINITY;
            let mut diag = corner;
            for ((&y, &up), cur) in b.iter().zip(&self.prev).zip(&mut self.cur) {
                let v = (x - y).abs() + diag.min(up).min(left);
                *cur = v;
                diag = up;
                left = v;
            }
            corner = f64::INFINITY;
            std::mem::swap(&mut self.prev, &mut self.cur);
        }
        self.prev[M - 1]
    }
}

impl Calibrator {
    /// Machine speed over a stretch bracketed by two samples.
    pub fn speed(&self, before_ms: f64, after_ms: f64) -> Speed {
        let mean = (before_ms + after_ms) / 2.0;
        let rel_diff = (before_ms - after_ms).abs() / mean;
        Speed {
            // A quick calibrator runs fewer passes; its reference shrinks alike.
            factor: CALIB_REF_MS * self.passes as f64 / PASSES as f64 / mean,
            rel_diff,
            stable: rel_diff <= UNSTABLE_REL_DIFF,
        }
    }
}
