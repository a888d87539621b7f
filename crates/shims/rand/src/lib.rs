//! Offline shim for the subset of the `rand` 0.8 API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal, deterministic reimplementation: [`StdRng`](rngs::StdRng) is a
//! xoshiro256++ generator seeded via SplitMix64 (the same construction
//! `rand` itself documents for `seed_from_u64`), [`rngs::mock::StepRng`]
//! is the arithmetic-sequence mock, and the [`Rng`]/[`SeedableRng`]
//! traits cover `gen`, `gen_range`, `gen_bool` and `seed_from_u64`.
//! Streams differ numerically from upstream `rand`, but every consumer in
//! this repo relies only on determinism-given-seed and uniformity, not on
//! exact upstream values.

use std::ops::{Range, RangeInclusive};

/// Low-level source of random `u64`s.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its standard distribution
    /// (`[0, 1)` for floats, full range for integers, fair coin for bool).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        f64::sample(self) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Types samplable from the "standard" distribution (mirrors
/// `rand::distributions::Standard`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}
impl Standard for usize {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for f64 {
    /// 53 uniform mantissa bits mapped to `[0, 1)`.
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly (mirrors
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange {
    /// Element type produced by sampling.
    type Output;
    /// Draws one value from `rng`, panicking on an empty range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stands in for `rand::rngs::StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Mock generators.
    pub mod mock {
        use super::super::RngCore;

        /// Arithmetic-sequence mock generator (`rand::rngs::mock::StepRng`).
        #[derive(Debug, Clone)]
        pub struct StepRng {
            v: u64,
            step: u64,
        }

        impl StepRng {
            /// Starts at `initial`, advancing by `increment` per draw.
            pub fn new(initial: u64, increment: u64) -> Self {
                Self {
                    v: initial,
                    step: increment,
                }
            }
        }

        impl RngCore for StepRng {
            fn next_u64(&mut self) -> u64 {
                let out = self.v;
                self.v = self.v.wrapping_add(self.step);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            buckets[rng.gen_range(0usize..10)] += 1;
        }
        for &b in &buckets {
            assert!(
                (700..1300).contains(&b),
                "bucket count {b} far from uniform"
            );
        }
    }
}
