//! Stand-in for the part of `rand` 0.8 this repository uses:
//! `SmallRng::seed_from_u64`, `Rng::gen::<f64 | u64 | u32>()` and
//! `Rng::gen_range(a..b)` over integers. The sandbox the benchmark is
//! built in has no crate registry, so the benchmark's manifest patches
//! this crate in.
//!
//! The generator is xoshiro256++ seeded through SplitMix64. Its streams
//! differ from the published crate's, so generated inputs differ from a
//! registry build byte for byte; they are still a pure function of the
//! seed, which is all the benchmark and the generators rely on.

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// An integer `Rng::gen_range` can draw from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "cannot sample an empty range");
                let span = (range.end - range.start) as u64;
                // Multiply-shift maps 64 random bits onto `span` values with a
                // bias below 2^-32 for the spans used here (≤ 2^32).
                let offset = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
                range.start + offset as $t
            }
        }
    )*};
}
sample_uniform!(u8, u16, u32, u64, usize);

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for SmallRng {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_values_stay_in_range() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let mut differs = false;
        for _ in 0..1000 {
            let x: f64 = a.gen();
            assert!((0.0..1.0).contains(&x));
            assert_eq!(x, b.gen::<f64>());
            differs |= x != c.gen::<f64>();
            let r = a.gen_range(3usize..95);
            assert!((3..95).contains(&r));
            assert_eq!(r, b.gen_range(3usize..95));
            c.gen_range(3usize..95);
        }
        assert!(differs);
    }
}
