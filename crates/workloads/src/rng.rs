//! The pseudo-random generator behind every generated input:
//! xoshiro256++ (Blackman and Vigna) seeded through SplitMix64.
//!
//! Generated bytes are a pure function of the seed and of this file;
//! the generators' golden digests pin both.

/// xoshiro256++: 256 bits of state, a few cycles per 64-bit output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// A generator whose state is the first four SplitMix64 outputs
    /// from `seed`.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut state = seed;
        let mut splitmix = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 { s: [splitmix(), splitmix(), splitmix(), splitmix()] }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)`, from the top 53 bits of one draw.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in `[0, n)` by multiply-shift: the high word of one draw
    /// times `n` (bias below `n / 2^64`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot draw below zero");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The `[0, 1)` value [`Xoshiro256::next_f64`] makes of the draw `x`:
/// its top 53 bits, scaled.
pub(crate) fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_for_seed_one_are_the_known_answers() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
                0xbf08_119f_05cd_56d6
            ]
        );
    }

    #[test]
    fn draws_stay_in_range_and_follow_the_seed() {
        let (mut a, mut b) = (Xoshiro256::seed_from_u64(7), Xoshiro256::seed_from_u64(7));
        let mut c = Xoshiro256::seed_from_u64(8);
        let mut differs = false;
        for n in 1..2000u64 {
            let x = a.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert_eq!(x, b.next_f64());
            differs |= x != c.next_f64();
            let r = a.below(n);
            assert!(r < n);
            assert_eq!(r, b.below(n));
            c.below(n);
        }
        assert!(differs);
        assert_eq!(a.below(1), 0);
    }
}
