//! Pseudo-random number generation: SplitMix64 (seeding) and xoshiro256++
//! (bulk generation), with jump functions for independent parallel streams.
//!
//! These generators are tiny, allocation-free and reproducible across
//! platforms, which matters for the tile-parallel sample-matrix generation: the
//! random tile `R_{(r,k)}` must not depend on which worker thread generates it.

/// SplitMix64 — used to expand a single `u64` seed into the 256-bit xoshiro
/// state (and usable as a standalone quick generator).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 — the general-purpose generator used throughout the
/// workspace for Monte-Carlo sampling and random shifts.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Create a generator whose 256-bit state is expanded from `seed` via
    /// SplitMix64 (the seeding procedure recommended by the xoshiro authors).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in s.iter_mut() {
            *slot = sm.next_u64();
        }
        // Guard against the (astronomically unlikely) all-zero state.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    #[inline]
    fn rotl(x: u64, k: u32) -> u64 {
        x.rotate_left(k)
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = Self::rotl(self.s[3], 45);
        result
    }

    /// Uniform double in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal variate via the polar (Marsaglia) method.
    pub fn next_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Jump ahead by 2^128 steps, giving a stream that does not overlap the
    /// current one for any realistic amount of generation (the step of
    /// [`stream`](Self::stream)).
    fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180ec6d33cfd0aba,
            0xd5a61266f0c9392c,
            0xa9582618e03fc9aa,
            0x39abdc4529b1661c,
        ];
        let mut s = [0u64; 4];
        for &j in JUMP.iter() {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = s;
    }

    /// Derive the `k`-th independent stream from this generator state: clone
    /// and apply `k+1` jumps.
    pub fn stream(&self, k: usize) -> Self {
        let mut g = self.clone();
        for _ in 0..=k {
            g.jump();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_sequence_is_deterministic() {
        let mut a = SplitMix64::new(12345);
        let mut b = SplitMix64::new(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(12346);
        assert_ne!(SplitMix64::new(12345).next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_uniform_in_unit_interval_and_mean_half() {
        let mut rng = Xoshiro256pp::seed_from(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn xoshiro_normal_moments() {
        let mut rng = Xoshiro256pp::seed_from(11);
        let n = 200_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.next_normal();
            s1 += z;
            s2 += z * z;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn jumped_streams_differ_and_are_reproducible() {
        let base = Xoshiro256pp::seed_from(3);
        let mut s0 = base.stream(0);
        let mut s1 = base.stream(1);
        let mut s0b = base.stream(0);
        let a: Vec<u64> = (0..10).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..10).map(|_| s1.next_u64()).collect();
        let a2: Vec<u64> = (0..10).map(|_| s0b.next_u64()).collect();
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_seed_does_not_produce_degenerate_stream() {
        let mut rng = Xoshiro256pp::seed_from(0);
        let vals: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }
}
