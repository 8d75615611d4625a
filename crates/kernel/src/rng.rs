//! Seedable random-number generation with independent per-component streams.

/// A deterministic random-number generator for simulation use.
///
/// `SimRng` is a self-contained xoshiro256++ generator (Blackman & Vigna)
/// with [`SimRng::fork`], which derives an independent child stream from a
/// parent seed and a stream label. Components (per-node workload
/// generators, the interconnect's jitter model, ...) each fork their own
/// stream so that adding a new consumer of randomness never perturbs the
/// draws seen by existing ones — a requirement for the perturbation-based
/// confidence-interval methodology the paper borrows from Alameldeen et al.
///
/// # Examples
///
/// ```
/// use patchsim_kernel::SimRng;
///
/// let mut a = SimRng::from_seed(1).fork(7);
/// let mut b = SimRng::from_seed(1).fork(7);
/// assert_eq!(a.below(1000), b.below(1000)); // same seed + stream => same draws
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

/// SplitMix64 step, used to mix seeds and stream ids into well-distributed
/// 64-bit values before seeding the underlying generator.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the root seed for perturbed replication `replication` of an
/// experiment whose base seed is `base`.
///
/// Replication 0 always returns `base` unchanged, so a single run of a
/// configuration is identical to the first run of a replicated batch.
/// Later replications mix `base` and `replication` through SplitMix64, so
/// adjacent base seeds never share replication streams (naive `base + i`
/// derivation makes seed 1/replication 1 collide with seed 2/replication
/// 0, silently correlating "independent" experiments).
///
/// # Examples
///
/// ```
/// use patchsim_kernel::replicate_seed;
///
/// assert_eq!(replicate_seed(7, 0), 7);
/// // Adjacent base seeds do not share streams.
/// assert_ne!(replicate_seed(1, 1), replicate_seed(2, 0));
/// assert_ne!(replicate_seed(1, 1), 2);
/// ```
pub fn replicate_seed(base: u64, replication: u64) -> u64 {
    if replication == 0 {
        base
    } else {
        stream_seed(base, replication)
    }
}

/// Derives the seed of an independent component stream from a base seed
/// and a stream label — the derivation behind [`SimRng::fork`], exposed
/// so layers that pass plain `u64` seeds (e.g. a fabric configuration)
/// can derive substreams without constructing a generator.
///
/// The result is a pure function of `(base, stream)`: deriving streams in
/// a different order, or adding a new stream label, never perturbs the
/// seeds of existing streams. Distinct labels yield uncorrelated seeds
/// even for adjacent bases.
///
/// # Examples
///
/// ```
/// use patchsim_kernel::{stream_seed, SimRng};
///
/// const FAULTS: u64 = 0x66_61_75_6c; // "faul"
/// let a = stream_seed(42, FAULTS);
/// // Identical to forking a generator with the same label.
/// assert_eq!(SimRng::from_seed(a).seed(), SimRng::from_seed(42).fork(FAULTS).seed());
/// assert_ne!(a, stream_seed(43, FAULTS));
/// ```
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ splitmix64(stream.wrapping_mul(0xA076_1D64_78BD_642F)))
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        // Expand the seed into four non-zero state words with SplitMix64,
        // the initialisation recommended by the xoshiro authors.
        let mut s = splitmix64(seed);
        let mut state = [0u64; 4];
        for w in &mut state {
            s = splitmix64(s);
            *w = s;
        }
        SimRng { seed, state }
    }

    /// Derives an independent child generator identified by `stream`.
    ///
    /// Forking is a pure function of `(seed, stream)`: it does not consume
    /// state from `self`, so the order in which components fork their
    /// streams does not matter.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::from_seed(stream_seed(self.seed, stream))
    }

    /// Returns the seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n = [s0, s1, s2, s3];
        n[2] ^= n[0];
        n[3] ^= n[1];
        n[1] ^= n[2];
        n[0] ^= n[3];
        n[2] ^= t;
        n[3] = n[3].rotate_left(45);
        self.state = n;
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Debiased multiply-shift rejection sampling (Lemire's method).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_seed_zero_is_identity() {
        for base in [0u64, 1, 42, u64::MAX] {
            assert_eq!(replicate_seed(base, 0), base);
        }
    }

    #[test]
    fn replicate_seed_streams_never_collide_across_adjacent_bases() {
        // The old `base + i` derivation made (base, i) and (base + 1, i - 1)
        // identical. Check a grid of nearby bases and replications for any
        // collision at all.
        let mut seen = std::collections::HashSet::new();
        for base in 0..16u64 {
            for rep in 0..16u64 {
                assert!(
                    seen.insert(replicate_seed(base, rep)),
                    "collision at base={base} rep={rep}"
                );
            }
        }
    }

    #[test]
    fn replicate_seed_is_not_additive() {
        assert_ne!(replicate_seed(1, 1), 2);
        assert_ne!(replicate_seed(10, 5), 15);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(99);
        let mut b = SimRng::from_seed(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should not track");
    }

    #[test]
    fn forked_streams_are_independent_of_fork_order() {
        let root = SimRng::from_seed(5);
        let mut a_then_b = (root.fork(1), root.fork(2));
        let root2 = SimRng::from_seed(5);
        let mut b_then_a = (root2.fork(2), root2.fork(1));
        assert_eq!(a_then_b.0.next_u64(), b_then_a.1.next_u64());
        assert_eq!(a_then_b.1.next_u64(), b_then_a.0.next_u64());
    }

    #[test]
    fn forked_streams_differ_from_each_other() {
        let root = SimRng::from_seed(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
        // bound of 1 always yields 0
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn below_covers_range() {
        let mut r = SimRng::from_seed(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SimRng::from_seed(23);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = SimRng::from_seed(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits} hits for p=0.3");
    }
}
