//! A small deterministic RNG for use *inside simulation object state*.
//!
//! Model behaviour that depends on randomness must keep its generator in
//! the object's saved state: a rollback then restores the generator along
//! with everything else, so re-execution reproduces the original draws
//! (which is precisely what makes lazy cancellation hit). An external RNG
//! (thread-local, OS entropy) would silently break the Time Warp
//! correctness contract.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood 2014): 64-bit state,
//! full period, excellent avalanche, and — importantly here — trivially
//! `Clone` and byte-stable across platforms.

use crate::error::KernelError;
use crate::wire::{PayloadReader, PayloadWriter};
use serde::{Deserialize, Serialize};

/// Deterministic, cloneable, serializable RNG for simulation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Seed the generator. Distinct seeds give independent-looking streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Derive an independent stream for a sub-entity (e.g. per object id).
    /// Mixing the label through one SplitMix64 step decorrelates streams
    /// even for adjacent labels.
    #[inline]
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut r = SimRng::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let _ = r.next_u64();
        r
    }

    /// Append the generator's canonical encoding (its state word), for
    /// the object states that carry one.
    pub fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.state);
    }

    /// Decode a generator written by [`encode`](Self::encode).
    pub fn decode(r: &mut PayloadReader<'_>) -> Result<Self, KernelError> {
        Ok(SimRng { state: r.u64()? })
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, bound)`. Panics if `bound == 0`.
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= lo.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed draw with the given mean, rounded up to
    /// at least one tick so events always move time forward.
    #[inline]
    pub fn exp_ticks(&mut self, mean: f64) -> u64 {
        let u = 1.0 - self.unit_f64(); // in (0, 1]
        let x = -mean * u.ln();
        (x.max(1.0)).round() as u64
    }

    /// Uniform draw from an inclusive integer range.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_the_stream_position() {
        let mut a = SimRng::derive(9, 4);
        a.next_u64();
        let mut w = PayloadWriter::new();
        a.encode(&mut w);
        let bytes = w.finish();
        let mut b = SimRng::decode(&mut PayloadReader::new(&bytes)).unwrap();
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(SimRng::decode(&mut PayloadReader::new(&bytes[..7])).is_err());
    }

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_replays_exactly() {
        let mut a = SimRng::new(7);
        let _ = a.next_u64();
        let mut snapshot = a;
        let tail: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let replay: Vec<u64> = (0..16).map(|_| snapshot.next_u64()).collect();
        assert_eq!(tail, replay, "a rolled-back RNG must reproduce its draws");
    }

    #[test]
    fn below_is_in_bounds_and_varied() {
        let mut r = SimRng::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear in 1000 draws"
        );
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut r = SimRng::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.9)).count();
        assert!((8800..=9200).contains(&hits), "got {hits} hits for p=0.9");
    }

    #[test]
    fn exp_ticks_positive_with_sane_mean() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.exp_ticks(50.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((40.0..60.0).contains(&mean), "sample mean {mean}");
    }

    #[test]
    fn derive_gives_distinct_streams() {
        let mut a = SimRng::derive(9, 0);
        let mut b = SimRng::derive(9, 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_inclusive() {
        let mut r = SimRng::new(2);
        for _ in 0..200 {
            let v = r.range(5, 7);
            assert!((5..=7).contains(&v));
        }
    }
}
