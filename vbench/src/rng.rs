//! The benchmark's own seeded generator (SplitMix64), kept here rather
//! than borrowed from the library so that a change to the library can
//! never change the benchmark's inputs.

/// A SplitMix64 stream: the same seed always yields the same sequence.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream started from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5642_454e_4348_2d31) // "VBENCH-1"
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
