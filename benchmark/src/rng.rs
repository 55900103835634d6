//! The generator's own random numbers.
//!
//! The benchmark does not use the workspace's `rand` stand-in: a later change
//! to that crate must not change the requests a given `--seed` produces.

/// xoshiro256++ seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        Rng([
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ])
    }

    /// An independent generator for sub-stream `stream` of `seed`, so that
    /// what one part of a workload draws never shifts another part's draws.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean (a Poisson process's gap).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Endless draws from `0..n` in which every value comes up equally often:
/// one seeded permutation after another.
pub struct Cycle {
    order: Vec<usize>,
    next: usize,
}

impl Cycle {
    pub fn new(n: usize) -> Self {
        Cycle {
            order: (0..n).collect(),
            next: n,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(Rng::stream(9, 1).next_u64(), Rng::stream(9, 2).next_u64());
        assert_ne!(Rng::new(9).next_u64(), Rng::new(10).next_u64());
    }

    #[test]
    fn cycle_draws_every_value_once_per_round() {
        let mut cycle = Cycle::new(7);
        let mut rng = Rng::new(1);
        let first: Vec<usize> = (0..7).map(|_| cycle.draw(&mut rng)).collect();
        let second: Vec<usize> = (0..7).map(|_| cycle.draw(&mut rng)).collect();
        for round in [&first, &second] {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4, 5, 6]);
        }
        assert_ne!(first, second);
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut rng = Rng::new(3);
        let mean = (0..50_000).map(|_| rng.exp(2.0)).sum::<f64>() / 50_000.0;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
