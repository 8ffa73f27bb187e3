//! Order statistics and the seeded generator every workload draws from.

/// Linear-interpolation percentile (`q` in `[0, 1]`) of `samples`;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was measured (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a small, seedable generator, so a workload's inputs,
/// schedule and fault plan depend on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`: distinct streams of one
    /// seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded deck: draws its cards without replacement and starts over
/// when it runs out, so every run of a workload holds each card's exact
/// share while the order stays random.
pub struct Deck {
    cards: Vec<usize>,
    left: usize,
}

impl Deck {
    pub fn new(cards: Vec<usize>) -> Deck {
        Deck { cards, left: 0 }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.left == 0 {
            self.left = self.cards.len();
        }
        let j = rng.below(self.left);
        self.left -= 1;
        self.cards.swap(j, self.left);
        self.cards[self.left]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.875), 4.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_repeats_under_a_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
    }

    #[test]
    fn deck_holds_exact_shares() {
        let (mut deck, mut rng) = (Deck::new(vec![0, 1, 1, 2]), Rng::new(3, 0));
        let mut counts = [0; 3];
        for _ in 0..40 {
            counts[deck.draw(&mut rng)] += 1;
        }
        assert_eq!(counts, [10, 20, 10]);
    }
}
