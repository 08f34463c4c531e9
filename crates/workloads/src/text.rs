//! Zipf-distributed text corpus generation for word count.
//!
//! Word count's defining property in the paper is key skew: "applications
//! like word count … have many pairs with the same key because the large
//! input set is transformed into a much smaller intermediate set" — that
//! is why Phoenix++'s hash container (with a combiner) suits it. Natural
//! language is approximately Zipfian, so the generator samples words from
//! a synthetic vocabulary with probability ∝ 1/rank^s and wraps them into
//! newline-terminated lines.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`TextGen`].
#[derive(Debug, Clone)]
pub struct TextGenConfig {
    /// Vocabulary size (number of distinct words).
    pub vocabulary: usize,
    /// Zipf exponent `s` (1.0 ≈ natural language; 0.0 = uniform).
    pub exponent: f64,
    /// Target line length in bytes before the newline.
    pub line_len: usize,
}

impl Default for TextGenConfig {
    fn default() -> Self {
        TextGenConfig { vocabulary: 10_000, exponent: 1.0, line_len: 80 }
    }
}

/// Deterministic Zipf text generator.
#[derive(Debug, Clone)]
pub struct TextGen {
    config: TextGenConfig,
    /// Cumulative probability table over word ranks.
    cdf: Vec<f64>,
    /// `guide[s]` is how many CDF entries lie below `s / GUIDE_SLOTS`:
    /// a draw in slot `s` has its rank between `guide[s]` and
    /// `guide[s + 1]`.
    guide: Vec<usize>,
    words: Vec<String>,
}

/// Slots of the guide table. A power of two, so that a draw's slot and
/// the slots' boundaries are exact in floating point.
const GUIDE_SLOTS: usize = 4096;

impl TextGen {
    /// Build a generator (precomputes the vocabulary and Zipf CDF).
    ///
    /// # Panics
    /// Panics if the vocabulary is empty or the line length is zero.
    pub fn new(config: TextGenConfig) -> TextGen {
        assert!(config.vocabulary > 0, "vocabulary must be non-empty");
        assert!(config.line_len > 0, "line length must be non-zero");
        let mut weights: Vec<f64> =
            (1..=config.vocabulary).map(|rank| 1.0 / (rank as f64).powf(config.exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        let cdf = weights;
        let guide = (0..=GUIDE_SLOTS)
            .map(|slot| cdf.partition_point(|&c| c < slot as f64 / GUIDE_SLOTS as f64))
            .collect();
        let words = (0..config.vocabulary).map(synthetic_word).collect();
        TextGen { config, cdf, guide, words }
    }

    /// The vocabulary, most frequent first.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Sample one word rank.
    fn sample_rank(&self, rng: &mut SmallRng) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a draw `u` in `[0, 1)` selects: how many CDF entries lie
    /// below it — a binary search over the CDF, narrowed by the guide
    /// table to the few entries `u`'s slot can select.
    fn rank_of(&self, u: f64) -> usize {
        let slot = (u * GUIDE_SLOTS as f64) as usize;
        let (from, to) = (self.guide[slot], self.guide[slot + 1]);
        let rank = from + self.cdf[from..to].partition_point(|&c| c < u);
        rank.min(self.config.vocabulary - 1)
    }

    /// Generate approximately `total_bytes` of newline-terminated text
    /// (always ends with `\n`, may overshoot by up to one word).
    pub fn generate_bytes(&self, seed: u64, total_bytes: usize) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(total_bytes + 16);
        let mut line_start = 0usize;
        while out.len() < total_bytes {
            let word = &self.words[self.sample_rank(&mut rng)];
            if out.len() > line_start {
                // Continue the line or wrap.
                if out.len() - line_start + word.len() >= self.config.line_len {
                    out.push(b'\n');
                    line_start = out.len();
                } else {
                    out.push(b' ');
                }
            }
            out.extend_from_slice(word.as_bytes());
        }
        out.push(b'\n');
        out
    }

    /// Exact expected relative frequency of the rank-`r` word (0-based).
    pub fn expected_frequency(&self, r: usize) -> f64 {
        let prev = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - prev
    }
}

/// Deterministic pronounceable-ish word for a vocabulary rank.
fn synthetic_word(rank: usize) -> String {
    const CONSONANTS: &[u8] = b"bcdfghjklmnpqrstvwz";
    const VOWELS: &[u8] = b"aeiou";
    let mut w = String::new();
    let mut x = rank + 1;
    loop {
        w.push(CONSONANTS[x % CONSONANTS.len()] as char);
        w.push(VOWELS[(x / CONSONANTS.len()) % VOWELS.len()] as char);
        x /= CONSONANTS.len() * VOWELS.len();
        if x == 0 {
            break;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn words_are_distinct() {
        let g = TextGen::new(TextGenConfig { vocabulary: 5000, ..Default::default() });
        let mut set = std::collections::HashSet::new();
        for w in g.words() {
            assert!(set.insert(w.clone()), "duplicate word {w}");
            assert!(w.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn guide_table_selects_what_the_whole_cdf_would() {
        for (vocabulary, exponent) in [(10_000, 1.0), (1, 1.0), (7, 0.0), (50_000, 1.4)] {
            let g = TextGen::new(TextGenConfig { vocabulary, exponent, line_len: 80 });
            let whole = |u: f64| g.cdf.partition_point(|&c| c < u).min(vocabulary - 1);
            // A regular sweep, and every CDF value with its two
            // neighbours — where a rank begins and the previous ends.
            let sweep = (0..1 << 16).map(|i| f64::from(i) / f64::from(1 << 16));
            let edges = g.cdf.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]);
            for u in sweep.chain(edges).filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(g.rank_of(u), whole(u), "vocabulary {vocabulary}, draw {u}");
            }
        }
    }

    #[test]
    fn generated_bytes_match_the_golden_digests() {
        // The benchmark's reference outputs are computed from these
        // bytes. They are a function of the `rand` in use: the digests
        // are those of the stand-in the benchmark is built with
        // (`benchmark/stubs/rand`), recognised by its first output; the
        // published crate seeds `SmallRng` differently.
        if SmallRng::seed_from_u64(1).gen::<u64>() != STAND_IN_FIRST_DRAW {
            return;
        }
        let g = TextGen::new(TextGenConfig::default());
        let fnv1a = |bytes: &[u8]| {
            bytes
                .iter()
                .fold(0xcbf29ce484222325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
        };
        for (seed, len, digest) in GOLDEN {
            let text = g.generate_bytes(seed, 1 << 20);
            assert_eq!((text.len(), fnv1a(&text)), (len, digest), "seed {seed}");
        }
    }

    const STAND_IN_FIRST_DRAW: u64 = 0xcfc5_d07f_6f03_c29b;
    /// `(seed, length, FNV-1a)` of `generate_bytes(seed, 1 << 20)`.
    const GOLDEN: [(u64, usize, u64); 2] =
        [(1, 1_048_579, 0x420b_fb71_e239_634f), (42, 1_048_577, 0x6294_a8f7_436d_40cf)];

    #[test]
    fn generation_is_deterministic() {
        let g = TextGen::new(TextGenConfig::default());
        assert_eq!(g.generate_bytes(1, 5000), g.generate_bytes(1, 5000));
        assert_ne!(g.generate_bytes(1, 5000), g.generate_bytes(2, 5000));
    }

    #[test]
    fn output_is_newline_terminated_lines_of_bounded_length() {
        let config = TextGenConfig { line_len: 40, ..Default::default() };
        let g = TextGen::new(config);
        let text = g.generate_bytes(9, 10_000);
        assert_eq!(*text.last().unwrap(), b'\n');
        for line in text.split(|&b| b == b'\n') {
            assert!(line.len() <= 40 + 24, "line too long: {}", line.len());
        }
    }

    #[test]
    fn size_is_approximately_requested() {
        let g = TextGen::new(TextGenConfig::default());
        let text = g.generate_bytes(3, 50_000);
        assert!(text.len() >= 50_000);
        assert!(text.len() < 50_000 + 64);
    }

    #[test]
    fn frequencies_are_zipf_skewed() {
        let g = TextGen::new(TextGenConfig { vocabulary: 1000, exponent: 1.0, line_len: 80 });
        let text = g.generate_bytes(42, 200_000);
        let mut counts: HashMap<&[u8], usize> = HashMap::new();
        for line in text.split(|&b| b == b'\n') {
            for word in line.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                *counts.entry(word).or_default() += 1;
            }
        }
        let top = g.words()[0].as_bytes();
        let mid = g.words()[99].as_bytes();
        let top_count = counts.get(top).copied().unwrap_or(0);
        let mid_count = counts.get(mid).copied().unwrap_or(0);
        // Rank 1 vs rank 100 should differ by roughly 100x; allow wide
        // slack for sampling noise.
        assert!(
            top_count > mid_count * 20,
            "rank0 = {top_count}, rank99 = {mid_count}: not Zipfian"
        );
    }

    #[test]
    fn uniform_exponent_flattens_distribution() {
        let g = TextGen::new(TextGenConfig { vocabulary: 100, exponent: 0.0, line_len: 80 });
        assert!((g.expected_frequency(0) - 0.01).abs() < 1e-9);
        assert!((g.expected_frequency(99) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn expected_frequencies_sum_to_one() {
        let g = TextGen::new(TextGenConfig { vocabulary: 333, exponent: 1.3, line_len: 80 });
        let sum: f64 = (0..333).map(|r| g.expected_frequency(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "vocabulary")]
    fn empty_vocabulary_rejected() {
        TextGen::new(TextGenConfig { vocabulary: 0, ..Default::default() });
    }
}
