//! Zipf-distributed text corpus generation for word count.
//!
//! Word count's defining property in the paper is key skew: "applications
//! like word count … have many pairs with the same key because the large
//! input set is transformed into a much smaller intermediate set" — that
//! is why Phoenix++'s hash container (with a combiner) suits it. Natural
//! language is approximately Zipfian, so the generator samples words from
//! a synthetic vocabulary with probability ∝ 1/rank^s and wraps them into
//! newline-terminated lines.

use crate::rng::{unit_f64, Xoshiro256};
use std::sync::OnceLock;

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
///
/// Each word takes one 64-bit draw and selects the rank of the first CDF
/// entry at or above the draw's `[0, 1)` value. The draw's top 16 bits
/// name one of 65 536 guide slots. Most slots hold no CDF entry or one,
/// and their guide entry alone gives the rank: the count of entries
/// below the slot, plus one if the draw lies above the slot's entry.
#[derive(Debug, Clone)]
pub struct TextGen {
    config: TextGenConfig,
    /// Cumulative probability table over word ranks.
    cdf: Vec<f64>,
    /// Per slot `s`, from the low bit up: a flag set when the slot holds
    /// two CDF entries or more; [`FROM_BITS`] bits counting the entries
    /// below `s / GUIDE_SLOTS`; and the offset in the slot of its one
    /// entry, or the largest offset if the slot holds none.
    guide: Box<[u64; GUIDE_SLOTS + 1]>,
    /// The vocabulary as strings, built on the first call to
    /// [`TextGen::words`]: generating text reads only `packed`.
    words: OnceLock<Vec<String>>,
    /// Per rank, one `width`-byte slot: a space, the word, padding, and
    /// in the last byte the word's length. Rank `vocabulary` repeats the
    /// last word: a draw above the CDF's last entry selects it.
    packed: Vec<u8>,
    /// The longest word plus two, rounded up to 8.
    width: usize,
}

/// Bits of a draw that name its guide slot.
const GUIDE_BITS: u32 = 16;

/// Slots of the guide table. A power of two, so that a draw's slot and
/// the slots' boundaries are exact in floating point.
const GUIDE_SLOTS: usize = 1 << GUIDE_BITS;

/// Bits of an offset in a slot, in units of 2⁻⁵³: [`unit_f64`] keeps a
/// draw's top 53 bits, and the slot takes the top 16 of those.
const OFFSET_BITS: u32 = 53 - GUIDE_BITS;

/// Bits of a guide entry that count CDF entries: the largest vocabulary
/// is `2^FROM_BITS - 1` words.
const FROM_BITS: u32 = 26;

impl TextGen {
    /// Build a generator (precomputes the vocabulary and Zipf CDF).
    ///
    /// # Panics
    /// Panics if the vocabulary is empty or holds 2²⁶ words or more, or
    /// if the line length is zero.
    pub fn new(config: TextGenConfig) -> TextGen {
        assert!(config.vocabulary > 0, "vocabulary must be non-empty");
        assert!(config.vocabulary < 1 << FROM_BITS, "vocabulary must hold fewer than 2^26 words");
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
        let vocabulary = config.vocabulary;

        // An entry `c` lies below the start `s / GUIDE_SLOTS` exactly when
        // its slot, `c * GUIDE_SLOTS` rounded down, is below `s`; one at or
        // above 1 lies below none. The CDF never falls, so each run of
        // entries sharing a slot sets the count of every slot up to theirs.
        // A draw is a whole number of 2⁻⁵³ units, so it lies above a lone
        // entry exactly when its offset exceeds the entry's, rounded down.
        let slot_of =
            |c: f64| if c < 1.0 { (c * GUIDE_SLOTS as f64) as usize } else { GUIDE_SLOTS };
        let entry = |below: usize, offset: u64| offset << (1 + FROM_BITS) | (below as u64) << 1;
        let empty = |below| entry(below, (1 << OFFSET_BITS) - 1);
        let mut guide = Vec::with_capacity(GUIDE_SLOTS + 1);
        let mut below = 0;
        for run in cdf.chunk_by(|&a, &b| slot_of(a) == slot_of(b)) {
            let slot = slot_of(run[0]);
            guide.resize(slot, empty(below));
            guide.push(match run {
                [c] => entry(below, (c * (1u64 << 53) as f64) as u64 & ((1 << OFFSET_BITS) - 1)),
                _ => empty(below) | 1,
            });
            below += run.len();
        }
        guide.resize(GUIDE_SLOTS + 1, empty(below));
        let guide = guide.into_boxed_slice().try_into().expect("GUIDE_SLOTS + 1 entries");

        // Fewer than 2^26 words spell at most eight letters: slots of 8 or
        // 16 bytes. Ranks only lengthen words, so the last is the longest.
        let width = (spell(vocabulary - 1, &mut [0; 16]) + 2).next_multiple_of(8);
        let mut packed = vec![0u8; (vocabulary + 1) * width];
        for (rank, slot) in packed.chunks_exact_mut(width).enumerate() {
            slot[0] = b' ';
            slot[width - 1] = spell(rank.min(vocabulary - 1), &mut slot[1..]) as u8;
        }
        TextGen { config, cdf, guide, words: OnceLock::new(), packed, width }
    }

    /// The vocabulary, most frequent first.
    pub fn words(&self) -> &[String] {
        self.words.get_or_init(|| {
            let slots = self.packed.chunks_exact(self.width).take(self.config.vocabulary);
            let word = |slot: &[u8]| slot[1..=usize::from(slot[self.width - 1])].to_vec();
            slots.map(|slot| String::from_utf8(word(slot)).expect("ASCII letters")).collect()
        })
    }

    /// The rank the 64-bit draw `x` selects: how many CDF entries lie
    /// below `u`, the `[0, 1)` value [`Xoshiro256::next_f64`] makes of
    /// `x`. That is `vocabulary` when `u` lies above the CDF's last
    /// entry, which rounding can leave just below 1.
    #[inline]
    fn rank_of(&self, x: u64) -> usize {
        let below = |entry: u64| (entry >> 1 & ((1 << FROM_BITS) - 1)) as usize;
        let slot = (x >> (64 - GUIDE_BITS)) as usize;
        let entry = self.guide[slot];
        if entry & 1 == 0 {
            // The draw's offset in its slot: the bits `unit_f64` keeps,
            // less the slot's.
            let offset = x >> 11 & ((1 << OFFSET_BITS) - 1);
            below(entry) + usize::from(offset > entry >> (1 + FROM_BITS))
        } else {
            // Every entry from the next slot's count on is at least
            // `(slot + 1) / GUIDE_SLOTS`, above `u`.
            let (from, to) = (below(entry), below(self.guide[slot + 1]));
            let u = unit_f64(x);
            from + self.cdf[from..to].partition_point(|&c| c < u)
        }
    }

    /// Generate approximately `total_bytes` of newline-terminated text
    /// (always ends with `\n`, may overshoot by up to one word).
    pub fn generate_bytes(&self, seed: u64, total_bytes: usize) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut out = vec![0u8; total_bytes + self.width];
        let len = match self.width {
            8 => self.fill::<8>(&mut rng, &mut out, total_bytes),
            16 => self.fill::<16>(&mut rng, &mut out, total_bytes),
            width => unreachable!("{width}-byte words"),
        };
        out.truncate(len);
        out
    }

    /// Write words drawn from `rng` into `out` until it holds at least
    /// `total_bytes`, then a newline; returns the bytes written. Each
    /// word goes out as its whole `W`-byte slot, separator first, and
    /// the next word overwrites the slot's tail, so `out` holds
    /// `total_bytes + W`.
    fn fill<const W: usize>(
        &self,
        rng: &mut Xoshiro256,
        out: &mut [u8],
        total_bytes: usize,
    ) -> usize {
        let (slots, _) = self.packed.as_chunks::<W>();
        let slot = |rank: usize| slots[rank];
        let mut len = 0;
        if total_bytes > 0 {
            let word = slot(self.rank_of(rng.next_u64()));
            out[..W - 1].copy_from_slice(&word[1..]);
            len = usize::from(word[W - 1]);
        }
        let mut line_start = 0;
        while len < total_bytes {
            let mut word = slot(self.rank_of(rng.next_u64()));
            let word_len = usize::from(word[W - 1]);
            // Continue the line or wrap.
            let wrap = len - line_start + word_len >= self.config.line_len;
            word[0] = if wrap { b'\n' } else { b' ' };
            out[len..len + W].copy_from_slice(&word);
            line_start = if wrap { len + 1 } else { line_start };
            len += 1 + word_len;
        }
        out[len] = b'\n';
        len + 1
    }

    /// Exact expected relative frequency of the rank-`r` word (0-based).
    pub fn expected_frequency(&self, r: usize) -> f64 {
        let prev = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - prev
    }
}

/// Write the deterministic pronounceable-ish word for a vocabulary rank
/// into `to` and return its length: a consonant and a vowel per base-95
/// digit of `rank + 1`, lowest digit first.
fn spell(rank: usize, to: &mut [u8]) -> usize {
    const CONSONANTS: &[u8] = b"bcdfghjklmnpqrstvwz";
    const VOWELS: &[u8] = b"aeiou";
    let (mut x, mut len) = (rank + 1, 0);
    while x > 0 {
        to[len] = CONSONANTS[x % CONSONANTS.len()];
        to[len + 1] = VOWELS[(x / CONSONANTS.len()) % VOWELS.len()];
        x /= CONSONANTS.len() * VOWELS.len();
        len += 2;
    }
    len
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

    /// How many CDF entries lie below `u`, capped at the last rank: a
    /// binary search over the whole CDF, as the generator made before its
    /// guide entries held ranks.
    fn oracle_rank(g: &TextGen, u: f64) -> usize {
        g.cdf.partition_point(|&c| c < u).min(g.config.vocabulary - 1)
    }

    /// The generator as a plain loop over [`oracle_rank`]: one `f64` draw
    /// per word, pushed onto a growing buffer.
    fn oracle_generate(g: &TextGen, seed: u64, total_bytes: usize) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut line_start = 0usize;
        while out.len() < total_bytes {
            let word = &g.words()[oracle_rank(g, rng.next_f64())];
            if out.len() > line_start {
                if out.len() - line_start + word.len() >= g.config.line_len {
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

    /// The draws whose [`unit_f64`] values lie nearest `u`.
    fn draws_near(u: f64) -> impl Iterator<Item = u64> {
        let k = (u * (1u64 << 53) as f64) as u64;
        [k.saturating_sub(1), k, k + 1].into_iter().filter(|&k| k < 1 << 53).map(|k| k << 11)
    }

    #[test]
    fn guide_table_selects_what_the_whole_cdf_would() {
        // The three large vocabularies leave slots with several entries,
        // which fall back to a search. Seven equal weights sum to just
        // below 1, so the largest draws lie above the last CDF entry and
        // select the rank past it, which must spell the last word.
        for (vocabulary, exponent) in
            [(10_000, 1.0), (1, 1.0), (7, 0.0), (50_000, 1.4), (60_000, 2.0), (3, 0.0)]
        {
            let g = TextGen::new(TextGenConfig { vocabulary, exponent, line_len: 80 });
            let searched = g.guide.iter().any(|entry| entry & 1 == 1);
            assert_eq!(searched, vocabulary >= 10_000, "vocabulary {vocabulary}: searched slots");
            if vocabulary == 7 {
                assert!(g.cdf[6] < 1.0 && g.rank_of(u64::MAX) == 7);
            }
            // Every slot's first, middle and last draw; every CDF value
            // with its two neighbours — where a rank begins and the
            // previous ends; and the largest draw, `u` just below 1.
            let span = 1u64 << (64 - GUIDE_BITS);
            let slots = (0..GUIDE_SLOTS as u64)
                .flat_map(|s| [s * span, s * span + span / 2, s * span + (span - 1)]);
            let edges = g
                .cdf
                .iter()
                .flat_map(|&c| [c.next_down(), c, c.next_up()])
                .filter(|u| (0.0..1.0).contains(u))
                .flat_map(draws_near);
            for x in slots.chain(edges).chain([u64::MAX]) {
                let (rank, u) = (g.rank_of(x), unit_f64(x));
                assert!(rank <= vocabulary, "vocabulary {vocabulary}, draw {x:#x}: rank {rank}");
                assert_eq!(
                    rank.min(vocabulary - 1),
                    oracle_rank(&g, u),
                    "vocabulary {vocabulary}, draw {x:#x}"
                );
                let word = g.words()[rank.min(vocabulary - 1)].as_bytes();
                assert_eq!(&g.packed[rank * g.width + 1..][..word.len()], word);
            }
        }
    }

    #[test]
    fn the_generator_writes_what_the_oracle_loop_writes() {
        crate::check::check("the_generator_writes_what_the_oracle_loop_writes", 128, |c| {
            let config = TextGenConfig {
                vocabulary: c.range(1..=60_000),
                exponent: c.range(0.0..=2.0),
                line_len: c.range(1..=120),
            };
            let (seed, size) = (c.range(..), c.range(0..=64 << 10));
            let g = TextGen::new(config.clone());
            assert!(
                g.generate_bytes(seed, size) == oracle_generate(&g, seed, size),
                "{config:?}, seed {seed}, {size} bytes"
            );
        });
    }

    #[test]
    fn generated_bytes_match_the_golden_digests() {
        // The benchmark's reference outputs are computed from these bytes.
        let g = TextGen::new(TextGenConfig::default());
        for (seed, len, digest) in GOLDEN {
            let text = g.generate_bytes(seed, 1 << 20);
            assert_eq!((text.len(), crate::fnv1a(&text)), (len, digest), "seed {seed}");
        }
        for ((vocabulary, exponent, line_len), len, digest) in CONFIG_GOLDEN {
            let g = TextGen::new(TextGenConfig { vocabulary, exponent, line_len });
            let text = g.generate_bytes(1, 1 << 20);
            assert_eq!((text.len(), crate::fnv1a(&text)), (len, digest), "vocabulary {vocabulary}");
        }
        assert_eq!(g.generate_bytes(5, 0), b"\n");
    }

    /// `(seed, length, FNV-1a)` of `generate_bytes(seed, 1 << 20)`.
    const GOLDEN: [(u64, usize, u64); 2] =
        [(1, 1_048_579, 0x420b_fb71_e239_634f), (42, 1_048_577, 0x6294_a8f7_436d_40cf)];

    /// `((vocabulary, exponent, line_len), length, FNV-1a)` of
    /// `generate_bytes(1, 1 << 20)`: the runtime equivalence tests'
    /// corpus, a line shorter than any word, and a tail of wide slots.
    const CONFIG_GOLDEN: [((usize, f64, usize), usize, u64); 3] = [
        ((200, 1.0, 60), 1_048_579, 0xd3a3_cafe_5ecf_591e),
        ((7, 0.0, 3), 1_048_578, 0xab13_041d_3b84_510f),
        ((50_000, 1.4, 40), 1_048_578, 0x0b3b_5065_96e2_c8cd),
    ];

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
