//! SWAR byte scanning: word-at-a-time search and classification.
//!
//! The map side of the word-count workload is ingest/map-bound (Table
//! II), and its inner loops — record-boundary scanning and tokenization
//! — were byte-at-a-time. This module is the dependency-free
//! `memchr`-style replacement: 8 bytes per step over `u64` lanes (the
//! single-byte search runs a 16-byte double-word stride), with a scalar
//! tail for the last partial word. Everything here is safe code —
//! `u64::from_le_bytes` over array windows, no pointer casts — so the
//! same functions run under Miri unchanged.
//!
//! Two SWAR idioms are used, chosen per call site:
//!
//! * **Zero-byte trick** (`(x ^ splat(b)).wrapping_sub(LO) & !x' & HI`)
//!   for [`find_byte`]. Borrows propagate *upward* through the
//!   subtraction, so lanes above a true match can be misflagged — the
//!   trick is exact only for the **first** match, which is all a search
//!   consumes before advancing.
//! * **Carry-free 7-bit range compares** (`ge7`) for classification
//!   masks ([`ByteClass`], [`find_crlf`]), where *every* lane's verdict
//!   is inspected. Masking to the low 7 bits first keeps each lane's
//!   add below 0x100, so no carry crosses a lane boundary and the mask
//!   is exact per lane; a separate `!x & HI` term rejects non-ASCII.

/// The low bit of every lane (`0x01` splatted).
const LO: u64 = 0x0101_0101_0101_0101;
/// The high bit of every lane (`0x80` splatted).
const HI: u64 = 0x8080_8080_8080_8080;

/// Splat a byte across all eight lanes.
#[inline]
const fn splat(b: u8) -> u64 {
    LO * b as u64
}

/// Load 8 bytes starting at `i` as a little-endian word, so lane *k*
/// holds `data[i + k]` and `trailing_zeros` finds the lowest offset.
#[inline]
fn load(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"))
}

/// The short key `data[start..start + len]` (`len <= 8`) as one
/// little-endian word, zero above its low `len` bytes — what a
/// [`tokens`] consumer hashes and compares a short token by.
///
/// Where eight bytes are in bounds it is one load and a mask: the bytes
/// past the key belong to `data` and are masked off. Within the last
/// eight bytes of `data` it is two overlapping loads of the key alone
/// (re-ORing the overlap's identical bits), never a byte loop.
///
/// # Panics
/// If the key is not inside `data`.
#[inline]
pub fn short_word(data: &[u8], start: usize, len: usize) -> u64 {
    debug_assert!(len <= 8, "short keys are at most one word");
    if len == 0 {
        return 0;
    }
    if data.len().saturating_sub(start) >= 8 {
        return load(data, start) & (u64::MAX >> (64 - 8 * len));
    }
    let key = &data[start..start + len];
    if len >= 4 {
        let lo = u32::from_le_bytes(key[..4].try_into().expect("4-byte window")) as u64;
        let hi = u32::from_le_bytes(key[len - 4..].try_into().expect("4-byte window")) as u64;
        lo | (hi << ((len - 4) * 8))
    } else {
        // 1-3 bytes: first, middle, and last byte cover every position.
        let lo = key[0] as u64;
        let mid = (key[len / 2] as u64) << (8 * (len / 2));
        let hi = (key[len - 1] as u64) << (8 * (len - 1));
        lo | mid | hi
    }
}

/// Index of the lowest flagged lane in an H-bit mask.
#[inline]
fn lane(mask: u64) -> usize {
    (mask.trailing_zeros() >> 3) as usize
}

/// H-bit mask of lanes whose low 7 bits are `>= c`. Exact per lane for
/// `c <= 0x80`: every lane of `x7` is `<= 0x7F` and the per-lane addend
/// is `0x80 - c`, so no lane sum exceeds 0xFF and no carry escapes.
#[inline]
const fn ge7(x7: u64, c: u8) -> u64 {
    x7.wrapping_add(splat(0x80 - c)) & HI
}

/// H-bit mask of lanes whose low 7 bits fall in `[lo, hi]` (`hi < 0x7F`).
#[inline]
const fn in_range7(x7: u64, lo: u8, hi: u8) -> u64 {
    ge7(x7, lo) & !ge7(x7, hi + 1)
}

/// H-bit mask of lanes equal to the ASCII byte `c` (`c <= 0x7E`),
/// exact in every lane (carry-free compare + ASCII rejection).
#[inline]
const fn eq_ascii(x: u64, c: u8) -> u64 {
    in_range7(x & !HI, c, c) & !x & HI
}

/// Find the first occurrence of `needle` in `haystack`.
///
/// `memchr`-shaped: a 16-byte double-word stride using the classic
/// zero-byte trick, an 8-byte loop for the remainder, then a scalar
/// tail. Drop-in for `iter().position(|&b| b == needle)`.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let n = splat(needle);
    let len = haystack.len();
    let mut i = 0;
    while i + 16 <= len {
        let a = load(haystack, i) ^ n;
        let b = load(haystack, i + 8) ^ n;
        let za = a.wrapping_sub(LO) & !a & HI;
        if za != 0 {
            return Some(i + lane(za));
        }
        let zb = b.wrapping_sub(LO) & !b & HI;
        if zb != 0 {
            return Some(i + 8 + lane(zb));
        }
        i += 16;
    }
    while i + 8 <= len {
        let a = load(haystack, i) ^ n;
        let za = a.wrapping_sub(LO) & !a & HI;
        if za != 0 {
            return Some(i + lane(za));
        }
        i += 8;
    }
    haystack[i..].iter().position(|&b| b == needle).map(|p| i + p)
}

/// Find the first `\r\n` pair; returns the index of the `\r`.
///
/// Replaces the byte-stepping scans in the `CrLf` record format. Both
/// the `\r` and `\n` masks are carry-free exact, so a word is scanned
/// once: pairs inside the word come from `cr & (lf >> 8)`, and a `\r`
/// in the top lane checks one byte across the word seam.
pub fn find_crlf(data: &[u8]) -> Option<usize> {
    let len = data.len();
    let mut i = 0;
    while i + 8 <= len {
        let x = load(data, i);
        let cr = eq_ascii(x, b'\r');
        if cr != 0 {
            let lf = eq_ascii(x, b'\n');
            let pair = cr & (lf >> 8);
            if pair != 0 {
                return Some(i + lane(pair));
            }
            if cr & (0x80 << 56) != 0 && data.get(i + 8) == Some(&b'\n') {
                return Some(i + 7);
            }
        }
        i += 8;
    }
    while i + 1 < len {
        if data[i] == b'\r' && data[i + 1] == b'\n' {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// A byte class the vectorized tokenizer splits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteClass {
    /// Word-count word bytes: ASCII alphanumerics, `_`, and `'`.
    Word,
    /// ASCII alphanumerics only (the inverted-index tokenizer).
    Alnum,
}

impl ByteClass {
    /// Scalar membership test — the reference the SWAR mask must agree
    /// with byte for byte (property-tested in `tests/properties.rs`).
    #[inline]
    pub fn contains(self, b: u8) -> bool {
        match self {
            ByteClass::Word => b.is_ascii_alphanumeric() || b == b'_' || b == b'\'',
            ByteClass::Alnum => b.is_ascii_alphanumeric(),
        }
    }

    /// H-bit mask of member lanes in `x`, exact in every lane. Letters
    /// fold case first (`| 0x20` maps `A-Z` onto `a-z`; the bytes that
    /// alias into that range, `[`–`_`, land on `{`–`0x7F` instead), so
    /// one range compare covers both cases.
    #[inline]
    fn mask(self, x: u64) -> u64 {
        let x7 = x & !HI;
        let letter = in_range7(x7 | splat(0x20), b'a', b'z');
        let digit = in_range7(x7, b'0', b'9');
        let mut m = letter | digit;
        if let ByteClass::Word = self {
            m |= in_range7(x7, b'_', b'_') | in_range7(x7, b'\'', b'\'');
        }
        m & !x & HI
    }
}

/// First index `>= from` whose byte is in `class`.
#[inline]
pub fn find_member(data: &[u8], from: usize, class: ByteClass) -> Option<usize> {
    let mut i = from;
    while i + 8 <= data.len() {
        let m = class.mask(load(data, i));
        if m != 0 {
            return Some(i + lane(m));
        }
        i += 8;
    }
    data[i..].iter().position(|&b| class.contains(b)).map(|p| i + p)
}

/// First index `>= from` whose byte is *not* in `class` (`data.len()`
/// when the run extends to the end).
#[inline]
pub fn find_non_member(data: &[u8], from: usize, class: ByteClass) -> usize {
    let mut i = from;
    while i + 8 <= data.len() {
        let m = !class.mask(load(data, i)) & HI;
        if m != 0 {
            return i + lane(m);
        }
        i += 8;
    }
    while i < data.len() && class.contains(data[i]) {
        i += 1;
    }
    i
}

/// Compress an H-bit lane mask to its low 8 bits (a per-byte bitmask):
/// the multiply gathers lane bits 7, 15, …, 63 into the top byte.
#[inline]
const fn movemask(m: u64) -> u64 {
    (m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Iterate the maximal `class`-member runs of `data` — the vectorized
/// tokenizer. Tokens are borrowed subslices, so callers can probe a
/// hash table with them and defer key materialization to first insert.
pub fn tokens(data: &[u8], class: ByteClass) -> Tokens<'_> {
    Tokens { data, pos: 0, class, win: usize::MAX, bits: 0 }
}

/// Iterator over byte-class token runs. See [`tokens`].
///
/// The classifier runs once per 64-byte window, not once per token: the
/// eight lane masks of a window compress (`movemask`) into a single
/// `u64` byte-membership bitmask, and token boundaries inside the
/// window are pure `trailing_zeros` arithmetic on it. Short tokens —
/// the word-count common case — cost a couple of bit ops each; only
/// runs crossing the cached window fall back to the scanning helpers.
#[derive(Debug, Clone)]
pub struct Tokens<'d> {
    data: &'d [u8],
    pos: usize,
    class: ByteClass,
    /// Start of the cached window (`usize::MAX` = no window cached).
    win: usize,
    /// Byte-membership bitmask of `data[win..win + 64]`.
    bits: u64,
}

impl<'d> Tokens<'d> {
    /// Membership bitmask for the 64-byte window at `w` (bit `j` set iff
    /// `data[w + j]` is in the class). Requires `w + 64 <= data.len()`.
    fn window_bits(&self, w: usize) -> u64 {
        let mut bits = 0u64;
        for j in 0..8 {
            bits |= movemask(self.class.mask(load(self.data, w + j * 8))) << (8 * j);
        }
        bits
    }
}

impl<'d> Tokens<'d> {
    /// The next token as its `(start, end)` byte range in the scanned
    /// data, for consumers that want its position — the surrounding
    /// buffer is what makes [`short_word`] a single load.
    #[inline]
    pub fn next_span(&mut self) -> Option<(usize, usize)> {
        let len = self.data.len();
        let full_end = len & !63;
        while self.pos < full_end {
            let w = self.pos & !63;
            if w != self.win {
                self.bits = self.window_bits(w);
                self.win = w;
            }
            let avail = self.bits >> (self.pos - w);
            if avail == 0 {
                self.pos = w + 64;
                continue;
            }
            let start = self.pos + avail.trailing_zeros() as usize;
            let run = !(self.bits >> (start - w));
            let in_window = run.trailing_zeros() as usize;
            let end = if (start - w) + in_window < 64 {
                start + in_window
            } else {
                // Member run reaches the window edge; finish the scan
                // with the word-at-a-time helper.
                find_non_member(self.data, w + 64, self.class)
            };
            self.pos = end;
            return Some((start, end));
        }
        // Scalar-assisted tail: fewer than 64 bytes remain.
        let start = find_member(self.data, self.pos, self.class)?;
        let end = find_non_member(self.data, start, self.class);
        self.pos = end;
        Some((start, end))
    }
}

impl<'d> Iterator for Tokens<'d> {
    type Item = &'d [u8];

    #[inline]
    fn next(&mut self) -> Option<&'d [u8]> {
        self.next_span().map(|(start, end)| &self.data[start..end])
    }
}

/// Append `src` to `out` with ASCII uppercase folded to lowercase,
/// eight bytes per step: the `A-Z` lane mask's H bit shifts down to the
/// `0x20` case bit. Non-ASCII bytes pass through untouched, matching
/// `u8::to_ascii_lowercase`.
pub fn push_ascii_lower(src: &[u8], out: &mut Vec<u8>) {
    out.reserve(src.len());
    let mut i = 0;
    while i + 8 <= src.len() {
        let x = load(src, i);
        let upper = in_range7(x & !HI, b'A', b'Z') & !x & HI;
        out.extend_from_slice(&(x | (upper >> 2)).to_le_bytes());
        i += 8;
    }
    out.extend(src[i..].iter().map(u8::to_ascii_lowercase));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_crlf(d: &[u8]) -> Option<usize> {
        d.windows(2).position(|w| w == b"\r\n")
    }

    #[test]
    fn find_byte_every_offset_and_length() {
        // A needle planted at every position of every length up to two
        // full 16-byte strides, so every lane and every tail size runs.
        for len in 0..40 {
            for at in 0..len {
                let mut d = vec![b'x'; len];
                d[at] = b'\n';
                assert_eq!(find_byte(&d, b'\n'), Some(at), "len {len} at {at}");
                assert_eq!(find_byte(&d, b'q'), None);
            }
        }
        assert_eq!(find_byte(b"", b'a'), None);
    }

    #[test]
    fn find_byte_first_of_many_and_high_bytes() {
        let d = b"a\nb\nc\n";
        assert_eq!(find_byte(d, b'\n'), Some(1));
        // 0x8A must not alias 0x0A, in any lane.
        for at in 0..24 {
            let mut d = vec![0x8Au8; 24];
            d[at] = 0x0A;
            assert_eq!(find_byte(&d, 0x0A), Some(at));
        }
        // Searching *for* a high byte works too (the subtract trick is
        // not ASCII-limited).
        let mut d = vec![0x0Au8; 24];
        d[17] = 0x8A;
        assert_eq!(find_byte(&d, 0x8A), Some(17));
    }

    #[test]
    fn crlf_every_offset() {
        for len in 2..40 {
            for at in 0..len - 1 {
                let mut d = vec![b'x'; len];
                d[at] = b'\r';
                d[at + 1] = b'\n';
                assert_eq!(find_crlf(&d), Some(at), "len {len} at {at}");
            }
        }
    }

    #[test]
    fn crlf_matches_scalar_on_tricky_shapes() {
        let cases: Vec<&[u8]> = vec![
            b"",
            b"\r",
            b"\n",
            b"\n\r",
            b"\r\r\r\r\r\r\r\r\r\n",
            b"xxxxxxx\r\nyyy",    // pair straddles the first 8-byte lane
            b"xxxxxxxx\r\nyyy",   // pair starts exactly at lane 8
            b"\x8d\x8a\r\n",      // high bytes must not alias \r \n
            b"abc\rdef\nghi\r\n", // bare \r and bare \n are data
            b"\r\n",
            b"a\r\n",
        ];
        for d in cases {
            assert_eq!(find_crlf(d), scalar_crlf(d), "{d:?}");
        }
    }

    #[test]
    fn class_masks_agree_with_scalar_for_all_bytes() {
        // Every byte value through every lane of the SWAR mask.
        for class in [ByteClass::Word, ByteClass::Alnum] {
            for b in 0..=255u8 {
                for lane_idx in 0..8 {
                    let mut d = [b'-'; 8];
                    d[lane_idx] = b;
                    let m = class.mask(u64::from_le_bytes(d));
                    let flagged = m & (0x80u64 << (8 * lane_idx)) != 0;
                    assert_eq!(flagged, class.contains(b), "{class:?} byte {b:#x} lane {lane_idx}");
                    // No other lane may be flagged ('-' is a non-member).
                    assert_eq!(m & !(0x80u64 << (8 * lane_idx)), 0);
                }
            }
        }
    }

    #[test]
    fn tokens_split_like_the_scalar_tokenizer() {
        let text = b"it's a test--really, a_test! over_9000 unicode\xc3\xa9mixed";
        let got: Vec<&[u8]> = tokens(text, ByteClass::Word).collect();
        let expect: Vec<&[u8]> =
            text.split(|&b| !ByteClass::Word.contains(b)).filter(|t| !t.is_empty()).collect();
        assert_eq!(got, expect);
        assert_eq!(tokens(b"", ByteClass::Word).count(), 0);
        assert_eq!(tokens(b"---- .. !", ByteClass::Word).count(), 0);
        let all: Vec<&[u8]> = tokens(b"abcdefgh", ByteClass::Word).collect();
        assert_eq!(all, vec![&b"abcdefgh"[..]]);
    }

    #[test]
    fn token_runs_straddle_lane_boundaries() {
        // A 15-byte word crosses the 8-byte lane; a 17-byte word
        // crosses the 16-byte double stride.
        for word_len in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            let word = vec![b'a'; word_len];
            let mut d = b"  ".to_vec();
            d.extend_from_slice(&word);
            d.push(b' ');
            d.extend_from_slice(&word);
            let toks: Vec<&[u8]> = tokens(&d, ByteClass::Word).collect();
            assert_eq!(toks, vec![&word[..], &word[..]], "word_len {word_len}");
        }
    }

    #[test]
    fn short_word_is_the_zero_padded_key_wherever_it_sits() {
        // Every length at every distance from the end of the buffer:
        // both the one-load path and the overlapping-loads path, with
        // high bytes on both sides of the key to catch a missed mask.
        let data: Vec<u8> = (0..24u8).map(|i| 0x80 | i).collect();
        for len in 0..=8 {
            for start in 0..=data.len() - len {
                let mut expect = [0u8; 8];
                expect[..len].copy_from_slice(&data[start..start + len]);
                let got = short_word(&data, start, len);
                assert_eq!(got, u64::from_le_bytes(expect), "len {len} at {start}");
                // The key alone, nothing in bounds after it.
                assert_eq!(short_word(&data[start..start + len], 0, len), got);
            }
        }
    }

    #[test]
    #[should_panic]
    fn short_word_rejects_a_key_past_the_end() {
        short_word(b"abc", 1, 3);
    }

    #[test]
    fn spans_are_the_tokens_positions() {
        let text = b"it's a test--really, a_test! and a run of sixty-four plus bytes follows";
        let mut spans = tokens(text, ByteClass::Word);
        let mut by_span = Vec::new();
        while let Some((start, end)) = spans.next_span() {
            by_span.push(&text[start..end]);
        }
        assert_eq!(by_span, tokens(text, ByteClass::Word).collect::<Vec<_>>());
    }

    #[test]
    fn case_folding_matches_scalar_for_all_bytes() {
        let src: Vec<u8> = (0..=255u8).cycle().take(512 + 3).collect();
        let mut swar = Vec::new();
        push_ascii_lower(&src, &mut swar);
        let scalar: Vec<u8> = src.iter().map(|b| b.to_ascii_lowercase()).collect();
        assert_eq!(swar, scalar);
    }

    #[test]
    fn find_member_and_non_member_bounds() {
        let d = b"...word...";
        assert_eq!(find_member(d, 0, ByteClass::Word), Some(3));
        assert_eq!(find_non_member(d, 3, ByteClass::Word), 7);
        assert_eq!(find_member(d, 7, ByteClass::Word), None);
        assert_eq!(find_non_member(b"abc", 0, ByteClass::Word), 3);
        assert_eq!(find_member(b"", 0, ByteClass::Word), None);
    }
}
