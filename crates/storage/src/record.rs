//! Record formats and split-point adjustment.
//!
//! Inter-file chunking must not separate a key or value across two ingest
//! chunks, so the runtime "seeks to the user-defined chunk size, checks to
//! see if it is in the middle of a key or value, and then continually
//! increases the split point until reaching the end of the value" (§III-A).
//! For Terasort the terminator is `\r\n`; for text workloads it is `\n`;
//! fixed-width binary records round up to a record multiple.
//!
//! Terminator searches go through the SWAR scanners in [`crate::scan`]
//! (8 bytes per step instead of byte-at-a-time); the `CrLf` paths in
//! particular used to re-scan with a byte-stepping loop.

use crate::scan::{find_byte, find_crlf};

/// How records are delimited in the input byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFormat {
    /// Records end with a single `\n` (word-count text corpora).
    Newline,
    /// Records end with `\r\n` (the Terasort input format).
    CrLf,
    /// Fixed-width binary records of the given size in bytes.
    ///
    /// The width must be non-zero; constructors in this crate enforce it.
    FixedWidth(usize),
    /// The input is an opaque byte blob; any split point is valid.
    None,
}

impl RecordFormat {
    /// The first record boundary at or after `want` that the bytes of
    /// `data` prove, or `None` when `data` ends first. This is the one
    /// place a format decides where a record ends; splits, chunks and
    /// record iteration all ask it.
    ///
    /// Whether a position ends a record depends only on the bytes before
    /// it, so a streaming reader that gets `None` can read on and ask
    /// again from where the answer ran out.
    ///
    /// # Panics
    /// Panics if `want > data.len()` or a fixed width is zero.
    #[inline]
    pub fn next_boundary(&self, data: &[u8], want: usize) -> Option<usize> {
        assert!(want <= data.len(), "split point beyond data");
        if want == 0 {
            return Some(0);
        }
        let end = match *self {
            RecordFormat::None => want,
            RecordFormat::FixedWidth(w) => {
                assert!(w > 0, "record width must be non-zero");
                want.next_multiple_of(w)
            }
            RecordFormat::Newline if data[want - 1] == b'\n' => want,
            RecordFormat::Newline => want + find_byte(&data[want..], b'\n')? + 1,
            RecordFormat::CrLf
                if want >= 2 && data[want - 2] == b'\r' && data[want - 1] == b'\n' =>
            {
                want
            }
            // Otherwise the first pair starting one byte back or later.
            RecordFormat::CrLf => want + find_crlf(&data[want - 1..])? + 1,
        };
        (end <= data.len()).then_some(end)
    }

    /// Adjust a desired split point `want` (an offset into `data`) forward
    /// to the first position that does not divide a record: `want`
    /// itself when it is a record boundary, otherwise the index just past
    /// the terminator of the record containing it (§III-A: "continually
    /// increases the split point until reaching the end of the value").
    ///
    /// Returns `data.len()` if no terminator follows (the paper's chunker
    /// does the same — the final partial record travels with the last
    /// chunk).
    ///
    /// # Panics
    /// Panics if `want > data.len()` or a fixed width is zero.
    #[inline]
    pub fn adjust_split_point(&self, data: &[u8], want: usize) -> usize {
        self.next_boundary(data, want).unwrap_or(data.len())
    }

    /// Whether `pos` is a valid record boundary in `data` (0 and EOF are
    /// always boundaries).
    ///
    /// # Panics
    /// Panics if a fixed width is zero.
    pub fn is_boundary(&self, data: &[u8], pos: usize) -> bool {
        pos == data.len() || (pos < data.len() && self.next_boundary(data, pos) == Some(pos))
    }

    /// Iterate over the record slices of `data` (terminators included).
    /// The final record may lack a terminator.
    pub fn records<'d>(&self, data: &'d [u8]) -> RecordIter<'d> {
        RecordIter { format: *self, data, pos: 0 }
    }
}

/// Iterator over the records of a byte slice. See [`RecordFormat::records`].
#[derive(Debug)]
pub struct RecordIter<'d> {
    format: RecordFormat,
    data: &'d [u8],
    pos: usize,
}

impl<'d> Iterator for RecordIter<'d> {
    type Item = &'d [u8];

    fn next(&mut self) -> Option<&'d [u8]> {
        let (data, pos) = (self.data, self.pos);
        if pos >= data.len() {
            return None;
        }
        // An opaque blob is one record; otherwise a record runs to the
        // first boundary past its first byte.
        let end = if let RecordFormat::None = self.format {
            data.len()
        } else {
            self.format.adjust_split_point(data, pos + 1)
        };
        let rec = &data[pos..end];
        self.pos = end;
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newline_split_moves_past_terminator() {
        let data = b"alpha\nbeta\ngamma\n";
        let f = RecordFormat::Newline;
        // Splitting mid-"beta" lands after beta's newline (index 11).
        assert_eq!(f.adjust_split_point(data, 7), 11);
        // Splitting exactly on a boundary (index 6 follows alpha's
        // newline) divides no record, so the split stays put.
        assert_eq!(f.adjust_split_point(data, 6), 6);
        assert_eq!(f.adjust_split_point(data, 0), 0);
        assert_eq!(f.adjust_split_point(data, data.len()), data.len());
    }

    #[test]
    fn newline_without_trailing_terminator_goes_to_eof() {
        let data = b"alpha\nbeta";
        assert_eq!(RecordFormat::Newline.adjust_split_point(data, 8), data.len());
    }

    #[test]
    fn crlf_split_never_divides_the_pair() {
        let data = b"key1-val1\r\nkey2-val2\r\n";
        let f = RecordFormat::CrLf;
        // Mid-record.
        assert_eq!(f.adjust_split_point(data, 4), 11);
        // Exactly between \r (index 9) and \n (index 10).
        assert_eq!(f.adjust_split_point(data, 10), 11);
        // Right after a terminator is already a boundary-ish point; the
        // record containing index 11 is the second one, ending at 22.
        assert_eq!(f.adjust_split_point(data, 12), 22);
    }

    #[test]
    fn crlf_straddle_step_back_survives_the_swar_rewrite() {
        // Dedicated coverage for the \r|\n straddle fix: a split landing
        // between the pair must step back so the scan still finds it —
        // at every alignment relative to the SWAR lanes, including the
        // pair itself straddling an 8-byte word seam.
        for pad in 0..20 {
            let mut data = vec![b'x'; pad];
            data.extend_from_slice(b"\r\ntail\r\n");
            let f = RecordFormat::CrLf;
            // want = pad + 1 sits exactly between \r and \n.
            assert_eq!(f.adjust_split_point(&data, pad + 1), pad + 2, "pad {pad}");
            // And a mid-record split still finds the next pair.
            if pad > 0 {
                assert_eq!(f.adjust_split_point(&data, pad / 2 + 1).max(pad + 2), pad + 2);
            }
        }
    }

    #[test]
    fn crlf_ignores_bare_cr_and_bare_lf() {
        let data = b"a\rb\nc\r\nrest";
        // Bare \r and bare \n are data, not terminators.
        assert_eq!(RecordFormat::CrLf.adjust_split_point(data, 1), 7);
    }

    #[test]
    fn fixed_width_rounds_up() {
        let data = [0u8; 100];
        let f = RecordFormat::FixedWidth(8);
        assert_eq!(f.adjust_split_point(&data, 1), 8);
        assert_eq!(f.adjust_split_point(&data, 8), 8);
        assert_eq!(f.adjust_split_point(&data, 9), 16);
        // Rounds past EOF clamp to EOF (trailing partial record).
        assert_eq!(f.adjust_split_point(&data, 97), 100);
    }

    #[test]
    fn none_format_accepts_any_split() {
        let data = [1u8; 10];
        assert_eq!(RecordFormat::None.adjust_split_point(&data, 3), 3);
        assert!(RecordFormat::None.is_boundary(&data, 7));
    }

    #[test]
    #[should_panic(expected = "beyond data")]
    fn split_past_eof_panics() {
        RecordFormat::Newline.adjust_split_point(b"abc", 4);
    }

    #[test]
    fn boundary_checks() {
        let data = b"aa\nbb\n";
        let f = RecordFormat::Newline;
        assert!(f.is_boundary(data, 0));
        assert!(f.is_boundary(data, 3));
        assert!(!f.is_boundary(data, 2));
        assert!(f.is_boundary(data, 6));
        assert!(!f.is_boundary(data, 7)); // past EOF

        let g = RecordFormat::CrLf;
        let d2 = b"xy\r\nzw\r\n";
        assert!(g.is_boundary(d2, 4));
        assert!(!g.is_boundary(d2, 3));

        let h = RecordFormat::FixedWidth(4);
        assert!(h.is_boundary(&[0; 12], 8));
        assert!(!h.is_boundary(&[0; 12], 9));
    }

    #[test]
    fn record_iteration_newline() {
        let data = b"a\nbb\nccc";
        let recs: Vec<&[u8]> = RecordFormat::Newline.records(data).collect();
        assert_eq!(recs, vec![b"a\n".as_slice(), b"bb\n".as_slice(), b"ccc".as_slice()]);
    }

    #[test]
    fn record_iteration_crlf_and_fixed() {
        let data = b"k1\r\nk2\r\n";
        let recs: Vec<&[u8]> = RecordFormat::CrLf.records(data).collect();
        assert_eq!(recs, vec![b"k1\r\n".as_slice(), b"k2\r\n".as_slice()]);

        let data = [1u8, 2, 3, 4, 5];
        let recs: Vec<&[u8]> = RecordFormat::FixedWidth(2).records(&data).collect();
        assert_eq!(recs, vec![&[1u8, 2][..], &[3u8, 4][..], &[5u8][..]]);
    }

    #[test]
    fn record_iteration_empty_and_blob() {
        assert_eq!(RecordFormat::Newline.records(b"").count(), 0);
        let recs: Vec<&[u8]> = RecordFormat::None.records(b"blob").collect();
        assert_eq!(recs, vec![b"blob".as_slice()]);
    }

    #[test]
    fn record_iteration_handles_empty_records() {
        let recs: Vec<&[u8]> = RecordFormat::Newline.records(b"\nx\n\n").collect();
        assert_eq!(recs, vec![b"\n".as_slice(), b"x\n".as_slice(), b"\n".as_slice()]);
        let recs: Vec<&[u8]> = RecordFormat::CrLf.records(b"\r\na\r\n").collect();
        assert_eq!(recs, vec![b"\r\n".as_slice(), b"a\r\n".as_slice()]);
    }

    #[test]
    fn records_reassemble_to_input() {
        let data = b"one\ntwo\nthree\nfour";
        let mut rebuilt = Vec::new();
        for r in RecordFormat::Newline.records(data) {
            rebuilt.extend_from_slice(r);
        }
        assert_eq!(rebuilt, data);
    }
}
