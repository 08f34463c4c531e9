//! The one frame codec: checksum, encoder and walker for the
//! `len | crc32 | payload` format the [crate docs](crate#the-frame-format)
//! describe. Run files ([`RunWriter`](crate::RunWriter) /
//! [`RunReader`](crate::RunReader)) and the runtime's in-memory stage
//! hand-off are both written and read through these three functions.

use std::fmt;
use std::io;

/// Bytes of header in front of every payload: `u32` length + `u32`
/// CRC-32, both little-endian.
pub const FRAME_HEADER: usize = 8;

/// Longest payload a reader accepts. No writer in the tree frames
/// anything near it, so a larger length prefix is corruption — reported,
/// never allocated for.
pub const MAX_RECORD: usize = 256 * 1024 * 1024;

/// IEEE CRC-32 lookup tables (reflected polynomial 0xEDB88320) for
/// slicing-by-8, generated at compile time so the crate stays
/// dependency-free. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[s][b]` is the CRC of byte `b` followed by `s` zero bytes,
/// which is what lets eight input bytes be folded in per step.
static CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
}

/// IEEE CRC-32 of `data` (the zlib/PNG polynomial), eight bytes per
/// step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// How the bytes at the head of a buffer fail to be a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends inside the frame: `have` bytes are present of the
    /// `need` the frame takes as far as can be told (the header, or —
    /// once the header is readable — header plus payload). A streaming
    /// reader with more input to come refills and retries; at the end of
    /// the input it is a truncated file.
    Truncated {
        /// Bytes the frame needs, counted from its first header byte.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_RECORD`].
    TooLong {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload does not hash to the stored checksum.
    Checksum {
        /// CRC-32 stored in the header.
        stored: u32,
        /// CRC-32 of the payload bytes present.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FrameError::Truncated { need, have } if need == FRAME_HEADER => {
                write!(f, "truncated frame header ({have} of {need} bytes)")
            }
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame payload ({have} of {need} bytes)")
            }
            FrameError::TooLong { len } => write!(f, "impossible record length {len}"),
            FrameError::Checksum { stored, computed } => {
                write!(f, "frame checksum mismatch (stored {stored:08x}, computed {computed:08x})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Append one frame to `out`: reserve the header, let `encode` append
/// the payload straight behind it, then patch length and checksum in —
/// no scratch buffer, no second copy. Returns the frame's size, header
/// included. `encode` must only append.
///
/// # Errors
/// Fails (leaving `out` as it was) for a payload longer than `u32::MAX`
/// bytes.
pub fn push_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let payload = &out[at + FRAME_HEADER..];
    let Ok(len) = u32::try_from(payload.len()) else {
        out.truncate(at);
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "record too large"));
    };
    let crc = crc32(payload);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(out.len() - at)
}

/// Split the frame at the head of `bytes` into its verified payload and
/// the bytes after it — the one frame walker. Borrows, never copies or
/// allocates; the payload is checksummed only once all of it is present.
///
/// # Errors
/// Any way `bytes` fails to start with a whole, intact frame, an empty
/// `bytes` included (callers decide whether that is a clean end).
pub fn split_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), FrameError> {
    let Some((header, body)) = bytes.split_first_chunk::<FRAME_HEADER>() else {
        return Err(FrameError::Truncated { need: FRAME_HEADER, have: bytes.len() });
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let stored = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_RECORD {
        return Err(FrameError::TooLong { len });
    }
    if body.len() < len {
        return Err(FrameError::Truncated { need: FRAME_HEADER + len, have: bytes.len() });
    }
    let (payload, rest) = body.split_at(len);
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::Checksum { stored, computed });
    }
    Ok((payload, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The bytewise table CRC the slicing-by-8 one replaced: the
    /// reference it must agree with on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // The zlib/PNG IEEE polynomial's canonical check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        let mut rng = SmallRng::seed_from_u64(32);
        let data: Vec<u8> = (0..4096 + 64).map(|_| rng.gen::<u8>()).collect();
        // Every length across several 8-byte steps, at every alignment
        // of the tail.
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "len {len}");
        }
        for _ in 0..200 {
            let len = rng.gen_range(0..=4096usize);
            let at = rng.gen_range(0..64usize);
            let slice = &data[at..at + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} at {at}");
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let size = push_frame(&mut out, |buf| buf.extend_from_slice(payload)).unwrap();
        assert_eq!(size, out.len());
        out
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut out = Vec::new();
        let payloads: [&[u8]; 4] = [b"alpha", b"", b"a longer third payload", b"z"];
        for p in payloads {
            push_frame(&mut out, |buf| buf.extend_from_slice(p)).unwrap();
        }
        // The format, byte for byte.
        assert_eq!(&out[..4], &5u32.to_le_bytes());
        assert_eq!(&out[4..8], &crc32(b"alpha").to_le_bytes());
        assert_eq!(&out[8..13], b"alpha");
        let mut rest = &out[..];
        for p in payloads {
            let (payload, after) = split_frame(rest).unwrap();
            assert_eq!(payload, p, "a zero-length record is a frame like any other");
            rest = after;
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn corruption_is_a_typed_error_never_a_panic() {
        let good = frame(b"stable payload");
        let n = good.len();
        let flipped = |at: usize| {
            let mut bytes = good.clone();
            bytes[at] ^= 0x01;
            bytes
        };
        let mut long = good.clone();
        long[..4].copy_from_slice(&100u32.to_le_bytes());
        let mut huge = good.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let cases: [(&str, Vec<u8>, FrameError); 7] = [
            ("empty", Vec::new(), FrameError::Truncated { need: 8, have: 0 }),
            ("truncated header", good[..5].to_vec(), FrameError::Truncated { need: 8, have: 5 }),
            (
                "truncated payload",
                good[..n - 3].to_vec(),
                FrameError::Truncated { need: n, have: n - 3 },
            ),
            (
                "flipped payload bit",
                flipped(n - 1),
                FrameError::Checksum {
                    stored: crc32(b"stable payload"),
                    computed: crc32(b"stable payloae"),
                },
            ),
            (
                "flipped CRC bit",
                flipped(4),
                FrameError::Checksum {
                    stored: crc32(b"stable payload") ^ 1,
                    computed: crc32(b"stable payload"),
                },
            ),
            ("length past the end", long, FrameError::Truncated { need: 108, have: n }),
            ("impossible length", huge, FrameError::TooLong { len: u32::MAX as usize }),
        ];
        for (what, bytes, expected) in cases {
            assert_eq!(split_frame(&bytes), Err(expected), "{what}");
            assert!(!expected.to_string().is_empty());
        }
        assert!(split_frame(&flipped(n - 1))
            .unwrap_err()
            .to_string()
            .contains("checksum mismatch"));
    }
}
