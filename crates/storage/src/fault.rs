//! Fault injection for storage paths.
//!
//! Production ingest deals with devices that fail mid-stream. A [`Fault`]
//! is the failing [`Device`]: [`FaultySource`] puts it in front of a
//! source, a file set or a run store, so the runtime's error propagation
//! (pipeline threads, buffered prefetch, partial chunks, spill write and
//! read-back) can be tested against deterministic failures. Each rule
//! acts on one interface and lets every other transfer through.

use crate::shape::{Device, Shaped, Transfer};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a [`Fault`] fires.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Source reads touching this byte or beyond.
    Byte(u64),
    /// Every read of this file of a file set.
    File(usize),
    /// Run-stream reads past this many cumulative bytes.
    ReadsAfter(u64),
    /// Run-stream writes past this many cumulative bytes.
    WritesAfter(u64),
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Byte(at) => write!(f, "fault at byte {at}"),
            Rule::File(idx) => write!(f, "fault reading file {idx}"),
            Rule::ReadsAfter(at) => write!(f, "spill read fault at byte {at}"),
            Rule::WritesAfter(at) => write!(f, "spill write fault at byte {at}"),
        }
    }
}

/// A deterministic storage failure: which transfers fail, and with what
/// error kind. Clones share the byte count of the cumulative rules, so
/// the threshold spans every stream a run store hands out.
#[derive(Debug, Clone)]
pub struct Fault {
    rule: Rule,
    kind: io::ErrorKind,
    /// Bytes asked of the run streams so far.
    seen: Arc<AtomicU64>,
}

impl Fault {
    fn new(rule: Rule, kind: io::ErrorKind) -> Fault {
        Fault { rule, kind, seen: Arc::default() }
    }

    /// Fail every source read touching byte `fail_at` or beyond.
    pub fn at_byte(fail_at: u64, kind: io::ErrorKind) -> Fault {
        Fault::new(Rule::Byte(fail_at), kind)
    }

    /// Fail every read of file `idx` of a file set.
    pub fn file(idx: usize, kind: io::ErrorKind) -> Fault {
        Fault::new(Rule::File(idx), kind)
    }

    /// Fail run reads once `fail_at` cumulative bytes have been asked for.
    pub fn reads_after(fail_at: u64, kind: io::ErrorKind) -> Fault {
        Fault::new(Rule::ReadsAfter(fail_at), kind)
    }

    /// Fail run writes once `fail_at` cumulative bytes have been asked for.
    pub fn writes_after(fail_at: u64, kind: io::ErrorKind) -> Fault {
        Fault::new(Rule::WritesAfter(fail_at), kind)
    }
}

impl Device for Fault {
    fn before(&self, transfer: Transfer) -> io::Result<()> {
        let fires = match (self.rule, transfer) {
            (Rule::Byte(at), Transfer::Range { offset, len }) => offset + len > at,
            (Rule::File(idx), Transfer::File(i)) => i == idx,
            (Rule::ReadsAfter(at), Transfer::StreamRead(len))
            | (Rule::WritesAfter(at), Transfer::StreamWrite(len)) => {
                self.seen.fetch_add(len, Ordering::Relaxed) + len > at
            }
            _ => false,
        };
        if fires {
            return Err(io::Error::new(self.kind, format!("injected {}", self.rule)));
        }
        Ok(())
    }

    fn describe(&self, inner: String) -> String {
        format!("{inner} (faulty: {})", self.rule)
    }
}

/// A source, file set or run store whose transfers fail by a [`Fault`].
pub type FaultySource<T> = Shaped<T, Fault>;

impl<T> FaultySource<T> {
    /// Put `fault` in front of `inner`.
    pub fn new(inner: T, fault: Fault) -> Self {
        Shaped { inner, device: fault }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DataSource, FileSet, MemFileSet, MemSource, SourceExt};

    #[test]
    fn reads_below_the_fault_succeed() {
        let mut s = FaultySource::new(
            MemSource::from((0u8..100).collect::<Vec<u8>>()),
            Fault::at_byte(50, io::ErrorKind::BrokenPipe),
        );
        assert_eq!(s.read_range(0, 50).unwrap().len(), 50);
        assert_eq!(s.len(), 100);
        assert!(s.describe().contains("faulty"));
    }

    #[test]
    fn reads_across_the_fault_fail() {
        let mut s = FaultySource::new(
            MemSource::from(vec![0u8; 100]),
            Fault::at_byte(50, io::ErrorKind::BrokenPipe),
        );
        let err = s.read_range(40, 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(s.read_all().is_err());
    }

    #[test]
    fn faulty_fileset_fails_only_the_marked_file() {
        let mut fs = FaultySource::new(
            MemFileSet::new(vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]),
            Fault::file(1, io::ErrorKind::PermissionDenied),
        );
        assert_eq!(fs.read_file(0).unwrap(), b"a");
        assert_eq!(fs.read_file(1).unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(fs.read_file(2).unwrap(), b"c");
        assert_eq!(fs.file_count(), 3);
        assert_eq!(fs.file_len(1), 1);
    }
}
