//! Data sources for the SupMR ingest phase.
//!
//! The paper's ingest bottleneck exists because primary storage is slower
//! than the compute fabric: a 3-disk RAID-0 topping out at 384 MB/s, or a
//! 32-node HDFS behind a single 1GbE link. Each is one shared device:
//! every byte crosses the array, or the link, at its one rate. This crate
//! provides the storage abstraction the runtime ingests from, plus
//! implementations that reproduce those devices on commodity hardware:
//!
//! * [`source::DataSource`] — byte-addressed sequential input (one large
//!   file — Terasort-style).
//! * [`source::FileSet`] — a collection of small files (word-count-style),
//!   the unit of intra-file chunking.
//! * [`record::RecordFormat`] — how records terminate, so inter-file
//!   chunking can adjust split points to record boundaries.
//! * [`shape`] — [`Shaped`], the one wrapper that puts a simulated
//!   [`Device`] in front of a source, a file set or a run store. Three
//!   devices exist, one per storage concern, and each wraps all three
//!   interfaces:
//!   * [`throttle`] — [`TokenBucket`] paces the bytes
//!     ([`ThrottledSource`]) to emulate a bounded-bandwidth device (the
//!     RAID-0, or the HDFS case study's one link: its 32 datanodes
//!     together serve far more than the link carries) with real
//!     wall-clock pacing;
//!   * [`observe`] — [`IngestMeter`] counts bytes, calls and time spent
//!     inside the storage layer ([`ObservedSource`]), the storage-side
//!     complement of the runtime's event tracer;
//!   * [`fault`] — a [`Fault`] fails reads or writes by a deterministic
//!     rule ([`FaultySource`]) for error-path tests.
//! * [`spill`] — named run stores for the runtime's out-of-core spill
//!   pipeline; wrapped like any source, spilled runs share the
//!   simulated device.
//!
//! ```
//! use std::io::{Read, Write};
//! use supmr_storage::{
//!     DataSource, IngestMeter, MemRunStore, MemSource, ObservedSource, RunStore, SourceExt,
//!     ThrottledSource,
//! };
//!
//! // A 1KB in-memory input served through a paced "device".
//! let mut src = ThrottledSource::new(
//!     MemSource::from(vec![7u8; 1024]),
//!     64.0 * 1024.0 * 1024.0, // 64 MiB/s
//! );
//! assert_eq!(src.len(), 1024);
//! assert_eq!(src.read_range(100, 24).unwrap(), vec![7u8; 24]);
//!
//! // The same wrappers stack on a run store: metered spill I/O on that
//! // device.
//! let meter = IngestMeter::new();
//! let runs = ObservedSource::new(ThrottledSource::new(MemRunStore::new(), 64e6), meter.clone());
//! runs.create("run0").unwrap().write_all(b"spilled").unwrap();
//! let mut back = Vec::new();
//! runs.open("run0").unwrap().read_to_end(&mut back).unwrap();
//! assert_eq!(back, b"spilled");
//! assert_eq!((meter.bytes_written(), meter.bytes_read()), (7, 7));
//! ```

pub mod fault;
pub mod observe;
pub mod record;
pub mod scan;
pub mod shape;
pub mod shared;
pub mod source;
pub mod spill;
pub mod throttle;

pub use fault::{Fault, FaultySource};
pub use observe::{IngestMeter, ObservedSource};
pub use record::RecordFormat;
pub use scan::{find_byte, find_crlf, ByteClass};
pub use shape::{Device, Shaped, Transfer};
pub use shared::SharedBytes;
pub use source::{
    CachedSource, DataSource, DirFileSet, FileSet, FileSource, MemFileSet, MemSource, SourceExt,
};
pub use spill::{DiskRunStore, MemRunStore, RunGuard, RunStore};
pub use throttle::{ThrottledSource, TokenBucket};
