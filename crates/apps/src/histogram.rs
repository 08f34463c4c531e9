//! Histogram — dense integer keys into the array container.
//!
//! The Phoenix histogram application buckets RGB pixel values: the input
//! is a stream of 3-byte pixels and the output is 768 counters (256 per
//! channel). Keys form a small dense universe known up front, which is
//! exactly what [`supmr::container::ArrayContainer`] exists for.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Count;
use supmr::container::ArrayContainer;
use supmr::KeyPrefix;
use supmr_storage::RecordFormat;

/// Number of buckets per channel.
pub const BUCKETS_PER_CHANNEL: usize = 256;
/// Total key universe (R, G, B planes concatenated).
pub const TOTAL_BUCKETS: usize = 3 * BUCKETS_PER_CHANNEL;

/// RGB histogram over 3-byte pixels.
#[derive(Debug, Clone, Default)]
pub struct Histogram;

impl Histogram {
    /// A new histogram job.
    pub fn new() -> Histogram {
        Histogram
    }

    /// The record format (3-byte fixed-width pixels); pass to
    /// `JobConfig.record_format` so splits never tear a pixel.
    pub fn record_format() -> RecordFormat {
        RecordFormat::FixedWidth(3)
    }

    /// Bucket index for channel `c` (0 = R, 1 = G, 2 = B) and value `v`.
    pub fn bucket(c: usize, v: u8) -> usize {
        c * BUCKETS_PER_CHANNEL + v as usize
    }
}

impl MapReduce for Histogram {
    type Key = usize;
    type Value = u8;
    type Combiner = Count;
    type Output = u64;
    type Container = ArrayContainer<u8, Count>;

    fn make_container(&self) -> Self::Container {
        ArrayContainer::new(TOTAL_BUCKETS)
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<usize, u8>) {
        for pixel in split.chunks_exact(3) {
            emit.emit(Self::bucket(0, pixel[0]), pixel[0]);
            emit.emit(Self::bucket(1, pixel[1]), pixel[1]);
            emit.emit(Self::bucket(2, pixel[2]), pixel[2]);
        }
    }

    fn reduce(&self, _key: &usize, count: u64) -> u64 {
        count
    }

    fn key_prefix(&self, key: &usize) -> u64 {
        key.key_prefix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supmr::runtime::{Input, Job, JobConfig, MergeMode};
    use supmr::Chunking;
    use supmr_storage::MemSource;

    fn pixels(n: usize, seed: u8) -> Vec<u8> {
        (0..3 * n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(Histogram::bucket(0, 0), 0);
        assert_eq!(Histogram::bucket(1, 0), 256);
        assert_eq!(Histogram::bucket(2, 255), 767);
    }

    #[test]
    fn counts_channels_independently() {
        let data = vec![10u8, 20, 30, 10, 20, 30, 99, 20, 30];
        let r = Job::new(Histogram::new())
            .config(JobConfig { record_format: Histogram::record_format(), ..JobConfig::default() })
            .run(Input::stream(MemSource::from(data)))
            .unwrap();
        let lookup = |b: usize| r.pairs.iter().find(|(k, _)| *k == b).map(|(_, c)| *c).unwrap_or(0);
        assert_eq!(lookup(Histogram::bucket(0, 10)), 2);
        assert_eq!(lookup(Histogram::bucket(0, 99)), 1);
        assert_eq!(lookup(Histogram::bucket(1, 20)), 3);
        assert_eq!(lookup(Histogram::bucket(2, 30)), 3);
        let total: u64 = r.pairs.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn chunked_equals_unchunked() {
        let data = pixels(5_000, 7);
        let base = Job::new(Histogram::new())
            .config(JobConfig { record_format: Histogram::record_format(), ..JobConfig::default() })
            .run(Input::stream(MemSource::from(data.clone())))
            .unwrap();
        let piped = Job::new(Histogram::new())
            .config(JobConfig {
                record_format: Histogram::record_format(),
                chunking: Chunking::Inter { chunk_bytes: 1000 },
                merge: MergeMode::PWay { ways: 3 },
                ..JobConfig::default()
            })
            .run(Input::stream(MemSource::from(data)))
            .unwrap();
        assert_eq!(base.sorted_pairs(), piped.sorted_pairs());
    }

    #[test]
    fn array_container_output_is_key_ordered_even_unsorted_mode() {
        // The array container's partitions are index-ordered by
        // construction, a property histogram consumers rely on.
        let data = pixels(100, 3);
        let r = Job::new(Histogram::new())
            .config(JobConfig { record_format: Histogram::record_format(), ..JobConfig::default() })
            .run(Input::stream(MemSource::from(data)))
            .unwrap();
        assert!(r.pairs.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
