//! TeraSort — the paper's merge-bound benchmark (60GB input).
//!
//! Every `\r\n`-terminated 100-byte record becomes one `(key, record)`
//! pair where the key is the record's first 10 bytes. Keys are
//! (effectively) unique, so the application uses the unlocked container
//! — "each mapper outputs to its key range in the array and each reducer
//! operates only on its key range" — and all the interesting work is in
//! the merge phase: the baseline's iterative 2-way rounds vs SupMR's
//! p-way merge.

use supmr::api::{Emit, MapReduce};
use supmr::combiner::Identity;
use supmr::container::UnlockedContainer;
use supmr::runtime::{FrameIter, Input, JobConfig, MergeMode, Pipeline, PipelineResult, Stage};
use supmr::{KeyPrefix, PairCodec};
use supmr_storage::RecordFormat;
use supmr_workloads::TERA_KEY_LEN;

// The `&Vec` parameters are forced by `PairCodec<Vec<u8>, Vec<u8>>`'s
// fn-pointer signature.
#[allow(clippy::ptr_arg)]
fn encode_pair(key: &Vec<u8>, record: &Vec<u8>, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(record);
}

fn decode_pair(rec: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let klen = u32::from_le_bytes(rec.get(..4)?.try_into().ok()?) as usize;
    let key = rec.get(4..4 + klen)?.to_vec();
    let record = rec.get(4 + klen..)?.to_vec();
    Some((key, record))
}

#[allow(clippy::ptr_arg)]
fn pair_size_hint(key: &Vec<u8>, record: &Vec<u8>) -> usize {
    // Two Vec headers plus both heap allocations.
    2 * std::mem::size_of::<Vec<u8>>() + key.len() + record.len()
}

/// How a `(key, record)` sort pair crosses process boundaries — spill
/// runs and stage hand-offs alike: `u32 LE` key length, key bytes,
/// record bytes.
pub const TERA_PAIRS: PairCodec<Vec<u8>, Vec<u8>> =
    PairCodec { encode: encode_pair, decode: decode_pair, size_hint: pair_size_hint };

/// The Terasort application.
#[derive(Debug, Clone, Default)]
pub struct TeraSort;

impl TeraSort {
    /// A sorter for gensort-style CRLF records.
    pub fn new() -> TeraSort {
        TeraSort
    }

    /// The record format this application expects
    /// ([`RecordFormat::CrLf`]); pass it to `JobConfig.record_format`.
    pub fn record_format() -> RecordFormat {
        RecordFormat::CrLf
    }
}

impl MapReduce for TeraSort {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        for rec in RecordFormat::CrLf.records(split) {
            // Short trailing fragments (no full key) are kept with an
            // as-is key so no input byte is ever dropped.
            let key_len = rec.len().min(TERA_KEY_LEN);
            emit.emit(rec[..key_len].to_vec(), rec.to_vec());
        }
    }

    fn reduce(&self, _key: &Vec<u8>, record: Vec<u8>) -> Vec<u8> {
        record
    }

    fn key_prefix(&self, key: &Vec<u8>) -> u64 {
        key.key_prefix()
    }

    /// Spill format: [`TERA_PAIRS`].
    fn spill_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        Some(TERA_PAIRS)
    }

    /// Hand-off format: [`TERA_PAIRS`], so a sort job can feed a
    /// downstream pipeline stage.
    fn handoff_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        Some(TERA_PAIRS)
    }
}

/// Stage 1 of the two-stage sort pipeline ([`terasort_pipeline`]): keys
/// every record like [`TeraSort`] but leaves its output *unsorted*, so
/// the reduce workers stream keyed records straight into hand-off
/// frames — the "sample"/partition pass of a sample→sort job.
#[derive(Debug, Clone, Default)]
pub struct TeraPartition;

impl MapReduce for TeraPartition {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        TeraSort.map(split, emit);
    }

    fn reduce(&self, _key: &Vec<u8>, record: Vec<u8>) -> Vec<u8> {
        record
    }

    fn key_prefix(&self, key: &Vec<u8>) -> u64 {
        key.key_prefix()
    }

    fn spill_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        Some(TERA_PAIRS)
    }

    fn handoff_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        Some(TERA_PAIRS)
    }
}

/// Stage 2 of the two-stage sort pipeline: maps over the
/// [`TeraPartition`] hand-off frames (decoding each with
/// [`TERA_PAIRS`]) and lets its merge phase produce the globally
/// sorted order.
#[derive(Debug, Clone, Default)]
pub struct TeraMerge;

impl MapReduce for TeraMerge {
    type Key = Vec<u8>;
    type Value = Vec<u8>;
    type Combiner = Identity;
    type Output = Vec<u8>;
    type Container = UnlockedContainer<Vec<u8>, Vec<u8>>;

    fn make_container(&self) -> Self::Container {
        UnlockedContainer::new()
    }

    fn map(&self, split: &[u8], emit: &mut dyn Emit<Vec<u8>, Vec<u8>>) {
        for (key, record) in FrameIter::new(split, TERA_PAIRS) {
            emit.emit(key, record);
        }
    }

    fn reduce(&self, _key: &Vec<u8>, record: Vec<u8>) -> Vec<u8> {
        record
    }

    fn key_prefix(&self, key: &Vec<u8>) -> u64 {
        key.key_prefix()
    }

    fn spill_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        Some(TERA_PAIRS)
    }

    fn handoff_codec(&self) -> Option<PairCodec<Vec<u8>, Vec<u8>>> {
        Some(TERA_PAIRS)
    }
}

/// Sort teragen-format `input` through the two-stage pipeline:
/// [`TeraPartition`] keys the records and streams them downstream as
/// hand-off frames (no intermediate pair vector), then [`TeraMerge`]
/// sorts them under `config.merge`. `config` also supplies the worker
/// counts, chunking, and memory budget for both stages; stage 1's
/// record format and merge mode are forced to CRLF and unsorted.
///
/// The output is byte-identical to a hand-wired single-stage
/// [`TeraSort`] job with the same merge mode.
///
/// # Errors
/// Whatever [`Pipeline::run`] surfaces for either stage.
pub fn terasort_pipeline(
    input: Input,
    config: JobConfig,
) -> supmr::Result<PipelineResult<Vec<u8>, Vec<u8>>> {
    let mut partition_config = config.clone();
    partition_config.record_format = TeraSort::record_format();
    partition_config.merge = MergeMode::Unsorted;
    let mut p: Pipeline<Vec<u8>, Vec<u8>> = Pipeline::new();
    let keyed =
        p.stage(Stage::new("partition", TeraPartition).input(input).config(partition_config));
    p.stage(Stage::new("sort", TeraMerge).reads(keyed));
    p.config(config).run()
}

/// Check that a job's output is sorted by key and contains exactly the
/// records of `gen` (used by tests and the benchmark harness).
pub fn validate_sorted_output(
    pairs: &[(Vec<u8>, Vec<u8>)],
    expected_records: u64,
) -> Result<(), String> {
    if pairs.len() as u64 != expected_records {
        return Err(format!("expected {expected_records} records, got {}", pairs.len()));
    }
    for w in pairs.windows(2) {
        if w[0].0 > w[1].0 {
            return Err(format!("output not sorted: {:?} > {:?}", w[0].0, w[1].0));
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are clearer mutated stepwise
mod tests {
    use super::*;
    use supmr::api::VecEmit;
    use supmr::runtime::{Input, Job, JobConfig, MergeMode};
    use supmr::Chunking;
    use supmr_storage::MemSource;
    use supmr_workloads::TeraGen;

    #[test]
    fn map_extracts_ten_byte_keys() {
        let gen = TeraGen::new(1, 3);
        let data = gen.generate_all();
        let mut sink = VecEmit::default();
        TeraSort::new().map(&data, &mut sink);
        assert_eq!(sink.pairs.len(), 3);
        for (i, (key, rec)) in sink.pairs.iter().enumerate() {
            assert_eq!(key.len(), TERA_KEY_LEN);
            assert_eq!(rec.len(), 100);
            assert_eq!(key.as_slice(), &gen.record(i as u64)[..TERA_KEY_LEN]);
        }
    }

    #[test]
    fn trailing_fragment_is_not_dropped() {
        let mut sink = VecEmit::default();
        TeraSort::new().map(b"short", &mut sink);
        assert_eq!(sink.pairs.len(), 1);
        assert_eq!(sink.pairs[0].1, b"short".to_vec());
    }

    #[test]
    fn end_to_end_sorts_teragen_data() {
        let gen = TeraGen::new(33, 500);
        let mut config = JobConfig::default();
        config.record_format = TeraSort::record_format();
        config.chunking = Chunking::Inter { chunk_bytes: 8_000 };
        config.merge = MergeMode::PWay { ways: 4 };
        let r = Job::new(TeraSort::new())
            .config(config)
            .run(Input::stream(MemSource::from(gen.generate_all())))
            .unwrap();
        validate_sorted_output(&r.pairs, 500).unwrap();
        // Keys really are the sorted multiset of generated keys.
        let mut expected: Vec<Vec<u8>> = (0..500).map(|i| gen.key(i).to_vec()).collect();
        expected.sort();
        let got: Vec<Vec<u8>> = r.pairs.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn two_stage_pipeline_matches_the_single_job() {
        let gen = TeraGen::new(7, 400);
        let mut config = JobConfig::default();
        config.record_format = TeraSort::record_format();
        config.chunking = Chunking::Inter { chunk_bytes: 8_000 };
        config.merge = MergeMode::PWay { ways: 4 };
        let single = Job::new(TeraSort::new())
            .config(config.clone())
            .run(Input::stream(MemSource::from(gen.generate_all())))
            .unwrap();
        let piped =
            terasort_pipeline(Input::stream(MemSource::from(gen.generate_all())), config).unwrap();
        assert_eq!(piped.pairs, single.pairs, "pipeline output must match the single job");
        let handoff = piped.report.stages[0].handoff.expect("partition stage hands off");
        assert_eq!(handoff.pairs, 400);
        assert_eq!(handoff.materialized_pairs, 0, "unsorted hand-off must stream");
    }

    #[test]
    fn validator_catches_problems() {
        let good = vec![(b"a".to_vec(), vec![]), (b"b".to_vec(), vec![])];
        assert!(validate_sorted_output(&good, 2).is_ok());
        assert!(validate_sorted_output(&good, 3).is_err());
        let bad = vec![(b"b".to_vec(), vec![]), (b"a".to_vec(), vec![])];
        assert!(validate_sorted_output(&bad, 2).is_err());
    }
}
