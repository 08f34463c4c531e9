//! The five batch workloads: set-up, one verified job, and the job
//! shapes the traced pass compares against.

use crate::inputs::{self, SortReference};
use crate::spec::{Scale, Workload, MIB, WORKERS};
use crate::sys::{self, Scratch};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use supmr::runtime::{GovernorConfig, Input, Job, JobConfig, JobReport, MergeMode};
use supmr::{Chunking, CompactKey, PoolMode, Registry, TraceLevel};
use supmr_apps::sort::validate_sorted_output;
use supmr_apps::{terasort_pipeline, TeraSort, WordCount};
use supmr_storage::{FileSource, MemSource, ThrottledSource, TokenBucket};

/// What a correct job must output.
enum Expect {
    Words(HashMap<Vec<u8>, u64>),
    Sorted(SortReference),
}

/// A change to the workload's own configuration, for the comparison jobs
/// of the traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tweak {
    /// The workload as the timed pass runs it.
    Plain,
    /// With a live metrics registry and task-level tracing.
    Metered,
    /// With the feedback governor.
    Governed,
    /// With `Chunking::None`: the original runtime on the same source.
    Unchunked,
}

/// One finished, checked job.
#[derive(Debug)]
pub struct Op {
    pub wall: Duration,
    /// CPU seconds of the whole process between call and return.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) at the job's return, MB: the peak
    /// during this job where the kernel lets the watermark be restarted
    /// before it, the process's lifetime peak elsewhere.
    pub peak_rss_mb: f64,
    /// `None` when the output was right.
    pub error: Option<String>,
    pub report: JobReport,
}

/// A batch workload, set up: generated input resident (and on disk for
/// `wc_disk`), reference output computed, one warm-up job done.
pub struct Batch {
    pub workload: Workload,
    pub scale: Scale,
    seed: u64,
    source: MemSource,
    file: PathBuf,
    spill_dir: PathBuf,
    expect: Expect,
    _scratch: Scratch,
}

impl Batch {
    /// Everything before the timed pass. Fails if the warm-up job's
    /// output is wrong.
    pub fn set_up(workload: Workload, seed: u64, scale: Scale) -> Result<Batch, String> {
        let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
        let (data, expect) = if workload.reads_text() {
            let data = inputs::text(seed, scale.text_bytes);
            let words = inputs::reference_word_count(&data)
                .into_iter()
                .map(|(word, count)| (word.to_vec(), count))
                .collect();
            (data, Expect::Words(words))
        } else {
            let data = inputs::tera(seed, scale.tera_bytes);
            let reference = inputs::sort_reference(&data);
            (data, Expect::Sorted(reference))
        };
        let file = scratch.path().join("input");
        if workload == Workload::WcDisk {
            std::fs::write(&file, &data).map_err(|e| format!("writing {}: {e}", file.display()))?;
        }
        let batch = Batch {
            workload,
            scale,
            seed,
            source: MemSource::from(data),
            file,
            spill_dir: scratch.path().join("spill"),
            expect,
            _scratch: scratch,
        };
        match batch.run(workload, Tweak::Plain).error {
            None => Ok(batch),
            Some(error) => Err(format!("warm-up job: {error}")),
        }
    }

    /// The generated input.
    pub fn data(&self) -> &[u8] {
        self.source.bytes()
    }

    pub fn input_bytes(&self) -> u64 {
        self.data().len() as u64
    }

    /// The on-disk copy of the input (`wc_disk` only).
    pub fn file(&self) -> &std::path::Path {
        &self.file
    }

    /// A directory of this workload's scratch space for run files.
    pub fn spill_dir(&self) -> &std::path::Path {
        &self.spill_dir
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn config(&self, shape: Workload, tweak: Tweak) -> JobConfig {
        let mut config = JobConfig {
            map_workers: WORKERS,
            reduce_workers: WORKERS,
            pool: PoolMode::Persistent,
            hash_seed: Some(self.seed),
            ..JobConfig::default()
        };
        match shape {
            Workload::WcMem => {}
            Workload::WcDisk => {
                config.chunking = Chunking::Inter { chunk_bytes: self.scale.chunk_bytes };
                config.prefetch_depth = 1;
            }
            Workload::SortMem | Workload::SortSpill | Workload::TeraDag => {
                config.record_format = TeraSort::record_format();
                config.merge = MergeMode::PWay { ways: WORKERS };
            }
            Workload::ServeMix => unreachable!("serve_mix is not a batch workload"),
        }
        if shape == Workload::SortSpill {
            config.memory_budget = Some(self.scale.spill_budget);
            config.spill_dir = Some(self.spill_dir.clone());
        }
        match tweak {
            Tweak::Plain => {}
            Tweak::Metered => {
                config.metrics = Some(Registry::new());
                config.trace = TraceLevel::Task;
            }
            Tweak::Governed => config.governor = Some(GovernorConfig::default()),
            Tweak::Unchunked => config.chunking = Chunking::None,
        }
        config
    }

    /// `wc_disk`'s device: the input file behind a token bucket at the
    /// frozen rate. The bucket's burst is 1 MiB, not the default tenth of
    /// a second of traffic, which would hand this input's first 20 MiB
    /// over for free.
    pub fn throttled_file(&self) -> std::io::Result<ThrottledSource<FileSource>> {
        let bucket = TokenBucket::with_burst(self.scale.throttle_rate, MIB as f64);
        Ok(ThrottledSource::with_bucket(FileSource::open(&self.file)?, bucket))
    }

    /// Run one job in the configuration of `shape` on this workload's
    /// input and check its output. `shape` is the workload itself in the
    /// timed pass; the traced pass also runs a spilling sort's input as
    /// `sort_mem`, and `wc_disk`'s as `wc_mem`, for its ratios.
    pub fn run(&self, shape: Workload, tweak: Tweak) -> Op {
        let config = self.config(shape, tweak);
        let input = if shape == Workload::WcDisk {
            match self.throttled_file() {
                Ok(source) => Input::stream(source),
                Err(e) => return Op::failed(format!("opening the input file: {e}")),
            }
        } else {
            Input::stream(self.source.clone())
        };
        sys::reset_heap();
        sys::reset_peak_rss();
        let clock = Clock::start();
        match shape {
            Workload::WcMem | Workload::WcDisk => {
                let result = Job::new(WordCount::new()).config(config).run(input);
                clock.finish(result.map(|r| (r.pairs, r.report)), |pairs| self.check_words(pairs))
            }
            Workload::SortMem | Workload::SortSpill => {
                let result = Job::new(TeraSort::new()).config(config).run(input);
                clock.finish(result.map(|r| (r.pairs, r.report)), |pairs| self.check_sorted(pairs))
            }
            Workload::TeraDag => {
                let result = terasort_pipeline(input, config);
                clock.finish(result.map(|r| (r.pairs, r.report)), |pairs| self.check_sorted(pairs))
            }
            Workload::ServeMix => unreachable!("serve_mix is not a batch workload"),
        }
    }

    fn check_words(&self, pairs: &[(CompactKey, u64)]) -> Option<String> {
        let Expect::Words(expected) = &self.expect else {
            return Some("a word count ran on sort input".to_string());
        };
        if pairs.len() != expected.len() {
            return Some(format!("{} distinct words, expected {}", pairs.len(), expected.len()));
        }
        pairs.iter().find(|(word, count)| expected.get(word.as_bytes()) != Some(count)).map(
            |(word, count)| {
                format!(
                    "word {:?} counted {count}, expected {:?}",
                    word.to_string_lossy(),
                    expected.get(word.as_bytes())
                )
            },
        )
    }

    fn check_sorted(&self, pairs: &[(Vec<u8>, Vec<u8>)]) -> Option<String> {
        let Expect::Sorted(expected) = &self.expect else {
            return Some("a sort ran on word-count input".to_string());
        };
        if let Err(e) = validate_sorted_output(pairs, expected.records) {
            return Some(e);
        }
        let got = inputs::sort_output_summary(pairs);
        (got != *expected).then(|| {
            format!("output checksum {:016x}, expected {:016x}", got.checksum, expected.checksum)
        })
    }
}

impl Op {
    fn failed(error: String) -> Op {
        Op {
            wall: Duration::ZERO,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            error: Some(error),
            report: JobReport::default(),
        }
    }
}

/// Wall and process CPU time between two points.
pub struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock { cpu_s: sys::cpu_seconds(), wall: Instant::now() }
    }

    pub fn stop(&self) -> (Duration, f64) {
        let wall = self.wall.elapsed();
        (wall, sys::cpu_seconds() - self.cpu_s)
    }

    /// Stop at a job's return, read the peak resident set, and only then
    /// check the output.
    fn finish<P>(
        &self,
        result: supmr::Result<(Vec<P>, JobReport)>,
        check: impl FnOnce(&[P]) -> Option<String>,
    ) -> Op {
        let (wall, cpu_s) = self.stop();
        let peak_rss_mb = sys::peak_rss_mb();
        match result {
            Ok((pairs, report)) => Op { wall, cpu_s, peak_rss_mb, error: check(&pairs), report },
            Err(e) => Op::failed(e.to_string()),
        }
    }
}
