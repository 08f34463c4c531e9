//! The original (baseline) runtime: whole-input ingest, one map wave.
//!
//! This is the Phoenix++-style execution the paper measures as "none" in
//! Table II: the job reads *all* input from primary storage into memory
//! (a long, serial, IO-bound phase — the ingest bottleneck of Fig. 1),
//! then launches one wave of mapper threads over the input splits, then
//! reduces and merges.

use super::{
    finish_job, ingest_entire, map_wave, Input, JobConfig, JobMetrics, JobStats, StageResult,
    StageWiring,
};
use crate::api::MapReduce;
use crate::container::Container;
use crate::error::{Result, SupmrError};
use crate::pool::Executor;
use std::sync::Arc;
use std::time::Instant;
use supmr_metrics::{EventKind, FlowPhase, Phase, PhaseTimer, Tracer};

/// Execute `job` on the original runtime.
pub(crate) fn run<J: MapReduce>(
    job: &Arc<J>,
    input: Input,
    config: &JobConfig,
    exec: Executor<'_>,
    tracer: &Tracer,
    wiring: StageWiring<J>,
) -> Result<StageResult<J::Key, J::Output>> {
    let mut timer = PhaseTimer::start_job();
    let mut stats = JobStats::default();
    let metrics = config.metrics.as_ref().map(|r| JobMetrics::register(r, "original"));
    let container = job.make_container();
    container.configure(&super::container_hooks(config));
    let spill = super::setup_spill(job, &container, config, tracer, &wiring)?;

    timer.begin(Phase::Ingest);
    tracer.emit(EventKind::ChunkIngestStart { chunk: 0 });
    let ingest0 = Instant::now();
    let chunk = ingest_entire(input).map_err(|source| SupmrError::ingest(0, source))?;
    tracer.emit(EventKind::ChunkIngestEnd { chunk: 0, bytes: chunk.len() as u64 });
    if let Some(m) = &metrics {
        m.record_ingest(chunk.len() as u64, ingest0.elapsed());
    }
    if let Some(f) = &config.flow {
        f.record_owned(FlowPhase::Ingest, chunk.len() as u64, ingest0.elapsed());
    }
    timer.end(Phase::Ingest);
    stats.bytes_ingested = chunk.len() as u64;
    stats.ingest_chunks = 1;

    config.check_cancelled()?;
    timer.begin(Phase::Map);
    let outcome = map_wave(job, &container, &chunk, config, exec, tracer, metrics.as_ref(), 0);
    timer.end(Phase::Map);
    stats.map_rounds = 1;
    stats.map_tasks = outcome.tasks;
    stats.add_wave(outcome);
    drop(chunk); // input buffer freed before reduce, as in Phoenix++

    finish_job(job, container, config, exec, tracer, metrics.as_ref(), spill, timer, stats, wiring)
}
