//! The original (baseline) runtime: whole-input ingest, one map wave.
//!
//! This is the Phoenix++-style execution the paper measures as "none" in
//! Table II: the job reads *all* input from primary storage into memory
//! (a long, serial, IO-bound phase — the ingest bottleneck of Fig. 1),
//! then launches one wave of mapper threads over the input splits, then
//! reduces and merges.

use super::{finish_job, ingest_entire, map_wave, Input, StageCtx, StageResult, StageWiring};
use crate::api::MapReduce;
use crate::container::Container;
use crate::error::{Result, SupmrError};
use std::sync::Arc;
use std::time::Instant;
use supmr_metrics::Phase;

/// Execute `job` on the original runtime.
pub(crate) fn run<J: MapReduce>(
    job: &Arc<J>,
    input: Input,
    mut ctx: StageCtx<'_>,
    wiring: StageWiring<J>,
) -> Result<StageResult<J::Key, J::Output>> {
    let container = job.make_container();
    container.configure(&super::container_hooks(ctx.config));
    let spill = super::setup_spill(job, &container, &mut ctx, &wiring)?;

    ctx.probe.enter(Phase::Ingest);
    let started = Instant::now();
    let chunk = ingest_entire(input).map_err(|source| SupmrError::ingest(0, source))?;
    ctx.probe.chunk_ingested(0, started, chunk.len());
    ctx.probe.leave(Phase::Ingest);

    ctx.config.check_cancelled()?;
    ctx.probe.enter(Phase::Map);
    let outcome = map_wave(job, &container, &chunk, &ctx, 0);
    ctx.probe.leave(Phase::Map);
    ctx.probe.round_mapped(chunk.len(), outcome);
    drop(chunk); // input buffer freed before reduce, as in Phoenix++

    finish_job(job, container, spill, ctx, wiring)
}
