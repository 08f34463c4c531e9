//! The original (baseline) runtime: whole-input ingest, one map wave.
//!
//! This is the Phoenix++-style execution the paper measures as "none" in
//! Table II: the job reads *all* input from primary storage into memory
//! (a long, serial, IO-bound phase — the ingest bottleneck of Fig. 1),
//! then launches one wave of mapper threads over the input splits
//! (followed, for a combining job, by the wave that absorbs its worker
//! tables), then reduces and merges. A pipeline stage that takes its
//! upstream's pairs runs here too, with one absorb wave — every pair
//! through the stage's edge function — in place of ingest and map.

use super::{
    finish_job, ingest_entire, map_wave, Input, MapTables, StageCtx, StageResult, StageWiring,
};
use crate::api::{Emit, MapReduce};
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
    wiring: StageWiring,
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
    let tables = MapTables::new(&container, ctx.config);
    let outcome = map_wave(job, &tables, &chunk, &ctx, 0);
    tables.flush(&mut ctx);
    ctx.probe.leave(Phase::Map);
    ctx.probe.round_mapped(chunk.len(), outcome);
    drop(chunk); // input buffer freed before reduce, as in Phoenix++

    finish_job(job, container, spill, ctx, wiring)
}

/// Execute `job` over the reduce partitions of the stage before it in a
/// pipeline ([`Pipeline::then_with`](super::Pipeline::then_with)): no
/// ingest and no map — one absorb wave hands each partition's pairs to
/// `edge`, which emits them into the container (charging them to the
/// budget, as a map task's pairs are), then reduce and merge as above.
pub(crate) fn absorb<J: MapReduce, UK, UO>(
    job: &Arc<J>,
    parts: Vec<Vec<(UK, UO)>>,
    edge: &(impl Fn(UK, UO, &mut dyn Emit<J::Key, J::Value>) + Sync),
    mut ctx: StageCtx<'_>,
    wiring: StageWiring,
) -> Result<StageResult<J::Key, J::Output>>
where
    (UK, UO): Send,
{
    let container = job.make_container();
    container.configure(&super::container_hooks(ctx.config));
    let spill = super::setup_spill(job, &container, &mut ctx, &wiring)?;

    ctx.config.check_cancelled()?;
    ctx.probe.enter(Phase::Map);
    let pair_bytes = std::mem::size_of::<(UK, UO)>();
    let outcome = ctx.probe.map_wave(0, parts.len(), || {
        ctx.exec.run(ctx.config.map_width(), parts, |idx, part| {
            let mut local = container.local();
            ctx.probe.map_task(0, idx, part.len() * pair_bytes, || {
                for (key, value) in part {
                    edge(key, value, &mut local);
                }
            });
            ctx.probe.absorb::<J>(&container, local);
        })
    });
    ctx.probe.leave(Phase::Map);
    // One resident round; nothing was read from storage.
    ctx.probe.round_mapped(0, outcome);

    finish_job(job, container, spill, ctx, wiring)
}
