//! Measurement utilities for the SupMR reproduction.
//!
//! The paper measures two things:
//!
//! 1. **Per-phase wall-clock times** with microsecond granularity using the
//!    Phoenix++ internal timers (Table II). [`phase`] provides the same
//!    phase vocabulary (`ingest`/`map`/`reduce`/`merge`) and the
//!    [`phase::PhaseTimings`] breakdown formatted like the paper's
//!    table rows.
//! 2. **CPU utilization traces** collected with `collectl` (Figs. 1, 3,
//!    5–7). [`trace`] holds the trace representation (percent busy split
//!    into user/sys/iowait vs. wall-clock seconds), [`sampler`] collects a
//!    real trace from `/proc/stat`, and [`ascii`] renders a trace as a
//!    terminal area chart so every figure can be "printed".
//!
//! [`stats`] carries the small summary statistics the evaluation needs
//! (each experiment is run three times and averaged).

//! A third concern was added for the observability layer: **typed job
//! event traces** ([`events`]) with exporters to Chrome `trace_event`
//! JSON and JSONL ([`chrome`]) plus an ASCII Gantt timeline
//! ([`ascii::render_timeline`]), all built on a dependency-free JSON
//! value model ([`json`]).

//! A fourth concern arrived with the live-metrics layer: a
//! dependency-free, lock-cheap [`registry`] of sharded counters, gauges,
//! and HDR-style log-bucketed histograms, exposed as OpenMetrics text
//! ([`openmetrics`]) over an std-only scrape endpoint ([`server`]) and
//! folded into `JobReport` JSON as percentile summaries.

//! The diagnosis layer ([`diag`]) closes the loop the paper draws by
//! hand: a per-phase bandwidth ledger ([`diag::FlowLedger`]) plus a
//! bottleneck classifier ([`diag::BottleneckReport`]) that names the
//! saturated resource, served live from the scrape endpoint's
//! `/debug/diag` route.

pub mod ascii;
pub mod chrome;
pub mod csv;
pub mod diag;
pub mod events;
pub mod json;
pub mod openmetrics;
pub mod phase;
pub mod registry;
pub mod sampler;
pub mod server;
pub mod stats;
pub mod svg;
pub mod trace;

pub use diag::{
    Bottleneck, BottleneckReport, DiagInputs, FlowLedger, FlowPhase, FlowSnapshot, GovernorSample,
    PhaseFlow,
};
pub use events::{
    EventCallback, EventKind, JobTrace, Span, SpanKey, StallSide, StallStats, ThreadTrace,
    TraceEvent, TraceLevel, TraceRing, TraceRound, Tracer,
};
pub use json::Json;
pub use phase::{Phase, PhaseTimings};
pub use registry::{
    Counter, Gauge, GaugeGuard, Histogram, HistogramSnapshot, MetricEntry, MetricKind, MetricValue,
    MetricsSnapshot, Registry,
};
pub use server::{DebugState, HttpHandler, HttpRequest, HttpResponse, MetricsServer};
pub use stats::Summary;
pub use trace::{UtilSample, UtilTrace};
