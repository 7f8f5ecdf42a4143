//! `swsec-obs` — structured observability for the swsec laboratory.
//!
//! The paper's subject is what an attacker's *execution does*:
//! control-flow redirection, canary trips, DEP faults, protected-module
//! access denials. This crate turns those moments into data:
//!
//! - [`event`] — the typed, allocation-free [`SecurityEvent`]
//!   vocabulary and the [`EventMask`] interest bitmask.
//! - [`sink`] — the pluggable [`EventSink`] trait plus stock sinks
//!   (bounded ring buffer, per-kind counters, hot-address profile).
//! - [`coverage`] — an AFL-style edge/event coverage map over the
//!   event stream: the novelty signal behind the `swsec-fuzz`
//!   coverage-guided fuzzer.
//! - [`jsonl`] — the versioned, round-trippable JSONL wire schema and
//!   a streaming export sink.
//! - [`metrics`] — a registry of named counters and fixed-bucket
//!   histograms with a deterministic render.
//! - [`span`] — hierarchical spans over the campaign → cell → attempt
//!   lifecycle, with a deterministic sequence clock in every render
//!   path and Chrome `trace_event` export for Perfetto timelines.
//! - [`sym`] — label → address-range symbol tables, so sampled guest
//!   PCs resolve to guest function names in `.folded` profiles.
//! - [`json`] — the self-contained JSON support underneath [`jsonl`]
//!   (the workspace builds offline, with no registry dependencies).
//!
//! The crate depends on nothing but `std`, so every other crate in the
//! workspace — including the VM — can emit into it without dependency
//! cycles.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads the wall clock or other ambient state on
//! a render path. [`MetricsRegistry::render`], ring-buffer drains and
//! hot-address tables are pure functions of what was recorded, so the
//! workspace invariant from earlier PRs — experiment reports are
//! byte-identical however telemetry is configured — extends to the
//! telemetry itself: a deterministic run yields a deterministic dump.

#![warn(missing_docs)]

pub mod coverage;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod sym;

pub use coverage::{CoverageGain, CoverageMap, CoverageSink, GlobalCoverage};
pub use event::{ControlKind, EventMask, FaultKind, PmaRule, SecurityEvent};
pub use jsonl::{JsonlSink, LineError, Record, SCHEMA_VERSION};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{CountingSink, EventCounts, EventSink, HotAddressSink, RingBufferSink};
pub use span::{ChromeInstant, Span, SpanCollector, SpanKind, SpanMask, SpanRecord, SpanRecorder};
pub use sym::SymbolTable;
