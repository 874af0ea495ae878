//! `obs` — the workspace's low-overhead observability layer.
//!
//! Everything the paper's evaluation argues from — throughput, end-to-end
//! latency, per-core utilization — is a *measurement*, and this crate is
//! where the workspace's measurements live. It has one metric model,
//! read the same way during a run and after it:
//!
//! 1. **[`Counter`] / [`Gauge`]** — relaxed shared-atomic `u64` cells.
//!    `Clone` shares the cell, so the thread that updates one and the
//!    thread that reads it hold the same value.
//! 2. **[`Registry`]** — the named store of cells
//!    (`"splitjoin.worker.0.matches"` → cell). [`live::global`] is the
//!    process-wide instance the engines register into when
//!    [`live::set_active`] armed it; `query::QueryRuntime` owns its own.
//! 3. **[`Values`]** — the one frozen, name-sorted name → value map: a
//!    registry read at one instant ([`Registry::values`]; stamped with
//!    its time it is a [`Snapshot`]), the counts an engine publishes at
//!    shutdown, a manifest's counters, a line of a series file. An
//!    engine that publishes a quantity both ways uses one key for both,
//!    so a manifest agrees with the final sample of the run's series.
//! 4. **[`Histogram`]** — 64 log2 buckets plus exact count/sum/min/max,
//!    with p50/p95/p99 estimates, for everything that is a distribution
//!    rather than a count.
//!
//! Three artifacts carry these to disk, all under [`default_dir`] with a
//! shared file stem: a **[`RunManifest`]** (`<name>.json`: git revision,
//! thread count, configuration, a [`Values`] of counters and the
//! histograms — written by every `figs` figure,
//! and carried by every standing query's report), a **[`series`]** file (`<name>.series.jsonl`: one
//! [`Snapshot`] per [`live::Sampler`] tick) and a **[`trace`]** export
//! (`<name>.trace.json`). [`json`] is the tiny serializer / parser
//! underneath (the workspace builds offline; there is no serde).
//!
//! [`trace`] and [`provenance`] answer *when* and *where* instead of
//! *how much*: bounded per-worker span rings (cycle-stamped in the
//! simulation, wall-clock in the software data path) exported as Chrome
//! trace-event JSON for <https://ui.perfetto.dev>, and 1-in-N sampled
//! tuples whose end-to-end latency is attributed to pipeline stages
//! (ingest → distribute → probe → gather → emit) with exact stage-sum
//! accounting. [`health`] reads a series file back and names what went
//! wrong in it: which worker stalled, which ring filled, when.
//!
//! Instrumentation must never change behaviour: cells carry no
//! control-flow, and the simulation's golden cycle-count pins hold with
//! tracing switched on at run time
//! (`golden_cycles_are_identical_with_tracing_on`).
//!
//! # Example
//!
//! ```
//! use obs::{Histogram, Registry, RunManifest};
//!
//! // Hot path: a component holds handles to named cells.
//! let reg = Registry::new();
//! let matches = reg.counter("join.worker.0.matches");
//! matches.add(3);
//!
//! // Measurement: record every sample, not just the mean.
//! let mut service = Histogram::new();
//! for cycles in [12u64, 14, 12, 90] {
//!     service.record_value(cycles);
//! }
//!
//! // Artifact: the registry's final reading, one JSON document per run.
//! let mut manifest = RunManifest::new("example");
//! manifest.record_values(&reg.values());
//! manifest.histogram("service_cycles", service);
//! let parsed = RunManifest::from_json(&manifest.to_json()).unwrap();
//! assert_eq!(parsed, manifest);
//! assert_eq!(parsed.counters().get("join.worker.0.matches"), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
pub mod health;
mod hist;
pub mod json;
pub mod live;
mod manifest;
pub mod provenance;
pub mod series;
pub mod trace;
mod values;

pub use cell::{Counter, Gauge, MetricKind, Registry};
pub use hist::Histogram;
pub use manifest::{default_dir, git_rev, RunManifest, SCHEMA_VERSION};
pub use values::{Snapshot, Values};
