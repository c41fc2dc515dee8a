//! `clgen-obs`: a dependency-free observability core.
//!
//! Three pieces, all hand-rolled in the workspace's house style (no
//! crates.io, text wire formats, deterministic wherever it touches the
//! determinism-guaranteed paths):
//!
//! - [`Registry`] — atomic counters, gauges and fixed-bucket log-scale
//!   [`Histogram`]s registered by name+labels, rendered in the Prometheus
//!   text exposition format (`GET /metrics` in `clgen-serve`).
//! - [`Trace`] — per-request stage spans (`queued → sampling → filter →
//!   drive → features → predict → respond`) with ids that are either
//!   client-supplied or derived deterministically from the request seed.
//! - [`FlightRecorder`] — a lock-striped ring of recent structured events,
//!   dumped as NDJSON when the serving supervisor hits a panic, a reload
//!   failure or restart-budget exhaustion.
//!
//! Alongside them sits the workspace's one JSON string escaper
//! ([`escape_into`] / [`escaped`]), which the flight dumps, the harness's
//! NDJSON and every `clgen-serve` response share.
//!
//! Instrumentation reads monotonic clocks but never feeds sampled bytes:
//! every durations-bearing artifact (trace objects, histograms, flight
//! timestamps) is additive metadata layered on top of the byte-identical
//! response streams.

#![warn(missing_docs)]

mod flight;
mod json;
mod metrics;
mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use json::{escape_into, escaped};
pub use metrics::{Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use trace::{derive_trace_id, next_ordinal, valid_trace_id, Trace};

use std::sync::{Arc, OnceLock};

/// The process-global registry. Long-lived binaries (`clgen-serve`) wire
/// this into their server config so background work (training epochs,
/// harness runs) surfaces through the same `/metrics` endpoint; tests that
/// need hermetic counts construct their own [`Registry`] instead.
pub fn global() -> Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new())).clone()
}
