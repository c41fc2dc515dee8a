//! # clgen-serve
//!
//! A synthesis service over a checkpoint-loaded
//! [`TrainedModel`](clgen::TrainedModel) with
//! **cross-request continuous batching**: the paper's train-once/sample-many
//! workflow, served.
//!
//! The server is dependency-free — a hand-rolled, bounds-checked HTTP/1.1
//! layer over `std::net::TcpListener` ([`http`]) in the same spirit as
//! `clgen-wire`'s hand-rolled serialization — and its heart is the batching
//! [`scheduler`]: connection-handler threads enqueue sampling requests onto
//! a bounded queue, and a single sampler-core thread drains them into the
//! lanes of one continuously-batched
//! [`BatchEngine`](clgen::BatchEngine) run, admitting new requests into
//! free lanes mid-flight. N concurrent clients therefore share one batched
//! forward pass instead of running N serial ones (the ledger's
//! `serve-narrow` and `serve-wide` workloads measure what that buys).
//! Each request is one [`Session`](clgen::Session) — the tally an offline
//! [`SynthesisStream`](clgen::SynthesisStream) keeps — and its candidates go
//! through the same filter stage ([`spawn_filter_stage`](clgen::spawn_filter_stage):
//! one thread of its own, overlapping sampling), so a response
//! reports what [`Sampler::synthesize`](clgen::Sampler::synthesize) reports
//! for the same checkpoint, seed, options and cap.
//!
//! ## Endpoints
//!
//! | Endpoint | Behaviour |
//! |---|---|
//! | `POST /synthesize?count=&temperature=&max_chars=&seed=&max_attempts=&deadline_ms=` | Streams accepted kernels as NDJSON (one object per kernel with its `KernelStats`, then a `"done"` summary line), `Transfer-Encoding: chunked`. |
//! | `POST /drive?sizes=&drive_seed=&deadline_ms=` | Body = OpenCL source. Drives every (kernel × size) work unit through the [`clgen_harness`] pool and streams `run` / `unit_error` NDJSON events, then a `"done"` summary. |
//! | `POST /features?sizes=&drive_seed=&feature_set=&deadline_ms=` | Body = OpenCL source. Same drive, streaming the Grewe `features` vectors (`feature_set=grewe\|extended`) plus `unit_error` events. |
//! | `POST /pipeline?count=&seed=&sizes=&drive_seed=&feature_set=&deadline_ms=…` | The paper's loop over one socket: synthesis through the batching scheduler, each accepted `kernel` line followed inline by its `run`, `features` and `prediction` events, then the synthesis summary. |
//! | `GET /healthz` | Liveness + supervisor health: `ok`/`degraded`/`failed` with restart counts (`503` once failed). |
//! | `GET /stats` | Aggregate throughput ([`SynthesisStats`](clgen::SynthesisStats) totals), lane occupancy, queue depth, request counters, harness counters, health. |
//! | `GET /metrics` | The full metric catalog in the Prometheus text exposition format — request-latency histograms by endpoint and outcome, queue depth/wait, lane occupancy, filter accept/reject, harness unit outcomes, supervisor restarts. Rendered from the same atomics as `/stats`. |
//! | `GET /debug/flight` | The flight recorder's recent-event ring as NDJSON (admissions, sheds, reaps, sampling steps, faults). Gated behind `--debug-flight`; `404` otherwise. |
//! | `POST /shutdown` | Graceful shutdown with a bounded drain: in-flight requests finish, or get `503` once the drain timeout passes. |
//!
//! `prediction` events carry the CPU/GPU class from the `CLGENPRD` mapping
//! model loaded at startup (`--mapping-model`); without one, `/drive`,
//! `/features` and `/pipeline` still stream runs and features.
//!
//! All four POST endpoints share one request lifecycle (`server.rs`): their
//! parameters are parsed once (a failure is a `400`), `deadline_ms`
//! included; one queue gate admits them; the deadline clock starts at
//! admission; and each request takes exactly one `clgen_request_latency_us`
//! sample, before its terminating chunk. Backpressure is that gate: at most
//! `queue_cap` requests hold a place in the queue (synthesis jobs until the
//! sampler core activates, sheds or fails them; drives until answered), and
//! beyond that every POST endpoint answers `503` with `Retry-After: 1`.
//! Every admission counts in `clgen_requests_received_total` and every
//! refusal in `clgen_requests_rejected_total`, so the two partition the
//! requests that passed validation. Harness work units run under bounded
//! step/resource budgets inside `catch_unwind`: a hostile kernel becomes a
//! typed `unit_error` line on its own unit — never a sampler-core restart.
//!
//! ## Fault tolerance
//!
//! The sampler core is **supervised**: a panic (a poisoned request, a model
//! bug) fails only the in-flight requests — with typed `500` replies, never
//! retried into a fresh batch — and the core respawns from the checkpoint
//! image, within a restart budget per sliding window ([`Supervisor`]).
//! Per-request **deadlines** (`deadline_ms` parameter, or a server default)
//! shed expired queued jobs with `503` and reap expired in-flight requests
//! mid-step, returning the partial response with a `"timeout"` marker. The
//! whole stack is testable under **deterministic fault injection**
//! ([`faults::FaultPlan`], inert unless `--faults` arms it):
//! seeded, named fault points cover sampler panics, stalls, slow and
//! dropped client writes, and checkpoint corruption on reload, and the
//! chaos suite (`tests/chaos.rs`) asserts that concurrent *unaffected*
//! requests still produce byte-identical responses while faults fire.
//! [`client`] provides the matching retry policy (capped exponential
//! backoff with deterministic jitter, honoring `Retry-After`).
//!
//! ## Determinism
//!
//! For a fixed checkpoint, a request's response body is byte-identical
//! across runs and **independent of request arrival order** — candidate `i`
//! of a request samples from a seed derived only from the request's `seed`
//! parameter, candidates are absorbed into the response in candidate order,
//! and the response covers a deterministic prefix of them (see the
//! [`scheduler`] docs). The property is exercised end-to-end over real
//! sockets in `tests/serve_roundtrip.rs`.
//!
//! Observability is **additive** on top of that guarantee: instrumentation
//! reads monotonic clocks but never feeds sampled bytes, so the only
//! timing-dependent bytes in a response are the spliced `"trace"` object on
//! the done line and the `"trace_id"` field on harness event lines. Strip
//! them with [`json::strip_trace_body`] (or [`client::strip_traces`]) to
//! recover the byte-identical deterministic body.
//!
//! ```no_run
//! use clgen::TrainedModel;
//! use clgen_serve::{Server, ServerConfig};
//!
//! let model = TrainedModel::load("model.ckpt").expect("checkpoint");
//! let handle = Server::start(model, ServerConfig::default()).expect("bind");
//! println!("serving on http://{}", handle.addr());
//! handle.join(); // until a client POSTs /shutdown
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod harness_api;
pub mod http;
pub mod json;
mod metrics;
pub mod scheduler;
pub mod server;

pub use faults::{FaultPlan, FaultPoint};
pub use scheduler::{ResponseEvent, ServeError, ServiceHealth, Supervisor, SynthesisParams};
pub use server::{Server, ServerConfig, ServerHandle, MAX_DEADLINE_MS};

/// Default cap on candidates sampled per requested kernel when a request
/// does not set `max_attempts` explicitly.
pub const DEFAULT_MAX_ATTEMPTS_PER_KERNEL: usize = 64;
