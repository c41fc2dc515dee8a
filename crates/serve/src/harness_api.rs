//! The served side of the drive-and-predict harness: `POST /drive`,
//! `POST /features` and `POST /pipeline`.
//!
//! `/drive` and `/features` take raw OpenCL source as the request body, fan
//! it through the [`clgen_harness`] work-unit pool on the connection thread,
//! and stream one NDJSON stage back (`run` records, or feature vectors).
//! `/pipeline` closes the paper's loop over one socket: it runs a normal
//! `/synthesize` job through the batching scheduler and, after each accepted
//! kernel line, drives that kernel through the harness inline — so the
//! client sees `kernel`, `run`, `features` and `prediction` events
//! interleaved per kernel, then the synthesis summary line.
//!
//! All three share the server's admission machinery: the bounded `queued`
//! gate answers `503` with `Retry-After` under load, the deadline clock
//! starts at admission, and hostile kernels are contained by the harness's
//! per-unit budgets and `catch_unwind` — a panic or budget kill becomes a
//! typed `unit_error` NDJSON line, never a sampler-core restart.

use crate::http::{self, Request};
use crate::json;
use crate::scheduler::SchedMsg;
use crate::server::{client_disconnected, stream_synthesis, write_error, Shared, MAX_DEADLINE_MS};
use clgen_harness::{Deadline, Harness, HarnessReport, UNIT_OUTCOMES};
use clgen_obs::Trace;
use grewe_features::FeatureSet;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Maximum number of payload sizes accepted per request.
pub const MAX_DRIVE_SIZES: usize = 16;
/// Largest accepted payload (global) size. Driving cost is bounded by the
/// profiling caps, not the size, but astronomically large sizes are typos.
pub const MAX_DRIVE_SIZE: usize = 1 << 26;

/// Which NDJSON stages a drive endpoint streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DriveStage {
    /// `/drive`: `run` + `unit_error` lines.
    Runs,
    /// `/features`: feature-vector lines (plus `unit_error` lines, so
    /// failed units are visible rather than silently absent).
    Features,
}

/// Parsed and bounds-checked harness parameters, shared by all three
/// endpoints (`/pipeline` reads them alongside the synthesis parameters).
#[derive(Debug, Clone, Default)]
pub(crate) struct DriveParams {
    sizes: Option<Vec<usize>>,
    drive_seed: Option<u64>,
    feature_set: Option<FeatureSet>,
    deadline_ms: Option<u64>,
}

/// Parse `sizes`, `drive_seed`, `feature_set` and `deadline_ms`.
pub(crate) fn parse_drive_params(request: &Request) -> Result<DriveParams, String> {
    let mut params = DriveParams::default();
    if let Some(raw) = request.query_param("sizes") {
        let mut sizes = Vec::new();
        for part in raw.split(',').filter(|p| !p.is_empty()) {
            let size: usize = part
                .parse()
                .map_err(|_| format!("parameter \"sizes\" holds a non-integer: {part:?}"))?;
            if size == 0 || size > MAX_DRIVE_SIZE {
                return Err(format!("sizes must be in 1..={MAX_DRIVE_SIZE}"));
            }
            sizes.push(size);
        }
        if sizes.is_empty() || sizes.len() > MAX_DRIVE_SIZES {
            return Err(format!("sizes must list 1..={MAX_DRIVE_SIZES} values"));
        }
        params.sizes = Some(sizes);
    }
    if let Some(raw) = request.query_param("drive_seed") {
        params.drive_seed = Some(
            raw.parse()
                .map_err(|_| format!("parameter \"drive_seed\" is not valid: {raw:?}"))?,
        );
    }
    if let Some(raw) = request.query_param("feature_set") {
        params.feature_set = Some(match raw {
            "grewe" => FeatureSet::Grewe,
            "extended" => FeatureSet::Extended,
            _ => return Err("feature_set must be \"grewe\" or \"extended\"".to_string()),
        });
    }
    if let Some(raw) = request.query_param("deadline_ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| format!("parameter \"deadline_ms\" is not valid: {raw:?}"))?;
        if ms == 0 || ms > MAX_DEADLINE_MS {
            return Err(format!("deadline_ms must be in 1..={MAX_DEADLINE_MS}"));
        }
        params.deadline_ms = Some(ms);
    }
    Ok(params)
}

/// Build the per-request harness: the server's configured harness with the
/// request's overrides applied, plus the loaded mapping model (if any).
pub(crate) fn build_harness(shared: &Shared, params: &DriveParams) -> Harness {
    let mut config = shared.config.harness.clone();
    if let Some(sizes) = &params.sizes {
        config.sizes = sizes.clone();
    }
    if let Some(seed) = params.drive_seed {
        config.driver.seed = seed;
    }
    if let Some(feature_set) = params.feature_set {
        config.feature_set = feature_set;
    }
    Harness::new(config, shared.config.mapping_model.clone())
        .with_metrics(shared.metrics.registry.clone())
}

/// Resolve the request's deadline (its own `deadline_ms`, else the server
/// default) into a harness [`Deadline`]; the clock starts at admission.
pub(crate) fn drive_deadline(params: &DriveParams, shared: &Shared) -> Deadline {
    match params
        .deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms))
    {
        Some(at) => Deadline::at(at),
        None => Deadline::none(),
    }
}

/// Decrements the admission queue counter when dropped, so every exit path
/// (including a panicking connection thread) releases its slot.
struct QueueSlot<'a>(&'a AtomicUsize);

impl Drop for QueueSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Admit a request through the bounded queue gate, answering `503` with
/// `Retry-After` (and counting the rejection) when saturated or stopping.
/// Returns the slot guard on success.
fn admit<'a>(stream: &mut TcpStream, shared: &'a Shared) -> Option<QueueSlot<'a>> {
    let depth = shared.queued.fetch_add(1, Ordering::SeqCst);
    let slot = QueueSlot(&shared.queued);
    if depth >= shared.config.queue_cap || shared.shutdown.load(Ordering::SeqCst) {
        drop(slot);
        shared.metrics.requests_rejected.inc();
        let _ = http::write_response_with(
            stream,
            503,
            "Service Unavailable",
            &[("Retry-After", "1")],
            "application/json",
            format!("{{\"error\":\"queue full\",\"queue_depth\":{depth}}}\n").as_bytes(),
        );
        return None;
    }
    Some(slot)
}

/// The NDJSON lines a drive endpoint streams for a report.
fn stage_lines(report: &HarnessReport, stage: DriveStage) -> Vec<String> {
    match stage {
        DriveStage::Runs => report.ndjson_runs(),
        DriveStage::Features => {
            let mut lines: Vec<String> = report
                .ndjson_runs()
                .into_iter()
                .filter(|l| l.starts_with("{\"event\":\"unit_error\""))
                .collect();
            lines.extend(report.ndjson_features());
            lines
        }
    }
}

/// The terminal summary line for `/drive` and `/features`.
fn done_line(report: &HarnessReport, model_attached: bool) -> String {
    let c = report.counters();
    format!(
        "{{\"done\":true,\"kernels\":{},\"units\":{},\"ok\":{},\"budget_killed\":{},\
         \"panicked\":{},\"deadline\":{},\"drive_error\":{},\"predictions\":{},\"model\":{}}}",
        c.kernels_driven,
        c.units_total,
        c.units_ok,
        c.units_budget_killed,
        c.units_panicked,
        c.units_deadline,
        c.units_drive_error,
        c.predictions,
        model_attached,
    )
}

/// `POST /drive` and `POST /features`: drive the POSTed kernel source and
/// stream one harness stage as NDJSON.
pub(crate) fn handle_drive(
    request: Request,
    mut stream: TcpStream,
    shared: &Shared,
    stage: DriveStage,
) {
    let endpoint = match stage {
        DriveStage::Runs => "drive",
        DriveStage::Features => "features",
    };
    let received_at = Instant::now();
    let finish = |outcome: &'static str| {
        shared
            .metrics
            .observe_latency(endpoint, outcome, received_at.elapsed().as_micros() as u64);
    };
    let params = match parse_drive_params(&request) {
        Ok(params) => params,
        Err(message) => {
            write_error(&mut stream, 400, "Bad Request", &message);
            finish("bad_request");
            return;
        }
    };
    let source = match std::str::from_utf8(&request.body) {
        Ok(s) if !s.trim().is_empty() => s.to_string(),
        _ => {
            write_error(
                &mut stream,
                400,
                "Bad Request",
                "request body must be non-empty UTF-8 OpenCL source",
            );
            finish("bad_request");
            return;
        }
    };
    let Some(_slot) = admit(&mut stream, shared) else {
        finish("rejected");
        return;
    };
    let trace = Trace::from_client(
        request.header("trace-id"),
        params
            .drive_seed
            .unwrap_or(shared.config.harness.driver.seed),
    );
    let deadline = drive_deadline(&params, shared);
    let harness = build_harness(shared, &params);
    // The harness runs on this connection thread; its per-unit catch_unwind
    // and budgets contain hostile kernels, so failures here are typed lines
    // or typed HTTP errors — the sampler core is never involved.
    let report = match harness.drive_source(&source, &deadline) {
        Ok(report) => report,
        Err(e) => {
            // The response head is not yet written, so a source-level
            // failure is still a clean typed error.
            write_error(&mut stream, 422, "Unprocessable Entity", &e.to_string());
            finish("unprocessable");
            return;
        }
    };
    record_stage_spans(&trace, &report);
    if client_disconnected(&stream) {
        finish("disconnect");
        return;
    }
    let respond_started = Instant::now();
    let Ok(mut chunks) = http::ChunkedWriter::new(&mut stream, 200, "OK", "application/x-ndjson")
    else {
        finish("disconnect");
        return;
    };
    let trace_tag = format!("\"trace_id\":{}", json::escaped(trace.id()));
    for line in stage_lines(&report, stage) {
        let line = json::splice_field(&line, &trace_tag);
        if chunks.chunk(format!("{line}\n").as_bytes()).is_err() {
            finish("disconnect");
            return;
        }
    }
    trace.record_since("respond", respond_started);
    let done = json::splice_field(
        &done_line(&report, harness.has_model()),
        &format!("\"trace\":{}", trace.render_json()),
    );
    let _ = chunks.chunk(format!("{done}\n").as_bytes());
    // Sample before the terminating chunk: a client that has seen the full
    // response is guaranteed to find it on an immediate `/metrics` scrape.
    finish("ok");
    let _ = chunks.finish();
}

/// Fold a report's per-stage wall-clock totals into a trace: `drive` (unit
/// execution), `features` (extraction) and `predict` (mapping inference).
fn record_stage_spans(trace: &Trace, report: &HarnessReport) {
    let (run_us, features_us, predict_us) = report.stage_timing_us();
    trace.record("drive", run_us);
    trace.record("features", features_us);
    trace.record("predict", predict_us);
}

/// `POST /pipeline`: synthesize kernels through the batching scheduler and
/// drive each accepted kernel through the harness inline, streaming the full
/// loop (`kernel` → `run` → `features` → `prediction` events, then the
/// synthesis summary) over one socket.
pub(crate) fn handle_pipeline(
    request: Request,
    mut stream: TcpStream,
    tx: mpsc::Sender<SchedMsg>,
    shared: &Shared,
) {
    let params = match parse_drive_params(&request) {
        Ok(params) => params,
        Err(message) => {
            write_error(&mut stream, 400, "Bad Request", &message);
            return;
        }
    };
    let harness = build_harness(shared, &params);
    stream_synthesis(request, stream, tx, shared, Some(harness), "pipeline");
}

/// Render the harness block of `/stats` from the shared registry — the same
/// `clgen_harness_*` series `GET /metrics` exposes, so the two views agree.
pub(crate) fn render_harness_stats(shared: &Shared) -> String {
    let registry = &shared.metrics.registry;
    // The five outcomes are all a unit can end in: their sum is the total.
    let mut total = 0;
    let mut by_outcome = String::new();
    for outcome in UNIT_OUTCOMES {
        let units = registry
            .counter("clgen_harness_units_total", &[("outcome", outcome)], "")
            .get();
        total += units;
        by_outcome.push_str(&format!(",\"{outcome}\":{units}"));
    }
    let kernels_driven = registry
        .counter("clgen_harness_kernels_driven_total", &[], "")
        .get();
    let predictions = registry
        .counter("clgen_harness_predictions_total", &[], "")
        .get();
    // Steps over microseconds is the interpreter's speed in production.
    let unit_sum = |name: &str| registry.histogram(name, &[], "").sum();
    format!(
        "{{\"model\":{},\"kernels_driven\":{},\"units\":{{\"total\":{total}{by_outcome}}},\
         \"unit_steps\":{},\"unit_run_us\":{},\"predictions\":{}}}",
        shared.config.mapping_model.is_some(),
        kernels_driven,
        unit_sum("clgen_harness_unit_steps"),
        unit_sum("clgen_harness_unit_run_us"),
        predictions,
    )
}

/// The harness NDJSON lines for one synthesized kernel inside `/pipeline`:
/// drive the kernel extracted from the rendered synthesis line (the harness
/// reports its counters into the shared registry itself), tag each event
/// line with the request's trace id, and return the staged event lines. A
/// source the harness cannot compile (synthesized kernels passed the
/// rejection filter, so this is rare) becomes one typed `harness_error`
/// line — it must not kill the stream.
pub(crate) fn pipeline_lines(
    harness: &Harness,
    kernel_line: &str,
    deadline: &Deadline,
    trace: &Trace,
) -> Vec<String> {
    let Some(source) = json::extract_str(kernel_line, "kernel") else {
        return Vec::new();
    };
    let trace_tag = format!("\"trace_id\":{}", json::escaped(trace.id()));
    match harness.drive_source(&source, deadline) {
        Ok(report) => {
            record_stage_spans(trace, &report);
            report
                .ndjson()
                .into_iter()
                .map(|line| json::splice_field(&line, &trace_tag))
                .collect()
        }
        Err(e) => vec![json::splice_field(
            &format!(
                "{{\"event\":\"harness_error\",\"detail\":{}}}",
                json::escaped(&e.to_string())
            ),
            &trace_tag,
        )],
    }
}
