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
//! All three run through the server's one POST lifecycle, the one
//! `/synthesize` runs through too: parameters parsed once (`400`), one queue
//! gate (`503` with `Retry-After` under load, every admission counted in
//! `clgen_requests_received_total`), a deadline whose clock starts at
//! admission, and one `clgen_request_latency_us` sample per request. This
//! module supplies the harness parts: `parse_harness` and the `/drive` /
//! `/features` body (`stream_drive`); `/pipeline` is a synthesis job with
//! a harness attached (`pipeline_lines`). Hostile kernels are contained by
//! the harness's per-unit budgets and `catch_unwind` — a panic or budget
//! kill becomes a typed `unit_error` NDJSON line, never a sampler-core
//! restart.

use crate::http::{self, Request};
use crate::json;
use crate::server::{client_disconnected, write_error, Ended, Shared};
use clgen_harness::{Deadline, Harness, HarnessReport, UNIT_OUTCOMES};
use clgen_obs::Trace;
use grewe_features::FeatureSet;
use std::net::TcpStream;
use std::time::Instant;

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

/// The request's harness: the server's configured one with the request's
/// `sizes`, `drive_seed` and `feature_set` applied (bounds-checked, in that
/// order), plus the loaded mapping model (if any). Shared by all three
/// endpoints (`/pipeline` reads its synthesis parameters after these).
pub(crate) fn parse_harness(request: &Request, shared: &Shared) -> Result<Harness, String> {
    let mut config = shared.config.harness.clone();
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
        config.sizes = sizes;
    }
    if let Some(raw) = request.query_param("drive_seed") {
        config.driver.seed = raw
            .parse()
            .map_err(|_| format!("parameter \"drive_seed\" is not valid: {raw:?}"))?;
    }
    if let Some(raw) = request.query_param("feature_set") {
        config.feature_set = match raw {
            "grewe" => FeatureSet::Grewe,
            "extended" => FeatureSet::Extended,
            _ => return Err("feature_set must be \"grewe\" or \"extended\"".to_string()),
        };
    }
    Ok(Harness::new(config, shared.config.mapping_model.clone())
        .with_metrics(shared.metrics.registry.clone()))
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

/// `POST /drive` and `POST /features` once admitted: drive the POSTed source
/// on this connection thread and stream one harness stage as NDJSON. The
/// harness's per-unit `catch_unwind` and budgets contain hostile kernels, so
/// failures here are typed lines or typed HTTP errors — the sampler core is
/// never involved.
pub(crate) fn stream_drive<'s>(
    stream: &'s TcpStream,
    stage: DriveStage,
    harness: &Harness,
    source: &str,
    trace: &Trace,
    deadline: &Deadline,
) -> Ended<'s> {
    let report = match harness.drive_source(source, deadline) {
        Ok(report) => report,
        Err(e) => {
            // The response head is not yet written, so a source-level
            // failure is still a clean typed error.
            write_error(stream, 422, "Unprocessable Entity", &e.to_string());
            return ("unprocessable", None);
        }
    };
    record_stage_spans(trace, &report);
    if client_disconnected(stream) {
        return ("disconnect", None);
    }
    let respond_started = Instant::now();
    let Ok(mut chunks) = http::ChunkedWriter::new(stream, 200, "OK", "application/x-ndjson") else {
        return ("disconnect", None);
    };
    let trace_tag = format!("\"trace_id\":{}", json::escaped(trace.id()));
    for line in stage_lines(&report, stage) {
        let line = json::splice_field(&line, &trace_tag);
        if chunks.chunk(format!("{line}\n").as_bytes()).is_err() {
            return ("disconnect", None);
        }
    }
    trace.record_since("respond", respond_started);
    let done = json::splice_field(
        &done_line(&report, harness.has_model()),
        &format!("\"trace\":{}", trace.render_json()),
    );
    let _ = chunks.chunk(format!("{done}\n").as_bytes());
    ("ok", Some(chunks))
}

/// Fold a report's per-stage wall-clock totals into a trace: `drive` (unit
/// execution), `features` (extraction) and `predict` (mapping inference).
fn record_stage_spans(trace: &Trace, report: &HarnessReport) {
    let (run_us, features_us, predict_us) = report.stage_timing_us();
    trace.record("drive", run_us);
    trace.record("features", features_us);
    trace.record("predict", predict_us);
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
