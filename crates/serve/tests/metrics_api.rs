//! Integration tests for the observability surface: the Prometheus `/metrics`
//! exposition, its agreement with `/stats`, the per-request trace objects on
//! NDJSON `done` lines, client `trace-id` passthrough, and the CLI-gated
//! `/debug/flight` dump.

use clgen::{ClgenBuilder, ClgenOptions, TrainedModel};
use clgen_harness::HarnessConfig;
use clgen_serve::{client, json, Server, ServerConfig, SynthesisParams};
use std::io::Write;
use std::net::SocketAddr;

const VECADD: &str =
    "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
    int e = get_global_id(0);
    if (e < d) { c[e] = a[e] + b[e]; }
}";

/// Reads its buffer and writes nothing: the dynamic check's `NoOutput`.
const NO_OUTPUT: &str = "__kernel void A(__global float* a, const int n) {
    int i = get_global_id(0);
    float x = a[i % 16] * 2.0f;
}";

fn checkpointed_model(seed: u64) -> TrainedModel {
    let mut options = ClgenOptions::small(seed);
    options.corpus.miner.repositories = 40;
    ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus builds")
        .train()
        .expect("training succeeds")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lanes: 4,
        harness: HarnessConfig::quick(),
        ..ServerConfig::default()
    }
}

fn params(seed: u64) -> SynthesisParams {
    SynthesisParams {
        count: 1,
        temperature: 0.8,
        max_chars: 256,
        seed,
        max_attempts: 64,
        deadline_ms: None,
    }
}

/// Assert `body` is well-formed Prometheus text exposition, line by line:
/// only `# HELP`/`# TYPE` comments and `name{labels} value` samples.
fn check_exposition(body: &str) {
    assert!(!body.is_empty(), "exposition is empty");
    for line in body.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line has no value: {line:?}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable sample value: {line:?}"));
        let name = metric.split('{').next().expect("metric name");
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':'),
            "bad metric name: {line:?}"
        );
        if metric.contains('{') {
            assert!(metric.ends_with('}'), "unterminated labels: {line:?}");
        }
    }
}

/// The value of an exposition sample whose line starts with `prefix`.
fn sample_value(body: &str, prefix: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// `/metrics` after mixed traffic: the exposition parses line by line,
/// covers the serving and harness families the README catalogs, and its
/// counters agree exactly with `/stats` (they render from the same atomics).
#[test]
fn metrics_exposition_parses_and_agrees_with_stats() {
    let mut config = test_config();
    config.harness.driver.checker = HarnessConfig::default().driver.checker;
    let handle = Server::start(checkpointed_model(61), config).expect("server starts");
    let addr = handle.addr();

    // Mixed traffic: synthesis, two harness drives (one of a kernel the
    // dynamic check turns away), and a full pipeline.
    let reply = client::synthesize(addr, &params(5)).expect("synthesize");
    assert_eq!(reply.status, 200);
    let drive =
        client::post_body(addr, "/drive?sizes=256&drive_seed=3", VECADD.as_bytes()).expect("drive");
    assert_eq!(drive.status, 200);
    let rejected =
        client::post_body(addr, "/drive?sizes=256", NO_OUTPUT.as_bytes()).expect("drive");
    assert_eq!(rejected.status, 200);
    let done = rejected.lines().last().cloned().expect("summary");
    assert_eq!(json::extract_u64(&done, "drive_error"), Some(1), "{done}");
    assert_eq!(json::extract_u64(&done, "deadline"), Some(0), "{done}");
    let pipeline = client::post(addr, "/pipeline?count=1&seed=6&max_attempts=256&sizes=256")
        .expect("pipeline");
    assert_eq!(pipeline.status, 200);

    let response = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(response.status, 200);
    assert!(
        response
            .headers
            .iter()
            .any(|(k, v)| k == "content-type" && v.contains("version=0.0.4")),
        "exposition content type: {:?}",
        response.headers
    );
    let body = response.text();
    check_exposition(&body);

    for family in [
        "clgen_requests_received_total",
        "clgen_requests_completed_total",
        "clgen_request_latency_us_bucket",
        "clgen_request_latency_us_count",
        "clgen_queue_depth",
        "clgen_lanes_busy",
        "clgen_lane_occupancy_count",
        "clgen_queue_wait_us_bucket",
        "clgen_sampling_kernels_total",
        "clgen_generated_chars_total",
        "clgen_filter_accepted_total",
        "clgen_candidates_total",
        "clgen_harness_units_total",
        "clgen_harness_kernels_driven_total",
        "clgen_harness_unit_run_us_count",
        "clgen_harness_unit_steps_bucket",
        "clgen_supervisor_restarts_total",
    ] {
        assert!(
            body.lines().any(|l| l.starts_with(family)),
            "family {family} missing from exposition:\n{body}"
        );
    }

    // Latency histograms are labeled per endpoint/outcome.
    for endpoint in ["synthesize", "drive", "pipeline"] {
        assert!(
            body.contains(&format!("endpoint=\"{endpoint}\",outcome=\"ok\"")),
            "latency series for {endpoint} missing:\n{body}"
        );
    }
    assert!(
        sample_value(&body, "clgen_harness_units_total{outcome=\"ok\"}").is_some_and(|v| v >= 2.0),
        "drive + pipeline units recorded:\n{body}"
    );

    // /stats and /metrics are two views of one set of atomics.
    let stats = client::get(addr, "/stats").expect("stats").text();
    for (stats_key, metric) in [
        ("received", "clgen_requests_received_total "),
        ("completed", "clgen_requests_completed_total "),
        ("attempts", "clgen_sampling_attempts_total "),
        ("kernels_driven", "clgen_harness_kernels_driven_total "),
        ("unit_steps", "clgen_harness_unit_steps_sum "),
        ("unit_run_us", "clgen_harness_unit_run_us_sum "),
    ] {
        let from_stats = json::extract_u64(&stats, stats_key)
            .unwrap_or_else(|| panic!("stats has {stats_key}: {stats}"));
        let from_metrics = sample_value(&body, metric)
            .unwrap_or_else(|| panic!("exposition has {metric}: {body}"));
        assert_eq!(
            from_stats, from_metrics as u64,
            "{stats_key} disagrees between /stats and /metrics"
        );
    }

    // The harness unit outcomes partition the units driven: all five are in
    // the `/stats` block (pre-registered at zero), each equal to its labeled
    // sample, and they sum to `total`.
    let units_obj = stats
        .split("\"harness\":")
        .nth(1)
        .and_then(|harness| harness.split("\"units\":").nth(1))
        .expect("stats has a harness units object");
    let mut unit_sum = 0u64;
    for outcome in ["ok", "budget_killed", "panicked", "deadline", "drive_error"] {
        let metric = format!("clgen_harness_units_total{{outcome=\"{outcome}\"}}");
        let from_metrics = sample_value(&body, &metric)
            .unwrap_or_else(|| panic!("exposition has {metric}:\n{body}"))
            as u64;
        assert_eq!(
            json::extract_u64(units_obj, outcome),
            Some(from_metrics),
            "units.{outcome} disagrees between /stats and /metrics: {stats}"
        );
        unit_sum += from_metrics;
    }
    assert_eq!(
        json::extract_u64(units_obj, "total"),
        Some(unit_sum),
        "unit outcomes must partition the units driven: {stats}"
    );
    assert_eq!(json::extract_u64(units_obj, "drive_error"), Some(1));

    // The drive and the pipeline ran the interpreter: steps were charged.
    assert!(
        json::extract_u64(&stats, "unit_steps").is_some_and(|steps| steps > 0),
        "{stats}"
    );

    // Lane utilisation is the occupancy histogram's sum over its count times
    // the lane count — the same atomics `/metrics` renders.
    let utilisation = stats
        .split("\"lane_utilisation\":")
        .nth(1)
        .expect("stats has a lane_utilisation object");
    let lane_steps = sample_value(&body, "clgen_lane_occupancy_sum ").expect("sum") as u64;
    let rounds = sample_value(&body, "clgen_lane_occupancy_count ").expect("count") as u64;
    assert!(rounds > 0 && lane_steps >= rounds, "sampling rounds ran");
    assert_eq!(
        json::extract_u64(utilisation, "occupied_lane_steps"),
        Some(lane_steps)
    );
    assert_eq!(json::extract_u64(utilisation, "rounds"), Some(rounds));
    let ratio = lane_steps as f64 / (rounds * test_config().lanes as u64) as f64;
    assert!(
        utilisation.contains(&format!("\"ratio\":{ratio:.4}}}")),
        "{stats}"
    );

    // The candidate-outcome family is complete (all four outcomes present,
    // pre-registered at zero), mutually exclusive, and sums to the absorbed
    // attempts; each labeled sample agrees with the `candidates` object in
    // `/stats`.
    let mut outcome_sum = 0u64;
    for outcome in ["accepted", "repaired", "aborted_midstream", "rejected"] {
        let metric = format!("clgen_candidates_total{{outcome=\"{outcome}\"}}");
        let from_metrics = sample_value(&body, &metric)
            .unwrap_or_else(|| panic!("exposition has {metric}:\n{body}"))
            as u64;
        let candidates_obj = stats
            .split("\"candidates\":")
            .nth(1)
            .expect("stats has a candidates object");
        let from_stats = json::extract_u64(candidates_obj, outcome)
            .unwrap_or_else(|| panic!("stats candidates has {outcome}: {stats}"));
        assert_eq!(
            from_stats, from_metrics,
            "candidates.{outcome} disagrees between /stats and /metrics"
        );
        outcome_sum += from_metrics;
    }
    let attempts = sample_value(&body, "clgen_sampling_attempts_total ").expect("attempts") as u64;
    assert_eq!(
        outcome_sum, attempts,
        "candidate outcomes must partition the absorbed attempts"
    );

    // Per-reason filter rejections: every labeled sample of the
    // `clgen_filter_rejects_total{reason}` family equals its entry in the
    // `/stats` rejected breakdown, and the family total matches
    // rejected + aborted outcomes.
    let rejections_obj = stats
        .split("\"rejections\":")
        .nth(1)
        .expect("stats has a rejections object");
    let mut reject_sum = 0u64;
    for line in body
        .lines()
        .filter(|l| l.starts_with("clgen_filter_rejects_total{"))
    {
        let reason = line
            .split("reason=\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("labeled rejection sample");
        let value = line
            .rsplit_once(' ')
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .expect("sample value") as u64;
        let from_stats = json::extract_u64(rejections_obj, reason)
            .unwrap_or_else(|| panic!("stats rejections has {reason:?}: {stats}"));
        assert_eq!(
            from_stats, value,
            "rejects[{reason}] disagrees between /stats and /metrics"
        );
        reject_sum += value;
    }
    let aborted = sample_value(
        &body,
        "clgen_candidates_total{outcome=\"aborted_midstream\"}",
    )
    .unwrap_or(0.0);
    let rejected_outcome =
        sample_value(&body, "clgen_candidates_total{outcome=\"rejected\"}").unwrap_or(0.0);
    assert_eq!(
        reject_sum,
        (aborted + rejected_outcome) as u64,
        "per-reason rejects must sum to the rejected + aborted outcomes"
    );
    handle.shutdown();
}

/// Every NDJSON `done` line carries an additive `trace` object with staged
/// durations, and repeated identical requests get distinct derived ids (the
/// process ordinal advances) while the sampled bytes stay identical.
#[test]
fn done_lines_carry_trace_objects() {
    let handle = Server::start(checkpointed_model(62), test_config()).expect("server starts");
    let addr = handle.addr();

    let first = client::synthesize(addr, &params(9)).expect("synthesize");
    let done = first.lines().pop().expect("done line");
    assert!(done.contains("\"trace\":{\"id\":\""), "{done}");
    for stage in ["\"queued\":", "\"sampling\":", "\"respond\":"] {
        assert!(done.contains(stage), "trace stage missing from {done}");
    }
    let id = trace_id_of(&done);
    assert_eq!(id.len(), 16, "derived ids are 16 hex digits: {id}");
    assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "{id}");

    // Repeat: distinct trace id, identical bytes otherwise.
    let second = client::synthesize(addr, &params(9)).expect("synthesize repeat");
    let done2 = second.lines().pop().expect("done line");
    assert_ne!(
        id,
        trace_id_of(&done2),
        "repeated requests must get distinct derived ids"
    );
    assert_eq!(
        client::strip_traces(&first.text()),
        client::strip_traces(&second.text())
    );

    // Harness endpoints: stage events carry the trace id, the summary the
    // full trace object with the drive/features stages.
    let drive =
        client::post_body(addr, "/drive?sizes=256&drive_seed=2", VECADD.as_bytes()).expect("drive");
    let lines = drive.lines();
    let drive_done = lines.last().expect("summary");
    assert!(drive_done.contains("\"trace\":{\"id\":\""), "{drive_done}");
    assert!(drive_done.contains("\"drive\":"), "{drive_done}");
    let drive_id = trace_id_of(drive_done);
    for line in lines.iter().filter(|l| l.starts_with("{\"event\":")) {
        assert!(
            line.contains(&format!("\"trace_id\":\"{drive_id}\"")),
            "stage event missing the request's trace id: {line}"
        );
    }
    handle.shutdown();
}

fn trace_id_of(done: &str) -> String {
    done.split("\"trace\":{\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("done line has a trace id")
        .to_string()
}

/// A syntactically valid client `trace-id` header is echoed as the trace id;
/// an invalid one falls back to a derived id.
#[test]
fn client_trace_id_header_passes_through() {
    let handle = Server::start(checkpointed_model(63), test_config()).expect("server starts");
    let addr = handle.addr();

    let body = synthesize_with_trace_header(addr, "my-trace_A7");
    assert!(
        body.contains("\"trace\":{\"id\":\"my-trace_A7\""),
        "client id not echoed: {body}"
    );

    // 65 chars exceeds the id length cap: rejected, derived id used instead.
    let long = "x".repeat(65);
    let body = synthesize_with_trace_header(addr, &long);
    assert!(!body.contains(&long), "oversized id must not pass through");
    assert!(body.contains("\"trace\":{\"id\":\""), "{body}");
    handle.shutdown();
}

/// One `/synthesize` request carrying a `trace-id` header (the stock client
/// doesn't set extra headers), returning the raw response text.
fn synthesize_with_trace_header(addr: SocketAddr, trace_id: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /synthesize?count=1&max_attempts=64&max_chars=256&seed=4 HTTP/1.1\r\n\
         Host: {addr}\r\ntrace-id: {trace_id}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    stream.flush().expect("flush");
    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut raw).expect("read response");
    String::from_utf8_lossy(&raw).into_owned()
}

/// `/debug/flight` is 404 unless enabled; enabled, it serves the ring dump
/// with admissions recorded.
#[test]
fn debug_flight_endpoint_is_gated() {
    let handle = Server::start(checkpointed_model(64), test_config()).expect("server starts");
    let addr = handle.addr();
    let off = client::get(addr, "/debug/flight").expect("flight");
    assert_eq!(off.status, 404);
    assert!(off.text().contains("--debug-flight"), "{}", off.text());
    handle.shutdown();

    let mut config = test_config();
    config.debug_flight = true;
    let handle = Server::start(checkpointed_model(64), config).expect("server starts");
    let addr = handle.addr();
    let reply = client::synthesize(addr, &params(3)).expect("synthesize");
    assert_eq!(reply.status, 200);
    let on = client::get(addr, "/debug/flight").expect("flight");
    assert_eq!(on.status, 200);
    let text = on.text();
    assert!(
        text.starts_with("{\"event\":\"flight_dump\",\"reason\":\"debug_endpoint\""),
        "{text}"
    );
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"admit\"")),
        "ring records admissions: {text}"
    );
    handle.shutdown();
}

/// Every POST request takes exactly one latency sample, whatever its end:
/// per endpoint, the `clgen_request_latency_us_count` series summed over
/// outcomes equal the requests sent — `400`s included, on every endpoint.
#[test]
fn every_post_request_takes_one_latency_sample() {
    let handle = Server::start(checkpointed_model(65), test_config()).expect("server starts");
    let addr = handle.addr();

    let bad_pipeline = client::post(addr, "/pipeline?sizes=0").expect("pipeline");
    assert_eq!(bad_pipeline.status, 400);
    let bad_synthesize = client::post(addr, "/synthesize?count=0").expect("synthesize");
    assert_eq!(bad_synthesize.status, 400);
    let empty_drive = client::post_body(addr, "/drive", b"").expect("drive");
    assert_eq!(empty_drive.status, 400);
    let drive = client::post_body(addr, "/drive?sizes=256", VECADD.as_bytes()).expect("drive");
    assert_eq!(drive.status, 200);
    let features =
        client::post_body(addr, "/features?sizes=256", VECADD.as_bytes()).expect("features");
    assert_eq!(features.status, 200);

    let body = client::get(addr, "/metrics").expect("metrics").text();
    assert!(
        body.contains("endpoint=\"pipeline\",outcome=\"bad_request\""),
        "a /pipeline 400 is timed:\n{body}"
    );
    for (endpoint, sent) in [
        ("pipeline", 1),
        ("synthesize", 1),
        ("drive", 2),
        ("features", 1),
    ] {
        let prefix = format!("clgen_request_latency_us_count{{endpoint=\"{endpoint}\",");
        let samples: f64 = body
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
            .sum();
        assert_eq!(samples as u64, sent, "{endpoint} latency samples:\n{body}");
    }
    handle.shutdown();
}

/// The queue gate counts every admission, on every endpoint: after one good
/// `/drive`, `received` is 1 in `/metrics` and in `/stats` alike.
#[test]
fn drive_admissions_are_received() {
    let handle = Server::start(checkpointed_model(66), test_config()).expect("server starts");
    let addr = handle.addr();
    let drive = client::post_body(addr, "/drive?sizes=256", VECADD.as_bytes()).expect("drive");
    assert_eq!(drive.status, 200);

    let body = client::get(addr, "/metrics").expect("metrics").text();
    assert_eq!(
        sample_value(&body, "clgen_requests_received_total "),
        Some(1.0),
        "{body}"
    );
    let stats = client::get(addr, "/stats").expect("stats").text();
    assert_eq!(json::extract_u64(&stats, "received"), Some(1), "{stats}");
    assert_eq!(
        json::extract_u64(&stats, "rejected_503"),
        Some(0),
        "{stats}"
    );
    handle.shutdown();
}
