//! End-to-end service tests over real sockets: round trips, the
//! arrival-order-independence determinism guarantee, backpressure and
//! graceful shutdown.

use clgen::{ClgenBuilder, ClgenOptions, SampleOptions, SamplerConfig, TrainedModel};
use clgen_serve::{client, json, Server, ServerConfig, SynthesisParams};
use std::collections::HashMap;

/// Train a tiny n-gram model and round-trip it through a checkpoint file,
/// as the real service boots from one.
fn checkpointed_model(seed: u64) -> TrainedModel {
    let mut options = ClgenOptions::small(seed);
    options.corpus.miner.repositories = 40;
    let model = ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus builds")
        .train()
        .expect("training succeeds");
    let path = std::env::temp_dir().join(format!(
        "clgen-serve-test-{}-{seed}.ckpt",
        std::process::id()
    ));
    model.save(&path).expect("checkpoint saves");
    let loaded = TrainedModel::load(&path).expect("checkpoint loads");
    std::fs::remove_file(&path).ok();
    loaded
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lanes: 4,
        ..ServerConfig::default()
    }
}

fn params(seed: u64, count: usize, max_attempts: usize) -> SynthesisParams {
    SynthesisParams {
        count,
        temperature: 0.8,
        max_chars: 384,
        seed,
        max_attempts,
        deadline_ms: None,
    }
}

/// The body must end with exactly one `done` summary line whose totals are
/// consistent with the kernel lines before it.
fn check_body_shape(body: &str) {
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "body has no lines: {body:?}");
    let (kernels, done) = lines.split_at(lines.len() - 1);
    assert!(
        done[0].starts_with("{\"done\":true"),
        "last line is the summary: {:?}",
        done[0]
    );
    assert_eq!(
        json::extract_u64(done[0], "kernels"),
        Some(kernels.len() as u64),
        "summary counts the kernel lines"
    );
    let window_attempts: u64 = kernels
        .iter()
        .map(|l| json::extract_u64(l, "attempts").expect("kernel line has attempts"))
        .sum();
    let total_attempts = json::extract_u64(done[0], "attempts").expect("summary attempts");
    assert!(window_attempts <= total_attempts);
    for line in kernels {
        let source = json::extract_str(line, "kernel").expect("kernel line has source");
        assert!(source.contains("__kernel"), "kernel source: {source:?}");
    }
}

#[test]
fn synthesize_healthz_stats_roundtrip() {
    let handle = Server::start(checkpointed_model(2026), test_config()).expect("server starts");
    let addr = handle.addr();

    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));
    assert!(health.text().contains("\"backend\":\"ngram\""));

    let reply = client::synthesize(addr, &params(7, 2, 192)).expect("synthesize");
    assert_eq!(reply.status, 200);
    check_body_shape(&reply.text());

    let stats = client::get(addr, "/stats").expect("stats");
    assert_eq!(stats.status, 200);
    let text = stats.text();
    let attempts = json::extract_u64(&text, "attempts").expect("stats attempts");
    assert!(attempts >= 1, "stats account absorbed candidates: {text}");
    assert!(json::extract_u64(&text, "completed") >= Some(1));

    // Unknown paths and wrong methods are typed HTTP errors.
    assert_eq!(client::get(addr, "/nope").expect("404").status, 404);
    assert_eq!(client::get(addr, "/synthesize").expect("405").status, 405);
    assert_eq!(client::post(addr, "/stats").expect("405").status, 405);
    assert_eq!(
        client::post(addr, "/synthesize?count=0")
            .expect("400")
            .status,
        400
    );
    assert_eq!(
        client::post(addr, "/synthesize?temperature=hot")
            .expect("400")
            .status,
        400
    );

    handle.shutdown();
}

/// The determinism guarantee across the scheduler: same checkpoint + same
/// per-request seeds ⇒ byte-identical response bodies, regardless of
/// request arrival order or what else shares the batch.
#[test]
fn responses_are_byte_identical_regardless_of_arrival_order() {
    let handle = Server::start(checkpointed_model(4242), test_config()).expect("server starts");
    let addr = handle.addr();
    let sets = [params(11, 2, 96), params(22, 1, 64), params(33, 3, 96)];

    // Round 1: strictly sequential, in order.
    let sequential: Vec<String> = sets
        .iter()
        .map(|p| {
            let reply = client::synthesize(addr, p).expect("synthesize");
            assert_eq!(reply.status, 200);
            reply.text()
        })
        .collect();

    // Round 2: concurrent, submitted in reverse order, deliberately
    // staggered so admissions interleave mid-flight.
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, p) in sets.iter().enumerate().rev() {
            let p = p.clone();
            let stagger = std::time::Duration::from_millis((sets.len() - 1 - i) as u64 * 5);
            handles.push((
                i,
                scope.spawn(move || {
                    std::thread::sleep(stagger);
                    client::synthesize(addr, &p).expect("synthesize").text()
                }),
            ));
        }
        let mut bodies = vec![String::new(); sets.len()];
        for (i, h) in handles {
            bodies[i] = h.join().expect("client thread");
        }
        bodies
    });

    // Trace annotations carry per-request ids and wall-clock timings; the
    // sampled bytes themselves must match exactly.
    for (i, (a, b)) in sequential.iter().zip(concurrent.iter()).enumerate() {
        assert_eq!(
            client::strip_traces(a),
            client::strip_traces(b),
            "request {i} body diverged between sequential and concurrent arrival"
        );
        check_body_shape(a);
    }

    // Round 3: a fresh server boot over the same checkpoint reproduces the
    // same bodies.
    let handle2 = Server::start(checkpointed_model(4242), test_config()).expect("second boot");
    let addr2 = handle2.addr();
    for (p, expected) in sets.iter().zip(sequential.iter()) {
        let reply = client::synthesize(addr2, p).expect("synthesize");
        assert_eq!(
            client::strip_traces(&reply.text()),
            client::strip_traces(expected),
            "fresh boot diverged"
        );
    }
    handle2.shutdown();
    handle.shutdown();
}

/// A rejection map as the service renders it: sorted by reason.
fn render_rejected<R: std::fmt::Display>(rejected: &HashMap<R, usize>) -> String {
    let mut reasons: Vec<(String, usize)> = rejected
        .iter()
        .map(|(reason, &count)| (reason.to_string(), count))
        .collect();
    reasons.sort();
    let fields: Vec<String> = reasons
        .iter()
        .map(|(reason, count)| format!("{}:{count}", json::escaped(reason)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The `"rejected"` object that closes a kernel or (trace-stripped) done
/// line.
fn rejected_field(line: &str) -> &str {
    let start = line.rfind("\"rejected\":").expect("line has rejections") + "\"rejected\":".len();
    &line[start..line.len() - 1]
}

/// A served request is an offline session served: `/synthesize` reports the
/// same kernels, per-kernel costs and totals as `Sampler::synthesize` over
/// the same checkpoint, seed, options and cap — at any lane count, and with
/// the server's lanes split over any number of engines (the server started
/// under 1, 2 and 3 rayon threads: 4 lanes as 4, 2 + 2 and 2 + 1 + 1).
#[test]
fn served_synthesis_equals_offline_synthesis() {
    let model = checkpointed_model(2718);
    // Seed 27 meets its target (one kernel repaired) before the cap.
    let p = params(27, 3, 256);
    let offline: Vec<_> = [1, 16]
        .into_iter()
        .map(|lanes| {
            let sampler = model.sampler(
                SamplerConfig::new(p.seed)
                    .with_sample(SampleOptions {
                        max_chars: p.max_chars,
                        temperature: p.temperature,
                    })
                    .with_max_attempts(p.max_attempts)
                    .with_lanes(lanes),
            );
            let report = sampler.synthesize(p.count);
            let found: Vec<_> = sampler.stream().take(p.count).collect();
            (lanes, report, found)
        })
        .collect();

    let image = model.to_bytes();
    for threads in [1, 2, 3] {
        let model = TrainedModel::from_bytes(&image).expect("checkpoint decodes");
        let handle = rayon::with_num_threads(threads, || Server::start(model, test_config()))
            .expect("server starts");
        let reply = client::synthesize(handle.addr(), &p).expect("synthesize");
        let stats = client::get(handle.addr(), "/stats").expect("stats").text();
        handle.shutdown();
        assert_eq!(reply.status, 200);
        // Every engine step steps one engine's share of the lanes: all 4 on
        // one engine, fewer on each of several.
        let field = |key| json::extract_u64(&stats, key).expect(key);
        let (rounds, stepped) = (field("rounds"), field("stepped_lanes"));
        if threads == 1 {
            assert_eq!(stepped, 4 * rounds, "one engine: {stats}");
        } else {
            assert!(stepped < 4 * rounds, "{threads} engines: {stats}");
        }
        let body = client::strip_traces(&reply.text());
        let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
        let (kernel_lines, done) = lines.split_at(lines.len() - 1);
        let done = done[0];
        assert!(
            done.contains("\"exhausted\":false"),
            "the target is met: {done}"
        );

        for (lanes, report, found) in &offline {
            let at = format!("threads={threads}, offline lanes={lanes}");
            assert_eq!(kernel_lines.len(), found.len(), "{at}: kernel lines");
            assert_eq!(report.kernels.len(), found.len(), "{at}: report");
            for (line, streamed) in kernel_lines.iter().zip(found) {
                let stats = &streamed.stats;
                assert_eq!(
                    json::extract_str(line, "kernel").as_deref(),
                    Some(streamed.kernel.source.as_str()),
                    "{at}: source"
                );
                let field = |key| json::extract_u64(line, key);
                assert_eq!(
                    field("candidate_index"),
                    Some(stats.candidate_index),
                    "{at}"
                );
                assert_eq!(field("attempts"), Some(stats.attempts as u64), "{at}");
                assert_eq!(
                    field("generated_chars"),
                    Some(stats.generated_chars as u64),
                    "{at}"
                );
                assert_eq!(
                    rejected_field(line),
                    render_rejected(&stats.rejected),
                    "{at}"
                );
            }
            let stats = &report.stats;
            let field = |key| json::extract_u64(done, key);
            assert_eq!(field("kernels"), Some(stats.accepted as u64), "{at}");
            assert_eq!(field("attempts"), Some(stats.attempts as u64), "{at}");
            assert_eq!(
                field("generated_chars"),
                Some(stats.generated_chars as u64),
                "{at}"
            );
            assert_eq!(field("repaired"), Some(stats.repaired as u64), "{at}");
            assert_eq!(
                rejected_field(done),
                render_rejected(&stats.rejected),
                "{at}"
            );
        }
    }
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lanes: 2,
        queue_cap: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(checkpointed_model(99), config).expect("server starts");
    let addr = handle.addr();

    let reply = client::synthesize(addr, &params(1, 1, 8)).expect("request");
    assert_eq!(reply.status, 503);
    assert!(reply.text().contains("queue full"));
    assert!(reply
        .headers
        .iter()
        .any(|(k, v)| k == "retry-after" && v == "1"));

    // Health endpoints stay reachable under backpressure, and the rejection
    // is visible in /stats.
    assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);
    let stats = client::get(addr, "/stats").expect("stats").text();
    assert_eq!(json::extract_u64(&stats, "rejected_503"), Some(1));

    handle.shutdown();
}

/// A client that disconnects without reading its response must not keep its
/// request sampling on the shared lanes: the handler's EOF probe flags the
/// request and the sampler core reaps it long before its attempt cap.
#[test]
fn disconnected_clients_are_reaped_quickly() {
    use std::io::Write;

    let handle = Server::start(checkpointed_model(777), test_config()).expect("server starts");
    let addr = handle.addr();

    // A request sized to run for minutes if it were allowed to finish
    // (2^20 candidates x 4096 chars), sent by a client that vanishes at
    // once.
    {
        let mut socket = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            socket,
            "POST /synthesize?count=1&max_attempts=1048576&max_chars=4096&seed=9 HTTP/1.1\r\n\
             Host: x\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        socket.flush().expect("flush");
        // Dropping the socket closes it: the client is gone.
    }

    // The abandoned request must be fully reaped (completed, no active
    // requests, only a handful of candidates absorbed) well within the
    // probe interval plus a few sampling rounds.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    loop {
        let stats = client::get(addr, "/stats").expect("stats").text();
        if json::extract_u64(&stats, "completed") == Some(1)
            && json::extract_u64(&stats, "active_requests") == Some(0)
        {
            let attempts = json::extract_u64(&stats, "attempts").expect("attempts");
            assert!(
                attempts < 1000,
                "abandoned request should stop early, absorbed {attempts} candidates"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned request was not reaped in time: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.shutdown();
}

#[test]
fn post_shutdown_stops_the_server_gracefully() {
    let handle = Server::start(checkpointed_model(1234), test_config()).expect("server starts");
    let addr = handle.addr();

    // A request in flight when shutdown arrives still completes. Wait until
    // the server has actually accepted it before triggering shutdown.
    let p = params(5, 1, 64);
    let worker = std::thread::spawn(move || client::synthesize(addr, &p).expect("synthesize"));
    for _ in 0..200 {
        let stats = client::get(addr, "/stats").expect("stats").text();
        if clgen_serve::json::extract_u64(&stats, "received") >= Some(1) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let reply = client::post(addr, "/shutdown").expect("shutdown request");
    assert_eq!(reply.status, 200);

    // join() returns once the graceful sequence finishes.
    handle.join();
    let inflight = worker.join().expect("client thread");
    assert_eq!(inflight.status, 200);
    check_body_shape(&inflight.text());

    // The listener is gone afterwards.
    assert!(client::get(addr, "/healthz").is_err());
}
