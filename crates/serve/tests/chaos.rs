//! Chaos suite: deterministic fault injection against a live server over
//! real sockets.
//!
//! The invariant under test everywhere: a `/synthesize` response body is a
//! pure function of the checkpoint and the request parameters, so whatever
//! faults fire around (or into) a request, any response that *does* complete
//! — directly, after a supervisor respawn, or via client retries — is
//! byte-identical to the fault-free run's.

use clgen::{ClgenBuilder, ClgenOptions, TrainedModel};
use clgen_serve::client::{self, RetryPolicy};
use clgen_serve::{
    json, FaultPlan, Server, ServerConfig, ServerHandle, ServiceHealth, SynthesisParams,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Train a tiny model and round-trip it through checkpoint bytes, as the
/// real service boots from one.
fn checkpointed_model(seed: u64) -> TrainedModel {
    let mut options = ClgenOptions::small(seed);
    options.corpus.miner.repositories = 40;
    let model = ClgenBuilder::with_options(options)
        .build_corpus()
        .expect("corpus builds")
        .train()
        .expect("training succeeds");
    TrainedModel::from_bytes(&model.to_bytes()).expect("checkpoint roundtrips")
}

const MODEL_SEED: u64 = 11;

fn chaos_config(faults: &str) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lanes: 4,
        // Short supervisor window so degraded→ok recovery is observable
        // within a test run.
        restart_window: Duration::from_millis(1500),
        faults: FaultPlan::parse(faults).expect("fault plan parses"),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(checkpointed_model(MODEL_SEED), config).expect("server starts")
}

fn params(seed: u64) -> SynthesisParams {
    SynthesisParams {
        count: 2,
        temperature: 0.8,
        max_chars: 256,
        seed,
        max_attempts: 24,
        deadline_ms: None,
    }
}

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(250),
        jitter_seed: seed,
    }
}

/// Fault-free reference bodies, keyed by request seed, with trace
/// annotations stripped (trace ids and stage timings are per-request wall
/// clock; the sampled bytes are the invariant). One server serves all seeds
/// (responses are independent by construction — that invariant has its own
/// test in `serve_roundtrip.rs`).
fn baseline_bodies(seeds: &[u64]) -> BTreeMap<u64, String> {
    let handle = start(chaos_config(""));
    let addr = handle.addr();
    let bodies = seeds
        .iter()
        .map(|&seed| {
            let response = client::synthesize(addr, &params(seed)).expect("baseline request");
            assert_eq!(response.status, 200);
            assert!(response.is_complete_synthesis(), "baseline is clean");
            (seed, client::strip_traces(&response.text()))
        })
        .collect();
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
    bodies
}

fn healthz_status(addr: SocketAddr) -> String {
    let response = client::get(addr, "/healthz").expect("healthz");
    json::extract_str(&response.text(), "status").expect("healthz has status")
}

fn stats_field(addr: SocketAddr, key: &str) -> u64 {
    let response = client::get(addr, "/stats").expect("stats");
    json::extract_u64(&response.text(), key).unwrap_or_else(|| panic!("stats has {key}"))
}

/// A sampler-core panic mid-batch: in-flight requests get typed 500s, the
/// supervisor respawns the core from the checkpoint image, retries land on
/// the fresh core and reproduce byte-identical bodies, and `/healthz` walks
/// degraded → ok once the restart window passes.
#[test]
fn sampler_panic_respawns_and_retries_reproduce_bytes() {
    let seeds = [70u64, 71, 72];
    let baselines = baseline_bodies(&seeds);

    // Fire the panic a few step rounds into the first batch: whichever
    // requests are in flight get 500s and retry.
    let handle = start(chaos_config("sampler_panic@5"));
    let addr = handle.addr();
    let threads: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            std::thread::spawn(move || {
                let response =
                    client::synthesize_with_retry(addr, &params(seed), &retry_policy(seed))
                        .expect("request eventually succeeds");
                (seed, response)
            })
        })
        .collect();
    for thread in threads {
        let (seed, response) = thread.join().expect("client thread");
        assert_eq!(response.status, 200, "seed {seed}");
        assert!(response.is_complete_synthesis(), "seed {seed}");
        assert_eq!(
            client::strip_traces(&response.text()),
            baselines[&seed],
            "seed {seed}: body after panic recovery differs from fault-free run"
        );
    }

    // The panic fired and was survived: degraded, with the restart counted.
    assert_eq!(healthz_status(addr), "degraded");
    assert_eq!(stats_field(addr, "restarts"), 1);
    assert!(stats_field(addr, "failed") >= 1, "in-flight jobs got 500s");

    // ... and the supervisor window passing takes the service back to ok.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if healthz_status(addr) == "ok" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "healthz never transitioned degraded -> ok"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
}

/// A checkpoint corruption on the first reload costs one extra restart: the
/// supervisor rejects the corrupt image, reloads pristine bytes, and the
/// service still recovers with byte-identical responses.
#[test]
fn corrupt_reload_burns_a_restart_then_recovers() {
    let seeds = [80u64];
    let baselines = baseline_bodies(&seeds);

    let mut config = chaos_config("sampler_panic@3,corrupt_reload@1,seed=9");
    // A wide window so the Degraded assertions below cannot race its expiry.
    config.restart_window = Duration::from_secs(60);
    let handle = start(config);
    let addr = handle.addr();
    let response = client::synthesize_with_retry(addr, &params(80), &retry_policy(80))
        .expect("request eventually succeeds");
    assert_eq!(client::strip_traces(&response.text()), baselines[&80]);

    // Two restarts: the panic respawn, plus the corrupt-image reload failure.
    assert_eq!(stats_field(addr, "restarts"), 2);
    assert_eq!(healthz_status(addr), "degraded");
    assert_eq!(handle.shutdown(), ServiceHealth::Degraded);
}

/// Slow client writes delay delivery but never change bytes.
#[test]
fn slow_writes_change_timing_not_bytes() {
    let seeds = [90u64, 91];
    let baselines = baseline_bodies(&seeds);

    let handle = start(chaos_config("slow_write@1+:15"));
    let addr = handle.addr();
    for &seed in &seeds {
        let response = client::synthesize(addr, &params(seed)).expect("request");
        assert_eq!(response.status, 200);
        assert_eq!(
            client::strip_traces(&response.text()),
            baselines[&seed],
            "seed {seed}"
        );
    }
    assert_eq!(healthz_status(addr), "ok");
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
}

/// A mid-body disconnect truncates one response; the retry reproduces the
/// full byte-identical body, and a concurrent untouched request is unharmed.
#[test]
fn dropped_response_is_recovered_by_retry() {
    let seeds = [100u64, 101];
    let baselines = baseline_bodies(&seeds);

    let handle = start(chaos_config("drop_response@1"));
    let addr = handle.addr();

    // First request eats the truncation and retries through it.
    let response = client::synthesize_with_retry(addr, &params(100), &retry_policy(100))
        .expect("retry recovers the dropped response");
    assert!(response.is_complete_synthesis());
    assert_eq!(client::strip_traces(&response.text()), baselines[&100]);

    // An untouched request afterwards is byte-identical with no retry at all.
    let untouched = client::synthesize(addr, &params(101)).expect("request");
    assert_eq!(client::strip_traces(&untouched.text()), baselines[&101]);
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
}

/// Deadlines bound a request mid-flight: with the core stalled once, a tight
/// `deadline_ms` yields a partial 200 carrying the `timeout` marker, while a
/// deadline-free concurrent request still completes byte-identically.
#[test]
fn deadline_reaps_midflight_and_leaves_survivors_untouched() {
    let seeds = [110u64];
    let baselines = baseline_bodies(&seeds);

    // One 400 ms stall on the first busy round: long enough that a 100 ms
    // deadline admitted during it reliably expires mid-flight, cheap enough
    // that the survivor finishes promptly afterwards.
    let handle = start(chaos_config("sampler_stall@1:400"));
    let addr = handle.addr();

    let survivor = std::thread::spawn(move || client::synthesize(addr, &params(110)));
    // Land the doomed request inside the survivor's first-round stall.
    std::thread::sleep(Duration::from_millis(50));

    let mut doomed = params(111);
    doomed.max_attempts = 1 << 14; // far more work than the deadline allows
    doomed.deadline_ms = Some(100);
    let partial = client::synthesize(addr, &doomed).expect("partial response");
    assert_eq!(partial.status, 200);
    let last = partial.lines().pop().expect("has a terminal line");
    assert!(
        last.contains("\"timeout\":true") && last.contains("\"done\":true"),
        "terminal line carries the timeout marker: {last}"
    );

    let survivor = survivor.join().expect("survivor thread").expect("request");
    assert_eq!(
        client::strip_traces(&survivor.text()),
        baselines[&110],
        "deadline reaping disturbed a surviving lane"
    );
    assert!(stats_field(addr, "timed_out") >= 1);
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
}

/// Queued jobs whose deadline already passed are shed with a fail-fast 503 +
/// `Retry-After` instead of wasting lanes.
#[test]
fn expired_queued_jobs_are_shed_with_503() {
    // One lane, so a single occupant pins the sole active slot and everyone
    // behind it waits in the backlog; the occupant itself is bounded by its
    // own deadline so the test ends promptly.
    let mut config = chaos_config("sampler_stall@1+:100");
    config.lanes = 1;
    let handle = start(config);
    let addr = handle.addr();

    let occupant = std::thread::spawn(move || {
        let mut p = params(120);
        p.max_attempts = 1 << 14;
        p.deadline_ms = Some(1500);
        client::synthesize(addr, &p)
    });
    std::thread::sleep(Duration::from_millis(200));

    // These can never activate before the occupant's 1.5 s deadline, so
    // their own 50 ms deadlines expire in the backlog.
    let mut sheds = 0;
    for seed in 121..125u64 {
        let mut doomed = params(seed);
        doomed.deadline_ms = Some(50);
        let response = client::synthesize(addr, &doomed).expect("shed response");
        assert_eq!(response.status, 503, "queued job must be shed");
        assert_eq!(response.retry_after(), Some(1), "shed 503 advertises retry");
        assert!(
            response.text().contains("deadline expired while queued"),
            "shed body: {}",
            response.text()
        );
        sheds += 1;
    }
    assert_eq!(stats_field(addr, "shed"), sheds);
    let occupant = occupant.join().expect("occupant thread").expect("request");
    assert!(occupant.text().contains("\"timeout\":true"));
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
}

/// Queue saturation: every rejection is a 503 with `Retry-After`, and
/// `rejected_503` counts each one exactly once.
#[test]
fn backpressure_rejections_count_exactly() {
    // One active slot, queue of one, and a single 500 ms stall pinning the
    // first request: a burst behind it must overflow.
    let mut config = chaos_config("sampler_stall@1:500");
    config.lanes = 1;
    config.queue_cap = 1;
    let handle = start(config);
    let addr = handle.addr();

    // Pin the core first so the burst below contends for one queue slot.
    let occupant = std::thread::spawn(move || client::synthesize(addr, &params(130)));
    std::thread::sleep(Duration::from_millis(100));

    let threads: Vec<_> = (131..138u64)
        .map(|seed| std::thread::spawn(move || client::synthesize(addr, &params(seed))))
        .collect();
    let mut rejected = 0u64;
    for thread in threads {
        let response = thread.join().expect("client thread").expect("response");
        match response.status {
            200 => assert!(response.is_complete_synthesis()),
            503 => {
                assert_eq!(response.retry_after(), Some(1));
                assert!(
                    response.text().contains("queue full"),
                    "{}",
                    response.text()
                );
                rejected += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    let occupant = occupant.join().expect("occupant thread").expect("request");
    assert!(occupant.is_complete_synthesis());
    assert!(rejected >= 1, "burst never overflowed the queue");
    assert_eq!(
        stats_field(addr, "rejected_503"),
        rejected,
        "rejected_503 must increment exactly once per 503"
    );
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
}

/// Graceful shutdown drains with a bound: a wedged in-flight request gets
/// `503 server stopping` once the drain deadline passes, and the server
/// still exits cleanly instead of waiting forever.
#[test]
fn drain_deadline_bounds_graceful_shutdown() {
    let mut config = chaos_config("sampler_stall@1+:200");
    config.drain_timeout = Some(Duration::from_millis(400));
    let handle = start(config);
    let addr = handle.addr();

    let wedged = std::thread::spawn(move || {
        let mut p = params(150);
        p.max_attempts = 1 << 14; // hours of stalled sampling
        client::synthesize(addr, &p)
    });
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    let response = client::post(addr, "/shutdown").expect("shutdown accepted");
    assert_eq!(response.status, 200);
    assert_eq!(handle.join(), ServiceHealth::Ok);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must be bounded by the drain timeout"
    );
    let wedged = wedged.join().expect("wedged thread").expect("got a reply");
    assert!(
        wedged.status == 503 || wedged.text().contains("\"aborted\""),
        "wedged request must be failed by the drain deadline, got {} {}",
        wedged.status,
        wedged.text()
    );
}

/// A sampler-core panic leaves a forensic trail: the flight recorder ring
/// retains both the injected fault and the panic it caused, `/debug/flight`
/// serves the dump on demand (the same dump goes to stderr at panic time),
/// and requests that retry through the respawn stay byte-identical.
#[test]
fn sampler_panic_leaves_flight_recorder_trail() {
    let seeds = [160u64];
    let baselines = baseline_bodies(&seeds);

    let mut config = chaos_config("sampler_panic@3");
    config.debug_flight = true;
    let handle = start(config);
    let addr = handle.addr();

    let response = client::synthesize_with_retry(addr, &params(160), &retry_policy(160))
        .expect("request eventually succeeds");
    assert_eq!(
        client::strip_traces(&response.text()),
        baselines[&160],
        "body after panic recovery differs from fault-free run"
    );

    let flight = client::get(addr, "/debug/flight").expect("flight dump");
    assert_eq!(flight.status, 200);
    let text = flight.text();
    let header = text.lines().next().expect("dump header");
    assert!(header.starts_with("{\"event\":\"flight_dump\""), "{header}");
    assert!(header.contains("\"reason\":\"debug_endpoint\""), "{header}");
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"fault\"")),
        "ring retains the injected fault: {text}"
    );
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"panic\"")),
        "ring retains the panic: {text}"
    );
    handle.shutdown();
}

/// Exhausting the restart budget fails the service instead of crash-looping:
/// clients get typed errors, `join` reports `Failed`, and the server shuts
/// itself down (the binary then exits nonzero, but the *server* never
/// crashes the process).
#[test]
fn restart_budget_exhaustion_fails_closed() {
    let mut config = chaos_config("sampler_panic@1+");
    config.restart_budget = 1;
    let handle = start(config);
    let addr = handle.addr();

    // Every generation panics on its first step; the retrying client drives
    // restarts past the budget of 1.
    let outcome = client::synthesize_with_retry(addr, &params(140), &retry_policy(140));
    // An Err is fine too: connection refused once the server stopped.
    if let Ok(response) = outcome {
        assert_ne!(
            response.status, 200,
            "no request can complete under a permanent panic"
        );
    }

    assert_eq!(
        handle.join(),
        ServiceHealth::Failed,
        "supervisor must give up after the budget"
    );
}
