//! Resilience over real sockets: per-request deadlines, queue shedding,
//! backpressure and the bounded drain of a live server.
//!
//! Each test keeps the server busy with one long request — far more work
//! than the test waits for — that a deadline ends: its own, or the drain's.
//! The test waits on the server's own state (`/metrics`) until that request
//! holds the lanes, never on a fixed sleep. The supervised sampler core (a
//! panic, a failed checkpoint reload, an exhausted restart budget) is tested
//! in-crate over its inbox, in `scheduler.rs`.

use clgen::{ClgenBuilder, ClgenOptions, TrainedModel};
use clgen_serve::{
    client, json, Server, ServerConfig, ServerHandle, ServiceHealth, SynthesisParams,
};
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const MODEL_SEED: u64 = 11;

/// The checkpoint every test boots from: a tiny model, trained once per test
/// binary, as the real service boots from one.
fn checkpoint() -> &'static [u8] {
    static CHECKPOINT: OnceLock<Vec<u8>> = OnceLock::new();
    CHECKPOINT.get_or_init(|| {
        let mut options = ClgenOptions::small(MODEL_SEED);
        options.corpus.miner.repositories = 40;
        ClgenBuilder::with_options(options)
            .build_corpus()
            .expect("corpus builds")
            .train()
            .expect("training succeeds")
            .to_bytes()
    })
}

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lanes: 4,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> ServerHandle {
    let model = TrainedModel::from_bytes(checkpoint()).expect("checkpoint decodes");
    Server::start(model, config).expect("server starts")
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

/// A request that keeps every lane it gets busy far longer than any test
/// runs, until `deadline_ms` (or the drain) ends it.
fn long(seed: u64, deadline_ms: Option<u64>) -> SynthesisParams {
    SynthesisParams {
        count: 1024,
        max_attempts: 1 << 14,
        deadline_ms,
        ..params(seed)
    }
}

fn stats_field(addr: SocketAddr, key: &str) -> u64 {
    let response = client::get(addr, "/stats").expect("stats");
    json::extract_u64(&response.text(), key).unwrap_or_else(|| panic!("stats has {key}"))
}

/// Poll `/metrics` until the unlabelled sample `family` reads at least
/// `at_least`.
fn wait_for_metric(addr: SocketAddr, family: &str, at_least: f64) {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = client::get(addr, "/metrics").expect("metrics").text();
        let value = metrics
            .lines()
            .find_map(|line| line.strip_prefix(family)?.strip_prefix(' '))
            .and_then(|value| value.parse::<f64>().ok());
        if value.is_some_and(|v| v >= at_least) {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "{family} never reached {at_least}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Deadlines bound a request mid-flight: a long request with a tight
/// `deadline_ms` yields a partial 200 carrying the `timeout` marker, while a
/// deadline-free request sharing its lanes streams the bytes it streams
/// alone.
#[test]
fn deadline_reaps_midflight_and_leaves_survivors_untouched() {
    let handle = start(config());
    let addr = handle.addr();

    let doomed = std::thread::spawn(move || client::synthesize(addr, &long(111, Some(250))));
    wait_for_metric(addr, "clgen_active_requests", 1.0);
    let survivor = client::synthesize(addr, &params(110)).expect("request");

    let partial = doomed
        .join()
        .expect("doomed thread")
        .expect("partial response");
    assert_eq!(partial.status, 200);
    let last = partial.lines().pop().expect("has a terminal line");
    assert!(
        last.contains("\"timeout\":true") && last.contains("\"done\":true"),
        "terminal line carries the timeout marker: {last}"
    );

    let alone = client::synthesize(addr, &params(110)).expect("request");
    assert!(survivor.is_complete_synthesis());
    assert_eq!(
        client::strip_traces(&survivor.text()),
        client::strip_traces(&alone.text()),
        "deadline reaping disturbed a surviving lane"
    );
    assert_eq!(stats_field(addr, "timed_out"), 1);
    assert_eq!(handle.shutdown(), ServiceHealth::Ok);
}

/// Queued jobs whose deadline already passed are shed with a fail-fast 503 +
/// `Retry-After` instead of wasting lanes.
#[test]
fn expired_queued_jobs_are_shed_with_503() {
    // One lane, so the occupant pins the sole active slot and everyone
    // behind it waits in the backlog; its own deadline ends it.
    let handle = start(ServerConfig {
        lanes: 1,
        ..config()
    });
    let addr = handle.addr();

    let occupant = std::thread::spawn(move || client::synthesize(addr, &long(120, Some(1000))));
    wait_for_metric(addr, "clgen_active_requests", 1.0);

    // These can never activate before the occupant's deadline, so their own
    // 50 ms deadlines expire in the backlog.
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
    // One active slot and a queue of one: with the occupant active, a burst
    // behind it must overflow.
    let handle = start(ServerConfig {
        lanes: 1,
        queue_cap: 1,
        ..config()
    });
    let addr = handle.addr();

    let occupant = std::thread::spawn(move || client::synthesize(addr, &long(130, Some(1000))));
    wait_for_metric(addr, "clgen_active_requests", 1.0);

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
    assert!(occupant.text().contains("\"timeout\":true"));
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
    let handle = start(ServerConfig {
        drain_timeout: Some(Duration::from_millis(400)),
        ..config()
    });
    let addr = handle.addr();

    let wedged = std::thread::spawn(move || client::synthesize(addr, &long(150, None)));
    wait_for_metric(addr, "clgen_active_requests", 1.0);

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
