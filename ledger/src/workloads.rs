//! The seven workloads. Each is a fixed population of work items; a *pass*
//! executes the items it is given, in the order it is given them, checks every
//! output and reports what it measured. The run loop in `main.rs` repeats
//! identical passes until `--seconds` have elapsed.
//!
//! Where the population is sampled from a model (`synth-offline`, `serve-*`,
//! `pipeline`) its request and session seeds derive from [`POPULATION_SEED`],
//! not from `--seed`: at the ~600 requests ten seconds allow, a freshly drawn
//! population moves p50 latency by ~6 % and accepted kernels by ~3 % from
//! draw to draw, which would hide any regression smaller than that. `--seed`
//! instead orders the population (which client sends what, what shares the
//! batch with what), so every seed measures the same work under different
//! interleavings — and the output digest, which must not depend on them, is
//! the same for every seed. `sample-wide` and `train` do uniform work whatever
//! the seed, so there `--seed` seeds the candidates and the initial weights.

use crate::fixtures::{self, Fixtures, LANES, WIDE_SEED_TEXT};
use crate::http::{self, Reply};
use crate::json::{self, Json};
use crate::stats::fnv1a64;
use crate::trace::Tracer;
use clgen::{
    sample_kernels_batched, stream_seed, ArgumentSpec, SampleOptions, SamplerConfig, StopReason,
    SynthesisReport, TrainedModel,
};
use clgen_corpus::RejectReason;
use clgen_harness::Deadline;
use clgen_neural::LstmStreams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Base of every fixed population's seeds (see the module docs).
pub const POPULATION_SEED: u64 = 0x1ED6_E200;
/// Closed-loop clients of the served workloads: one per core of the
/// reference host, each waiting for its reply before sending again.
pub const CLIENTS: usize = 2;
/// Sampling parameters of every workload over `fx-lstm64`.
pub const SAMPLE: SampleOptions = SampleOptions {
    max_chars: 512,
    temperature: 0.5,
};
/// Candidates per `synth-offline` session: 8 rounds of 4 x 16 lanes.
pub const SESSION_ATTEMPTS: usize = 512;
/// Character budget of a `sample-wide` candidate; all of it is always used.
pub const WIDE_CHARS: usize = 384;
/// Characters of the seed text the server feeds before it samples
/// (`__kernel void A(`); the offline sampler feeds `paper_default`'s 87.
const SERVED_SEED_CHARS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SynthOffline,
    SampleWide,
    ServeNarrow,
    ServeWide,
    Pipeline,
    DriveSuites,
    Train,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::SynthOffline,
        Workload::SampleWide,
        Workload::ServeNarrow,
        Workload::ServeWide,
        Workload::Pipeline,
        Workload::DriveSuites,
        Workload::Train,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthOffline => "synth-offline",
            Workload::SampleWide => "sample-wide",
            Workload::ServeNarrow => "serve-narrow",
            Workload::ServeWide => "serve-wide",
            Workload::Pipeline => "pipeline",
            Workload::DriveSuites => "drive-suites",
            Workload::Train => "train",
        }
    }

    /// Why the workload is in the benchmark, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SynthOffline => "the paper's primary use, mass-producing kernels offline: neural forward + core engine and filter, no sockets, no scheduler; work = generated chars, results = accepted kernels",
            Workload::SampleWide => "2x512 weights do not fit L2 and every candidate runs its full budget: GEMM and bandwidth are all of the time, bookkeeping is noise; work = generated chars, results = candidates",
            Workload::ServeNarrow => "2 closed-loop clients, count=1 requests: at most 8 of 16 lanes busy, so idle-lane stepping and per-request fixed costs dominate; work = generated chars, results = kernels",
            Workload::ServeWide => "same server, count=8 requests: lanes saturated, filter fan-out and NDJSON streaming exercised, so a gain for narrow requests that costs batched throughput shows here",
            Workload::Pipeline => "the paper's loop over one socket, /pipeline with count=4: synthesis, then driving, features and prediction per kernel; work = generated chars, results = driven units",
            Workload::DriveSuites => "all 50 suite sources x 3 payload sizes through the harness pool: ~100% cldrive interpreter, bypasses neural, core and serve; work = units, results = ok units",
            Workload::Train => "train a 2x64 LSTM on the fixture corpus: neural the write way (backward, SGD, re-packing), so a forward-only win that slows training shows; work = trained chars, results = epochs",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Work items of one full pass: sessions, candidate batches, requests,
    /// suite sources or epochs. Sized so that a pass takes 5-6 s on the
    /// reference host and a 10 s run makes two (`drive-suites`, whose list is
    /// the 50 suite sources, takes 12 s and makes one).
    pub fn population(self) -> usize {
        match self {
            Workload::SynthOffline => 8,
            Workload::SampleWide | Workload::Train => 10,
            Workload::ServeNarrow => 336,
            Workload::ServeWide => 112,
            Workload::Pipeline => 64,
            Workload::DriveSuites => 50,
        }
    }

    /// Is `item` part of a quarter pass (the warm-up and the traced run)?
    /// Every fourth item of the population; of `train`, whose epochs only run
    /// in order, the first quarter.
    pub fn in_quarter(self, item: usize) -> bool {
        match self {
            Workload::Train => item < self.population().div_ceil(4),
            _ => item.is_multiple_of(4),
        }
    }

    /// The items of pass number `pass` in issue order.
    pub fn pass_order(self, seed: u64, pass: u64, quarter: bool) -> Vec<usize> {
        let mut items: Vec<usize> = (0..self.population())
            .filter(|&item| !quarter || self.in_quarter(item))
            .collect();
        // Epochs of one training call cannot be reordered.
        if self != Workload::Train {
            let order = stream_seed(seed, pass);
            for i in (1..items.len()).rev() {
                items.swap(i, (stream_seed(order, i as u64) % (i as u64 + 1)) as usize);
            }
        }
        items
    }
}

/// One operation's latency as its caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub ms: f64,
    /// Time to the first result; equals `ms` where results arrive at once.
    pub first_result_ms: f64,
}

impl Op {
    fn at_once(ms: f64) -> Op {
        Op {
            ms,
            first_result_ms: ms,
        }
    }
}

/// Run `f` as one operation whose results arrive at once, inside a span:
/// its result and its latency.
fn operation<R>(
    tracer: &Tracer,
    name: &'static str,
    root: u32,
    item: usize,
    f: impl FnOnce() -> R,
) -> (R, Op) {
    let started = Instant::now();
    let span = tracer.begin(name, root, item as u32);
    let result = f();
    tracer.end(span);
    (result, Op::at_once(started.elapsed().as_secs_f64() * 1e3))
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds the pass kept its load generator busy (of the two clients of a
    /// served workload, the mean).
    pub busy_s: f64,
    /// Generated characters (sampling, serving, training) or drive units.
    pub work: f64,
    /// Accepted kernels, completed candidates, ok units or epochs.
    pub results: f64,
    pub ops: Vec<Op>,
    /// `(item, FNV digest of its output bytes)`.
    pub outputs: Vec<(usize, u64)>,
    /// Operations that failed or produced an output that failed a check.
    pub failed: u64,
    /// Per-layer observations of this pass, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Work per second of the pass.
    pub fn work_rate(&self) -> f64 {
        self.work / self.busy_s
    }

    /// Digest of the outputs of the items `keep` selects, in item order: the
    /// order they were produced in must not matter.
    pub fn digest(&self, keep: impl Fn(usize) -> bool) -> u64 {
        let mut outputs: Vec<_> = self.outputs.iter().filter(|(i, _)| keep(*i)).collect();
        outputs.sort_unstable();
        let bytes: Vec<u8> = outputs
            .iter()
            .flat_map(|(i, d)| [(*i as u64).to_le_bytes(), d.to_le_bytes()].concat())
            .collect();
        fnv1a64(&bytes)
    }

    fn fail(&mut self, item: usize, why: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("ledger: check failed on item {item}: {why}");
    }
}

/// Run one pass of `workload` over `items`. `verify` adds the checks against
/// an independent reference that are too slow to repeat every pass.
pub fn run_pass(
    workload: Workload,
    fx: &Fixtures,
    items: &[usize],
    seed: u64,
    verify: bool,
    tracer: &Tracer,
) -> Pass {
    let root = tracer.begin("pass", crate::trace::NONE, 0);
    let pass = match workload {
        Workload::SynthOffline => synth_offline(fx, items, tracer, root),
        Workload::SampleWide => sample_wide(fx, items, seed, verify, tracer, root),
        Workload::ServeNarrow => served(fx, "/synthesize", 1, 64, items, tracer, root),
        Workload::ServeWide => served(fx, "/synthesize", 8, 512, items, tracer, root),
        Workload::Pipeline => served(fx, "/pipeline", 4, 256, items, tracer, root),
        Workload::DriveSuites => drive_suites(fx, items, tracer, root),
        Workload::Train => train(fx, items.len(), seed, tracer, root),
    };
    tracer.end(root);
    pass
}

// ---------------------------------------------------------------- synth-offline

/// The sampler session of one `synth-offline` item.
pub fn session_config(item: usize) -> SamplerConfig {
    SamplerConfig::new(stream_seed(POPULATION_SEED, item as u64))
        .with_spec(ArgumentSpec::paper_default())
        .with_sample(SAMPLE)
        .with_lanes(LANES)
        .with_max_attempts(SESSION_ATTEMPTS)
}

/// A simulated device time must be a positive finite number.
fn is_device_time(seconds: f64) -> bool {
    seconds.is_finite() && seconds > 0.0
}

/// Does `source` still compile, with the paper's minimum of 3 instructions?
fn recompiles(source: &str) -> bool {
    let compiled = cl_frontend::compile(source, &Default::default());
    compiled.is_ok() && compiled.max_kernel_instructions() >= 3
}

fn synth_offline(fx: &Fixtures, items: &[usize], tracer: &Tracer, root: u32) -> Pass {
    let mut pass = Pass::default();
    let mut reports: Vec<(usize, SynthesisReport)> = Vec::new();
    let started = Instant::now();
    for &item in items {
        let (report, op) = operation(tracer, "core.sampler.synthesize", root, item, || {
            fx.lstm64
                .sampler(session_config(item))
                .synthesize(usize::MAX)
        });
        pass.ops.push(op);
        reports.push((item, report));
    }
    pass.busy_s = started.elapsed().as_secs_f64();

    let (mut attempts, mut accepted, mut repaired, mut aborted, mut rejected) = (0, 0, 0, 0, 0);
    for (item, report) in &reports {
        let stats = &report.stats;
        let all_rejected: usize = stats.rejected.values().sum();
        if stats.attempts != SESSION_ATTEMPTS || stats.accepted + all_rejected != stats.attempts {
            pass.fail(*item, "accepted + rejected != attempts");
        }
        if report.kernels.len() != stats.accepted {
            pass.fail(*item, "kernel count differs from the accepted count");
        }
        if !report.kernels.iter().all(|k| recompiles(&k.source)) {
            pass.fail(*item, "an accepted kernel does not recompile");
        }
        let session_aborted = stats
            .rejected
            .get(&RejectReason::AbortedMidstream)
            .copied()
            .unwrap_or(0);
        attempts += stats.attempts;
        accepted += stats.accepted;
        repaired += stats.repaired;
        aborted += session_aborted;
        rejected += all_rejected - session_aborted;
        pass.work += stats.generated_chars as f64;
        let sources: Vec<&str> = report.kernels.iter().map(|k| k.source.as_str()).collect();
        pass.outputs
            .push((*item, fnv1a64(sources.join("\n").as_bytes())));
    }
    pass.results = accepted as f64;
    pass.layer = vec![
        ("core.attempts", attempts as f64),
        ("core.accepted", accepted as f64),
        ("core.repaired", repaired as f64),
        ("core.aborted_midstream", aborted as f64),
        ("core.rejected_compile", rejected as f64),
        ("core.accept_rate", accepted as f64 / attempts.max(1) as f64),
        ("core.chars_per_kernel", pass.work / accepted.max(1) as f64),
    ];
    pass
}

// ------------------------------------------------------------------ sample-wide

fn sample_wide(
    fx: &Fixtures,
    items: &[usize],
    seed: u64,
    verify: bool,
    tracer: &Tracer,
    root: u32,
) -> Pass {
    let options = SampleOptions {
        max_chars: WIDE_CHARS,
        temperature: SAMPLE.temperature,
    };
    let candidate_seed = |item: usize, lane: usize| stream_seed(seed, (item * LANES + lane) as u64);
    let mut pass = Pass::default();
    // Packing the weights for these streams is set-up, not sampling.
    let mut streams = LstmStreams::new(&fx.wide, LANES);
    let started = Instant::now();
    let mut batches = Vec::new();
    for &item in items {
        let seeds: Vec<u64> = (0..LANES).map(|lane| candidate_seed(item, lane)).collect();
        let (candidates, op) = operation(tracer, "core.sample_kernels_batched", root, item, || {
            sample_kernels_batched(
                &mut streams,
                &fx.wide_vocab,
                WIDE_SEED_TEXT,
                &options,
                &seeds,
            )
        });
        pass.ops.push(op);
        batches.push((item, candidates));
    }
    pass.busy_s = started.elapsed().as_secs_f64();

    for (item, candidates) in &batches {
        let full_budget = candidates
            .iter()
            .all(|c| c.stop == StopReason::MaxLength && c.generated_chars == WIDE_CHARS);
        if candidates.len() != LANES || !full_budget {
            pass.fail(*item, "a candidate stopped before its character budget");
        }
        pass.work += candidates.iter().map(|c| c.generated_chars).sum::<usize>() as f64;
        pass.results += candidates.len() as f64;
        let texts: Vec<&str> = candidates.iter().map(|c| c.text.as_str()).collect();
        pass.outputs
            .push((*item, fnv1a64(texts.join("\n").as_bytes())));
    }
    if verify {
        // Independent reference: the serial single-stream sampler must produce
        // the same bytes as lanes 0 and 1 of the batched engine.
        let mut serial = TrainedModel::from_lstm(fx.wide_vocab.clone(), fx.wide.clone())
            .expect("the wide model matches its vocabulary");
        for (item, candidates) in batches.iter().take(1) {
            for (lane, batched) in candidates.iter().enumerate().take(2) {
                let mut rng = StdRng::seed_from_u64(candidate_seed(*item, lane));
                if serial.sample_serial(WIDE_SEED_TEXT, &options, &mut rng) != *batched {
                    pass.fail(*item, "batched sampling differs from serial sampling");
                }
            }
        }
    }
    pass
}

// ------------------------------------------------- serve-narrow, serve-wide, pipeline

/// What one response body holds, once it passed its checks.
#[derive(Default)]
struct Served {
    kernels: u64,
    attempts: u64,
    chars: u64,
    runs: u64,
    unit_errors: u64,
    /// Server-side stage times from the done line's `trace` object, summed
    /// by stage name (a `/pipeline` request records `drive` once per kernel).
    stages: Vec<(String, f64)>,
    server_total_us: f64,
}

impl Served {
    fn stage(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, us)| us)
            .sum()
    }
}

fn inspect(reply: &Reply, count: usize) -> Result<Served, String> {
    let response = clgen_serve::client::Response {
        status: reply.status,
        headers: Vec::new(),
        body: reply.body.clone().into_bytes(),
    };
    if !response.is_complete_synthesis() {
        return Err(format!("status {} or no done line", reply.status));
    }
    let mut served = Served::default();
    for line in reply.body.lines() {
        if line.starts_with("{\"kernel\":") {
            served.kernels += 1;
        } else if line.starts_with("{\"event\":\"run\"") {
            let run = json::parse(line)?;
            let time = |key| run.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            if !(is_device_time(time("cpu_time")) && is_device_time(time("gpu_time"))) {
                return Err(format!("run line without positive finite times: {line}"));
            }
            served.runs += 1;
        } else if line.starts_with("{\"event\":\"unit_error\"") {
            served.unit_errors += 1;
        }
    }
    let done = json::parse(reply.body.lines().last().unwrap_or_default())?;
    let number = |key| done.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
    if served.kernels != count as u64 || number("kernels") != count as f64 {
        return Err(format!("{} kernels of {count} requested", served.kernels));
    }
    served.attempts = number("attempts") as u64;
    served.chars = number("generated_chars") as u64;
    let trace = done.get("trace").ok_or("done line without a trace")?;
    served.server_total_us = trace.get("total_us").and_then(Json::as_f64).unwrap_or(0.0);
    served.stages = trace
        .get("stages")
        .map_or(&[][..], Json::members)
        .iter()
        .filter_map(|(name, us)| Some((name.clone(), us.as_f64()?)))
        .collect();
    Ok(served)
}

/// An item and the reply to its request.
type Answered = (usize, std::io::Result<Reply>);

/// The server's `/metrics` text; empty when the pass is not traced.
fn scrape_metrics(fx: &Fixtures, tracer: &Tracer) -> String {
    if !tracer.enabled() {
        return String::new();
    }
    http::request(fx.server.addr(), "GET", "/metrics").map_or(String::new(), |reply| reply.body)
}

fn served(
    fx: &Fixtures,
    endpoint: &str,
    count: usize,
    max_attempts: usize,
    items: &[usize],
    tracer: &Tracer,
    root: u32,
) -> Pass {
    let addr = fx.server.addr();
    let pipeline = endpoint == "/pipeline";
    let target = |item: usize| {
        format!(
            "{endpoint}?count={count}&max_attempts={max_attempts}&max_chars={}&temperature={}&seed={}",
            SAMPLE.max_chars,
            SAMPLE.temperature,
            stream_seed(POPULATION_SEED, item as u64)
        )
    };
    let before = scrape_metrics(fx, tracer);

    // Closed loop: each client takes the next unsent item when its previous
    // request has been answered in full. Bodies are inspected after the pass,
    // so a client's think time is one string format.
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let clients: Vec<Vec<Answered>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(&item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let reply = http::request(addr, "POST", &target(item));
                        if let Ok(reply) = &reply {
                            let id = item as u32;
                            let span = tracer.record(
                                "client.request",
                                root,
                                id,
                                reply.started,
                                reply.finished,
                            );
                            let first = reply.first_kernel.unwrap_or(reply.finished);
                            tracer.record("client.first_result", span, id, reply.started, first);
                            tracer.record("client.stream", span, id, first, reply.finished);
                        }
                        mine.push((item, reply));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("a client thread panicked"))
            .collect()
    });
    // A client that finds no item left idles until the other's last reply.
    // Where in the order a 2 s request falls decides how long; the mean of the
    // clients' busy times does not depend on it.
    let busy: Vec<f64> = clients
        .iter()
        .map(|mine| {
            let last = mine.iter().rev().find_map(|(_, reply)| reply.as_ref().ok());
            last.map_or(0.0, |reply| (reply.finished - started).as_secs_f64())
        })
        .collect();
    let mut pass = Pass {
        busy_s: crate::stats::mean(&busy),
        ..Pass::default()
    };
    let after = scrape_metrics(fx, tracer);

    let mut all = Vec::new();
    let mut overhead_ms = Vec::new();
    for (item, reply) in clients.into_iter().flatten() {
        let inspected = reply
            .map_err(|e| e.to_string())
            .and_then(|reply| Ok((inspect(&reply, count)?, reply)));
        let (served, reply) = match inspected {
            Ok(ok) => ok,
            Err(why) => {
                pass.fail(item, why);
                continue;
            }
        };
        if pipeline && served.runs + served.unit_errors != 3 * served.kernels {
            pass.fail(item, "run + unit_error lines != kernels x 3 payload sizes");
        }
        pass.ops.push(Op {
            ms: reply.latency_ms(),
            first_result_ms: reply.first_result_ms(),
        });
        pass.work += served.chars as f64;
        pass.results += if pipeline {
            served.runs
        } else {
            served.kernels
        } as f64;
        let body = clgen_serve::client::strip_traces(&reply.body);
        pass.outputs.push((item, fnv1a64(body.as_bytes())));
        overhead_ms.push(reply.latency_ms() - served.server_total_us / 1e3);
        all.push(served);
    }

    let n = all.len().max(1) as f64;
    let stage_sum = |name: &str| all.iter().map(|s| s.stage(name)).sum::<f64>();
    let mean_stage = |name: &str| stage_sum(name) / n;
    let total = |f: fn(&Served) -> u64| all.iter().map(f).sum::<u64>() as f64;
    let units = (total(|s| s.runs) + total(|s| s.unit_errors)).max(1.0);
    let delta = |name: &str, label: &str| {
        http::scrape(&after, name, label) - http::scrape(&before, name, label)
    };
    let rounds = delta("clgen_lane_occupancy_count", "").max(1.0);
    let lane_steps = delta("clgen_lane_occupancy_sum", "");
    // Lane-steps that reached a response: its generated characters plus the
    // seed prefix of each of its attempts. The rest was spent on candidates
    // dropped when their request was satisfied.
    let answered = total(|s| s.chars) + SERVED_SEED_CHARS as f64 * total(|s| s.attempts);
    let admitted = "outcome=\"admitted\"";
    pass.layer = vec![
        ("serve.stage_queued_us", mean_stage("queued")),
        ("serve.stage_sampling_us", mean_stage("sampling")),
        ("serve.stage_filter_us", mean_stage("filter")),
        ("serve.stage_respond_us", mean_stage("respond")),
        ("serve.http_overhead_ms", crate::stats::mean(&overhead_ms)),
        ("serve.overdispatch_ratio", lane_steps / answered.max(1.0)),
        ("serve.lane_occupancy_mean", lane_steps / rounds),
        (
            "serve.queue_wait_us_mean",
            delta("clgen_queue_wait_us_sum", admitted)
                / delta("clgen_queue_wait_us_count", admitted).max(1.0),
        ),
        ("core.attempts", total(|s| s.attempts)),
        ("core.accepted", total(|s| s.kernels)),
    ];
    if pipeline {
        let per_unit = |name: &str| stage_sum(name) / units;
        pass.layer.extend([
            ("harness.drive_us", per_unit("drive")),
            ("harness.features_us", per_unit("features")),
            ("harness.predict_us", per_unit("predict")),
            ("cldrive.units_ok", total(|s| s.runs)),
            ("cldrive.unit_errors", total(|s| s.unit_errors)),
        ]);
    }
    pass
}

/// `pipeline.synth_share`: the latency of the same requests on `/synthesize`
/// as a share of their latency on `/pipeline` — what is left is driving.
pub fn synth_share(fx: &Fixtures, items: &[usize], tracer: &Tracer) -> f64 {
    let root = tracer.begin("pipeline.synth_share", crate::trace::NONE, 0);
    let latency = |endpoint| {
        let pass = served(fx, endpoint, 4, 256, items, tracer, root);
        pass.ops.iter().map(|op| op.ms).sum::<f64>()
    };
    let share = latency("/synthesize") / latency("/pipeline").max(f64::MIN_POSITIVE);
    tracer.end(root);
    share
}

// ----------------------------------------------------------------- drive-suites

fn drive_suites(fx: &Fixtures, items: &[usize], tracer: &Tracer, root: u32) -> Pass {
    let mut pass = Pass::default();
    let mut reports = Vec::new();
    let started = Instant::now();
    for &item in items {
        let (report, op) = operation(tracer, "harness.drive_source", root, item, || {
            fx.harness
                .drive_source(&fx.suites[item].source, &Deadline::none())
        });
        pass.ops.push(op);
        reports.push((item, report));
    }
    pass.busy_s = started.elapsed().as_secs_f64();

    let (mut drive_us, mut features_us, mut predict_us, mut slowest_us) = (0, 0, 0, 0);
    let (mut ok, mut errors) = (0u64, 0u64);
    for (item, report) in reports {
        let report = match report {
            Ok(report) => report,
            Err(why) => {
                pass.fail(item, why);
                continue;
            }
        };
        let counters = report.counters();
        let sane = report.units.iter().all(|u| match (&u.run, &u.error) {
            (Some(run), None) => is_device_time(run.cpu_time) && is_device_time(run.gpu_time),
            (None, Some(_)) => true,
            _ => false,
        });
        if !sane {
            pass.fail(
                item,
                "a unit has neither a positive finite run nor an error",
            );
        }
        ok += counters.units_ok;
        errors += counters.units_total - counters.units_ok;
        let (d, f, p) = report.stage_timing_us();
        drive_us += d;
        features_us += f;
        predict_us += p;
        slowest_us = slowest_us.max(report.units.iter().map(|u| u.run_us).max().unwrap_or(0));
        pass.outputs
            .push((item, fnv1a64(report.ndjson().join("\n").as_bytes())));
    }
    pass.work = (ok + errors) as f64;
    pass.results = ok as f64;
    let units = pass.work.max(1.0);
    pass.layer = vec![
        ("harness.drive_us", drive_us as f64 / units),
        ("harness.features_us", features_us as f64 / units),
        ("harness.predict_us", predict_us as f64 / units),
        ("cldrive.units_ok", ok as f64),
        ("cldrive.unit_errors", errors as f64),
        ("cldrive.slowest_unit_ms", slowest_us as f64 / 1e3),
    ];
    pass
}

/// `harness.pool_speedup`: eight suite sources drawn by `seed`, driven by the
/// pool and by the serial reference. Their NDJSON must be equal; the ratio of
/// the two wall times is how much the pool gains. Returns `None` when the
/// outputs differ.
pub fn pool_speedup(fx: &Fixtures, seed: u64) -> Option<f64> {
    let drawn = &Workload::DriveSuites.pass_order(seed, u64::MAX, false)[..8];
    let drive = |serial: bool| {
        let started = Instant::now();
        let lines: Vec<Vec<String>> = drawn
            .iter()
            .map(|&item| {
                let source = &fx.suites[item].source;
                let report = if serial {
                    fx.harness.drive_source_serial(source, &Deadline::none())
                } else {
                    fx.harness.drive_source(source, &Deadline::none())
                };
                report.map_or(Vec::new(), |r| r.ndjson())
            })
            .collect();
        (started.elapsed().as_secs_f64(), lines)
    };
    let (pool_s, pool_lines) = drive(false);
    let (serial_s, serial_lines) = drive(true);
    (pool_lines == serial_lines).then(|| serial_s / pool_s)
}

// ------------------------------------------------------------------------ train

fn train(fx: &Fixtures, epochs: usize, seed: u64, tracer: &Tracer, root: u32) -> Pass {
    let mut pass = Pass::default();
    let mut reports = Vec::new();
    let started = Instant::now();
    let span = tracer.begin("neural.train", root, 0);
    let mut epoch_started = Instant::now();
    let trained = fx.corpus.train_backend_with_progress(
        &fixtures::lstm64_backend(epochs),
        seed,
        Some(&mut |report| {
            let now = Instant::now();
            tracer.record(
                "neural.train.epoch",
                span,
                report.epoch as u32,
                epoch_started,
                now,
            );
            epoch_started = now;
            reports.push(*report);
        }),
    );
    tracer.end(span);
    pass.busy_s = started.elapsed().as_secs_f64();

    if let Err(why) = trained {
        pass.fail(0, why);
    }
    for report in &reports {
        pass.ops.push(Op::at_once(report.seconds * 1e3));
        pass.work += report.characters as f64;
        pass.outputs.push((
            report.epoch,
            fnv1a64(&report.loss_per_char.to_bits().to_le_bytes()),
        ));
    }
    pass.results = reports.len() as f64;
    let loss =
        |r: Option<&clgen_neural::EpochReport>| r.map_or(f64::NAN, |r| r.loss_per_char.into());
    let (first, last) = (loss(reports.first()), loss(reports.last()));
    if reports.len() != epochs || !first.is_finite() || !last.is_finite() {
        pass.fail(0, "training did not report a finite loss for every epoch");
    }
    if epochs > 1 && last >= first {
        pass.fail(0, "the loss did not fall");
    }
    let seconds: Vec<f64> = reports.iter().map(|r| r.seconds).collect();
    pass.layer = vec![
        ("neural.train_epoch_s", crate::stats::median(&seconds)),
        ("neural.train_loss_first", first),
        ("neural.train_loss_last", last),
    ];
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation_of_a_fixed_population() {
        for workload in Workload::ALL {
            let a = workload.pass_order(1, 0, false);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..workload.population()).collect::<Vec<_>>());
            assert_eq!(a, workload.pass_order(1, 0, false));
            let quarter = workload.pass_order(1, 0, true);
            assert!(quarter.iter().all(|&item| workload.in_quarter(item)));
            assert_eq!(quarter.len(), workload.population().div_ceil(4));
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        let narrow = Workload::ServeNarrow;
        assert_ne!(
            narrow.pass_order(1, 0, false),
            narrow.pass_order(2, 0, false)
        );
        assert_ne!(
            narrow.pass_order(1, 0, false),
            narrow.pass_order(1, 1, false)
        );
        assert_eq!(Workload::Train.pass_order(9, 3, true), vec![0, 1, 2]);
    }

    #[test]
    fn the_pass_digest_ignores_completion_order() {
        let pass = |outputs| Pass {
            outputs,
            ..Pass::default()
        };
        let a = pass(vec![(0, 10), (4, 11), (5, 12)]);
        let b = pass(vec![(5, 12), (0, 10), (4, 11)]);
        assert_eq!(a.digest(|_| true), b.digest(|_| true));
        assert_eq!(
            a.digest(|i| i.is_multiple_of(4)),
            pass(vec![(4, 11), (0, 10)]).digest(|_| true)
        );
        assert_ne!(
            a.digest(|_| true),
            pass(vec![(0, 10), (4, 11), (5, 13)]).digest(|_| true)
        );
    }
}
