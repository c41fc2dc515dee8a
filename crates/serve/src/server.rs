//! The HTTP front-end: accept loop, request routing, backpressure, deadlines
//! and bounded graceful shutdown over the supervised batching scheduler.

use crate::faults::{FaultPlan, FaultPoint};
use crate::harness_api::{self, DriveStage};
use crate::http::{self, HttpError, Request};
use crate::metrics::ServeMetrics;
use crate::scheduler::{
    run_sampler_core, CoreContext, Job, QueueSlot, ResponseEvent, SchedMsg, ServeError,
    ServiceHealth, Supervisor, SynthesisParams,
};
use crate::{json, DEFAULT_MAX_ATTEMPTS_PER_KERNEL};
use clgen::spec::FREE_SEED;
use clgen::TrainedModel;
use clgen_harness::{Deadline, Harness, HarnessConfig};
use clgen_obs::{FlightRecorder, Registry, Trace};
use predictive::MappingModel;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Largest accepted `deadline_ms` (24 hours): anything longer is a typo.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Largest accepted `count` of a `/synthesize` or `/pipeline` request.
const MAX_COUNT: usize = 1024;

/// Largest accepted `max_chars`.
const MAX_CHARS: usize = 64 * 1024;

/// Largest accepted `max_attempts` (and the cap on its default).
const MAX_ATTEMPTS: usize = 1 << 20;

/// Events retained by the flight recorder (enough context to cover the
/// rounds leading up to a crash without unbounded growth).
const FLIGHT_CAPACITY: usize = 256;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Sample-stream lanes of the shared continuously-batched run.
    pub lanes: usize,
    /// Maximum requests holding a place in the admission queue: synthesis
    /// jobs waiting for the sampler core, and `/drive` / `/features`
    /// requests until they are answered. Beyond it, every POST endpoint
    /// answers `503 Service Unavailable` (backpressure).
    pub queue_cap: usize,
    /// Socket read timeout per connection (`None` disables): bounds how long
    /// a stalled client can pin a connection thread while sending its
    /// request.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout per connection (`None` disables): bounds how
    /// long a reader that stops draining its socket can pin a connection
    /// thread mid-response.
    pub write_timeout: Option<Duration>,
    /// Graceful-shutdown drain bound: after `POST /shutdown` (or a restart-
    /// budget failure), in-flight and queued requests get this long to
    /// finish before they are answered `503 server stopping` and the
    /// process exits anyway. `None` drains without bound.
    pub drain_timeout: Option<Duration>,
    /// Default per-request deadline applied when a request carries no
    /// `deadline_ms` parameter (`None` = no default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Sampler-core restarts tolerated within [`restart_window`] before the
    /// supervisor gives up and shuts the server down
    /// ([`ServiceHealth::Failed`]).
    ///
    /// [`restart_window`]: ServerConfig::restart_window
    pub restart_budget: u32,
    /// Sliding window for [`restart_budget`] accounting; also how long
    /// `/healthz` reports `degraded` after a recovered restart.
    ///
    /// [`restart_budget`]: ServerConfig::restart_budget
    pub restart_window: Duration,
    /// Deterministic fault-injection plan (`--faults`; inert by default).
    pub faults: FaultPlan,
    /// Default drive-and-predict harness configuration used by `/drive`,
    /// `/features` and `/pipeline` (per-request `sizes`, `drive_seed` and
    /// `feature_set` parameters override it).
    pub harness: HarnessConfig,
    /// Trained CPU/GPU mapping model served by the harness endpoints
    /// (`--mapping-model`); `None` streams runs and features but no
    /// `prediction` events.
    pub mapping_model: Option<Arc<MappingModel>>,
    /// Metric registry `GET /metrics` renders. The binary wires the
    /// process-global [`clgen_obs::global`] registry in (so training and
    /// harness work surfaces on the same endpoint); `None` gives the server
    /// a private registry, keeping embedded/test servers hermetic.
    pub metrics: Option<Arc<Registry>>,
    /// Serve the flight recorder at `GET /debug/flight` (`--debug-flight`).
    /// Off by default: the ring is always recording and dumps to stderr on
    /// supervisor failures either way; this only gates the live endpoint.
    pub debug_flight: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8090".to_string(),
            lanes: 8,
            queue_cap: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            drain_timeout: Some(Duration::from_secs(5)),
            default_deadline_ms: None,
            restart_budget: 3,
            restart_window: Duration::from_secs(60),
            faults: FaultPlan::inert(),
            harness: HarnessConfig::default(),
            mapping_model: None,
            metrics: None,
            debug_flight: false,
        }
    }
}

/// State shared between the accept loop and every connection handler.
pub(crate) struct Shared {
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) flight: Arc<FlightRecorder>,
    pub(crate) queued: Arc<AtomicUsize>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) supervisor: Arc<Supervisor>,
    pub(crate) started: Instant,
    pub(crate) addr: SocketAddr,
    pub(crate) backend_kind: &'static str,
    pub(crate) config: ServerConfig,
}

/// The synthesis service: a model loaded once, served by one supervised
/// batching sampler core behind a thread-per-connection HTTP/1.1 front-end.
pub struct Server;

impl Server {
    /// Bind, spawn the sampler core and the accept loop, and return a handle
    /// to the running server.
    pub fn start(model: TrainedModel, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let backend_kind = model.backend_kind();
        // The pristine checkpoint image the supervisor respawns the sampler
        // core from (`to_bytes`/`from_bytes` roundtrips are bit-exact, so a
        // respawned core reproduces the same responses).
        let checkpoint = Arc::new(model.to_bytes());

        let (sched_tx, sched_rx) = mpsc::channel::<SchedMsg>();
        let registry = config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = Arc::new(ServeMetrics::new(registry));
        let flight = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY));
        let shutdown = Arc::new(AtomicBool::new(false));
        let supervisor = Arc::new(Supervisor::new(
            config.restart_budget,
            config.restart_window,
        ));
        let shared = Arc::new(Shared {
            metrics: metrics.clone(),
            flight: flight.clone(),
            queued: Arc::new(AtomicUsize::new(0)),
            shutdown: shutdown.clone(),
            supervisor: supervisor.clone(),
            started: Instant::now(),
            addr,
            backend_kind,
            config: config.clone(),
        });

        let ctx = CoreContext {
            lanes: config.lanes,
            seed_text: FREE_SEED.to_string(),
            checkpoint,
            metrics,
            flight,
            supervisor: supervisor.clone(),
            faults: config.faults.clone(),
            shutdown: shutdown.clone(),
            addr,
        };
        let core_tx = sched_tx.clone();
        let sampler_core = thread::Builder::new()
            .name("clgen-serve-sampler".to_string())
            .spawn(move || run_sampler_core(model, ctx, sched_rx, core_tx))?;

        let accept_shutdown = shutdown.clone();
        let drain_timeout = config.drain_timeout;
        let accept_thread = thread::Builder::new()
            .name("clgen-serve-accept".to_string())
            .spawn(move || {
                let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let tx = sched_tx.clone();
                    let shared = shared.clone();
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(thread::spawn(move || handle_connection(stream, tx, shared)));
                }
                // Graceful shutdown with a bounded drain: tell the core to
                // drain *now*, with a deadline — in-flight connections then
                // finish normally (the core answers their requests), or get
                // `503 server stopping` when the drain deadline hits, so a
                // wedged request cannot keep the process alive forever.
                let drain_deadline = drain_timeout.map(|t| Instant::now() + t);
                let _ = sched_tx.send(SchedMsg::Shutdown { drain_deadline });
                for handler in handlers {
                    let _ = handler.join();
                }
                drop(sched_tx);
                let _ = sampler_core.join();
            })?;

        Ok(ServerHandle {
            addr,
            shutdown,
            supervisor,
            accept_thread: Some(accept_thread),
        })
    }
}

/// Handle to a running [`Server`].
///
/// Dropping the handle shuts the server down gracefully (as does
/// [`shutdown`](ServerHandle::shutdown)); [`join`](ServerHandle::join)
/// instead blocks until something else stops it — a `POST /shutdown` from a
/// client, or the supervisor exhausting its restart budget. Both return the
/// final [`ServiceHealth`], so callers can exit nonzero on
/// [`ServiceHealth::Failed`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    supervisor: Arc<Supervisor>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current service health (the supervisor's view; what `/healthz`
    /// reports).
    pub fn health(&self) -> ServiceHealth {
        self.supervisor.health()
    }

    /// Gracefully stop the server: stop accepting connections, drain
    /// in-flight requests (bounded by the configured drain timeout), join
    /// all threads. Returns the final service health.
    pub fn shutdown(mut self) -> ServiceHealth {
        self.trigger();
        self.join_inner();
        self.supervisor.health()
    }

    /// Block until the server stops (a client sent `POST /shutdown`, or the
    /// supervisor gave up after exhausting its restart budget). Returns the
    /// final service health.
    pub fn join(mut self) -> ServiceHealth {
        self.join_inner();
        self.supervisor.health()
    }

    fn trigger(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept call.
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn join_inner(&mut self) {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.trigger();
            self.join_inner();
        }
    }
}

/// Parse and bounds-check the synthesis parameters of `/synthesize` and
/// `/pipeline`, all but `deadline_ms` (`parse_deadline_ms`).
fn parse_params(request: &Request) -> Result<SynthesisParams, String> {
    fn parse<T: std::str::FromStr>(request: &Request, name: &str, default: T) -> Result<T, String> {
        match request.query_param(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("parameter {name:?} is not valid: {raw:?}")),
        }
    }

    let count: usize = parse(request, "count", 1)?;
    if count == 0 || count > MAX_COUNT {
        return Err(format!("count must be in 1..={MAX_COUNT}"));
    }
    let max_chars: usize = parse(request, "max_chars", 2048)?;
    if max_chars == 0 || max_chars > MAX_CHARS {
        return Err(format!("max_chars must be in 1..={MAX_CHARS}"));
    }
    let temperature: f32 = parse(request, "temperature", 0.9)?;
    if !temperature.is_finite() || !(0.01..=100.0).contains(&temperature) {
        return Err("temperature must be a finite number in 0.01..=100".to_string());
    }
    let seed: u64 = parse(request, "seed", 0)?;
    let default_attempts = count
        .saturating_mul(DEFAULT_MAX_ATTEMPTS_PER_KERNEL)
        .min(MAX_ATTEMPTS);
    let max_attempts: usize = parse(request, "max_attempts", default_attempts)?;
    if max_attempts == 0 || max_attempts > MAX_ATTEMPTS {
        return Err(format!("max_attempts must be in 1..={MAX_ATTEMPTS}"));
    }
    Ok(SynthesisParams {
        count,
        temperature,
        max_chars,
        seed,
        max_attempts,
        deadline_ms: None,
    })
}

/// Parse and bounds-check a request's `deadline_ms`, the one parameter every
/// POST endpoint takes.
fn parse_deadline_ms(request: &Request) -> Result<Option<u64>, String> {
    let Some(raw) = request.query_param("deadline_ms") else {
        return Ok(None);
    };
    let ms: u64 = raw
        .parse()
        .map_err(|_| format!("parameter \"deadline_ms\" is not valid: {raw:?}"))?;
    if ms == 0 || ms > MAX_DEADLINE_MS {
        return Err(format!("deadline_ms must be in 1..={MAX_DEADLINE_MS}"));
    }
    Ok(Some(ms))
}

fn write_json(mut stream: &TcpStream, status: u16, reason: &str, body: &str) {
    let _ = http::write_response(
        &mut stream,
        status,
        reason,
        "application/json",
        body.as_bytes(),
    );
}

pub(crate) fn write_error(stream: &TcpStream, status: u16, reason: &str, message: &str) {
    let body = format!("{{\"error\":{}}}\n", json::escaped(message));
    write_json(stream, status, reason, &body);
}

/// Render a [`ServeError`] as a plain HTTP error response (response head not
/// yet written).
fn write_serve_error(mut stream: &TcpStream, err: &ServeError) {
    let reason = match err.status {
        500 => "Internal Server Error",
        _ => "Service Unavailable",
    };
    let body = format!("{{\"error\":{}}}\n", json::escaped(&err.message));
    match err.retry_after {
        Some(secs) => {
            let retry = secs.to_string();
            let _ = http::write_response_with(
                &mut stream,
                err.status,
                reason,
                &[("Retry-After", retry.as_str())],
                "application/json",
                body.as_bytes(),
            );
        }
        None => write_json(stream, err.status, reason, &body),
    }
}

fn handle_connection(mut stream: TcpStream, tx: mpsc::Sender<SchedMsg>, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    let _ = stream.set_nodelay(true);
    let request = match http::read_request(&mut BufReader::new(&stream)) {
        Ok(request) => request,
        Err(HttpError::Io(_)) | Err(HttpError::UnexpectedEof) => return,
        Err(e) => {
            write_error(&stream, 400, "Bad Request", &e.to_string());
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let health = shared.supervisor.health();
            let (status, reason) = match health {
                ServiceHealth::Failed => (503, "Service Unavailable"),
                _ => (200, "OK"),
            };
            let body = format!(
                "{{\"status\":{},\"backend\":{},\"lanes\":{},\"restarts\":{},\"recent_restarts\":{}}}\n",
                json::escaped(health.as_str()),
                json::escaped(shared.backend_kind),
                shared.config.lanes,
                shared.supervisor.restarts(),
                shared.supervisor.recent_restarts(),
            );
            write_json(&stream, status, reason, &body);
        }
        ("GET", "/stats") => {
            let body = render_stats(&shared);
            write_json(&stream, 200, "OK", &body);
        }
        ("GET", "/metrics") => {
            shared
                .metrics
                .queue_depth
                .set(shared.queued.load(Ordering::SeqCst) as f64);
            let body = shared.metrics.registry.render_prometheus();
            let _ = http::write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                body.as_bytes(),
            );
        }
        ("GET", "/debug/flight") => {
            if shared.config.debug_flight {
                let body = shared.flight.dump("debug_endpoint");
                let _ = http::write_response(
                    &mut stream,
                    200,
                    "OK",
                    "application/x-ndjson",
                    body.as_bytes(),
                );
            } else {
                write_error(
                    &stream,
                    404,
                    "Not Found",
                    "flight endpoint disabled (start with --debug-flight)",
                );
            }
        }
        ("POST", "/synthesize") => post("synthesize", &request, &stream, tx, &shared),
        ("POST", "/drive") => post("drive", &request, &stream, tx, &shared),
        ("POST", "/features") => post("features", &request, &stream, tx, &shared),
        ("POST", "/pipeline") => post("pipeline", &request, &stream, tx, &shared),
        ("POST", "/shutdown") => {
            write_json(&stream, 200, "OK", "{\"shutting_down\":true}\n");
            drop(stream);
            if !shared.shutdown.swap(true, Ordering::SeqCst) {
                // Wake the blocking accept call so the graceful-shutdown
                // sequence starts.
                let _ = TcpStream::connect(shared.addr);
            }
        }
        (_, "/healthz" | "/stats" | "/metrics" | "/debug/flight") => {
            write_error(&stream, 405, "Method Not Allowed", "use GET");
        }
        (_, "/synthesize" | "/shutdown" | "/drive" | "/features" | "/pipeline") => {
            write_error(&stream, 405, "Method Not Allowed", "use POST");
        }
        _ => write_error(&stream, 404, "Not Found", "unknown path"),
    }
}

/// How a POST request ended: its outcome label and, if the response head
/// went out, the chunked body still to terminate.
pub(crate) type Ended<'s> = (&'static str, Option<http::ChunkedWriter<&'s TcpStream>>);

/// The one latency sample of a POST request. It owns the endpoint, the
/// arrival time and the outcome, and records one `clgen_request_latency_us`
/// sample when dropped — under `error` if the request never reached an end
/// (its handler panicked).
struct Latency<'a> {
    metrics: &'a ServeMetrics,
    endpoint: &'static str,
    received_at: Instant,
    outcome: &'static str,
}

impl Drop for Latency<'_> {
    fn drop(&mut self) {
        let us = self.received_at.elapsed().as_micros() as u64;
        self.metrics
            .observe_latency(self.endpoint, self.outcome, us);
    }
}

/// The request lifecycle all four POST endpoints share: parse (`400`), the
/// queue gate (`503`), the work, then the latency sample and only after it
/// the terminating chunk — so a client that has read the whole response
/// finds the sample on its next `/metrics` scrape.
fn post(
    endpoint: &'static str,
    request: &Request,
    stream: &TcpStream,
    tx: mpsc::Sender<SchedMsg>,
    shared: &Shared,
) {
    let mut latency = Latency {
        metrics: &shared.metrics,
        endpoint,
        received_at: Instant::now(),
        outcome: "error",
    };
    let (outcome, body) = serve_post(endpoint, request, stream, tx, shared);
    latency.outcome = outcome;
    drop(latency);
    if let Some(chunks) = body {
        let _ = chunks.finish();
    }
}

/// A POST request whose parameters are valid: the work the gate admits.
enum Work {
    /// `/synthesize`, or `/pipeline` with the harness each accepted kernel
    /// is driven through.
    Synthesize(SynthesisParams, Option<Harness>),
    /// `/drive` or `/features`: the stage to stream, the harness and the
    /// POSTed source.
    Drive(DriveStage, Harness, String),
}

/// Parse and bounds-check a POST request. Each endpoint checks its
/// parameters in a fixed order (the first failure is the `400` message),
/// and `deadline_ms` is parsed exactly once.
fn parse_work(
    endpoint: &str,
    request: &Request,
    shared: &Shared,
) -> Result<(Work, Option<u64>), String> {
    if endpoint == "synthesize" {
        let params = parse_params(request)?;
        let deadline_ms = parse_deadline_ms(request)?;
        let params = SynthesisParams {
            deadline_ms,
            ..params
        };
        return Ok((Work::Synthesize(params, None), deadline_ms));
    }
    let harness = harness_api::parse_harness(request, shared)?;
    let deadline_ms = parse_deadline_ms(request)?;
    let work = if endpoint == "pipeline" {
        let params = SynthesisParams {
            deadline_ms,
            ..parse_params(request)?
        };
        Work::Synthesize(params, Some(harness))
    } else {
        let source = match std::str::from_utf8(&request.body) {
            Ok(s) if !s.trim().is_empty() => s.to_string(),
            _ => return Err("request body must be non-empty UTF-8 OpenCL source".to_string()),
        };
        let stage = match endpoint {
            "drive" => DriveStage::Runs,
            _ => DriveStage::Features,
        };
        Work::Drive(stage, harness, source)
    };
    Ok((work, deadline_ms))
}

/// The admission queue's one gate: a slot, or `503 queue full` with
/// `Retry-After: 1` when `queue_cap` requests already wait or the server is
/// stopping. Every admission counts in `clgen_requests_received_total`,
/// every refusal in `clgen_requests_rejected_total`.
fn admit(mut stream: &TcpStream, shared: &Shared) -> Option<QueueSlot> {
    let depth = shared.queued.fetch_add(1, Ordering::SeqCst);
    let slot = QueueSlot(shared.queued.clone());
    if depth >= shared.config.queue_cap || shared.shutdown.load(Ordering::SeqCst) {
        drop(slot);
        shared.metrics.requests_rejected.inc();
        let _ = http::write_response_with(
            &mut stream,
            503,
            "Service Unavailable",
            &[("Retry-After", "1")],
            "application/json",
            format!("{{\"error\":\"queue full\",\"queue_depth\":{depth}}}\n").as_bytes(),
        );
        return None;
    }
    shared.metrics.requests_received.inc();
    Some(slot)
}

/// Parse, admit and run one POST request.
fn serve_post<'s>(
    endpoint: &'static str,
    request: &Request,
    stream: &'s TcpStream,
    tx: mpsc::Sender<SchedMsg>,
    shared: &Shared,
) -> Ended<'s> {
    let (work, deadline_ms) = match parse_work(endpoint, request, shared) {
        Ok(parsed) => parsed,
        Err(message) => {
            write_error(stream, 400, "Bad Request", &message);
            return ("bad_request", None);
        }
    };
    let Some(slot) = admit(stream, shared) else {
        return ("rejected", None);
    };
    // The deadline clock starts at admission: queueing time counts against
    // it (that is what lets the scheduler shed jobs that expired while
    // queued).
    let deadline = deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let trace_id = request.header("trace-id");
    match work {
        Work::Synthesize(params, harness) => {
            let (reply, reply_rx) = mpsc::channel();
            let job = Job {
                trace: Arc::new(Trace::from_client(trace_id, params.seed)),
                params,
                deadline,
                enqueued_at: Instant::now(),
                reply,
                cancelled: Arc::default(),
                slot,
            };
            stream_synthesis(stream, tx, shared, job, reply_rx, harness)
        }
        Work::Drive(stage, harness, source) => {
            // The slot is held until the drive has been answered.
            let _slot = slot;
            let trace = Trace::from_client(trace_id, harness.config().driver.seed);
            let deadline = deadline.map_or_else(Deadline::none, Deadline::at);
            harness_api::stream_drive(stream, stage, &harness, &source, &trace, &deadline)
        }
    }
}

/// Run one admitted synthesis job through the batching scheduler and stream
/// its NDJSON response. With a harness attached (`/pipeline`), each accepted
/// kernel line is followed inline by that kernel's harness events — the
/// drive runs on this connection thread, so a hostile synthesized kernel is
/// contained by the harness budgets and never touches the sampler core.
fn stream_synthesis<'s>(
    stream: &'s TcpStream,
    tx: mpsc::Sender<SchedMsg>,
    shared: &Shared,
    job: Job,
    reply_rx: mpsc::Receiver<ResponseEvent>,
    harness: Option<Harness>,
) -> Ended<'s> {
    let (trace, cancelled) = (job.trace.clone(), job.cancelled.clone());
    let harness_deadline = job.deadline.map_or_else(Deadline::none, Deadline::at);
    if tx.send(SchedMsg::Job(job)).is_err() {
        // The sampler core is gone (the unsent job released its slot).
        write_error(stream, 503, "Service Unavailable", "server stopping");
        return ("error", None);
    }
    // The client went away: tell the scheduler to stop sampling for it.
    let hang_up = || {
        cancelled.store(true, Ordering::Relaxed);
        ("disconnect", None)
    };
    // One wait loop around the response head: until it is written, a
    // failure (queue shed, panic quarantine, shutdown) is still a typed HTTP
    // error instead of a truncated 200; after it, a terminal NDJSON line.
    let mut head: Option<http::ChunkedWriter<&TcpStream>> = None;
    let mut respond_started = Instant::now();
    loop {
        let event = match reply_rx.recv_timeout(Duration::from_millis(500)) {
            Ok(event) => event,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Nothing arrived recently, so a vanished client would go
                // unnoticed by failing writes alone — probe the socket for
                // EOF so the sampler core stops spending lanes on it.
                if client_disconnected(stream) {
                    return hang_up();
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The sampler core went away without completing the request.
                if head.is_none() {
                    write_error(stream, 503, "Service Unavailable", "server stopping");
                }
                return ("error", head);
            }
        };
        let chunks = match &mut head {
            Some(chunks) => chunks,
            None => {
                if let ResponseEvent::Error(err) = &event {
                    write_serve_error(stream, err);
                    return (err.outcome, None);
                }
                // The `respond` span covers everything from the response
                // head to the final chunk: streaming writes plus the tail of
                // sampling they overlap.
                respond_started = Instant::now();
                let Ok(chunks) =
                    http::ChunkedWriter::new(stream, 200, "OK", "application/x-ndjson")
                else {
                    return hang_up();
                };
                head.insert(chunks)
            }
        };
        match event {
            ResponseEvent::Kernel(line) => {
                if shared
                    .config
                    .faults
                    .fire(FaultPoint::DropResponse)
                    .is_some()
                {
                    // Injected mid-body disconnect: abandon the socket with
                    // the chunked body unterminated; the client sees a
                    // truncated response. The request itself keeps running
                    // and is absorbed silently once sends start failing.
                    shared.flight.record("fault", "drop_response".to_string());
                    return ("disconnect", None);
                }
                shared.config.faults.stall(FaultPoint::SlowWrite);
                if chunks.chunk(format!("{line}\n").as_bytes()).is_err() {
                    return hang_up();
                }
                let Some(harness) = &harness else { continue };
                for hl in harness_api::pipeline_lines(harness, &line, &harness_deadline, &trace) {
                    if chunks.chunk(format!("{hl}\n").as_bytes()).is_err() {
                        return hang_up();
                    }
                }
            }
            ResponseEvent::Done(line) => {
                shared.config.faults.stall(FaultPoint::SlowWrite);
                trace.record_since("respond", respond_started);
                // The trace object is additive: strip it (`json::strip_trace`)
                // to recover the deterministic done-line bytes.
                let line = json::splice_field(&line, &format!("\"trace\":{}", trace.render_json()));
                let _ = chunks.chunk(format!("{line}\n").as_bytes());
                return ("ok", head);
            }
            ResponseEvent::Error(err) => {
                // The head is already written: the failure becomes a
                // terminal NDJSON line with an `aborted` marker, so clients
                // can distinguish it from a clean summary.
                let line = format!(
                    "{{\"aborted\":{},\"status\":{}}}\n",
                    json::escaped(&err.message),
                    err.status
                );
                let _ = chunks.chunk(line.as_bytes());
                return (err.outcome, head);
            }
        }
    }
}

/// True if the client's socket is gone: clean EOF (orderly close) or a hard
/// connection error (a client that closed with our response head unread
/// resets the connection, so reads yield `ECONNRESET`, not EOF). The request
/// is fully read and clients do not pipeline (`Connection: close`), so
/// `WouldBlock` is the only state that counts as alive.
pub(crate) fn client_disconnected(stream: &TcpStream) -> bool {
    use std::io::Read;
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let disconnected = match (&mut (&*stream)).read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != io::ErrorKind::WouldBlock,
    };
    let _ = stream.set_nonblocking(false);
    disconnected
}

fn render_stats(shared: &Shared) -> String {
    let queue_depth = shared.queued.load(Ordering::SeqCst);
    let metrics = &shared.metrics;
    metrics.queue_depth.set(queue_depth as f64);
    let elapsed = shared.started.elapsed().as_secs_f64().max(1e-9);
    let kernels = metrics.kernels.get();
    let attempts = metrics.attempts.get();
    let generated_chars = metrics.generated_chars.get();
    // Lane utilisation over the server's life, not the instantaneous
    // `lanes_busy`: the occupancy histogram observes the occupied lanes once
    // per sampling round, so its sum is lane-steps and its count is rounds.
    let lane_steps = metrics.lane_occupancy.sum();
    let rounds = metrics.lane_occupancy.count();
    // `/stats` and `/metrics` render from the same atomics (see
    // `ServeMetrics`): they are two views of one state and cannot disagree.
    let mut rejected_json = String::from("{");
    for (i, (reason, count)) in metrics.rejection_counts().iter().enumerate() {
        if i > 0 {
            rejected_json.push(',');
        }
        json::escape_into(&mut rejected_json, reason);
        rejected_json.push(':');
        rejected_json.push_str(&count.to_string());
    }
    rejected_json.push('}');
    let mut candidates_json = String::from("{");
    for (i, (outcome, count)) in metrics.candidate_counts().iter().enumerate() {
        if i > 0 {
            candidates_json.push(',');
        }
        json::escape_into(&mut candidates_json, outcome);
        candidates_json.push(':');
        candidates_json.push_str(&count.to_string());
    }
    candidates_json.push('}');
    format!(
        concat!(
            "{{\"backend\":{backend},\"uptime_seconds\":{uptime:.3},",
            "\"health\":{{\"status\":{health},\"restarts\":{restarts},\"recent_restarts\":{recent}}},",
            "\"lanes\":{lanes},\"lanes_busy\":{lanes_busy},",
            "\"lane_utilisation\":{{\"occupied_lane_steps\":{lane_steps},\"rounds\":{rounds},",
            "\"ratio\":{utilisation:.4}}},",
            "\"queue_depth\":{queue_depth},\"queue_cap\":{queue_cap},",
            "\"active_requests\":{active},",
            "\"requests\":{{\"received\":{received},\"completed\":{completed},\"rejected_503\":{rejected},",
            "\"shed\":{shed},\"timed_out\":{timed_out},\"failed\":{failed}}},",
            "\"sampling\":{{\"kernels\":{kernels},\"attempts\":{attempts},",
            "\"generated_chars\":{chars},\"acceptance_rate\":{rate:.4},",
            "\"chars_per_sec\":{cps:.0}}},",
            "\"candidates\":{candidates},",
            "\"harness\":{harness},",
            "\"rejections\":{rejections}}}\n"
        ),
        backend = json::escaped(shared.backend_kind),
        uptime = elapsed,
        health = json::escaped(shared.supervisor.health().as_str()),
        restarts = shared.supervisor.restarts(),
        recent = shared.supervisor.recent_restarts(),
        lanes = shared.config.lanes,
        lanes_busy = metrics.lanes_busy.get() as u64,
        lane_steps = lane_steps,
        rounds = rounds,
        utilisation = lane_steps as f64 / (rounds * shared.config.lanes as u64).max(1) as f64,
        queue_depth = queue_depth,
        queue_cap = shared.config.queue_cap,
        active = metrics.active_requests.get() as u64,
        received = metrics.requests_received.get(),
        completed = metrics.requests_completed.get(),
        rejected = metrics.requests_rejected.get(),
        shed = metrics.requests_shed.get(),
        timed_out = metrics.requests_timed_out.get(),
        failed = metrics.requests_failed.get(),
        kernels = kernels,
        attempts = attempts,
        chars = generated_chars,
        rate = if attempts == 0 {
            0.0
        } else {
            kernels as f64 / attempts as f64
        },
        cps = generated_chars as f64 / elapsed,
        candidates = candidates_json,
        harness = harness_api::render_harness_stats(shared),
        rejections = rejected_json,
    )
}
